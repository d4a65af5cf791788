#include "net/messages.h"

namespace dpsync::net {

StatusOr<MsgKind> PeekKind(const Bytes& payload) {
  if (payload.empty()) {
    return Status::InvalidArgument("empty frame payload");
  }
  const auto kind = static_cast<MsgKind>(payload[0]);
  switch (kind) {
    case MsgKind::kCreateTable:
    case MsgKind::kExecute:
    case MsgKind::kIngest:
    case MsgKind::kReplicate:
    case MsgKind::kReplicaState:
    case MsgKind::kPromote:
    case MsgKind::kStatusReply:
    case MsgKind::kPartialReply:
    case MsgKind::kReplicaStateReply:
      return kind;
  }
  return Status::InvalidArgument("unknown message kind tag");
}

}  // namespace dpsync::net
