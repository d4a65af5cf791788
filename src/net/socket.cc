#include "net/socket.h"

#include "net/wire.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

namespace dpsync::net {

StatusOr<FdPair> SocketPair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return Status::Internal(std::string("socketpair failed: ") +
                            ::strerror(errno));
  }
  FdPair pair;
  pair.a = fds[0];
  pair.b = fds[1];
  return pair;
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

namespace {

/// Encodes `payload` into full frame bytes (length + CRC + payload) for
/// the fault paths that must ship a deliberately damaged frame.
StatusOr<Bytes> EncodeRawFrame(const Bytes& payload) {
  Bytes frame;
  VectorWriteBuffer out(&frame);
  DPSYNC_RETURN_IF_ERROR(WriteFrame(out, payload));
  DPSYNC_RETURN_IF_ERROR(out.Flush());
  return frame;
}

}  // namespace

FaultRule FaultPlan::TakeMatching(uint8_t kind) {
  fired_.resize(rules.size(), 0);
  seen_.resize(rules.size(), 0);
  FaultRule hit{0, FaultAction::kNone, 0, 0};
  for (size_t i = 0; i < rules.size(); ++i) {
    const FaultRule& r = rules[i];
    if (r.action == FaultAction::kNone) continue;
    if (r.only_kind != 0 && r.only_kind != kind) continue;
    if (fired_[i]) continue;
    // Every matching rule's count advances on every matching operation,
    // even while another rule fires — two rules never perturb each
    // other's placement.
    ++seen_[i];
    if (seen_[i] == r.nth && hit.action == FaultAction::kNone) {
      fired_[i] = 1;
      hit = r;
    }
  }
  return hit;
}

Channel::Channel(int fd, double timeout_seconds)
    : fd_(fd), writer_(fd), reader_(fd, timeout_seconds) {}

Channel::~Channel() { Close(); }

void Channel::InjectFaults(FaultPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  faults_ = std::move(plan);
}

StatusOr<Bytes> Channel::Call(const Bytes& request) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) {
    return Status::Unavailable("channel is closed");
  }
  if (!faults_.empty()) {
    const uint8_t kind = request.empty() ? 0 : request[0];
    const FaultRule rule = faults_.TakeMatching(kind);
    switch (rule.action) {
      case FaultAction::kNone:
      case FaultAction::kKillBeforeHandle:
      case FaultAction::kKillAfterHandle:
        break;  // serve-side rules are not ours to run
      case FaultAction::kDropRequest:
        return Status::Unavailable("fault injection: request dropped");
      case FaultAction::kCloseBeforeSend:
        CloseLocked();
        return Status::Unavailable(
            "fault injection: connection closed before send");
      case FaultAction::kCloseAfterSend: {
        Status sent = WriteFrame(writer_, request);
        CloseLocked();
        DPSYNC_RETURN_IF_ERROR(sent);
        return Status::Unavailable(
            "fault injection: connection closed after send");
      }
      case FaultAction::kTruncateFrame: {
        auto frame = EncodeRawFrame(request);
        DPSYNC_RETURN_IF_ERROR(frame.status());
        const size_t keep = std::min(rule.truncate_at, frame.value().size());
        // Best-effort partial send; the peer tears down either way.
        if (writer_.Write(frame.value().data(), keep).ok()) {
          (void)writer_.Flush();
        }
        CloseLocked();
        return Status::Unavailable("fault injection: frame truncated");
      }
      case FaultAction::kCorruptCrc: {
        auto frame = EncodeRawFrame(request);
        DPSYNC_RETURN_IF_ERROR(frame.status());
        frame.value()[4] ^= 0x01;  // CRC field starts at byte 4
        // The peer rejects the frame and closes; our reply read fails.
        Status sent = writer_.Write(frame.value());
        if (sent.ok()) sent = writer_.Flush();
        if (sent.ok()) sent = ReadFrame(reader_).status();
        CloseLocked();
        DPSYNC_RETURN_IF_ERROR(sent);
        return Status::Unavailable("fault injection: corrupt frame answered");
      }
    }
  }
  Status sent = WriteFrame(writer_, request);
  auto reply = sent.ok() ? ReadFrame(reader_) : StatusOr<Bytes>(sent);
  if (!reply.ok()) {
    // Out of step with the peer: a late reply would answer the next Call.
    CloseLocked();
    return reply.status();
  }
  rpc_calls_.fetch_add(1, std::memory_order_relaxed);
  bytes_shipped_.fetch_add(
      static_cast<int64_t>(2 * kFrameHeaderBytes + request.size()) +
          static_cast<int64_t>(reply.value().size()),
      std::memory_order_relaxed);
  return reply;
}

void Channel::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  CloseLocked();
}

void Channel::CloseLocked() {
  if (closed_) return;
  closed_ = true;
  ::shutdown(fd_, SHUT_RDWR);
  CloseFd(fd_);
  fd_ = -1;
}

}  // namespace dpsync::net
