/// \file socket.h
/// Minimal socket plumbing for the distributed layer plus the `Channel`
/// RPC primitive: one frame out, one frame back, serialized by a mutex so
/// concurrent coordinator threads never interleave frames on a
/// connection.
///
/// One transport: SocketPair(), an AF_UNIX stream pair. The shard servers
/// are threads of the coordinator's own process, so no port, no
/// listen/accept race and no network device is involved.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "net/byte_io.h"

namespace dpsync::net {

// ---- Deterministic fault injection --------------------------------------

/// What an injected fault does when its rule fires. Channel-side actions
/// (consumed by Channel::Call) model coordinator-visible transport
/// failures; serve-side actions (consumed by EdbShardServer's serve loop)
/// model a server dying at a precise point relative to the commit — the
/// distinction failover correctness hinges on.
enum class FaultAction : uint8_t {
  kNone = 0,
  /// Channel: pretend the request was lost — fail without writing a byte.
  /// The connection stays usable, which no real transport failure leaves
  /// it (Call closes it on every failed write or read); tests use it to
  /// make a follower miss one relay.
  kDropRequest,
  /// Channel: tear the connection down before sending.
  kCloseBeforeSend,
  /// Channel: send the full request, then tear down before the reply —
  /// the peer handles the request but the ack is lost.
  kCloseAfterSend,
  /// Channel: send only the first `truncate_at` bytes of the encoded
  /// frame, then tear down (the peer sees a torn frame).
  kTruncateFrame,
  /// Channel: flip one CRC bit in the encoded frame before sending (the
  /// peer rejects the frame and drops the connection).
  kCorruptCrc,
  /// Serve loop: close the connection after reading the Nth matching
  /// frame but BEFORE handling it — the request never commits.
  kKillBeforeHandle,
  /// Serve loop: handle (commit) the Nth matching frame, then close
  /// without replying — committed, but the ack is lost.
  kKillAfterHandle,
};

/// One seeded fault: fire `action` at the `nth` (1-based) matching
/// operation — Call() round trips channel-side, received frames
/// serve-side. `only_kind` (a raw MsgKind byte; 0 = any) filters which
/// operations count toward `nth`, so "the 2nd kIngest" stays the 2nd
/// ingest no matter how many other frames interleave.
struct FaultRule {
  int64_t nth = 1;
  FaultAction action = FaultAction::kNone;
  uint8_t only_kind = 0;
  size_t truncate_at = 4;
};

/// A deterministic fault schedule, injected per channel or per serve loop
/// from tests (seeded via DPSYNC_FAULT_SEED there — no randomness lives
/// here). Rules fire at most once each and count independently.
struct FaultPlan {
  std::vector<FaultRule> rules;

  bool empty() const { return rules.empty(); }
  /// Advances every rule whose kind filter matches this operation and
  /// returns the first one that just reached its `nth`, marking it fired;
  /// kNone if nothing fires.
  FaultRule TakeMatching(uint8_t kind);

 private:
  std::vector<uint8_t> fired_;
  std::vector<int64_t> seen_;
};

/// A connected AF_UNIX stream pair (fds[0] <-> fds[1]).
struct FdPair {
  int a = -1;
  int b = -1;
};

StatusOr<FdPair> SocketPair();

/// Close that tolerates already-closed fds (idempotent teardown paths).
void CloseFd(int fd);

/// Client side of one coordinator<->shard-server connection. Owns the fd.
/// Call() is the whole RPC surface: write one request frame, read one
/// reply frame. Thread-safe; calls on one channel serialize (scatter
/// parallelism comes from having one channel per shard server, not from
/// pipelining within a connection).
class Channel {
 public:
  /// `timeout_seconds` bounds each reply wait; a shard server that dies
  /// or hangs yields Unavailable within that deadline.
  Channel(int fd, double timeout_seconds);
  ~Channel();

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// A request that fails to go out, or whose reply fails to come back
  /// (a missed deadline included), closes the channel: a late reply would
  /// otherwise answer the next Call.
  StatusOr<Bytes> Call(const Bytes& request);

  /// Shuts the connection down (wakes the peer's blocking read) and
  /// closes the fd. Subsequent Calls fail with Unavailable. Idempotent.
  void Close();

  /// Installs a deterministic fault schedule evaluated per Call() (rules
  /// with serve-side actions are ignored here). Replaces any prior plan.
  void InjectFaults(FaultPlan plan);

  /// Deterministic transport counters for the bench layer: completed
  /// Call() round trips and total frame bytes shipped both directions
  /// (header + payload; fixed-width fields make this a pure function of
  /// the workload).
  int64_t rpc_calls() const { return rpc_calls_.load(std::memory_order_relaxed); }
  int64_t bytes_shipped() const {
    return bytes_shipped_.load(std::memory_order_relaxed);
  }

 private:
  /// Tears the connection down with mu_ already held.
  void CloseLocked();

  std::mutex mu_;
  int fd_;
  bool closed_ = false;
  FdWriteBuffer writer_;
  FdReadBuffer reader_;
  FaultPlan faults_;  ///< guarded by mu_
  std::atomic<int64_t> rpc_calls_{0};
  std::atomic<int64_t> bytes_shipped_{0};
};

}  // namespace dpsync::net
