/// \file spans.h
/// In-memory span recorder and the timing SogdbBackend wrapper.
///
/// Spans are recorded from the benchmark's own files, around calls into
/// each layer's public functions: `owner.tick` around DpSyncEngine::Tick /
/// TickAll, `edb.update` around EdbTable::Setup/Update (through
/// TimingBackend, which DpSyncEngine drives in place of the table), and
/// `analyst.request` -> `edb.prepare` / `edb.execute` around the session
/// calls. Every span carries its parent's id, so self time is a span's
/// duration minus the union of its children's intervals.
#pragma once

#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/sogdb.h"
#include "edb/encrypted_database.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread, pool workers and in-process
/// shard servers included). Linux leaves out the time the hypervisor ran
/// another guest on the vCPU (steal) and the time a thread sat runnable but
/// unscheduled, which wall-clock time counts.
inline int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// One recorded interval. `name` points at a string literal.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Thread-safe in-memory span store. Spans stay in memory until the traced
/// run ends; WriteCsv then dumps them.
class SpanRecorder {
 public:
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Record(const Span& span) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(span);
  }

  /// Moves every recorded span out (callers run this once the recording
  /// threads have been joined).
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::move(spans_);
  }

 private:
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Writes spans as CSV (id,parent,name,start_ns,end_ns). Returns false when
/// the file cannot be written.
bool WriteSpansCsv(const std::string& path, const std::vector<Span>& spans);

/// Owner-side state shared by the TimingBackends of one owner loop: the
/// recorder (null when untraced) and the id of the `owner.tick` span in
/// progress, which the `edb.update` spans name as parent — TickAll runs
/// the per-table ticks on pool threads, so the parent cannot be
/// thread-local.
struct OwnerContext {
  SpanRecorder* recorder = nullptr;
  std::atomic<uint64_t> tick_span{0};
};

/// What one table's owner stream committed, in commit order: one entry per
/// Setup/Update call (each auto-flushes, so each is one committed prefix).
struct CommitLog {
  /// outsourced_count() after each commit, real and dummy records alike.
  std::vector<int64_t> outsourced_after;
  /// End offset into `real_times` of each commit's real records.
  std::vector<size_t> real_end;
  /// Arrival time (= pick time, unique per table) of every real record in
  /// append order.
  std::vector<int64_t> real_times;
  /// Distributed tables only (ranks > 1): records of each commit per rank
  /// (commit-major, `ranks` entries per commit) and the rank of each real
  /// record. Ranks commit independently, so a scatter-gather read can see
  /// a commit on some ranks and not yet on others.
  int ranks = 1;
  std::vector<int64_t> rank_records;
  std::vector<uint8_t> real_rank;
  int64_t records_posted = 0;   ///< real + dummy records shipped
  int64_t user_bytes = 0;       ///< plaintext payload bytes of real records
  int64_t updates = 0;          ///< Update calls (Setup excluded)
  int64_t setup_records = 0;    ///< records shipped by Setup
};

/// Forwarding SogdbBackend: times each Setup/Update of the wrapped table,
/// records an `edb.update` span when tracing, and logs the commit for the
/// plaintext oracle. The log is written by the owner thread only.
class TimingBackend : public dpsync::SogdbBackend {
 public:
  /// `ranks` > 1 names a distributed table whose `global_shards` are split
  /// in contiguous ranges over that many shard servers.
  TimingBackend(dpsync::edb::EdbTable* inner, OwnerContext* ctx, int ranks = 1,
                int global_shards = 1);

  dpsync::Status Setup(const std::vector<dpsync::Record>& gamma0) override;
  dpsync::Status Update(const std::vector<dpsync::Record>& gamma) override;
  int64_t outsourced_count() const override {
    return inner_->outsourced_count();
  }
  uint64_t commit_epoch() const override { return inner_->commit_epoch(); }

  const CommitLog& log() const { return log_; }
  dpsync::edb::EdbTable* table() const { return inner_; }

  /// Setup/Update calls that have returned successfully. Read before a
  /// query: every rank holds at least these commits.
  int64_t commits_done() const {
    return commits_done_.load(std::memory_order_acquire);
  }
  /// Setup/Update calls that have begun. Read after a query: no rank can
  /// hold more commits than these.
  int64_t commits_started() const {
    return commits_started_.load(std::memory_order_acquire);
  }

 private:
  dpsync::Status Forward(const std::vector<dpsync::Record>& batch, bool setup);

  dpsync::edb::EdbTable* inner_;
  OwnerContext* ctx_;
  int global_shards_;
  CommitLog log_;
  std::atomic<int64_t> commits_started_{0};
  std::atomic<int64_t> commits_done_{0};
};

}  // namespace perfbench
