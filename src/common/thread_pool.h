/// \file thread_pool.h
/// A small reusable fixed-size thread pool. The edb layer uses it to fan
/// scans out across table shards; anything else that wants deterministic
/// chunked parallelism (partition the work, submit one task per chunk,
/// merge in chunk order) can share the same pool via SharedPool().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dpsync {

/// Fixed-size worker pool executing submitted tasks FIFO. Threads are
/// started in the constructor and joined in the destructor; Submit after
/// destruction begins is undefined. All methods are thread-safe.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task.
  void Submit(std::function<void()> task);

  /// Partitions [0, n) into at most `max_chunks` contiguous chunks and runs
  /// `fn(chunk_index, begin, end)` for each, in parallel, blocking until all
  /// chunks finish. For a fixed chunk count the boundaries depend only on
  /// (n, chunk count), so chunk-indexed merges are deterministic per
  /// partitioning. Runs inline (no pool hop) when the work collapses to a
  /// single chunk — including every nested call issued from inside a
  /// parallel region (a pool worker's task, or the caller's own chunk 0):
  /// nested ParallelFor runs the whole range as chunk 0, because blocking
  /// on sub-chunks that only busy workers could drain would deadlock (from
  /// a worker) or stall behind whole sibling chunks (from chunk 0). The
  /// effective chunk count therefore varies with num_threads and with the
  /// calling context; callers needing results that are bit-identical
  /// across partitionings must either keep their per-chunk merges exact
  /// (integer/COUNT accumulation), or index their partials by a
  /// decomposition they compute themselves and pass chunk indices here, so
  /// the merge tree is independent of how this method schedules the work.
  /// The query layer does this for both scans (query/executor.cc,
  /// SpanAlignedScanChunks) and hash joins (RunJoinChunks), which is how
  /// FP-sensitive SUM/AVG stay deterministic whether a query runs on the
  /// caller's thread or inside a pool task.
  void ParallelFor(size_t n, size_t max_chunks,
                   const std::function<void(size_t, size_t, size_t)>& fn);

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

/// Process-wide shared pool, created on first use with one worker per
/// hardware thread (clamped to [2, 16]). Never returns null.
ThreadPool* SharedPool();

}  // namespace dpsync
