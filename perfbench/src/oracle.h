/// \file oracle.h
/// Plaintext oracle for every answer the benchmark receives.
///
/// DpSyncEngine's FIFO cache outsources real records in arrival order, and
/// every auto-flushed Setup/Update commits its whole batch, so the rows a
/// query can see are always a prefix of the table's logical row sequence:
/// the prefix named by the commit whose post-update outsourced count equals
/// the query's `records_scanned`, among the commits that were done when the
/// query was issued or begun before it completed (distributed tables: one
/// such commit per rank). The oracle resolves that commit, replays
/// the logical rows up to it into per-zone aggregates, and requires the
/// engine's answer to equal the aggregate answer exactly (every query shape
/// here is exact in floating point: counts, integer sums, MIN/MAX). The
/// aggregate answers are themselves checked against query::Executor over the
/// final committed prefix, so the oracle cannot drift from the reference
/// executor's semantics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"
#include "workload/trip_record.h"

namespace perfbench {

/// The query shapes the workloads issue.
enum class Shape {
  kQ1,           ///< COUNT(*) WHERE pickupID BETWEEN 50 AND 100
  kQ2,           ///< pickupID, COUNT(*) GROUP BY pickupID
  kFilteredSum,  ///< SUM(dropoffID) WHERE pickupID BETWEEN lo AND hi
  kMin,          ///< MIN(fare) WHERE pickupID BETWEEN lo AND hi
  kMax,          ///< MAX(fare) WHERE pickupID BETWEEN lo AND hi
  kQ3,           ///< COUNT(*) YellowCab JOIN GreenTaxi ON pickTime
};

/// Request classes, as the per-class latency metrics name them.
enum class QueryClass { kDashboard, kAdhoc, kJoin };

/// SQL text of a shape (lo/hi are used by the range shapes only).
std::string ShapeSql(Shape shape, int64_t lo = 0, int64_t hi = 0);

/// One executed request, as recorded during the timed loop.
struct Request {
  Shape shape = Shape::kQ1;
  QueryClass cls = QueryClass::kDashboard;
  int64_t lo = 0, hi = 0;
  /// Owner ticks completed when the request was issued.
  int64_t issue_tick = 0;
  /// Exact committed counts at issue on the horizon workloads; -1
  /// otherwise.
  int64_t yellow_rows = -1, green_rows = -1;
  /// YellowCab commits (indices into its CommitLog) the read may have seen
  /// on each rank: the last one done when the request was issued, and the
  /// last one begun when it completed.
  int64_t commit_lo = -1, commit_hi = -1;
  bool ok = false;  ///< the engine returned an answer
  double scalar = 0;
  uint64_t group_hash = 0;  ///< for grouped answers (see GroupHash)
  int64_t records_scanned = 0;
  int64_t join_pairs = 0;
  double virtual_s = 0;
  double engine_s = 0;  ///< QueryStats::measured_seconds
  int64_t oram_paths = 0, oram_buckets = 0;
  double oram_virtual_s = 0;
  bool view_eligible = false;
  double latency_s = 0;  ///< SQL text -> answer
  double cpu_s = 0;      ///< process CPU time over the same interval
  double prepare_s = 0;  ///< 0 for pre-prepared requests
  double execute_s = 0;
  /// Filled by the oracle.
  bool correct = false;
  double l1 = -1;  ///< vs the logical database at issue (Q1/Q2 only)
};

/// FNV-1a over (key, value bits) of a grouped answer in key order.
class GroupHasher {
 public:
  explicit GroupHasher(uint64_t state = 1469598103934665603ULL) : h_(state) {}
  void Add(int64_t key, double value);
  uint64_t hash() const { return h_; }

 private:
  uint64_t h_;
};

/// One table's rows in logical order: D_0 first, then the stream in slot
/// order, with the arrival time DpSyncEngine stamps on each record.
struct LogicalTable {
  std::vector<dpsync::workload::TripRecord> rows;
  std::vector<int64_t> arrival;
  size_t preload = 0;  ///< rows [0, preload) are D_0 (received at t = 0)

  void AddPreload(const dpsync::workload::TripRecord& trip);
  /// `tick` is the 1-based tick at which the record arrives.
  void AddStream(const dpsync::workload::TripRecord& trip, int64_t tick);
  /// Rows received once `ticks` ticks have completed.
  size_t ReceivedAfter(int64_t ticks) const;
};

struct OracleTable {
  const LogicalTable* logical = nullptr;
  const CommitLog* log = nullptr;
};

struct OracleReport {
  int64_t checked = 0;
  int64_t failed = 0;
  int64_t states = 0;  ///< committed states tried, over all requests
  std::string first_error;
};

/// Checks every `ok` request in place (sets `correct` and `l1`). `green`
/// may have a null logical table when the workload has no GreenTaxi.
OracleReport CheckRequests(const OracleTable& yellow, const OracleTable& green,
                           std::vector<Request>* requests);

}  // namespace perfbench
