/// \file test_util.h
/// Shared helpers for the dpsync test suites: deterministic RNG seeding,
/// record/dummy factories, the owner-side recording backend, the
/// histogram DP check, per-shard ORAM transcripts, and Status assertion
/// macros. Keep suite-specific
/// fixtures in their own files; only genuinely cross-suite helpers live here.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/record.h"
#include "core/sogdb.h"
#include "edb/encrypted_database.h"
#include "oram/oram_mirror.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/plan.h"
#include "workload/trip_record.h"

namespace dpsync::testutil {

/// Base seed for deterministic tests. Derive per-case RNGs with MakeRng(salt)
/// so two helpers in one test never share a stream.
inline constexpr uint64_t kTestSeed = 42;

inline Rng MakeRng(uint64_t salt = 0) { return Rng(kTestSeed + salt); }

/// Decodes a hex string, failing the current test on malformed input.
inline Bytes Hex(const std::string& h) {
  Bytes b;
  EXPECT_TRUE(FromHex(h, &b)) << "bad hex literal: " << h;
  return b;
}

/// Minimal opaque record whose payload encodes `id` (little-endian 16-bit).
inline Record MakeRecord(int64_t id) {
  Record r;
  r.payload = Bytes{static_cast<uint8_t>(id), static_cast<uint8_t>(id >> 8)};
  return r;
}

/// Fixed-payload dummy factory for cache/engine tests that never decode
/// payloads. Workload-faithful suites should prefer
/// workload::MakeTripDummyFactory.
inline DummyFactory TestDummyFactory() {
  return [] {
    Record r;
    r.payload = Bytes{0xdd};
    r.is_dummy = true;
    return r;
  };
}

/// Schema-valid taxi trip record arriving at time `t` in zone `zone`.
inline Record Trip(int64_t t, int64_t zone, bool dummy = false) {
  workload::TripRecord trip;
  trip.pick_time = t;
  trip.pickup_id = zone;
  trip.dropoff_id = zone;
  trip.trip_distance = 1.0;
  trip.fare = 5.0;
  trip.is_dummy = dummy;
  return trip.ToRecord();
}

/// The owner-facing server every core-layer test drives: records what it
/// receives — the size of every call's batch, Setup's first, and the
/// records themselves in arrival order. What a server can observe of the
/// owner is exactly `batch_sizes()` (the update pattern).
class RecordingBackend : public SogdbBackend {
 public:
  Status Setup(const std::vector<Record>& gamma0) override {
    return Receive(gamma0);
  }
  Status Update(const std::vector<Record>& gamma) override {
    ++update_calls_;
    update_volume_ += static_cast<int64_t>(gamma.size());
    return Receive(gamma);
  }
  int64_t outsourced_count() const override {
    return static_cast<int64_t>(received_.size());
  }

  const std::vector<int64_t>& batch_sizes() const { return batch_sizes_; }
  const std::vector<Record>& received() const { return received_; }
  int64_t update_calls() const { return update_calls_; }
  /// Records received through Update alone (Setup's batch excluded).
  int64_t update_volume() const { return update_volume_; }

 private:
  Status Receive(const std::vector<Record>& batch) {
    batch_sizes_.push_back(static_cast<int64_t>(batch.size()));
    received_.insert(received_.end(), batch.begin(), batch.end());
    return Status::Ok();
  }
  std::vector<int64_t> batch_sizes_;
  std::vector<Record> received_;
  int64_t update_calls_ = 0;
  int64_t update_volume_ = 0;
};

/// Histogram DP distinguisher over two equally sized samples of a
/// mechanism's output on neighbouring inputs: every bin holding at least
/// `min_mass` samples on either side must satisfy
/// |ln((a + 1) / (b + 1))| <= bound. The +1 smoothing makes a bin that is
/// empty on one side fail instead of being skipped, so a mechanism that
/// adds no noise cannot pass vacuously. Returns the worst |ln ratio|.
inline double ExpectLogRatioBounded(const std::map<int64_t, int>& a,
                                    const std::map<int64_t, int>& b,
                                    int min_mass, double bound) {
  std::set<int64_t> bins;
  for (const auto& [bin, _] : a) bins.insert(bin);
  for (const auto& [bin, _] : b) bins.insert(bin);
  auto mass = [](const std::map<int64_t, int>& h, int64_t bin) {
    auto it = h.find(bin);
    return it == h.end() ? 0 : it->second;
  };
  double worst = 0.0;
  int checked = 0;
  for (int64_t bin : bins) {
    const int ca = mass(a, bin);
    const int cb = mass(b, bin);
    if (ca < min_mass && cb < min_mass) continue;
    ++checked;
    const double log_ratio = std::fabs(std::log((ca + 1.0) / (cb + 1.0)));
    EXPECT_LE(log_ratio, bound) << "bin " << bin << ": " << ca << " vs " << cb;
    worst = std::max(worst, log_ratio);
  }
  EXPECT_GT(checked, 0) << "no bin reached the minimum mass " << min_mass;
  return worst;
}

/// Plans `sql` against `server`'s catalog and runs it through the engine
/// SPI, bypassing Prepare and admission. Prepare is what registers views,
/// so on a server where nothing prepared the same query the plan takes
/// the documented cold-start path — a snapshot scan or join, on both
/// storage methods. The reference the view identity tests compare
/// prepared answers against.
inline StatusOr<edb::QueryResponse> ExecuteUnprepared(edb::EdbServer& server,
                                                      const std::string& sql) {
  auto parsed = query::ParseSelect(sql);
  if (!parsed.ok()) return parsed.status();
  auto plan = query::PlanSelect(
      parsed.value(),
      [&server](const std::string& table) { return server.FindSchema(table); },
      server.planner_options());
  if (!plan.ok()) return plan.status();
  return server.ExecutePlan(*plan.value());
}

/// Runs `q` the way an analyst does: a session prepares it through the
/// server's plan cache (which registers a view for a view-eligible plan)
/// and executes it under admission control.
inline StatusOr<edb::QueryResponse> PrepareAndExecute(
    edb::EdbServer& server, const query::SelectQuery& q) {
  auto session = server.CreateSession();
  auto prepared = session->Prepare(q);
  if (!prepared.ok()) return prepared.status();
  return session->Execute(prepared.value());
}

/// What the server observes of one ORAM shard under the indexed mode: the
/// leaf-access histogram of that shard's tree. L-0 requires each shard's
/// transcript to be uniform over its own leaves — per-shard trees must not
/// leak more than the single global tree they replaced.
struct OramShardTranscript {
  int shard = 0;
  int64_t accesses = 0;
  size_t num_leaves = 0;
  std::vector<int64_t> leaf_counts;  ///< accesses per leaf, leaf-indexed
  /// Chi-squared statistic of leaf_counts against the uniform distribution
  /// (dof = num_leaves - 1); 0 when the transcript is empty.
  double chi2_uniform = 0.0;
};

/// Aggregates the per-shard access transcripts of an oblivious index (the
/// mirror must have been built with trace recording; shards with empty
/// transcripts aggregate to all-zero histograms).
inline std::vector<OramShardTranscript> AggregateOramTranscripts(
    const oram::OramMirror& mirror) {
  std::vector<OramShardTranscript> out;
  out.reserve(static_cast<size_t>(mirror.num_shards()));
  for (int s = 0; s < mirror.num_shards(); ++s) {
    OramShardTranscript t;
    t.shard = s;
    const oram::PathOram& tree = mirror.tree(s);
    t.num_leaves = tree.num_leaves();
    t.leaf_counts.assign(t.num_leaves, 0);
    for (const auto& access : tree.trace()) {
      ++t.leaf_counts[static_cast<size_t>(access.leaf)];
      ++t.accesses;
    }
    if (t.accesses > 0) {
      double expected = static_cast<double>(t.accesses) /
                        static_cast<double>(t.num_leaves);
      for (int64_t count : t.leaf_counts) {
        double d = static_cast<double>(count) - expected;
        t.chi2_uniform += d * d / expected;
      }
    }
    out.push_back(std::move(t));
  }
  return out;
}

/// The bit pattern of `d`, for tests that compare doubles exactly.
inline uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

namespace internal {
inline const Status& ToStatus(const Status& s) { return s; }
template <typename T>
const Status& ToStatus(const StatusOr<T>& s) {
  return s.status();
}

inline void ExpectSameAccumulator(const query::AggAccumulator& a,
                                  const query::AggAccumulator& b,
                                  const std::string& where) {
  const auto sa = a.state();
  const auto sb = b.state();
  EXPECT_EQ(sa.count, sb.count) << where;
  EXPECT_EQ(DoubleBits(sa.sum), DoubleBits(sb.sum)) << where;
  EXPECT_EQ(DoubleBits(sa.min), DoubleBits(sb.min)) << where;
  EXPECT_EQ(DoubleBits(sa.max), DoubleBits(sb.max)) << where;
  EXPECT_EQ(sa.seen, sb.seen) << where;
}
}  // namespace internal

/// Expects two scan-kernel partials to be bit-identical: query shape,
/// records_scanned, and every per-span cell — accumulator state with
/// doubles compared as bit patterns, group by group with keys compared by
/// type and value. Cells are what shard servers ship, so the cells, not
/// only the finalized answers, are the contract between the kernel's row
/// and columnar loops.
inline void ExpectSameCells(const query::ScanPartial& a,
                            const query::ScanPartial& b,
                            const std::string& where) {
  EXPECT_EQ(a.func, b.func) << where;
  EXPECT_EQ(a.grouped, b.grouped) << where;
  EXPECT_EQ(a.records_scanned, b.records_scanned) << where;
  internal::ExpectSameAccumulator(a.total, b.total, where + " total");
  ASSERT_EQ(a.spans.size(), b.spans.size()) << where;
  for (size_t s = 0; s < a.spans.size(); ++s) {
    const std::string cell = where + " span " + std::to_string(s);
    internal::ExpectSameAccumulator(a.spans[s].total, b.spans[s].total,
                                    cell);
    ASSERT_EQ(a.spans[s].groups.size(), b.spans[s].groups.size()) << cell;
    auto it = b.spans[s].groups.begin();
    for (const auto& [key, acc] : a.spans[s].groups) {
      const std::string group = cell + " group " + key.ToString();
      EXPECT_EQ(key.type(), it->first.type()) << group;
      EXPECT_EQ(key.Compare(it->first), 0) << group;
      internal::ExpectSameAccumulator(acc, it->second, group);
      ++it;
    }
  }
}

}  // namespace dpsync::testutil

/// Assert that a Status or StatusOr expression is OK; on failure, print the
/// status rendering. ASSERT_OK aborts the test, EXPECT_OK continues.
#define ASSERT_OK(expr)                                          \
  do {                                                           \
    const auto& dpsync_st_ = (expr);                             \
    ASSERT_TRUE(::dpsync::testutil::internal::ToStatus(dpsync_st_).ok()) \
        << #expr << " = "                                        \
        << ::dpsync::testutil::internal::ToStatus(dpsync_st_).ToString(); \
  } while (0)

#define EXPECT_OK(expr)                                          \
  do {                                                           \
    const auto& dpsync_st_ = (expr);                             \
    EXPECT_TRUE(::dpsync::testutil::internal::ToStatus(dpsync_st_).ok()) \
        << #expr << " = "                                        \
        << ::dpsync::testutil::internal::ToStatus(dpsync_st_).ToString(); \
  } while (0)

/// Expect that a Status or StatusOr expression is an error.
#define EXPECT_NOT_OK(expr)                                      \
  EXPECT_FALSE(::dpsync::testutil::internal::ToStatus(expr).ok())
