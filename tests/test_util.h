/// \file test_util.h
/// Shared helpers for the dpsync test suites: deterministic RNG seeding,
/// record/dummy factories, and Status assertion macros. Keep suite-specific
/// fixtures in their own files; only genuinely cross-suite helpers live here.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/status.h"
#include "core/record.h"
#include "edb/encrypted_database.h"
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

/// Plans `sql` against `server`'s catalog and runs it through the engine
/// SPI, bypassing Prepare and admission. Prepare is what registers views,
/// so on a server where nothing prepared the same query the plan takes
/// the documented cold-start path — a snapshot scan or join for linear
/// plans, the locked path for ORAM-indexed ones. The reference the view
/// identity tests compare prepared answers against.
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

namespace internal {
inline const Status& ToStatus(const Status& s) { return s; }
template <typename T>
const Status& ToStatus(const StatusOr<T>& s) {
  return s.status();
}

inline uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
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
