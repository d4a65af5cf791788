// Tests for the synthetic taxi workload: schema/serialization and
// generation invariants (the preprocessing properties of §8).
#include <gtest/gtest.h>

#include <algorithm>

#include "workload/taxi_generator.h"
#include "workload/trip_record.h"

namespace dpsync::workload {
namespace {

TEST(TripRecordTest, RowRoundTrip) {
  TripRecord t;
  t.pick_time = 1234;
  t.pickup_id = 42;
  t.dropoff_id = 7;
  t.trip_distance = 3.5;
  t.fare = 12.25;
  t.is_dummy = false;
  TripRecord back = TripRecord::FromRow(t.ToRow());
  EXPECT_EQ(back.pick_time, 1234);
  EXPECT_EQ(back.pickup_id, 42);
  EXPECT_EQ(back.dropoff_id, 7);
  EXPECT_DOUBLE_EQ(back.trip_distance, 3.5);
  EXPECT_DOUBLE_EQ(back.fare, 12.25);
  EXPECT_FALSE(back.is_dummy);
}

TEST(TripRecordTest, RecordRoundTrip) {
  TripRecord t;
  t.pick_time = 99;
  t.pickup_id = 5;
  Record r = t.ToRecord();
  EXPECT_FALSE(r.is_dummy);
  auto back = TripRecord::FromRecord(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->pick_time, 99);
}

TEST(TripRecordTest, SchemaHasDummyFlag) {
  EXPECT_TRUE(TripSchema().HasDummyFlag());
  EXPECT_EQ(TripSchema().size(), 6u);
}

TEST(TripRecordTest, PayloadFitsRecordCipher) {
  TripRecord t;
  t.pick_time = 43199;
  t.pickup_id = 265;
  t.dropoff_id = 265;
  t.trip_distance = 39.99;
  t.fare = 133.7;
  t.is_dummy = true;
  // kPlaintextSize - 2 bytes of length header must accommodate the row.
  EXPECT_LE(t.ToRecord().payload.size(), 62u);
}

TEST(DummyFactoryTest, ProducesValidDummies) {
  auto factory = MakeTripDummyFactory(1);
  for (int i = 0; i < 100; ++i) {
    Record r = factory();
    EXPECT_TRUE(r.is_dummy);
    auto trip = TripRecord::FromRecord(r);
    ASSERT_TRUE(trip.ok());
    EXPECT_TRUE(trip->is_dummy);
    EXPECT_GE(trip->pickup_id, 1);
    EXPECT_LE(trip->pickup_id, 265);
  }
}

TEST(DummyFactoryTest, DummiesVary) {
  auto factory = MakeTripDummyFactory(2);
  Record a = factory(), b = factory();
  EXPECT_NE(a.payload, b.payload);
}

TEST(TaxiGeneratorTest, DeterministicInSeed) {
  TaxiConfig cfg;
  cfg.horizon_minutes = 2000;
  cfg.target_records = 500;
  auto a = GenerateTaxiTrace(cfg);
  auto b = GenerateTaxiTrace(cfg);
  EXPECT_EQ(a.ArrivalBits(), b.ArrivalBits());
}

TEST(TaxiGeneratorTest, DifferentSeedsDiffer) {
  TaxiConfig cfg;
  cfg.horizon_minutes = 2000;
  cfg.target_records = 500;
  auto a = GenerateTaxiTrace(cfg);
  cfg.seed = 999;
  auto b = GenerateTaxiTrace(cfg);
  EXPECT_NE(a.ArrivalBits(), b.ArrivalBits());
}

TEST(TaxiGeneratorTest, AtMostOneRecordPerMinute) {
  TaxiConfig cfg;
  cfg.horizon_minutes = 5000;
  cfg.target_records = 3000;
  auto trace = GenerateTaxiTrace(cfg);
  EXPECT_EQ(trace.arrivals.size(), 5000u);  // one slot per minute, by type
}

TEST(TaxiGeneratorTest, RecordCountNearTarget) {
  TaxiConfig cfg;  // paper defaults: 43200 min, 18429 records
  auto trace = GenerateTaxiTrace(cfg);
  const auto bits = trace.ArrivalBits();
  double realized =
      static_cast<double>(std::count(bits.begin(), bits.end(), true));
  EXPECT_NEAR(realized, 18429.0, 18429.0 * 0.03);
}

TEST(TaxiGeneratorTest, PickTimeMatchesSlot) {
  TaxiConfig cfg;
  cfg.horizon_minutes = 3000;
  cfg.target_records = 1500;
  auto trace = GenerateTaxiTrace(cfg);
  for (size_t t = 0; t < trace.arrivals.size(); ++t) {
    if (trace.arrivals[t]) {
      EXPECT_EQ(trace.arrivals[t]->pick_time, static_cast<int64_t>(t));
    }
  }
}

TEST(TaxiGeneratorTest, ZonesInRange) {
  TaxiConfig cfg;
  cfg.horizon_minutes = 4000;
  cfg.target_records = 2500;
  auto trace = GenerateTaxiTrace(cfg);
  for (const auto& a : trace.arrivals) {
    if (!a) continue;
    EXPECT_GE(a->pickup_id, 1);
    EXPECT_LE(a->pickup_id, cfg.num_zones);
    EXPECT_GE(a->dropoff_id, 1);
    EXPECT_LE(a->dropoff_id, cfg.num_zones);
    EXPECT_GT(a->trip_distance, 0);
    EXPECT_GE(a->fare, 2.5);
    EXPECT_FALSE(a->is_dummy);
  }
}

TEST(TaxiGeneratorTest, DiurnalShape) {
  // Rush hours must be busier than 3am.
  EXPECT_GT(DiurnalIntensity(8 * 60 + 30), 2.0 * DiurnalIntensity(3 * 60));
  EXPECT_GT(DiurnalIntensity(18 * 60), 2.0 * DiurnalIntensity(3 * 60));
}

TEST(TaxiGeneratorTest, ArrivalsFollowDiurnalCurve) {
  TaxiConfig cfg;  // full month for stable statistics
  auto trace = GenerateTaxiTrace(cfg);
  int64_t night = 0, evening = 0;
  for (size_t t = 0; t < trace.arrivals.size(); ++t) {
    if (!trace.arrivals[t]) continue;
    int64_t mod = static_cast<int64_t>(t) % 1440;
    if (mod >= 2 * 60 && mod < 4 * 60) ++night;        // 2-4 am
    if (mod >= 17 * 60 && mod < 19 * 60) ++evening;    // 5-7 pm
  }
  EXPECT_GT(evening, night * 2);
}

}  // namespace
}  // namespace dpsync::workload
