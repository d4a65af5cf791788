/// \file taxi_generator.h
/// Synthetic NYC taxi trace generator — the documented substitution for
/// the June-2020 TLC Yellow Cab / Green Boro datasets.
/// Preserves the invariants the paper's preprocessing establishes:
///   * 43,200 one-minute time units (30 days);
///   * at most one record per minute (duplicates were dropped);
///   * ~18,429 (yellow) / ~21,300 (green) records in total;
///   * pickup/dropoff zone IDs in 1..265 with a skewed (popular-zone)
///     distribution; diurnal arrival intensity (quiet nights, busy rush).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "workload/trip_record.h"

namespace dpsync::workload {

/// Generation parameters.
struct TaxiConfig {
  std::string provider = "YellowCab";
  int64_t horizon_minutes = 43200;  ///< 30 days of 1-minute slots
  int64_t target_records = 18429;   ///< expected total arrivals
  int64_t num_zones = 265;
  uint64_t seed = 7;
};

/// A generated trace: one optional trip per minute slot.
struct TaxiTrace {
  TaxiConfig config;
  std::vector<std::optional<TripRecord>> arrivals;  ///< size horizon_minutes

  /// Arrival indicator vector (for the DP mechanism simulators).
  std::vector<bool> ArrivalBits() const;
};

/// Generates a trace. Deterministic in config.seed. The realized record
/// count is random but concentrates tightly around target_records.
TaxiTrace GenerateTaxiTrace(const TaxiConfig& config);

/// Relative arrival intensity for minute-of-day m in [0,1440): a diurnal
/// curve with morning/evening peaks, normalized to mean 1. Exposed for
/// tests.
double DiurnalIntensity(int64_t minute_of_day);

}  // namespace dpsync::workload
