#include "workload/taxi_generator.h"

#include <cmath>

namespace dpsync::workload {

std::vector<bool> TaxiTrace::ArrivalBits() const {
  std::vector<bool> bits;
  bits.reserve(arrivals.size());
  for (const auto& a : arrivals) bits.push_back(a.has_value());
  return bits;
}

double DiurnalIntensity(int64_t minute_of_day) {
  // Two Gaussian bumps (8:30 and 18:00) over a nighttime floor, normalized
  // so the daily mean is ~1.
  double m = static_cast<double>(minute_of_day);
  auto bump = [&](double center, double width, double height) {
    double d = (m - center) / width;
    return height * std::exp(-0.5 * d * d);
  };
  double v = 0.25 + bump(510, 120, 1.6) + bump(1080, 150, 1.9);
  return v / 1.02;  // empirical normalization constant for mean ~= 1
}

TaxiTrace GenerateTaxiTrace(const TaxiConfig& config) {
  TaxiTrace trace;
  trace.config = config;
  trace.arrivals.resize(static_cast<size_t>(config.horizon_minutes));
  Rng rng(config.seed);

  // Base per-minute arrival probability so the expected total matches
  // target_records (thinning keeps at most one arrival per slot). The
  // diurnal curve is normalized by its exact daily mean so the expectation
  // is unbiased.
  double intensity_mean = 0;
  for (int64_t m = 0; m < 1440; ++m) intensity_mean += DiurnalIntensity(m);
  intensity_mean /= 1440.0;
  double base_p = static_cast<double>(config.target_records) /
                  static_cast<double>(config.horizon_minutes) /
                  intensity_mean;

  // Zone popularity: Zipf-like weights over zones, fixed permutation per
  // provider so yellow/green hot zones differ.
  Rng zone_rng(config.seed ^ 0x5a5a5a5aULL);
  std::vector<double> zone_weight(static_cast<size_t>(config.num_zones));
  double weight_sum = 0;
  for (size_t z = 0; z < zone_weight.size(); ++z) {
    zone_weight[z] = 1.0 / std::pow(static_cast<double>(z + 1), 0.8);
    weight_sum += zone_weight[z];
  }
  std::vector<int64_t> zone_of_rank(zone_weight.size());
  for (size_t z = 0; z < zone_of_rank.size(); ++z) {
    zone_of_rank[z] = static_cast<int64_t>(z) + 1;
  }
  zone_rng.Shuffle(&zone_of_rank);

  auto sample_zone = [&](Rng* r) {
    double u = r->UniformDouble() * weight_sum;
    for (size_t z = 0; z < zone_weight.size(); ++z) {
      u -= zone_weight[z];
      if (u <= 0) return zone_of_rank[z];
    }
    return zone_of_rank.back();
  };

  for (int64_t t = 0; t < config.horizon_minutes; ++t) {
    double p = base_p * DiurnalIntensity(t % 1440);
    if (p > 1.0) p = 1.0;
    if (!rng.Bernoulli(p)) continue;
    TripRecord trip;
    trip.pick_time = t;
    trip.pickup_id = sample_zone(&rng);
    trip.dropoff_id = sample_zone(&rng);
    // Log-normal-ish trip distance, mean ~2.9 miles.
    double z = rng.Gaussian(0.6, 0.8);
    trip.trip_distance = std::exp(z);
    if (trip.trip_distance > 40) trip.trip_distance = 40;
    trip.fare = 2.5 + 2.5 * trip.trip_distance + rng.Gaussian(0, 1.0);
    if (trip.fare < 2.5) trip.fare = 2.5;
    trip.is_dummy = false;
    trace.arrivals[static_cast<size_t>(t)] = trip;
  }
  return trace;
}

}  // namespace dpsync::workload
