#include "dp/laplace.h"

#include <cassert>
#include <cmath>

namespace dpsync::dp {

LaplaceMechanism::LaplaceMechanism(double epsilon, double sensitivity)
    : epsilon_(epsilon), scale_(sensitivity / epsilon) {
  assert(epsilon > 0 && "epsilon must be positive");
  assert(sensitivity > 0 && "sensitivity must be positive");
}

double LaplaceMechanism::Perturb(double true_value, Rng* rng) const {
  return true_value + rng->Laplace(scale_);
}

int64_t LaplaceMechanism::PerturbCount(int64_t true_count, Rng* rng) const {
  return static_cast<int64_t>(
      std::llround(Perturb(static_cast<double>(true_count), rng)));
}

GeometricMechanism::GeometricMechanism(double epsilon, double sensitivity)
    : epsilon_(epsilon), alpha_(std::exp(-epsilon / sensitivity)) {
  assert(epsilon > 0 && "epsilon must be positive");
}

int64_t GeometricMechanism::PerturbCount(int64_t true_count, Rng* rng) const {
  // Z = G1 - G2 where Gi ~ Geometric(1 - alpha) on {0,1,2,...}.
  auto geometric = [&](Rng* r) {
    // Inverse CDF: floor(log(U) / log(alpha)).
    double u = r->UniformDoublePositive();
    return static_cast<int64_t>(std::floor(std::log(u) / std::log(alpha_)));
  };
  return true_count + geometric(rng) - geometric(rng);
}

int64_t PerturbCountWith(NoiseKind kind, double epsilon, int64_t count,
                         Rng* rng) {
  if (kind == NoiseKind::kGeometric) {
    return GeometricMechanism(epsilon).PerturbCount(count, rng);
  }
  return LaplaceMechanism(epsilon).PerturbCount(count, rng);
}

const char* NoiseKindName(NoiseKind kind) {
  return kind == NoiseKind::kGeometric ? "geometric" : "laplace";
}

Status ValidateEpsilon(double epsilon) {
  if (!(epsilon > 0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument("epsilon must be finite and > 0");
  }
  return Status::Ok();
}

}  // namespace dpsync::dp
