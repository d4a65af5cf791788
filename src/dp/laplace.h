/// \file laplace.h
/// Laplace mechanism primitives (Def. 3, Dwork et al.). DP-Sync perturbs
/// record counts with Lap(1/eps) noise before fetching from the local cache
/// (Algorithm 2, "Perturb").
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/status.h"

namespace dpsync::dp {

/// Continuous Laplace mechanism for counting queries (sensitivity 1 unless
/// stated otherwise).
class LaplaceMechanism {
 public:
  /// \param epsilon privacy budget (> 0)
  /// \param sensitivity L1 sensitivity of the query (default 1)
  LaplaceMechanism(double epsilon, double sensitivity = 1.0);

  /// Returns true_value + Lap(sensitivity/epsilon).
  double Perturb(double true_value, Rng* rng) const;

  /// Returns the noisy count rounded to the nearest integer (may be
  /// negative; callers clamp per Algorithm 2).
  int64_t PerturbCount(int64_t true_count, Rng* rng) const;

  double epsilon() const { return epsilon_; }
  double scale() const { return scale_; }

 private:
  double epsilon_;
  double scale_;
};

/// Two-sided geometric ("discrete Laplace") mechanism — integer-valued
/// alternative used by the ablation benchmarks to show the framework is
/// noise-distribution agnostic.
class GeometricMechanism {
 public:
  explicit GeometricMechanism(double epsilon, double sensitivity = 1.0);

  /// Returns true_count + Z, Z ~ two-sided geometric with parameter
  /// alpha = exp(-epsilon/sensitivity).
  int64_t PerturbCount(int64_t true_count, Rng* rng) const;

  double epsilon() const { return epsilon_; }

 private:
  double epsilon_;
  double alpha_;
};

/// Validates a privacy budget: must be finite and > 0.
Status ValidateEpsilon(double epsilon);

/// Which count-perturbation mechanism a strategy uses. The paper's
/// algorithms are written with Laplace noise; the two-sided geometric
/// mechanism is an integer-valued drop-in with the same eps-DP guarantee
/// (no rounding step) — exposed for the noise-distribution ablation.
enum class NoiseKind { kLaplace, kGeometric };

/// Perturbs a count with the chosen mechanism at sensitivity 1.
int64_t PerturbCountWith(NoiseKind kind, double epsilon, int64_t count,
                         Rng* rng);

const char* NoiseKindName(NoiseKind kind);

}  // namespace dpsync::dp
