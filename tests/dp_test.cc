// Tests for the DP substrate: the Laplace and geometric mechanisms (with
// an empirical distinguisher on neighbouring counts) and the sparse-vector
// test. The distinguisher on the owner's update pattern runs the real
// strategies through DpSyncEngine (tests/theorem_test.cc).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>

#include "common/rng.h"
#include "common/stats.h"
#include "dp/laplace.h"
#include "dp/svt.h"
#include "test_util.h"

namespace dpsync::dp {
namespace {

TEST(LaplaceMechanismTest, NoiseIsCentered) {
  LaplaceMechanism mech(1.0);
  Rng rng(1);
  RunningStat s;
  for (int i = 0; i < 100000; ++i) s.Add(mech.Perturb(10.0, &rng) - 10.0);
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.variance(), 2.0, 0.1);  // Var = 2 (1/eps)^2 = 2
}

TEST(LaplaceMechanismTest, ScaleIsSensitivityOverEpsilon) {
  LaplaceMechanism mech(0.5, 2.0);
  EXPECT_DOUBLE_EQ(mech.scale(), 4.0);
}

TEST(LaplaceMechanismTest, PerturbCountRounds) {
  LaplaceMechanism mech(1000.0);  // nearly no noise
  Rng rng(2);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(mech.PerturbCount(7, &rng), 7);
}

// Empirical DP check: the likelihood ratio of observing any output bucket
// under neighboring inputs c and c+1 must be bounded by e^eps (within
// sampling error). This is the standard histogram-based DP distinguisher.
class LaplaceDpTest : public ::testing::TestWithParam<double> {};

TEST_P(LaplaceDpTest, HistogramLikelihoodRatioBounded) {
  const double eps = GetParam();
  LaplaceMechanism mech(eps);
  Rng rng(42);
  const int n = 400000;
  std::map<int64_t, int> hist_a, hist_b;
  for (int i = 0; i < n; ++i) hist_a[mech.PerturbCount(10, &rng)]++;
  for (int i = 0; i < n; ++i) hist_b[mech.PerturbCount(11, &rng)]++;
  testutil::ExpectLogRatioBounded(hist_a, hist_b, /*min_mass=*/3000,
                                  eps + std::log(1.15));
}

INSTANTIATE_TEST_SUITE_P(Epsilons, LaplaceDpTest,
                         ::testing::Values(0.25, 0.5, 1.0));

TEST(GeometricMechanismTest, UnbiasedAndInteger) {
  GeometricMechanism mech(1.0);
  Rng rng(3);
  RunningStat s;
  for (int i = 0; i < 100000; ++i) {
    s.Add(static_cast<double>(mech.PerturbCount(5, &rng)));
  }
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
}

TEST(GeometricMechanismTest, SmallerEpsilonMoreNoise) {
  Rng rng(4);
  GeometricMechanism tight(2.0), loose(0.2);
  RunningStat st, sl;
  for (int i = 0; i < 50000; ++i) {
    st.Add(std::fabs(static_cast<double>(tight.PerturbCount(0, &rng))));
    sl.Add(std::fabs(static_cast<double>(loose.PerturbCount(0, &rng))));
  }
  EXPECT_LT(st.mean(), sl.mean());
}

TEST(ValidateEpsilonTest, AcceptsPositive) {
  EXPECT_TRUE(ValidateEpsilon(0.5).ok());
}

TEST(ValidateEpsilonTest, RejectsNonPositiveAndNonFinite) {
  EXPECT_FALSE(ValidateEpsilon(0.0).ok());
  EXPECT_FALSE(ValidateEpsilon(-1.0).ok());
  EXPECT_FALSE(ValidateEpsilon(std::numeric_limits<double>::infinity()).ok());
  EXPECT_FALSE(ValidateEpsilon(std::nan("")).ok());
}

// ------------------------------------------------------------------- SVT

TEST(SvtTest, HighCountExceeds) {
  Rng rng(5);
  AboveNoisyThreshold svt(10.0, 1.0, &rng);
  int hits = 0;
  for (int i = 0; i < 1000; ++i) hits += svt.Exceeds(100, &rng);
  EXPECT_GT(hits, 990);  // far above threshold: nearly always fires
}

TEST(SvtTest, LowCountRarelyExceeds) {
  Rng rng(6);
  AboveNoisyThreshold svt(100.0, 1.0, &rng);
  int hits = 0;
  for (int i = 0; i < 1000; ++i) hits += svt.Exceeds(0, &rng);
  EXPECT_LT(hits, 10);
}

TEST(SvtTest, ResetRedrawsThreshold) {
  Rng rng(7);
  AboveNoisyThreshold svt(10.0, 1.0, &rng);
  double t1 = svt.noisy_threshold();
  svt.Reset(&rng);
  EXPECT_NE(t1, svt.noisy_threshold());
  EXPECT_DOUBLE_EQ(svt.threshold(), 10.0);
}

TEST(SvtTest, FiringProbabilityMonotoneInCount) {
  Rng rng(8);
  AboveNoisyThreshold svt(20.0, 0.5, &rng);
  auto fire_rate = [&](int64_t c) {
    int hits = 0;
    for (int i = 0; i < 4000; ++i) hits += svt.Exceeds(c, &rng);
    return hits / 4000.0;
  };
  double lo = fire_rate(5), mid = fire_rate(20), hi = fire_rate(35);
  EXPECT_LT(lo, mid);
  EXPECT_LT(mid, hi);
}

}  // namespace
}  // namespace dpsync::dp
