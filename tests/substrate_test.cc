// Tests for the oblivious bitonic sorting network: ordering, padding to a
// power of two, and a compare-exchange schedule that depends on the input
// size alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "oram/bitonic_sort.h"

namespace dpsync {
namespace {

// ---------------------------------------------------------- Bitonic sort

TEST(BitonicSortTest, SortsExactPowerOfTwo) {
  std::vector<int> v = {7, 3, 1, 8, 5, 2, 6, 4};
  oram::BitonicSort(&v);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));
  EXPECT_EQ(v.size(), 8u);
}

TEST(BitonicSortTest, SortsNonPowerOfTwoWithPadding) {
  std::vector<int> v = {9, 1, 5, 3, 7, 2, 8};
  oram::BitonicSort(&v);
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 5, 7, 8, 9}));
}

TEST(BitonicSortTest, HandlesDegenerateSizes) {
  std::vector<int> empty;
  oram::BitonicSort(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one = {42};
  oram::BitonicSort(&one);
  EXPECT_EQ(one, std::vector<int>{42});
}

TEST(BitonicSortTest, CustomComparatorDescendingKeys) {
  struct Row {
    int key;
    int payload;
  };
  std::vector<Row> rows = {{3, 30}, {1, 10}, {2, 20}};
  oram::BitonicSort(
      &rows, [](const Row& a, const Row& b) { return a.key < b.key; });
  EXPECT_EQ(rows[0].payload, 10);
  EXPECT_EQ(rows[2].payload, 30);
}

TEST(BitonicSortTest, DuplicatesPreserved) {
  std::vector<int> v = {5, 5, 1, 5, 1};
  oram::BitonicSort(&v);
  EXPECT_EQ(v, (std::vector<int>{1, 1, 5, 5, 5}));
}

TEST(BitonicSortTest, KeepsRealElementsThatTieWithThePadding) {
  // The network is not stable, so a caller-supplied padding sentinel that
  // ties with a real element could sort in front of it and push it into
  // the truncated tail. Padding is ordered by its own flag instead: a row
  // holding the largest key survives at every size and position.
  struct Row {
    int key;
    int payload;
  };
  for (size_t n = 2; n <= 33; ++n) {
    for (size_t pos = 0; pos < n; ++pos) {
      std::vector<Row> rows;
      for (size_t i = 0; i < n; ++i) rows.push_back({static_cast<int>(i), 0});
      rows[pos] = {std::numeric_limits<int>::max(), 7};
      oram::BitonicSort(
          &rows, [](const Row& a, const Row& b) { return a.key < b.key; });
      ASSERT_EQ(rows.size(), n);
      EXPECT_EQ(rows.back().key, std::numeric_limits<int>::max())
          << "n=" << n << " pos=" << pos;
      EXPECT_EQ(rows.back().payload, 7) << "n=" << n << " pos=" << pos;
    }
  }
}

TEST(BitonicSortTest, AccessTraceDependsOnlyOnSize) {
  // Same size, different data (sorted, reversed, all equal, random): the
  // same compare-exchange pairs in the same order, one pair per counted
  // compare-exchange.
  for (size_t n : {5u, 16u, 33u}) {
    Rng rng(n);
    std::vector<std::vector<int>> inputs(4, std::vector<int>(n));
    for (size_t i = 0; i < n; ++i) {
      inputs[0][i] = static_cast<int>(i);
      inputs[1][i] = static_cast<int>(n - i);
      inputs[2][i] = 3;
      inputs[3][i] = static_cast<int>(rng.UniformInt(-50, 50));
    }
    std::vector<oram::AccessTrace> traces(inputs.size());
    for (size_t k = 0; k < inputs.size(); ++k) {
      oram::BitonicSort(&inputs[k], std::less<int>(), &traces[k]);
      EXPECT_TRUE(std::is_sorted(inputs[k].begin(), inputs[k].end()));
      EXPECT_EQ(traces[k], traces[0]) << "n=" << n << " input " << k;
    }
    EXPECT_EQ(static_cast<int64_t>(traces[0].size()),
              2 * oram::BitonicCompareCount(n));
  }
}

class BitonicRandomTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BitonicRandomTest, MatchesStdSort) {
  Rng rng(GetParam() * 131 + 7);
  std::vector<int64_t> v(GetParam());
  for (auto& x : v) x = rng.UniformInt(-1000, 1000);
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  oram::BitonicSort(&v);
  EXPECT_EQ(v, expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitonicRandomTest,
                         ::testing::Values(2, 3, 15, 16, 17, 100, 255, 256,
                                           1000));

TEST(BitonicSortTest, CompareCountIsDataIndependent) {
  // The schedule length depends only on the padded size.
  EXPECT_EQ(oram::BitonicCompareCount(0), 0);
  EXPECT_EQ(oram::BitonicCompareCount(1), 0);
  EXPECT_EQ(oram::BitonicCompareCount(2), 1);
  EXPECT_EQ(oram::BitonicCompareCount(4), 6);
  EXPECT_EQ(oram::BitonicCompareCount(3), oram::BitonicCompareCount(4));
  // n=8: 3 stages of (1+2+3) rounds * 4 comparisons = 24.
  EXPECT_EQ(oram::BitonicCompareCount(8), 24);
}

}  // namespace
}  // namespace dpsync
