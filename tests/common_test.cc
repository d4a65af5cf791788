// Tests for src/common: bytes, status, rng, stats, table printer, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"

namespace dpsync {
namespace {

TEST(BytesTest, HexRoundTrip) {
  Bytes b = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(ToHex(b), "0001abff");
  Bytes back;
  ASSERT_TRUE(FromHex("0001abff", &back));
  EXPECT_EQ(back, b);
}

TEST(BytesTest, HexUppercaseAccepted) {
  Bytes b;
  ASSERT_TRUE(FromHex("DEADBEEF", &b));
  EXPECT_EQ(ToHex(b), "deadbeef");
}

TEST(BytesTest, HexRejectsOddLength) {
  Bytes b;
  EXPECT_FALSE(FromHex("abc", &b));
}

TEST(BytesTest, HexRejectsNonHex) {
  Bytes b;
  EXPECT_FALSE(FromHex("zz", &b));
}

TEST(BytesTest, LittleEndianRoundTrip64) {
  uint8_t buf[8];
  StoreLE64(buf, 0x0123456789abcdefULL);
  EXPECT_EQ(LoadLE64(buf), 0x0123456789abcdefULL);
  EXPECT_EQ(buf[0], 0xef);  // least significant byte first
}

TEST(BytesTest, LittleEndianRoundTrip32) {
  uint8_t buf[4];
  StoreLE32(buf, 0xdeadbeef);
  EXPECT_EQ(LoadLE32(buf), 0xdeadbeefu);
}

TEST(BytesTest, BigEndian32) {
  uint8_t buf[4];
  StoreBE32(buf, 0x01020304);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(LoadBE32(buf), 0x01020304u);
}

TEST(BytesTest, ConstantTimeEquals) {
  Bytes a = ToBytes("secret"), b = ToBytes("secret"), c = ToBytes("sEcret");
  EXPECT_TRUE(ConstantTimeEquals(a.data(), b.data(), a.size()));
  EXPECT_FALSE(ConstantTimeEquals(a.data(), c.data(), a.size()));
  // Only the first `len` bytes count.
  EXPECT_TRUE(ConstantTimeEquals(a.data(), c.data(), 1));
  EXPECT_TRUE(ConstantTimeEquals(nullptr, nullptr, 0));
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad epsilon");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad epsilon");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::NotFound("nope"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, ReseedRestartsSequence) {
  Rng a(77);
  uint64_t first = a.Next();
  a.Next();
  a.Reseed(77);
  EXPECT_EQ(a.Next(), first);
}

TEST(RngTest, UniformDoubleInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformDoublePositiveNeverZero) {
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.UniformDoublePositive(), 0.0);
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, LaplaceMeanAndScale) {
  Rng rng(8);
  const double b = 2.0;
  RunningStat s;
  for (int i = 0; i < 200000; ++i) s.Add(rng.Laplace(b));
  EXPECT_NEAR(s.mean(), 0.0, 0.05);
  // Var(Lap(b)) = 2 b^2 = 8.
  EXPECT_NEAR(s.variance(), 8.0, 0.4);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(9);
  RunningStat s;
  for (int i = 0; i < 100000; ++i) s.Add(rng.Exponential(0.5));
  EXPECT_NEAR(s.mean(), 2.0, 0.1);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(10);
  RunningStat s;
  for (int i = 0; i < 100000; ++i) s.Add(rng.Gaussian(3.0, 2.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RngTest, PoissonMean) {
  Rng rng(12);
  RunningStat s;
  for (int i = 0; i < 50000; ++i) s.Add(static_cast<double>(rng.Poisson(4.0)));
  EXPECT_NEAR(s.mean(), 4.0, 0.1);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(14);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

TEST(RunningStatTest, BasicMoments) {
  RunningStat s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.Add(x);
  EXPECT_EQ(s.count(), 4);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(RunningStatTest, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(SeriesTest, SummarizeAggregates) {
  Series s;
  s.Add(1, 10);
  s.Add(2, 20);
  auto stat = s.Summarize();
  EXPECT_EQ(stat.count(), 2);
  EXPECT_DOUBLE_EQ(stat.mean(), 15.0);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter tp({"name", "value"});
  tp.AddRow({"a", "1"});
  tp.AddRow({"longer", "2"});
  std::ostringstream os;
  tp.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
}

TEST(TablePrinterTest, FmtPrecision) {
  EXPECT_EQ(TablePrinter::Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Fmt(2.0, 0), "2");
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, 8, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForChunkingIsDeterministic) {
  ThreadPool pool(4);
  auto boundaries = [&] {
    std::mutex mu;
    std::vector<std::pair<size_t, size_t>> chunks(4);
    pool.ParallelFor(103, 4, [&](size_t c, size_t begin, size_t end) {
      std::lock_guard<std::mutex> lock(mu);
      chunks[c] = {begin, end};
    });
    return chunks;
  };
  auto a = boundaries();
  auto b = boundaries();
  EXPECT_EQ(a, b);
  // Chunks partition [0, 103) contiguously in index order.
  size_t expect_begin = 0;
  for (const auto& [begin, end] : a) {
    EXPECT_EQ(begin, expect_begin);
    EXPECT_GE(end, begin);
    expect_begin = end;
  }
  EXPECT_EQ(expect_begin, 103u);
}

TEST(ThreadPoolTest, SingleChunkRunsInline) {
  ThreadPool pool(2);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.ParallelFor(10, 1, [&](size_t, size_t begin, size_t end) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPoolTest, SubmitRunsEverything) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&] { done.fetch_add(1); });
  }
  // Destructor note: draining happens via ParallelFor-style sync in
  // production; here just spin briefly.
  for (int spin = 0; spin < 2000 && done.load() < 50; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPoolTest, SharedPoolIsSingletonAndAlive) {
  ThreadPool* a = SharedPool();
  ThreadPool* b = SharedPool();
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);
  EXPECT_GE(a->num_threads(), 2u);
}

// Property sweep: Laplace tail matches exp(-t/b) for several scales.
class LaplaceTailTest : public ::testing::TestWithParam<double> {};

TEST_P(LaplaceTailTest, TailMatchesAnalytic) {
  double b = GetParam();
  Rng rng(static_cast<uint64_t>(b * 1000) + 17);
  const int n = 100000;
  const double t = 2.0 * b;
  int exceed = 0;
  for (int i = 0; i < n; ++i) exceed += (std::fabs(rng.Laplace(b)) >= t);
  double expected = std::exp(-t / b);  // = e^-2 ~ 0.135
  EXPECT_NEAR(exceed / static_cast<double>(n), expected, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Scales, LaplaceTailTest,
                         ::testing::Values(0.5, 1.0, 2.0, 5.0, 10.0));

#ifdef MINIGTEST_GTEST_H_
// Self-test of the vendored shim's late-TEST_P guard (real GoogleTest
// instantiates late bodies itself, so this only compiles against the
// shim). A TEST_P body that registers after its fixture's
// INSTANTIATE_TEST_SUITE_P is not part of any instantiation; the shim
// must record it so RunAllTests fails instead of silently dropping the
// body. The probe entry is popped again so this suite still passes.
struct LateParamProbe : public ::testing::TestWithParam<int> {};

TEST(MiniGtestShimTest, LateTestPRegistrationIsRecorded) {
  using Suite = ::testing::internal::ParamSuite<LateParamProbe>;
  auto& late = ::testing::internal::Registry::Get().late_param_cases;
  const size_t cases_before = Suite::Cases().size();
  const size_t late_before = late.size();

  ASSERT_FALSE(Suite::Instantiated());
  Suite::Instantiated() = true;  // as if INSTANTIATE_TEST_SUITE_P ran
  struct ProbeCase : LateParamProbe {
    void TestBody() override {}
  };
  Suite::AddCase<ProbeCase>("LateParamProbe", "ProbeCase");

  ASSERT_EQ(late.size(), late_before + 1);
  EXPECT_EQ(late.back(), "LateParamProbe.ProbeCase");
  ASSERT_EQ(Suite::Cases().size(), cases_before + 1);

  // Undo the probe: drop the recorded violation and the orphan case so
  // the registry is exactly as before.
  late.pop_back();
  Suite::Cases().pop_back();
  Suite::Instantiated() = false;
}

// Self-test of the shim's SCOPED_TRACE: a failure raised inside the scope
// must carry every active trace message, innermost first, and the traces
// must be gone once their scopes close. FailureText is exactly what a
// failing check prints, so the probe needs no real failure.
TEST(MiniGtestShimTest, ScopedTraceRidesOnFailures) {
  using ::testing::internal::FailureText;
  const auto npos = std::string::npos;
  EXPECT_EQ(FailureText("boom", "extra"), "boom\nextra");
  {
    SCOPED_TRACE("outer " + std::to_string(1));
    {
      SCOPED_TRACE(42);
      const std::string text = FailureText("boom", "");
      EXPECT_EQ(text.find("boom\nGoogle Test trace:\n"), 0u) << text;
      const size_t inner = text.find(": 42");
      const size_t outer = text.find(": outer 1");
      ASSERT_NE(inner, npos) << text;
      ASSERT_NE(outer, npos) << text;
      EXPECT_LT(inner, outer) << text;
    }
    EXPECT_EQ(FailureText("boom", "").find(": 42"), npos);
  }
  EXPECT_EQ(FailureText("boom", ""), "boom");
}
#endif  // MINIGTEST_GTEST_H_

}  // namespace
}  // namespace dpsync
