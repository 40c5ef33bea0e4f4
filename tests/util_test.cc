#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/csv.h"
#include "util/parallel.h"
#include "util/parse.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace tictac::util {
namespace {

TEST(ParallelFor, VisitsEveryIndexOnceAtAnyThreadCount) {
  for (const int threads : {1, 2, 4}) {
    std::vector<int> visits(37, 0);
    ParallelFor(visits.size(), threads,
                [&](std::size_t i) { ++visits[i]; });
    EXPECT_EQ(visits, std::vector<int>(37, 1)) << threads << " threads";
  }
  ParallelFor(0, 4, [](std::size_t) { FAIL() << "no index to visit"; });
}

TEST(ParallelFor, RethrowsABodyError) {
  for (const int threads : {1, 3}) {
    EXPECT_THROW(ParallelFor(16, threads,
                             [](std::size_t i) {
                               if (i == 5) throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1 << 20) != b.UniformInt(0, 1 << 20)) ++differing;
  }
  EXPECT_GT(differing, 90);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto x = rng.UniformInt(-3, 5);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 5);
  }
}

TEST(Rng, IndexCoversAllBuckets) {
  Rng rng(11);
  std::vector<int> hits(5, 0);
  for (int i = 0; i < 5000; ++i) hits[rng.Index(5)]++;
  for (int h : hits) EXPECT_GT(h, 800);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

TEST(Rng, LognormalMedianApprox) {
  Rng rng(5);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.Lognormal(2.0, 0.25));
  EXPECT_NEAR(Percentile(xs, 0.5), 2.0, 0.05);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.Fork();
  EXPECT_NE(a.UniformInt(0, 1 << 30), child.UniformInt(0, 1 << 30));
}

TEST(RunningStat, MeanAndVariance) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, SingleSampleHasZeroVariance) {
  RunningStat s;
  s.Add(3.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(Percentile, KnownQuantiles) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.25), 2.0);
}

TEST(Percentile, EmptySampleReturnsZero) {
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
}

TEST(Percentile, InterpolatesBetweenValues) {
  EXPECT_DOUBLE_EQ(Percentile({0.0, 10.0}, 0.5), 5.0);
}

TEST(Stats, MeanStddevMinMax) {
  std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Mean(xs), 2.5);
  EXPECT_NEAR(Stddev(xs), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(Min(xs), 1.0);
  EXPECT_DOUBLE_EQ(Max(xs), 4.0);
  EXPECT_EQ(Mean({}), 0.0);
}

TEST(EmpiricalCdf, MonotoneAndBounded) {
  std::vector<double> xs;
  Rng rng(1);
  for (int i = 0; i < 500; ++i) xs.push_back(rng.Uniform(0, 1));
  const auto cdf = EmpiricalCdf(xs, 20);
  ASSERT_EQ(cdf.size(), 20u);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GE(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(FitLine, ExactLineHasR2One) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{3, 5, 7, 9, 11};  // y = 1 + 2x
  const LinearFit fit = FitLine(x, y);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(FitLine, NoisyLineHasHighR2) {
  std::vector<double> x;
  std::vector<double> y;
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const double xi = rng.Uniform(0, 10);
    x.push_back(xi);
    y.push_back(2.0 * xi + rng.Normal(0.0, 0.1));
  }
  const LinearFit fit = FitLine(x, y);
  EXPECT_GT(fit.r2, 0.99);
  EXPECT_NEAR(fit.slope, 2.0, 0.05);
}

TEST(FitLine, DegenerateInputs) {
  EXPECT_EQ(FitLine({1.0}, {2.0}).r2, 0.0);
  EXPECT_EQ(FitLine({2.0, 2.0}, {1.0, 3.0}).slope, 0.0);  // vertical data
}

TEST(Table, FormatsAlignedColumns) {
  Table t({"model", "speedup"});
  t.AddRow({"VGG-16", "+12.3%"});
  t.AddRow({"AlexNet v2", "+4.0%"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| model"), std::string::npos);
  EXPECT_NE(s.find("VGG-16"), std::string::npos);
  EXPECT_NE(s.find("|---"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, PadsShortRows) {
  Table t({"a", "b", "c"});
  t.AddRow({"only"});
  EXPECT_NE(t.ToString().find("only"), std::string::npos);
}

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(Fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Fmt(2.0, 0), "2");
  EXPECT_EQ(FmtPct(0.123, 1), "+12.3%");
  EXPECT_EQ(FmtPct(-0.042, 1), "-4.2%");
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Rng, ExponentialMeanMatchesRate) {
  // 20k draws at rate 4: the sample mean of Exp(rate) concentrates
  // around 1/rate (stderr ~ 1/(rate*sqrt(n)) ≈ 0.0018).
  Rng rng(17);
  const double rate = 4.0;
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.Exponential(rate);
    EXPECT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 20000.0, 1.0 / rate, 0.01);
}

TEST(Rng, ExponentialDeterministicForSameSeed) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Exponential(2.5), b.Exponential(2.5));
  }
}

TEST(Rng, PoissonMeanAndVarianceMatch) {
  // Poisson(6): mean == variance == 6. 20k draws pin both to ~1%.
  Rng rng(23);
  const double mean = 6.0;
  std::vector<double> draws;
  draws.reserve(20000);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const auto k = rng.Poisson(mean);
    EXPECT_GE(k, 0);
    draws.push_back(static_cast<double>(k));
    sum += static_cast<double>(k);
  }
  const double sample_mean = sum / 20000.0;
  double var = 0.0;
  for (const double k : draws) {
    var += (k - sample_mean) * (k - sample_mean);
  }
  var /= 20000.0;
  EXPECT_NEAR(sample_mean, mean, 0.1);
  EXPECT_NEAR(var, mean, 0.25);
}

TEST(Rng, PoissonDeterministicForSameSeed) {
  Rng a(5);
  Rng b(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Poisson(3.0), b.Poisson(3.0));
  }
}

TEST(Rng, PoissonSmallMeanIsMostlyZeroOrOne) {
  Rng rng(31);
  int small = 0;
  for (int i = 0; i < 1000; ++i) {
    if (rng.Poisson(0.1) <= 1) ++small;
  }
  // P(X <= 1) for Poisson(0.1) is ~0.995.
  EXPECT_GT(small, 980);
}

TEST(Rng, StreamSplitIsDeterministicAndIndependent) {
  // Same (seed, stream) => the same sequence; sibling streams and the
  // root rng diverge. The split is static, so pulling a fault stream off
  // a seed never consumes state from any other consumer of that seed.
  Rng a = Rng::Stream(42, 1);
  Rng b = Rng::Stream(42, 1);
  Rng sibling = Rng::Stream(42, 2);
  Rng root(42);
  const double first = a.Uniform01();
  EXPECT_EQ(first, b.Uniform01());
  EXPECT_NE(first, sibling.Uniform01());
  EXPECT_NE(first, root.Uniform01());
}

TEST(Rng, Uniform01IsInHalfOpenUnitInterval) {
  Rng rng = Rng::Stream(7, 3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform01();
    EXPECT_GT(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST(Csv, WritesRowsToFile) {
  const std::string path = ::testing::TempDir() + "/tictac_csv_test.csv";
  {
    CsvWriter w(path, {"x", "y"});
    w.AddRow({"1", "2"});
    EXPECT_THROW(w.AddRow({"only one"}), std::runtime_error);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
}

TEST(Parse, ReadsWholeTokensOnly) {
  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt("-3"), -3);
  EXPECT_EQ(ParseUnsigned("7"), 7u);
  EXPECT_EQ(ParseDouble("2.5"), 2.5);
  EXPECT_EQ(ParseDouble("1e-3"), 1e-3);
  for (const char* bad : {"", "4x", "4 ", "abc", "0x10", "1e"}) {
    EXPECT_FALSE(ParseInt(bad)) << bad;
    EXPECT_FALSE(ParseUnsigned(bad)) << bad;
    EXPECT_FALSE(ParseDouble(bad)) << bad;
  }
}

TEST(Parse, RejectsSignPrefixAndWhitespace) {
  for (const char* bad : {"+5", " 5", "\t5", "-"}) {
    EXPECT_FALSE(ParseInt(bad)) << bad;
    EXPECT_FALSE(ParseUnsigned(bad)) << bad;
    EXPECT_FALSE(ParseDouble(bad)) << bad;
  }
  EXPECT_FALSE(ParseUnsigned("-1"));  // never wrapped to 2^64 - 1
  EXPECT_EQ(ParseDouble("-0.5"), -0.5);
}

TEST(Parse, IntegersAreNeverReadThroughADouble) {
  EXPECT_FALSE(ParseInt("2.0"));
  EXPECT_FALSE(ParseInt("1e3"));
  EXPECT_FALSE(ParseUnsigned("8.0"));
}

TEST(Parse, RejectsOverflowInsteadOfWrapping) {
  EXPECT_EQ(ParseInt("2147483647"), std::numeric_limits<int>::max());
  EXPECT_FALSE(ParseInt("2147483648"));
  EXPECT_FALSE(ParseInt("4294967296"));
  EXPECT_EQ(ParseInt<long long>("4294967296"), 4294967296ll);
  EXPECT_EQ(ParseUnsigned("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(ParseUnsigned("18446744073709551616"));
  EXPECT_FALSE(ParseDouble("1e400"));
  EXPECT_EQ(ParseDouble("1e300"), 1e300);
}

// inf and nan parse as doubles; each caller's range check decides.
TEST(Parse, InfAndNanReachTheCallersRangeChecks) {
  EXPECT_EQ(ParseDouble("inf"), std::numeric_limits<double>::infinity());
  EXPECT_EQ(ParseDouble("-inf"), -std::numeric_limits<double>::infinity());
  const std::optional<double> nan = ParseDouble("nan");
  ASSERT_TRUE(nan);
  EXPECT_TRUE(std::isnan(*nan));
  EXPECT_FALSE(ParseInt("inf"));
  EXPECT_FALSE(ParseUnsigned("nan"));
}

}  // namespace
}  // namespace tictac::util
