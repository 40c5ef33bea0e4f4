#include "sched/arrival.h"

#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "clause_rows.h"
#include "runtime/spec.h"

namespace tictac::sched {
namespace {

runtime::ExperimentSpec Job(int workers = 4) {
  runtime::ExperimentSpec spec;
  spec.model = "Inception v2";
  spec.cluster.workers = workers;
  spec.cluster.ps = 2;
  spec.cluster.training = true;
  spec.policy = "tac";
  spec.iterations = 3;
  return spec;
}

// ---- grammar ---------------------------------------------------------------

TEST(ArrivalSpec, PoissonRoundTrip) {
  const ArrivalSpec spec = ArrivalSpec::Parse("poisson:rate=40");
  EXPECT_EQ(spec.kind, ArrivalSpec::Kind::kPoisson);
  EXPECT_EQ(spec.rate, 40.0);
  EXPECT_EQ(spec.ToString(), "poisson:rate=40");
  EXPECT_EQ(ArrivalSpec::Parse(spec.ToString()), spec);
}

TEST(ArrivalSpec, BurstyRoundTrip) {
  const ArrivalSpec spec = ArrivalSpec::Parse("bursty:rate=2.5:burst=8");
  EXPECT_EQ(spec.kind, ArrivalSpec::Kind::kBursty);
  EXPECT_EQ(spec.rate, 2.5);
  EXPECT_EQ(spec.burst, 8);
  EXPECT_EQ(spec.ToString(), "bursty:rate=2.5:burst=8");
  EXPECT_EQ(ArrivalSpec::Parse(spec.ToString()), spec);
}

TEST(ArrivalSpec, BurstyFieldOrderIsFree) {
  EXPECT_EQ(ArrivalSpec::Parse("bursty:burst=4:rate=1"),
            ArrivalSpec::Parse("bursty:rate=1:burst=4"));
}

TEST(ArrivalSpec, TraceRoundTripKeepsPathVerbatim) {
  // Paths may contain colons; everything after the first ':' is the path.
  const ArrivalSpec spec = ArrivalSpec::Parse("trace:/tmp/a:b.csv");
  EXPECT_EQ(spec.kind, ArrivalSpec::Kind::kTrace);
  EXPECT_EQ(spec.trace_path, "/tmp/a:b.csv");
  EXPECT_EQ(spec.ToString(), "trace:/tmp/a:b.csv");
  EXPECT_EQ(ArrivalSpec::Parse(spec.ToString()), spec);
}

TEST(ArrivalSpec, FormatsShortestRoundTripDoubles) {
  // Non-representable rates survive ToString/Parse exactly (FormatDouble).
  ArrivalSpec spec;
  spec.kind = ArrivalSpec::Kind::kPoisson;
  spec.rate = 0.1;
  EXPECT_EQ(spec.ToString(), "poisson:rate=0.1");
  EXPECT_EQ(ArrivalSpec::Parse(spec.ToString()).rate, 0.1);
}

// The error-message contract: each malformed spec names what went wrong.
TEST(ArrivalSpec, UnknownProcessIsNamed) {
  try {
    ArrivalSpec::Parse("uniform:rate=4");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown arrival process"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("uniform"), std::string::npos);
  }
}

TEST(ArrivalSpec, MissingRateIsNamed) {
  try {
    ArrivalSpec::Parse("poisson");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("requires rate="),
              std::string::npos)
        << e.what();
  }
}

TEST(ArrivalSpec, NonNumericRateIsNamed) {
  try {
    ArrivalSpec::Parse("poisson:rate=fast");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("rate= expects a number"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("fast"), std::string::npos);
  }
}

TEST(ArrivalSpec, BurstyWithoutBurstIsNamed) {
  try {
    ArrivalSpec::Parse("bursty:rate=4");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("bursty requires burst="),
              std::string::npos)
        << e.what();
  }
}

// burst= is read as an integer and rate= as a whole number, so a value
// that is out of range, float-typed or signed is named exactly as typed
// (burst=1e300 used to be cast to int, which is undefined behaviour).
TEST(ArrivalSpec, MalformedNumbersAreQuotedAsTyped) {
  const std::pair<const char*, const char*> cases[] = {
      {"bursty:rate=4:burst=1e300", "'1e300'"},
      {"bursty:rate=4:burst=8.0", "'8.0'"},
      {"bursty:rate=4:burst=+8", "'+8'"},
      {"poisson:rate=+2", "'+2'"},
  };
  for (const auto& [spec, token] : cases) {
    try {
      ArrivalSpec::Parse(spec);
      ADD_FAILURE() << "accepted " << spec;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(token), std::string::npos)
          << e.what();
    }
  }
}

// A repeated field is rejected naming it; it used to keep the last value
// (poisson:rate=1e308:rate=2 echoed poisson:rate=2).
TEST(ArrivalSpec, RepeatedFieldIsNamed) {
  const std::pair<const char*, const char*> cases[] = {
      {"poisson:rate=1e308:rate=2",
       "arrival: duplicate field 'rate=' in 'poisson:rate=1e308:rate=2'"},
      {"bursty:rate=4:burst=8:burst=2", "duplicate field 'burst='"},
  };
  for (const auto& [spec, message] : cases) {
    try {
      ArrivalSpec::Parse(spec);
      ADD_FAILURE() << "accepted " << spec;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
}

TEST(ArrivalSpec, RejectsMoreMalformedSpecs) {
  EXPECT_THROW(ArrivalSpec::Parse(""), std::invalid_argument);
  EXPECT_THROW(ArrivalSpec::Parse("trace"), std::invalid_argument);
  EXPECT_THROW(ArrivalSpec::Parse("trace:"), std::invalid_argument);
  EXPECT_THROW(ArrivalSpec::Parse("poisson:rate=0"), std::invalid_argument);
  EXPECT_THROW(ArrivalSpec::Parse("poisson:rate=-1"), std::invalid_argument);
  EXPECT_THROW(ArrivalSpec::Parse("poisson:rate=inf"),
               std::invalid_argument);
  EXPECT_THROW(ArrivalSpec::Parse("poisson:rate=4:burst=2"),
               std::invalid_argument);  // burst is bursty-only
  EXPECT_THROW(ArrivalSpec::Parse("bursty:rate=4:burst=2.5"),
               std::invalid_argument);  // integer bursts only
  EXPECT_THROW(ArrivalSpec::Parse("bursty:rate=4:burst=0"),
               std::invalid_argument);
  EXPECT_THROW(ArrivalSpec::Parse("bursty:rate=4:burst=1000000"),
               std::invalid_argument);  // capped
  EXPECT_NO_THROW(ArrivalSpec::Parse("bursty:rate=4:burst=4096"));
  EXPECT_THROW(ArrivalSpec::Parse("bursty:rate=4:burst=4097"),
               std::invalid_argument);
  EXPECT_THROW(ArrivalSpec::Parse("poisson:rate=4:color=red"),
               std::invalid_argument);  // unknown field
}

// Every kind row of kArrivalGrammar: round-trip, missing, forbidden and
// repeated keys, and each bound's first value outside it.
TEST(ArrivalSpec, EveryGrammarRowHolds) {
  ASSERT_EQ(kArrivalGrammar.kinds.size(), 2u);
  util::ExpectEveryRowHolds(kArrivalGrammar, [](const std::string& text) {
    return ArrivalSpec::Parse(text);
  });
}

// ---- synthetic generation --------------------------------------------------

TEST(GenerateArrivals, PoissonGoldenSequence) {
  // Inter-arrival gaps are inverse-CDF transforms of raw mt19937_64
  // output — standardized, so this sequence is identical on every
  // platform and standard library. Regenerate with util::Rng(42)
  // .Exponential(10.0) if the draw algorithm ever changes (that is a
  // breaking change to every seeded service run).
  const ArrivalSpec spec = ArrivalSpec::Parse("poisson:rate=10");
  const std::vector<runtime::ExperimentSpec> workload = {Job()};
  const std::vector<ArrivalEvent> events =
      GenerateArrivals(spec, workload, /*duration=*/0.4, /*seed=*/42);
  const std::vector<double> gaps = {
      0.028083154703570805, 0.044780169614836121, 0.02848258875699199,
      0.19930973739202501, 0.010173491119158334};
  ASSERT_EQ(events.size(), 5u);  // 6th cumulative time crosses 0.4
  double expected = 0.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    expected += gaps[i];
    EXPECT_EQ(events[i].time, expected) << "event " << i;
    EXPECT_EQ(events[i].spec, workload[0]);
  }
}

TEST(GenerateArrivals, DeterministicInSeedAlone) {
  const ArrivalSpec spec = ArrivalSpec::Parse("poisson:rate=25");
  const std::vector<runtime::ExperimentSpec> workload = {Job(2), Job(4)};
  const auto a = GenerateArrivals(spec, workload, 2.0, 7);
  const auto b = GenerateArrivals(spec, workload, 2.0, 7);
  const auto c = GenerateArrivals(spec, workload, 2.0, 8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].spec, b[i].spec);
  }
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].time != c[i].time;
  }
  EXPECT_TRUE(differs);
}

TEST(GenerateArrivals, CyclesWorkloadRoundRobin) {
  const ArrivalSpec spec = ArrivalSpec::Parse("poisson:rate=50");
  const std::vector<runtime::ExperimentSpec> workload = {Job(2), Job(4),
                                                         Job(8)};
  const auto events = GenerateArrivals(spec, workload, 1.0, 3);
  ASSERT_GE(events.size(), 6u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].spec, workload[i % workload.size()]);
  }
}

TEST(GenerateArrivals, BurstyEmitsBurstsAtSharedInstants) {
  const ArrivalSpec spec = ArrivalSpec::Parse("bursty:rate=10:burst=4");
  const std::vector<runtime::ExperimentSpec> workload = {Job()};
  const auto bursty = GenerateArrivals(spec, workload, 0.4, 42);
  const auto single =
      GenerateArrivals(ArrivalSpec::Parse("poisson:rate=10"), workload, 0.4,
                       42);
  // Same event instants as the rate-matched Poisson stream (same seed,
  // same draws), each carrying burst jobs.
  ASSERT_EQ(bursty.size(), single.size() * 4);
  for (std::size_t i = 0; i < bursty.size(); ++i) {
    EXPECT_EQ(bursty[i].time, single[i / 4].time);
  }
}

TEST(GenerateArrivals, EmptyWorkloadIsRejectedForSyntheticStreams) {
  EXPECT_THROW(
      GenerateArrivals(ArrivalSpec::Parse("poisson:rate=4"), {}, 1.0, 1),
      std::invalid_argument);
}

// A stream past kMaxArrivals is rejected naming its knobs, before any
// draw when rate x duration x burst says so (rate=1e308 used to be
// materialized until memory ran out), and as it grows when the draws
// outrun their mean: 24 bursts of 4096 expect 98,304 jobs, and seed 4
// draws 25 or more.
TEST(GenerateArrivals, StreamsPastTheArrivalCapNameTheirKnobs) {
  const std::vector<runtime::ExperimentSpec> workload = {Job()};
  try {
    GenerateArrivals(ArrivalSpec::Parse("poisson:rate=1e308"), workload, 1.0,
                     1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("at most 100000 arrivals"), std::string::npos) << what;
    EXPECT_NE(what.find("lower rate= or --duration"), std::string::npos)
        << what;
  }
  const ArrivalSpec bursty = ArrivalSpec::Parse("bursty:rate=24:burst=4096");
  EXPECT_EQ(GenerateArrivals(bursty, workload, 1.0, 3).size(), 90112u);
  try {
    GenerateArrivals(bursty, workload, 1.0, 4);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("gives more than that; lower rate=, burst= or "
                        "--duration"),
              std::string::npos)
        << what;
  }
}

// ---- trace replay ----------------------------------------------------------

TEST(GenerateArrivals, ReplaysTraceCsv) {
  const std::string path = ::testing::TempDir() + "/tictac_arrivals.csv";
  const runtime::ExperimentSpec job = Job();
  {
    std::ofstream out(path);
    out << "# time,experiment spec\n";
    out << "\n";
    out << "0," << job.ToString() << "\n";
    out << "0.25," << Job(8).ToString() << "\n";
    out << "0.25," << job.ToString() << "\n";  // simultaneous is fine
    out << "9," << job.ToString() << "\n";     // >= duration: dropped
  }
  const ArrivalSpec spec = ArrivalSpec::Parse("trace:" + path);
  const auto events = GenerateArrivals(spec, {}, /*duration=*/1.0, 1);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].time, 0.0);
  EXPECT_EQ(events[0].spec, job);
  EXPECT_EQ(events[1].time, 0.25);
  EXPECT_EQ(events[1].spec, Job(8));
  EXPECT_EQ(events[2].time, 0.25);
}

// Trace rows count against the same cap; rows past --duration do not.
TEST(GenerateArrivals, TraceRowsPastTheArrivalCapAreRejected) {
  const std::string path = ::testing::TempDir() + "/tictac_long_trace.csv";
  const std::string row = "0," + Job().ToString() + "\n";
  {
    std::ofstream out(path);
    for (std::size_t i = 0; i < kMaxArrivals; ++i) out << row;
    out << "2," << Job().ToString() << "\n";
  }
  const ArrivalSpec spec = ArrivalSpec::Parse("trace:" + path);
  EXPECT_EQ(GenerateArrivals(spec, {}, 1.0, 1).size(), kMaxArrivals);
  try {
    GenerateArrivals(spec, {}, 3.0, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 100001: more than 100000 "
                                         "arrivals"),
              std::string::npos)
        << e.what();
  }
}

TEST(GenerateArrivals, TraceErrorsCarryLineNumbers) {
  const std::string path = ::testing::TempDir() + "/tictac_bad_trace.csv";
  {
    std::ofstream out(path);
    out << "0," << Job().ToString() << "\n";
    out << "not-a-number," << Job().ToString() << "\n";
  }
  try {
    GenerateArrivals(ArrivalSpec::Parse("trace:" + path), {}, 1.0, 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

TEST(GenerateArrivals, TraceToleratesEditorArtifacts) {
  // Spreadsheet-export tolerance, shared with the fault trace reader: a
  // UTF-8 BOM on line 1, CRLF endings, trailing blanks, indented
  // comments, and whitespace-only lines.
  const std::string path = ::testing::TempDir() + "/tictac_artifacts.csv";
  const runtime::ExperimentSpec job = Job();
  {
    std::ofstream out(path, std::ios::binary);
    out << "\xef\xbb\xbf# time,experiment spec\r\n";
    out << "   \r\n";
    out << "  \t# indented comment\r\n";
    out << "0," << job.ToString() << "  \r\n";
    out << "\t0.25," << Job(8).ToString() << "\t\r\n";
  }
  const auto events =
      GenerateArrivals(ArrivalSpec::Parse("trace:" + path), {}, 1.0, 1);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].time, 0.0);
  EXPECT_EQ(events[0].spec, job);
  EXPECT_EQ(events[1].time, 0.25);
  EXPECT_EQ(events[1].spec, Job(8));
}

TEST(GenerateArrivals, TraceRejectsDecreasingTimesAndMissingFiles) {
  const std::string path = ::testing::TempDir() + "/tictac_unsorted.csv";
  {
    std::ofstream out(path);
    out << "0.5," << Job().ToString() << "\n";
    out << "0.25," << Job().ToString() << "\n";
  }
  EXPECT_THROW(GenerateArrivals(ArrivalSpec::Parse("trace:" + path), {},
                                1.0, 1),
               std::invalid_argument);
  EXPECT_THROW(
      GenerateArrivals(ArrivalSpec::Parse("trace:/no/such/file.csv"), {},
                       1.0, 1),
      std::runtime_error);
}

}  // namespace
}  // namespace tictac::sched
