#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <string>

#include "core/tac.h"
#include "core/tic.h"
#include "models/builder.h"
#include "models/zoo.h"
#include "runtime/sharding.h"
#include "trace/estimator.h"
#include "trace/tracer.h"

namespace tictac::trace {
namespace {

struct Fixture {
  Fixture()
      : info(models::FindModel("Inception v1")),
        config(runtime::EnvG(2, 1, true)),
        graph(models::BuildWorkerGraph(info, {.training = true})),
        lowering(runtime::LowerCluster(
            graph, core::Tic(graph),
            runtime::ShardParams(models::ParamSizes(info), 1), config)) {}

  const models::ModelInfo& info;
  runtime::ClusterConfig config;
  core::Graph graph;
  runtime::Lowering lowering;
};

TEST(Tracer, OneSpanPerTask) {
  Fixture f;
  sim::TaskGraphSim sim = f.lowering.BuildSim();
  const sim::SimResult result = sim.Run(f.config.sim, 1);
  const auto spans = CollectSpans(f.lowering, result, f.graph);
  EXPECT_EQ(spans.size(), f.lowering.tasks.size());
  for (const Span& span : spans) {
    EXPECT_GE(span.end, span.start);
    EXPECT_FALSE(span.name.empty());
  }
}

TEST(Tracer, WorkerSpansArePrefixed) {
  Fixture f;
  sim::TaskGraphSim sim = f.lowering.BuildSim();
  const sim::SimResult result = sim.Run(f.config.sim, 1);
  const auto spans = CollectSpans(f.lowering, result, f.graph);
  int worker_spans = 0;
  int ps_spans = 0;
  for (const Span& span : spans) {
    if (span.worker >= 0) {
      EXPECT_EQ(span.name.rfind("w", 0), 0u) << span.name;
      ++worker_spans;
    } else {
      EXPECT_EQ(span.name.rfind("ps/", 0), 0u) << span.name;
      ++ps_spans;
    }
  }
  EXPECT_EQ(worker_spans, static_cast<int>(f.graph.size()) * 2);
  EXPECT_EQ(ps_spans, f.info.num_params * 3);
}

// Minimal JSON well-formedness checker for the escaping tests below: a
// recursive-descent scan of one JSON value. Returns false instead of
// throwing so EXPECT_TRUE failures show the offending document.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek('}')) return true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Expect(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek('}')) return true;
      if (!Expect(',')) return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek(']')) return true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek(']')) return true;
      if (!Expect(',')) return false;
    }
  }

  bool String() {
    if (!Expect('"')) return false;
    while (pos_ < text_.size()) {
      const auto c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c < 0x20) return false;  // raw control character: invalid JSON
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(esc) ==
                   std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool Number() {
    const std::size_t begin = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            std::string("+-.eE").find(text_[pos_]) != std::string::npos)) {
      ++pos_;
    }
    return pos_ > begin;
  }

  bool Literal(const std::string& word) {
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  bool Expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool Peek(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(Tracer, ChromeJsonShape) {
  Fixture f;
  sim::TaskGraphSim sim = f.lowering.BuildSim();
  const sim::SimResult result = sim.Run(f.config.sim, 1);
  const auto spans = CollectSpans(f.lowering, result, f.graph);
  const std::string json = ToChromeTraceJson(spans);
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find(R"("ph":"X")"), std::string::npos);
  EXPECT_NE(json.find(R"("cat":"recv")"), std::string::npos);
  EXPECT_NE(json.find(R"("tid":)"), std::string::npos);
}

TEST(Tracer, EmitsValidJsonForBenignNames) {
  Fixture f;
  sim::TaskGraphSim sim = f.lowering.BuildSim();
  const sim::SimResult result = sim.Run(f.config.sim, 1);
  const auto spans = CollectSpans(f.lowering, result, f.graph);
  const std::string json = ToChromeTraceJson(spans);
  EXPECT_TRUE(JsonChecker(json).Valid());
}

TEST(Tracer, EscapesHostileSpanNames) {
  // Op names come from user-loaded graphs (core/io), so quotes,
  // backslashes and control characters must all survive serialization
  // as valid JSON.
  std::vector<Span> spans(2);
  spans[0].name = "w0/conv\"quoted\"\\back\\slash";
  spans[0].resource = 1;
  spans[0].kind = core::OpKind::kRecv;
  spans[0].start = 0.0;
  spans[0].end = 1.0;
  spans[1].name = "tab\there\nnewline\x01raw";
  spans[1].resource = 2;
  spans[1].kind = core::OpKind::kCompute;
  spans[1].start = 1.0;
  spans[1].end = 2.5;

  const std::string json = ToChromeTraceJson(spans);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  // The escaped forms are present; no raw quote survives inside a name.
  EXPECT_NE(json.find(R"(w0/conv\"quoted\"\\back\\slash)"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find(R"(tab\there\nnewline\u0001raw)"), std::string::npos)
      << json;
}

TEST(Tracer, WritesFile) {
  Fixture f;
  sim::TaskGraphSim sim = f.lowering.BuildSim();
  const sim::SimResult result = sim.Run(f.config.sim, 1);
  const auto spans = CollectSpans(f.lowering, result, f.graph);
  const std::string path = ::testing::TempDir() + "/tictac_trace.json";
  WriteChromeTrace(spans, path);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::string first;
  std::getline(in, first);
  EXPECT_EQ(first, "[");
}

TEST(Estimator, MinOfRunsLowerBoundsEachRun) {
  Fixture f;
  sim::SimOptions options = f.config.sim;
  options.jitter_sigma = 0.1;
  const core::MapTimeOracle oracle =
      EstimateWorkerOracle(f.lowering, options, kDefaultProfilingRuns, 3);

  sim::TaskGraphSim sim = f.lowering.BuildSim();
  for (int run = 0; run < kDefaultProfilingRuns; ++run) {
    const sim::SimResult result =
        sim.Run(options, 3 + static_cast<std::uint64_t>(run));
    for (sim::TaskId t : f.lowering.worker_tasks[0]) {
      const auto ti = static_cast<std::size_t>(t);
      const core::OpId op = f.lowering.tasks.op[ti];
      EXPECT_LE(oracle.Time(f.graph, op),
                result.end[ti] - result.start[ti] + 1e-12);
    }
  }
}

TEST(Estimator, ExactWithoutJitter) {
  Fixture f;
  sim::SimOptions options = f.config.sim;
  options.jitter_sigma = 0.0;
  const core::MapTimeOracle oracle =
      EstimateWorkerOracle(f.lowering, options, 2, 5);
  for (sim::TaskId t : f.lowering.worker_tasks[0]) {
    const auto ti = static_cast<std::size_t>(t);
    EXPECT_NEAR(oracle.Time(f.graph, f.lowering.tasks.op[ti]),
                f.lowering.tasks.duration[ti], 1e-12);
  }
}

TEST(Estimator, OracleDrivesTacEndToEnd) {
  // A TAC schedule built from estimated times must still cover all recvs.
  Fixture f;
  const core::MapTimeOracle oracle =
      EstimateWorkerOracle(f.lowering, f.config.sim, 5, 7);
  const core::Schedule schedule = core::Tac(f.graph, oracle);
  EXPECT_TRUE(schedule.CoversAllRecvs(f.graph));
}

}  // namespace
}  // namespace tictac::trace
