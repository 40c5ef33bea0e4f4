// The paper's figures and ablations, each declared once: its specs as
// named SweepSpec texts, its tables as row keys × metric columns over
// them, and the paper's claim as a predicate over the numbers.
// bench_figures prints them; integration_test checks the claims.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "harness/session.h"

namespace tictac::harness {

enum class Metric {
  kSpeedup,        // throughput over the column's baseline spec
  kEfficiency,     // mean scheduling efficiency E (Eq. 3)
  kMeanStraggler,  // straggler wait share (%): mean, worst
  kMaxStraggler,
  kIterationMs,   // mean iteration time
  kUniqueOrders,  // distinct worker-0 recv orders across iterations
};

// Specs by sweep name and policy; an empty field keeps the row's.
struct SpecRef {
  std::string sweep = {};
  std::string policy = {};
};

// A metric of the spec `spec` picks on the row's model and task. A
// speedup divides by `baseline`'s throughput (empty policy: "baseline").
struct Column {
  std::string header;
  Metric metric;
  SpecRef spec = {};
  SpecRef baseline = {};
};

// A row per spec the first column picks (of task `training`, if set).
// Keys: "Model", "Task", "#Ops/worker", "#Par", "Cluster" (sweep name),
// "Policy".
struct FigureTable {
  std::string caption;  // printed above the table when set
  std::optional<bool> training;
  std::vector<std::string> keys;
  std::vector<Column> columns;
};

using Values = std::vector<std::vector<std::vector<double>>>;  // [t][r][c]
using NamedSpec = std::pair<std::string, runtime::ExperimentSpec>;
struct Verdict {
  bool holds = false;
  std::string detail = {};  // printed above the claim line when set
};
struct Measured {
  std::string text;  // title and tables
  Values values;
};

struct Figure {
  std::string id, title;
  std::vector<std::pair<std::string, std::string>> sweeps;  // name, text
  std::vector<FigureTable> tables = {};
  // Replaces `tables` where every iteration is read (Figure 12): one
  // result per spec, in declaration order.
  std::function<Measured(const std::vector<runtime::ExperimentResult>&)>
      report = {};
  std::string claim;
  std::function<Verdict(const Values&)> check;
  std::string known_failure = {};  // why the claim fails; empty = must hold
};

// Every figure. Ablation A3 runs every policy registered at the call.
std::vector<Figure> Figures();
// The figures `--figure ID` arguments name, in order; none = all. Throws
// std::invalid_argument listing the ids on an unknown or repeated id, a
// missing id or any other argument.
std::vector<Figure> SelectFigures(const std::vector<std::string>& args);
// Each sweep's specs under its name, with its seed plus `seed_shift`.
std::vector<NamedSpec> FigureSpecs(const Figure& figure,
                                   std::uint64_t seed_shift = 0);
// Runs FigureSpecs; throws unless each cell picks exactly one spec.
Measured MeasureFigure(const Figure& figure, Session& session,
                       std::uint64_t seed_shift = 0);

}  // namespace tictac::harness
