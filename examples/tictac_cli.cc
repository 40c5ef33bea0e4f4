// tictac_cli — command-line front end over the public API.
//
//   tictac_cli models
//       List the model zoo with Table 1 characteristics.
//   tictac_cli policies        (also: tictac_cli --list-policies)
//       List the registered scheduling policies.
//   tictac_cli schedule <model> [--policy <name>] [--training]
//       Print the priority list (the ordering wizard's output, §5).
//   tictac_cli run --spec "<experiment spec>"
//       Execute one declaratively-specified experiment, e.g.
//       --spec "envG:workers=8:ps=4:training model=VGG-16 policy=tac".
//   tictac_cli sweep --sweep "<sweep spec>" [--parallel N] [--csv|--json]
//       Expand a cartesian grid and execute it on a thread pool, e.g.
//       --sweep "envG:workers=2,4,8:ps=1 models=VGG-16,Inception v2
//       policies=baseline,tic,tac". Emits an aligned table by default,
//       CSV or JSON on request; rows are deterministic for any N.
//   tictac_cli multijob --jobs "<multijob spec>" [--no-isolated] [--json]
//       Co-locate N jobs on one shared PS fabric and report per-job
//       makespans plus slowdown/fairness against isolated runs, e.g.
//       --jobs "2x{envG:workers=4:ps=2:training model=ResNet-101 v1
//       policy=tac}". Grammar: [COUNTx]{<experiment spec>}[@offset_s],
//       whitespace-separated (runtime/multijob.h, DESIGN.md §6).
//   tictac_cli lower --jobs "<multijob spec>" [--dump] [--json]
//       Lower a composed scenario — each job chunked, sharded and
//       scheduled by its Runner, then replica expansion, PS lowering,
//       multi-job merging, arrival offsets in ONE ir::PassPipeline
//       invocation (DESIGN.md §10) with per-pass invariant checks, via
//       the shared-fabric builder — then simulate and report per-job
//       and combined results. --dump prints each pass's module summary;
//       a bare experiment spec (no braces) is accepted as a single job,
//       e.g.
//       --jobs "envG:workers=4:ps=2:training:chunk=4096:shard=even
//       model=VGG-16 policy=tac".
//   tictac_cli clustersweep --jobs "<job groups>" [--fabrics K]
//                           [--threads N] [--json]
//       Datacenter-scale contended sweep (DESIGN.md §11): partition N
//       jobs (same group grammar as multijob, but counts up to 4096)
//       over K shared PS fabrics — K = 0 or absent picks the fewest the
//       64-job per-fabric cap allows — merge them into one task graph
//       and simulate it on the sharded event engine, e.g.
//       --jobs "1000x{envG:workers=2:ps=1:training model=AlexNet v2
//       policy=tac iterations=2 seed=1}" --threads 8. The report
//       (per-job iteration-time distribution, total throughput, Jain
//       fairness) is byte-identical at every --threads value.
//   tictac_cli serve --arrivals "<arrival spec>" [--fabrics K]
//                    [--duration T] [--job "<experiment spec>"]...
//                    [--placement <name>] [--max-jobs N] [--queue N]
//                    [--seed N] [--faults "<fault spec>"]
//                    [--retry-budget N] [--trace out.json] [--json]
//       Long-running cluster-scheduler service (DESIGN.md §7): an open
//       system where jobs arrive over time (poisson:rate=...,
//       bursty:rate=...:burst=..., or trace:<csv>), are admitted and
//       placed onto one of K shared PS fabrics, and SLO metrics
//       (p50/p99 slowdown, windowed Jain fairness, utilization,
//       queueing delay) are reported. --job gives the synthetic
//       workload templates (repeatable, cycled); --trace dumps the
//       per-job record array as JSON. --faults injects a deterministic
//       fault timeline (DESIGN.md §8) — stragglers, slow links, NIC
//       flaps, worker/fabric crashes — and the report grows MTTR,
//       retry, lost-work, and goodput metrics.
//   tictac_cli exec [--model <name>] [--policy <name>]... [--workers N]
//                   [--ps K] [--iters I] [--seed N] [--straggler w=F]...
//                   [--deterministic] [--link-jitter SIGMA] [--json]
//       Execute the lowered task graph for real on the in-process
//       parameter-server backend (src/exec/, DESIGN.md §9): real
//       worker/PS threads, real tensor push/pull, the policy's send
//       order enforced at each worker. The measured trace calibrates
//       the platform constants and the run reports predicted vs
//       measured iteration time per policy. --policy is repeatable
//       (default: baseline, tic, tac); --straggler w=F slows worker w
//       by factor F; --deterministic swaps the wall clock for a
//       reproducible virtual clock (byte-identical JSON per seed).
//   tictac_cli simulate <model> [--workers N] [--ps N] [--training]
//                       [--policy <name>] [--iterations N] [--env envC]
//       Simulate a cluster and report throughput / E / stragglers.
//   tictac_cli compare <model> [--workers N] [--ps N] [--training]
//       Every registered policy side by side against the baseline.
//   tictac_cli export-graph <model> [--training]
//       Serialize the worker partition (core/io.h text format).
//   tictac_cli export-dot <model> [--training]
//       Graphviz DOT of the worker partition with TIC priorities.
//
// Policy names are core::PolicyRegistry specs ("tic", "tac", "random:7",
// "reverse:tac", ...). The spec/sweep grammar is documented in
// DESIGN.md §5 and runtime/spec.h.
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/io.h"
#include "core/policy_registry.h"
#include "core/tic.h"
#include "exec/validate.h"
#include "fault/fault.h"
#include "harness/session.h"
#include "ir/pass.h"
#include "models/builder.h"
#include "models/zoo.h"
#include "runtime/clustersweep.h"
#include "sched/placement.h"
#include "util/table.h"

using namespace tictac;

namespace {

struct Args {
  std::string command;
  std::string model;
  std::string env = "envG";
  int workers = 4;
  int ps = 1;
  bool training = false;
  std::string policy = "tic";
  int iterations = 10;
  // run/sweep/multijob: the joined spec text plus output/executor options.
  std::string spec_text;
  int parallelism = 0;  // 0 = default (all cores for sweep)
  bool no_isolated = false;  // multijob: skip the isolated references
  bool dump = false;         // lower: per-pass module summaries
  enum class Emit { kTable, kCsv, kJson } emit = Emit::kTable;
  // serve: the service configuration (defaults mirror ServiceConfig).
  std::string arrivals;
  std::vector<std::string> serve_jobs;  // --job templates, repeatable
  int fabrics = 1;
  double duration = 10.0;
  std::string placement = "least-loaded";
  int max_jobs = 8;
  int queue = 64;
  std::uint64_t seed = 1;
  std::string trace_out;  // --trace: per-job JSON records file
  std::string faults;     // --faults: fault::FaultSpec grammar
  int retry_budget = 3;   // --retry-budget: evictions before failure
  // clustersweep: fabric count (0 = fewest the cap allows) and engine
  // threads (0 = hardware concurrency).
  int sweep_fabrics = 0;
  int threads = 0;
  // exec: sim-to-real validation knobs (exec::ExecSpec).
  std::vector<std::string> exec_policies;          // --policy, repeatable
  std::vector<std::pair<int, double>> stragglers;  // --straggler w=F
  bool deterministic = false;                      // virtual clock
  double link_jitter = 0.0;                        // lognormal sigma
};

int Usage() {
  std::cerr
      << "usage:\n"
         "  tictac_cli models\n"
         "  tictac_cli policies\n"
         "  tictac_cli schedule <model> [--policy <name>] [--training]\n"
         "  tictac_cli run --spec \"<spec>\"\n"
         "  tictac_cli sweep --sweep \"<sweep>\" [--parallel N] "
         "[--csv|--json]\n"
         "  tictac_cli multijob --jobs \"<multijob>\" [--no-isolated] "
         "[--json]\n"
         "  tictac_cli lower --jobs \"<multijob>\" [--dump] [--json]\n"
         "  tictac_cli clustersweep --jobs \"<job groups>\" [--fabrics K] "
         "[--threads N] [--json]\n"
         "  tictac_cli serve --arrivals \"<arrival>\" [--fabrics K] "
         "[--duration T] [--job \"<spec>\"]... [--placement <name>] "
         "[--max-jobs N] [--queue N] [--seed N] [--faults \"<faults>\"] "
         "[--retry-budget N] [--trace FILE] [--json]\n"
         "  tictac_cli exec [--model <name>] [--policy <name>]... "
         "[--workers N] [--ps K] [--iters I] [--seed N] "
         "[--straggler w=F]... [--deterministic] [--link-jitter SIGMA] "
         "[--json]\n"
         "  tictac_cli simulate <model> [--workers N] [--ps N] "
         "[--training] [--policy <name>] [--iterations N] [--env envC]\n"
         "  tictac_cli compare <model> [--workers N] [--ps N] "
         "[--training]\n"
         "  tictac_cli export-graph <model> [--training]\n"
         "  tictac_cli export-dot <model> [--training]\n"
         "spec grammar:  envG:workers=8:ps=4:training model=VGG-16 "
         "policy=tac iterations=10 seed=1\n"
         "sweep grammar: comma lists on any axis, e.g. "
         "envG:workers=2,4,8:ps=1 models=VGG-16,Inception v2 "
         "policies=baseline,tic\n"
         "multijob grammar: whitespace-separated [COUNTx]{<spec>}[@offset_s]"
         " groups — COUNTx replicates the braced experiment spec, @offset_s "
         "delays its start by offset_s seconds (both optional), e.g. "
         "2x{envG:workers=4:ps=2:training model=ResNet-101 v1 "
         "policy=tac} {envG:workers=2:ps=2 model=VGG-16}@0.05\n"
         "arrival grammar: poisson:rate=R | bursty:rate=R:burst=B | "
         "trace:<csv of `t,<spec>` rows>\n"
         "fault grammar:  ';'-joined clauses or trace:<csv>, e.g. "
         "straggler:worker=2:factor=3:at=1:for=2; "
         "slowlink:nic=0:scale=0.25:at=1:for=2; crash:worker=2:at=5; "
         "crash:fabric=1:at=5; flap:nic=0:period=0.5:at=1:for=3\n"
         "placements: ";
  bool first_placement = true;
  for (const auto& name : sched::PlacementPolicyNames()) {
    std::cerr << (first_placement ? "" : ", ") << name;
    first_placement = false;
  }
  std::cerr << "\npolicies (see `tictac_cli policies`): ";
  bool first = true;
  for (const auto& name : core::PolicyRegistry::Global().List()) {
    std::cerr << (first ? "" : ", ") << name;
    first = false;
  }
  std::cerr << "\n";
  return 2;
}

int CmdListPolicies() {
  util::Table table({"Policy", "Needs oracle", "Example spec"});
  const auto& registry = core::PolicyRegistry::Global();
  for (const auto& name : registry.List()) {
    const auto policy = registry.Create(name);
    table.AddRow({name, policy->RequiresOracle() ? "yes" : "no",
                  policy->name()});
  }
  table.Print(std::cout);
  return 0;
}

// Whole-string integer parse; returns false (→ usage, exit 2) instead of
// letting std::stoi abort the process on "--workers abc".
bool ParseIntFlag(const char* value, int& out) {
  if (!value) return false;
  try {
    std::size_t consumed = 0;
    const int parsed = std::stoi(value, &consumed);
    if (consumed != std::strlen(value)) return false;
    out = parsed;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

bool ParseDoubleFlag(const char* value, double& out) {
  if (!value) return false;
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(value, &consumed);
    if (consumed != std::strlen(value)) return false;
    out = parsed;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

bool ParseSeedFlag(const char* value, std::uint64_t& out) {
  if (!value) return false;
  try {
    std::size_t consumed = 0;
    const unsigned long long parsed = std::stoull(value, &consumed);
    if (consumed != std::strlen(value)) return false;
    out = parsed;
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

bool Parse(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.command = argv[1];
  if (args.command == "--list-policies") {
    args.command = "policies";
    return true;
  }
  int i = 2;
  const bool spec_command = args.command == "run" ||
                            args.command == "sweep" ||
                            args.command == "multijob" ||
                            args.command == "lower" ||
                            args.command == "clustersweep" ||
                            args.command == "serve";
  // Name the offender before any positional-argument checks, so a bare
  // `tictac_cli frobnicate` says what was wrong instead of just printing
  // usage (pinned in tests/cli_smoke_test.cc).
  const bool exec_command = args.command == "exec";
  if (!spec_command && !exec_command && args.command != "models" &&
      args.command != "policies" && args.command != "schedule" &&
      args.command != "simulate" && args.command != "compare" &&
      args.command != "export-graph" && args.command != "export-dot") {
    std::cerr << "unknown command: " << args.command << "\n";
    return false;
  }
  // exec takes its model through --model (it has a default), not
  // positionally like schedule/simulate/compare.
  if (!spec_command && !exec_command && args.command != "models" &&
      args.command != "policies") {
    if (i >= argc) return false;
    args.model = argv[i++];
  }
  for (; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto append_spec = [&](const std::string& text) {
      if (!args.spec_text.empty()) args.spec_text += ' ';
      args.spec_text += text;
    };
    // run/sweep take their parameters from the spec text alone, and the
    // spec/executor/emit flags belong only to them; accepting a flag a
    // command never reads would silently ignore it.
    if (spec_command &&
        (flag == "--training" || flag == "--workers" || flag == "--ps" ||
         flag == "--policy" || flag == "--iterations" || flag == "--env")) {
      std::cerr << args.command << ": " << flag
                << " is not accepted — put it in the spec text, e.g. "
                   "\"envG:workers=8:ps=2:training ... iterations=5\"\n";
      return false;
    }
    // Each spec command owns a specific flag set: run --spec, sweep
    // --sweep/--parallel/--csv/--json, multijob --jobs/--no-isolated/
    // --json, serve its service knobs. Rejecting the rest keeps the rule
    // above symmetric — no command silently ignores a flag it never
    // reads.
    const bool serve_family =
        flag == "--arrivals" || flag == "--fabrics" ||
        flag == "--duration" || flag == "--job" || flag == "--placement" ||
        flag == "--max-jobs" || flag == "--queue" || flag == "--seed" ||
        flag == "--trace" || flag == "--faults" || flag == "--retry-budget";
    const bool spec_family = flag == "--spec" || flag == "--sweep" ||
                             flag == "--jobs" || flag == "--no-isolated" ||
                             flag == "--dump" || flag == "--parallel" ||
                             flag == "--csv" || flag == "--json" ||
                             flag == "--threads" || serve_family;
    // exec's own flag set; rejected with the same symmetry everywhere else.
    const bool exec_family = flag == "--model" || flag == "--iters" ||
                             flag == "--straggler" ||
                             flag == "--deterministic" ||
                             flag == "--link-jitter";
    if (exec_family && !exec_command) {
      std::cerr << args.command << ": " << flag
                << " is not accepted (--model/--iters/--straggler/"
                   "--deterministic/--link-jitter belong to exec)\n";
      return false;
    }
    if (spec_family) {
      const bool allowed =
          (args.command == "run" && flag == "--spec") ||
          (args.command == "sweep" &&
           (flag == "--sweep" || flag == "--parallel" || flag == "--csv" ||
            flag == "--json")) ||
          (args.command == "multijob" &&
           (flag == "--jobs" || flag == "--no-isolated" ||
            flag == "--json")) ||
          (args.command == "lower" &&
           (flag == "--jobs" || flag == "--dump" || flag == "--json")) ||
          (args.command == "clustersweep" &&
           (flag == "--jobs" || flag == "--fabrics" ||
            flag == "--threads" || flag == "--json")) ||
          (args.command == "serve" && (serve_family || flag == "--json")) ||
          (exec_command && (flag == "--seed" || flag == "--json"));
      if (!allowed) {
        std::cerr << args.command << ": " << flag
                  << " is not accepted (--spec belongs to run; "
                     "--sweep/--parallel/--csv/--json to sweep; "
                     "--jobs/--no-isolated/--json to multijob; "
                     "--jobs/--dump/--json to lower; "
                     "--jobs/--fabrics/--threads/--json to clustersweep; "
                     "--arrivals/--fabrics/--duration/--job/--placement/"
                     "--max-jobs/--queue/--seed/--faults/--retry-budget/"
                     "--trace/--json to serve; --seed/--json also to "
                     "exec)\n";
        return false;
      }
    }
    if (flag == "--training") {
      args.training = true;
    } else if (flag == "--workers") {
      if (!ParseIntFlag(next(), args.workers)) return false;
    } else if (flag == "--ps") {
      if (!ParseIntFlag(next(), args.ps)) return false;
    } else if (flag == "--env") {
      const char* v = next();
      if (!v) return false;
      args.env = v;
    } else if (flag == "--policy") {
      const char* v = next();
      if (!v) return false;
      args.policy = v;
      // exec compares several policies side by side; collect repeats.
      if (exec_command) args.exec_policies.emplace_back(v);
    } else if (flag == "--model") {
      const char* v = next();
      if (!v) return false;
      args.model = v;
    } else if (flag == "--iters") {
      if (!ParseIntFlag(next(), args.iterations)) return false;
    } else if (flag == "--straggler") {
      const char* v = next();
      if (!v) return false;
      const std::string text = v;
      const std::size_t eq = text.find('=');
      int worker = 0;
      double factor = 0.0;
      if (eq == std::string::npos ||
          !ParseIntFlag(text.substr(0, eq).c_str(), worker) ||
          !ParseDoubleFlag(text.substr(eq + 1).c_str(), factor)) {
        std::cerr << "--straggler expects worker=factor, e.g. "
                     "--straggler 1=2.5\n";
        return false;
      }
      if (worker < 0 || factor < 1.0) {
        std::cerr << "--straggler needs worker >= 0 and factor >= 1\n";
        return false;
      }
      args.stragglers.emplace_back(worker, factor);
    } else if (flag == "--deterministic") {
      args.deterministic = true;
    } else if (flag == "--link-jitter") {
      if (!ParseDoubleFlag(next(), args.link_jitter)) return false;
      if (args.link_jitter < 0.0) {
        std::cerr << "--link-jitter must be >= 0\n";
        return false;
      }
    } else if (flag == "--iterations") {
      if (!ParseIntFlag(next(), args.iterations)) return false;
    } else if (flag == "--spec" || flag == "--sweep" || flag == "--jobs") {
      const char* v = next();
      if (!v) return false;
      append_spec(v);
    } else if (flag == "--no-isolated") {
      args.no_isolated = true;
    } else if (flag == "--dump") {
      args.dump = true;
    } else if (flag == "--arrivals") {
      const char* v = next();
      if (!v) return false;
      args.arrivals = v;
    } else if (flag == "--job") {
      const char* v = next();
      if (!v) return false;
      args.serve_jobs.emplace_back(v);
    } else if (flag == "--fabrics") {
      // serve and clustersweep both take --fabrics; they default
      // differently (1 fabric vs fewest-that-fit), so they keep
      // separate fields.
      int* dst = args.command == "clustersweep" ? &args.sweep_fabrics
                                                : &args.fabrics;
      if (!ParseIntFlag(next(), *dst)) return false;
    } else if (flag == "--threads") {
      if (!ParseIntFlag(next(), args.threads)) return false;
      if (args.threads < 0) {
        std::cerr << "--threads must be >= 0 (0 = all cores)\n";
        return false;
      }
    } else if (flag == "--duration") {
      if (!ParseDoubleFlag(next(), args.duration)) return false;
    } else if (flag == "--placement") {
      const char* v = next();
      if (!v) return false;
      args.placement = v;
    } else if (flag == "--max-jobs") {
      if (!ParseIntFlag(next(), args.max_jobs)) return false;
    } else if (flag == "--queue") {
      if (!ParseIntFlag(next(), args.queue)) return false;
    } else if (flag == "--seed") {
      if (!ParseSeedFlag(next(), args.seed)) return false;
    } else if (flag == "--trace") {
      const char* v = next();
      if (!v) return false;
      args.trace_out = v;
    } else if (flag == "--faults") {
      const char* v = next();
      if (!v) return false;
      args.faults = v;
    } else if (flag == "--retry-budget") {
      if (!ParseIntFlag(next(), args.retry_budget)) return false;
    } else if (flag == "--parallel") {
      if (!ParseIntFlag(next(), args.parallelism)) return false;
      if (args.parallelism < 1) {
        std::cerr << "--parallel must be >= 1\n";
        return false;
      }
    } else if (flag == "--csv") {
      args.emit = Args::Emit::kCsv;
    } else if (flag == "--json") {
      args.emit = Args::Emit::kJson;
    } else if (flag == "--list-policies") {
      args.command = "policies";
    } else if (spec_command && args.command != "serve" &&
               flag.rfind("--", 0) != 0) {
      // Unquoted spec text: join the stray tokens back together. (serve
      // takes its specs through --arrivals/--job, never positionally.)
      append_spec(flag);
    } else {
      std::cerr << "unknown flag: " << flag << "\n";
      return false;
    }
  }
  return true;
}

int CmdModels() {
  util::Table table({"Model", "#Par", "MiB", "#Ops inf", "#Ops train",
                     "Batch", "Family"});
  for (const auto& info : models::ModelZoo()) {
    table.AddRow({info.name, std::to_string(info.num_params),
                  util::Fmt(info.total_param_mib, 2),
                  std::to_string(info.ops_inference),
                  std::to_string(info.ops_training),
                  std::to_string(info.standard_batch),
                  ToString(info.family)});
  }
  table.Print(std::cout);
  return 0;
}

int CmdSchedule(const Args& args) {
  const auto& info = models::FindModel(args.model);
  const core::Graph graph =
      models::BuildWorkerGraph(info, {.training = args.training});
  const auto policy = core::PolicyRegistry::Global().Create(args.policy);
  const core::PropertyIndex index(graph);
  const core::AnalyticalTimeOracle oracle{core::PlatformModel{}};
  const core::Schedule schedule = policy->Compute(index, oracle);
  std::cout << "# priority list for " << info.name << " ("
            << (args.training ? "training" : "inference") << ", "
            << policy->name() << ")\n"
            << "# rank param bytes priority op\n";
  int rank = 0;
  for (const core::OpId r : schedule.RecvOrder(graph)) {
    const core::Op& op = graph.op(r);
    std::cout << rank++ << " " << op.param << " " << op.bytes << " ";
    if (schedule.HasPriority(r)) {
      std::cout << schedule.priority(r);
    } else {
      std::cout << "-";  // the policy assigns no priority to this recv
    }
    std::cout << " " << op.name << "\n";
  }
  return 0;
}

int RunAndPrint(const runtime::ExperimentSpec& spec) {
  harness::Session session;
  const auto result = session.Run(spec);
  std::cout << "spec: " << spec.ToString() << "\n";
  std::cout << "  mean iteration time: "
            << util::Fmt(result.MeanIterationTime() * 1e3, 2) << " ms\n";
  std::cout << "  throughput:          " << util::Fmt(result.Throughput(), 1)
            << " samples/s\n";
  std::cout << "  scheduling eff. E:   "
            << util::Fmt(result.MeanEfficiency(), 3) << "\n";
  std::cout << "  comm/comp overlap:   " << util::Fmt(result.MeanOverlap(), 3)
            << "\n";
  std::cout << "  max straggler share: "
            << util::Fmt(result.MaxStragglerPct(), 1) << "%\n";
  return 0;
}

int CmdRun(const Args& args) {
  if (args.spec_text.empty()) {
    std::cerr << "run: missing experiment spec (use --spec \"...\")\n";
    return 2;
  }
  return RunAndPrint(runtime::ExperimentSpec::Parse(args.spec_text));
}

int CmdSweep(const Args& args) {
  if (args.spec_text.empty()) {
    std::cerr << "sweep: missing sweep spec (use --sweep \"...\")\n";
    return 2;
  }
  const auto sweep = runtime::SweepSpec::Parse(args.spec_text);
  const int parallelism = args.parallelism > 0
                              ? args.parallelism
                              : harness::Session::DefaultParallelism();
  harness::Session session;
  const harness::ResultTable results = session.RunAll(sweep, parallelism);
  switch (args.emit) {
    case Args::Emit::kCsv:
      std::cout << results.ToCsv();
      break;
    case Args::Emit::kJson:
      std::cout << results.ToJson();
      break;
    case Args::Emit::kTable:
      std::cerr << "sweep: " << results.size() << " runs ("
                << session.cached_runners() << " distinct graphs) on "
                << parallelism << " threads\n";
      results.ToTable().Print(std::cout);
      break;
  }
  return 0;
}

int CmdMultiJob(const Args& args) {
  if (args.spec_text.empty()) {
    std::cerr << "multijob: missing job list (use --jobs "
                 "\"2x{<experiment spec>} {<experiment spec>}@0.05\")\n";
    return 2;
  }
  const auto spec = runtime::MultiJobSpec::Parse(args.spec_text);
  harness::Session session;
  const harness::MultiJobReport report =
      session.RunMultiJob(spec, /*with_isolated=*/!args.no_isolated);
  if (args.emit == Args::Emit::kJson) {
    std::cout << report.ToJson();
    return 0;
  }
  std::cerr << "multijob: " << spec.jobs.size() << " jobs, "
            << spec.TotalWorkers() << " workers on "
            << spec.jobs.front().spec.cluster.ps << " shared PS ("
            << spec.jobs.front().spec.cluster.env << ")\n";
  std::cout << "combined: mean iteration "
            << util::Fmt(report.result.combined.MeanIterationTime() * 1e3, 2)
            << " ms, aggregate throughput "
            << util::Fmt(report.result.combined.Throughput(), 1)
            << " samples/s\n";
  report.ToTable().Print(std::cout);
  if (!report.isolated.empty()) {
    std::cout << "interference: mean slowdown "
              << util::Fmt(report.interference.mean_slowdown, 3) << "x, max "
              << util::Fmt(report.interference.max_slowdown, 3)
              << "x, Jain fairness "
              << util::Fmt(report.interference.fairness, 3) << "\n";
  }
  return 0;
}

int CmdLower(const Args& args) {
  if (args.spec_text.empty()) {
    std::cerr << "lower: missing job list (use --jobs "
                 "\"{<experiment spec>} {<experiment spec>}@0.05\"; a bare "
                 "experiment spec is accepted as a single job)\n";
    return 2;
  }
  // A bare experiment spec (no braces) is sugar for one job.
  std::string text = args.spec_text;
  if (text.find('{') == std::string::npos) text = '{' + text + '}';
  const auto spec = runtime::MultiJobSpec::Parse(text);

  // Every job's Runner chunks, shards and schedules it; the whole fabric
  // then lowers as ONE PassPipeline invocation over one ir::Module
  // (DESIGN.md §10), through the builder every multi-job surface uses.
  std::cerr << "lower: " << spec.jobs.size() << " job(s), "
            << spec.TotalWorkers() << " workers on "
            << spec.jobs.front().spec.cluster.ps << " shared PS\n";
  std::vector<std::string> passes;
  ir::PipelineOptions options;
  options.check_invariants = true;  // validate the module after every pass
  options.dump = [&](const std::string& pass, const ir::Module& module) {
    passes.push_back(pass);
    if (args.dump) {
      std::cerr << "  [after " << pass << "] " << module.DebugSummary()
                << "\n";
    }
  };
  runtime::RunnerCache cache;
  const runtime::SharedFabric fabric =
      runtime::BuildSharedFabric(spec.jobs, cache, options);
  std::cerr << "lower: pass pipeline:";
  for (const auto& name : passes) std::cerr << ' ' << name;
  std::cerr << "\n";
  const runtime::MultiJobResult result = runtime::RunSharedFabric(
      fabric, spec.jobs.front().spec.iterations, spec.jobs.front().spec.seed);

  if (args.emit == Args::Emit::kJson) {
    std::cout << "{\n  \"passes\": [";
    bool first = true;
    for (const auto& name : passes) {
      std::cout << (first ? "\"" : ", \"") << name << "\"";
      first = false;
    }
    std::cout << "],\n  \"combined\": {\"mean_iteration_s\": "
              << runtime::FormatDouble(result.combined.MeanIterationTime())
              << ", \"throughput\": "
              << runtime::FormatDouble(result.combined.Throughput())
              << "},\n  \"jobs\": [\n";
    for (std::size_t j = 0; j < result.jobs.size(); ++j) {
      const runtime::ExperimentSpec& job = spec.jobs[j].spec;
      std::cout << "    {\"model\": \"" << job.model << "\", \"policy\": \""
                << job.policy << "\", \"workers\": " << job.cluster.workers
                << ", \"mean_iteration_s\": "
                << runtime::FormatDouble(result.jobs[j].MeanIterationTime())
                << ", \"throughput\": "
                << runtime::FormatDouble(result.jobs[j].Throughput()) << "}"
                << (j + 1 < result.jobs.size() ? ",\n" : "\n");
    }
    std::cout << "  ]\n}\n";
    return 0;
  }

  std::cout << "combined: mean iteration "
            << util::Fmt(result.combined.MeanIterationTime() * 1e3, 2)
            << " ms, aggregate throughput "
            << util::Fmt(result.combined.Throughput(), 1) << " samples/s\n";
  util::Table table({"Job", "Model", "Policy", "Workers", "Iteration (ms)",
                     "Throughput", "E", "Overlap"});
  for (std::size_t j = 0; j < result.jobs.size(); ++j) {
    const runtime::ExperimentSpec& job = spec.jobs[j].spec;
    table.AddRow({std::to_string(j), job.model, job.policy,
                  std::to_string(job.cluster.workers),
                  util::Fmt(result.jobs[j].MeanIterationTime() * 1e3, 2),
                  util::Fmt(result.jobs[j].Throughput(), 1),
                  util::Fmt(result.jobs[j].MeanEfficiency(), 3),
                  util::Fmt(result.jobs[j].MeanOverlap(), 3)});
  }
  table.Print(std::cout);
  return 0;
}

int CmdClusterSweep(const Args& args) {
  if (args.spec_text.empty()) {
    std::cerr << "clustersweep: missing job list (use --jobs "
                 "\"1000x{<experiment spec>}\")\n";
    return 2;
  }
  // Same group grammar as multijob, but replication counts up to 4096 —
  // the sweep partitions them over fabrics instead of packing one.
  std::vector<runtime::MultiJobEntry> jobs =
      runtime::ParseJobGroups(args.spec_text, /*max_count=*/4096);
  runtime::ClusterSweepOptions options;
  options.fabrics = args.sweep_fabrics;
  options.num_threads = args.threads;
  const runtime::ClusterSweep sweep(std::move(jobs), options);
  const runtime::ClusterSweepResult result = sweep.Run();
  if (args.emit == Args::Emit::kJson) {
    std::cout << result.ToJson();
    return 0;
  }
  std::cerr << "clustersweep: " << result.jobs << " jobs over "
            << result.fabrics << " fabrics (" << result.components
            << " engine shards), " << result.iterations << " iterations\n";
  util::Table table({"Metric", "Value"});
  table.AddRow({"mean makespan (ms)",
                util::Fmt(result.mean_makespan_s * 1e3, 2)});
  table.AddRow({"mean job iteration (ms)",
                util::Fmt(result.mean_job_iteration_s * 1e3, 2)});
  table.AddRow({"p50 job iteration (ms)",
                util::Fmt(result.p50_job_iteration_s * 1e3, 2)});
  table.AddRow({"p99 job iteration (ms)",
                util::Fmt(result.p99_job_iteration_s * 1e3, 2)});
  table.AddRow({"total throughput (samples/s)",
                util::Fmt(result.total_throughput, 1)});
  table.AddRow({"Jain fairness", util::Fmt(result.fairness, 3)});
  table.Print(std::cout);
  return 0;
}

int CmdServe(const Args& args) {
  if (args.arrivals.empty()) {
    std::cerr << "serve: missing arrival process (use --arrivals "
                 "\"poisson:rate=40\", \"bursty:rate=4:burst=8\", or "
                 "\"trace:arrivals.csv\")\n";
    return 2;
  }
  sched::ServiceConfig config;
  config.arrivals = sched::ArrivalSpec::Parse(args.arrivals);
  for (const std::string& job : args.serve_jobs) {
    config.workload.push_back(runtime::ExperimentSpec::Parse(job));
  }
  if (config.workload.empty() &&
      config.arrivals.kind != sched::ArrivalSpec::Kind::kTrace) {
    // A small default template so `serve --arrivals ...` works out of
    // the box; real studies pass their own --job specs.
    config.workload.push_back(runtime::ExperimentSpec::Parse(
        "envG:workers=4:ps=2:training model=Inception v2 policy=tac "
        "iterations=5"));
  }
  config.fabrics = args.fabrics;
  config.duration = args.duration;
  config.placement = args.placement;
  config.max_jobs_per_fabric = args.max_jobs;
  config.admission_queue_capacity = args.queue;
  config.seed = args.seed;
  if (!args.faults.empty()) {
    config.faults = fault::FaultSpec::Parse(args.faults);
  }
  config.retry_budget = args.retry_budget;
  harness::Session session;
  const sched::ServiceReport report = session.RunService(config);
  if (!args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    if (!out) {
      std::cerr << "serve: cannot write trace file '" << args.trace_out
                << "'\n";
      return 1;
    }
    out << report.JobTraceJson();
    std::cerr << "serve: wrote " << report.jobs.size() << " job records to "
              << args.trace_out << "\n";
  }
  if (args.emit == Args::Emit::kJson) {
    std::cout << report.ToJson();
    return 0;
  }
  std::cerr << "serve: " << report.counters.arrivals << " arrivals over "
            << util::Fmt(config.duration, 2) << " s on " << config.fabrics
            << " fabric(s), placement " << config.placement << "\n";
  report.ToTable().Print(std::cout);
  return 0;
}

int CmdExec(const Args& args) {
  exec::ExecSpec spec;  // exec is always a training (push/pull) workload
  if (!args.model.empty()) spec.model = models::FindModel(args.model).name;
  if (!args.exec_policies.empty()) spec.policies = args.exec_policies;
  spec.num_workers = args.workers;
  spec.num_ps = args.ps;
  spec.iterations = args.iterations;
  spec.seed = args.seed;
  spec.deterministic = args.deterministic;
  spec.link_jitter_sigma = args.link_jitter;
  if (!args.stragglers.empty()) {
    spec.straggler_factors.assign(
        static_cast<std::size_t>(spec.num_workers), 1.0);
    for (const auto& [worker, factor] : args.stragglers) {
      if (worker >= spec.num_workers) {
        std::cerr << "exec: --straggler worker " << worker
                  << " out of range (have " << spec.num_workers
                  << " workers)\n";
        return 2;
      }
      spec.straggler_factors[static_cast<std::size_t>(worker)] = factor;
    }
  }
  harness::Session session;
  const exec::ExecReport report = session.RunExec(spec);
  if (args.emit == Args::Emit::kJson) {
    std::cout << report.ToJson();
    return 0;
  }
  std::cout << report.ToTable();
  return 0;
}

int CmdSimulate(const Args& args) {
  runtime::ExperimentSpec spec;
  spec.model = models::FindModel(args.model).name;
  spec.cluster.env = args.env;
  spec.cluster.workers = args.workers;
  spec.cluster.ps = args.ps;
  spec.cluster.training = args.training;
  spec.policy = args.policy;
  spec.iterations = args.iterations;
  return RunAndPrint(spec);
}

int CmdCompare(const Args& args) {
  runtime::SweepSpec sweep;
  sweep.models = {models::FindModel(args.model).name};
  sweep.env = args.env;
  sweep.workers = {args.workers};
  sweep.ps = {args.ps};
  sweep.tasks = {args.training};
  // Registration order puts "baseline" first, so every speedup's
  // reference row is present.
  sweep.policies = core::PolicyRegistry::Global().List();
  sweep.iterations = args.iterations;
  harness::Session session;
  const harness::ResultTable results =
      session.RunAll(sweep, harness::Session::DefaultParallelism());
  util::Table table({"Policy", "Iteration (ms)", "Throughput", "Speedup",
                     "E", "Overlap", "Max straggler %"});
  for (const auto& row : results.rows()) {
    table.AddRow({row.spec.policy,
                  util::Fmt(row.mean_iteration_s * 1e3, 1),
                  util::Fmt(row.throughput, 1),
                  util::FmtPct(results.SpeedupVsBaseline(row)),
                  util::Fmt(row.mean_efficiency, 3),
                  util::Fmt(row.mean_overlap, 3),
                  util::Fmt(row.max_straggler_pct, 1)});
  }
  table.Print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, args)) return Usage();
  try {
    if (args.command == "models") return CmdModels();
    if (args.command == "policies") return CmdListPolicies();
    if (args.command == "schedule") return CmdSchedule(args);
    if (args.command == "run") return CmdRun(args);
    if (args.command == "sweep") return CmdSweep(args);
    if (args.command == "multijob") return CmdMultiJob(args);
    if (args.command == "lower") return CmdLower(args);
    if (args.command == "clustersweep") return CmdClusterSweep(args);
    if (args.command == "serve") return CmdServe(args);
    if (args.command == "exec") return CmdExec(args);
    if (args.command == "simulate") return CmdSimulate(args);
    if (args.command == "compare") return CmdCompare(args);
    if (args.command == "export-graph" || args.command == "export-dot") {
      const auto& info = models::FindModel(args.model);
      const core::Graph graph =
          models::BuildWorkerGraph(info, {.training = args.training});
      if (args.command == "export-graph") {
        std::cout << core::GraphToString(graph);
      } else {
        const core::Schedule tic = core::Tic(graph);
        std::cout << core::ToDot(graph, &tic);
      }
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "unknown command: " << args.command << "\n";
  return Usage();
}
