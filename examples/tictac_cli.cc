// tictac_cli — command-line front end over the public API. `tictac_cli`
// with no arguments prints every command's flags; each command rejects a
// flag it does not read.
//
//   models — List the model zoo with Table 1 characteristics.
//   policies — List the registered scheduling policies (also: tictac_cli
//       --list-policies).
//   schedule <model> — Print the priority list (the ordering wizard's
//       output, §5).
//   run — Execute one declaratively-specified experiment, e.g. --spec
//       "envG:workers=8:ps=4:training model=VGG-16 policy=tac".
//   sweep — Expand a cartesian grid and execute it on a thread pool, e.g.
//       --sweep "envG:workers=2,4,8:ps=1 models=VGG-16,Inception v2
//       policies=baseline,tic,tac". Emits an aligned table by default, CSV or
//       JSON on request; rows are deterministic for any N.
//   multijob — Co-locate N jobs on one shared PS fabric and report per-job
//       makespans plus slowdown/fairness against isolated runs, e.g. --jobs
//       "2x{envG:workers=4:ps=2:training model=ResNet-101 v1 policy=tac}".
//       Grammar: [COUNTx]{<experiment spec>}[@offset_s], whitespace-separated
//       (runtime/multijob.h, DESIGN.md §6).
//   lower — Lower a composed scenario — each job chunked, sharded and scheduled
//       by its Runner, then replica expansion, PS lowering, multi-job merging,
//       arrival offsets in ONE ir::RunLoweringPasses call (DESIGN.md §10) with
//       per-pass invariant checks, via the shared-fabric builder — then
//       simulate and report per-job and combined results. --dump prints each
//       pass's module summary; a bare experiment spec (no braces) is accepted
//       as a single job, e.g. --jobs
//       "envG:workers=4:ps=2:training:chunk=4096:shard=even model=VGG-16
//       policy=tac".
//   clustersweep — Datacenter-scale contended sweep (DESIGN.md §11): partition
//       N jobs (same group grammar as multijob, but up to 4096 in all) over K
//       shared PS fabrics — K = 0 or absent picks the fewest the 64-job
//       per-fabric cap allows — and simulate each fabric on its own engine,
//       the fabrics in parallel over --threads, e.g. --jobs
//       "1000x{envG:workers=2:ps=1:training model=AlexNet v2 policy=tac
//       iterations=2 seed=1}" --threads 8. The report (per-job iteration-time
//       distribution, total throughput, Jain fairness) is byte-identical at
//       every --threads value.
//   serve — Long-running cluster-scheduler service (DESIGN.md §7): an open
//       system where jobs arrive over time (poisson:rate=...,
//       bursty:rate=...:burst=..., or trace:<csv>), are admitted and placed
//       onto one of K shared PS fabrics, and SLO metrics (p50/p99 slowdown,
//       windowed Jain fairness, utilization, queueing delay) are reported.
//       --job gives the synthetic workload templates (repeatable, cycled);
//       --trace dumps the per-job record array as JSON. --faults injects a
//       deterministic fault timeline (DESIGN.md §8) — stragglers, slow links,
//       NIC flaps, worker/fabric crashes — and the report grows MTTR, retry,
//       lost-work, and goodput metrics.
//   exec — Execute the lowered task graph for real on the in-process
//       parameter-server backend (src/exec/, DESIGN.md §9): real worker/PS
//       threads, real tensor push/pull, the policy's send order enforced at
//       each worker. The measured trace calibrates the platform constants and
//       the run reports predicted vs measured iteration time per policy.
//       --policy is repeatable (default: baseline, tic, tac); --straggler w=F
//       slows worker w by factor F; --deterministic swaps the wall clock for a
//       reproducible virtual clock (byte-identical JSON per seed).
//   simulate <model> — Simulate a cluster and report throughput / E /
//       stragglers.
//   compare <model> — Every registered policy side by side against the
//       baseline.
//   export-graph <model> — Serialize the worker partition (core/io.h text
//       format).
//   export-dot <model> — Graphviz DOT of the worker partition with TIC
//       priorities.
//
// Policy names are core::PolicyRegistry specs ("tic", "tac", "random:7",
// "reverse:tac", ...). The spec/sweep grammar is documented in
// DESIGN.md §5 and runtime/spec.h. The command and flag tables at the
// bottom drive parsing, the usage text and dispatch.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/io.h"
#include "core/policy_registry.h"
#include "core/tic.h"
#include "exec/validate.h"
#include "fault/fault.h"
#include "harness/session.h"
#include "ir/passes.h"
#include "models/builder.h"
#include "models/zoo.h"
#include "runtime/clustersweep.h"
#include "sched/placement.h"
#include "sched/service.h"
#include "util/parse.h"
#include "util/table.h"

using namespace tictac;

namespace {

// Every flag's destination; defaults are what a command sees when the
// flag is absent.
struct Args {
  std::string model;
  std::string env = "envG";
  int workers = 4;
  int ps = 1;
  bool training = false;
  std::vector<std::string> policies;  // --policy, repeatable
  int iterations = 10;
  // run/sweep/multijob/lower/clustersweep: the spec text pieces
  // (--spec/--sweep/--jobs values and stray tokens) plus output/executor
  // options.
  std::vector<std::string> spec;
  int parallelism = 0;       // 0 = default (all cores for sweep)
  bool no_isolated = false;  // multijob: skip the isolated references
  bool dump = false;         // lower: per-pass module summaries
  std::string emit;          // "--csv" or "--json"; empty = table
  // serve: the service configuration (defaults mirror ServiceConfig).
  std::string arrivals;
  std::vector<std::string> serve_jobs;  // --job templates, repeatable
  std::optional<int> fabrics;  // absent = the command's default
  double duration = 10.0;
  std::string placement = "least-loaded";
  int max_jobs = 8;
  int queue = 64;
  std::uint64_t seed = 1;
  std::string trace_out;  // --trace: per-job JSON records file
  std::string faults;     // --faults: fault::FaultSpec grammar
  int retry_budget = 3;   // --retry-budget: evictions before failure
  int threads = 0;        // clustersweep engine threads; 0 = all cores
  // exec: sim-to-real validation knobs (exec::ExecSpec).
  std::vector<std::string> stragglers;  // --straggler w=F, repeatable
  bool deterministic = false;           // virtual clock
  double link_jitter = 0.0;             // lognormal sigma
};

// Joins `parts` with `sep`; empty leading parts add no separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string text;
  for (const std::string& part : parts) {
    if (!text.empty()) text += sep;
    text += part;
  }
  return text;
}

std::string PlacementNames() {
  std::vector<std::string> names;
  for (const sched::PlacementPolicy& policy : sched::kPlacementPolicies) {
    names.emplace_back(policy.name);
  }
  return Join(names, ", ");
}

int CmdListPolicies(const Args&) {
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

int CmdModels(const Args&) {
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
  const auto policy = core::PolicyRegistry::Global().Create(
      args.policies.empty() ? "tic" : args.policies.back());
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
  return RunAndPrint(runtime::ExperimentSpec::Parse(Join(args.spec, " ")));
}

int CmdSweep(const Args& args) {
  const auto sweep = runtime::SweepSpec::Parse(Join(args.spec, " "));
  const int parallelism = args.parallelism > 0
                              ? args.parallelism
                              : harness::Session::DefaultParallelism();
  harness::Session session;
  const harness::ResultTable results = session.RunAll(sweep, parallelism);
  if (args.emit == "--csv") {
    std::cout << results.ToCsv();
  } else if (args.emit == "--json") {
    std::cout << results.ToJson();
  } else {
    std::cerr << "sweep: " << results.size() << " runs ("
              << session.cached_runners() << " distinct graphs) on "
              << parallelism << " threads\n";
    results.ToTable().Print(std::cout);
  }
  return 0;
}

int CmdMultiJob(const Args& args) {
  const auto spec = runtime::MultiJobSpec::Parse(Join(args.spec, " "));
  harness::Session session;
  const harness::MultiJobReport report =
      session.RunMultiJob(spec, /*with_isolated=*/!args.no_isolated);
  if (args.emit == "--json") {
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
  std::string text = Join(args.spec, " ");
  // A bare experiment spec (no braces) is sugar for one job.
  if (text.find('{') == std::string::npos) text = '{' + text + '}';
  const auto spec = runtime::MultiJobSpec::Parse(text);

  // Every job's Runner chunks, shards and schedules it; the whole fabric
  // then lowers as ONE ir::RunLoweringPasses call over one ir::Module
  // (DESIGN.md §10), through the builder every multi-job surface uses.
  std::cerr << "lower: " << spec.jobs.size() << " job(s), "
            << spec.TotalWorkers() << " workers on "
            << spec.jobs.front().spec.cluster.ps << " shared PS\n";
  std::vector<std::string> passes;
  // Setting the hook also validates the module after every pass.
  const ir::PassHook after_pass = [&](const std::string& pass,
                                      const ir::Module& module) {
    passes.push_back(pass);
    if (args.dump) {
      std::cerr << "  [after " << pass << "] " << module.DebugSummary()
                << "\n";
    }
  };
  runtime::RunnerCache cache;
  const runtime::SharedFabric fabric =
      runtime::BuildSharedFabric(spec.jobs, cache, after_pass);
  std::cerr << "lower: pass pipeline:";
  for (const auto& name : passes) std::cerr << ' ' << name;
  std::cerr << "\n";
  const runtime::MultiJobResult result = runtime::RunSharedFabric(
      fabric, spec.jobs.front().spec.iterations, spec.jobs.front().spec.seed);

  if (args.emit == "--json") {
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
  // Same group grammar as multijob, but up to 4096 jobs in all — the
  // sweep partitions them over fabrics instead of packing one.
  std::vector<runtime::MultiJobEntry> jobs =
      runtime::ParseJobGroups(Join(args.spec, " "), /*max_count=*/4096);
  runtime::ClusterSweepOptions options;
  options.fabrics = args.fabrics.value_or(options.fabrics);
  options.num_threads = args.threads;
  const runtime::ClusterSweep sweep(std::move(jobs), options);
  const runtime::ClusterSweepResult result = sweep.Run();
  if (args.emit == "--json") {
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
  config.fabrics = args.fabrics.value_or(config.fabrics);
  config.duration = args.duration;
  config.placement = args.placement;
  config.max_jobs_per_fabric = args.max_jobs;
  config.admission_queue_capacity = args.queue;
  config.seed = args.seed;
  if (!args.faults.empty()) {
    config.faults = fault::FaultSpec::Parse(args.faults);
  }
  config.retry_budget = args.retry_budget;
  const sched::ServiceReport report = sched::SchedulerService(config).Run();
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
  if (args.emit == "--json") {
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
  spec.num_workers = args.workers;
  for (const std::string& text : args.stragglers) {
    const std::vector<std::string_view> parts = util::Split(text, '=');
    const auto worker = util::ParseInt(parts.front());
    const auto factor = util::ParseDouble(parts.back());
    if (parts.size() != 2 || !worker || !factor) {
      std::cerr << "--straggler expects worker=factor, e.g. "
                   "--straggler 1=2.5\n";
      return 2;
    }
    if (*worker < 0 || *factor < 1.0) {
      std::cerr << "--straggler needs worker >= 0 and factor >= 1\n";
      return 2;
    }
    if (*worker >= spec.num_workers) {
      std::cerr << "exec: --straggler worker " << *worker
                << " out of range (have " << spec.num_workers
                << " workers)\n";
      return 2;
    }
    spec.straggler_factors.resize(static_cast<std::size_t>(spec.num_workers),
                                  1.0);
    spec.straggler_factors[static_cast<std::size_t>(*worker)] = *factor;
  }
  if (!args.model.empty()) spec.model = models::FindModel(args.model).name;
  if (!args.policies.empty()) spec.policies = args.policies;
  spec.num_ps = args.ps;
  spec.iterations = args.iterations;
  spec.seed = args.seed;
  spec.deterministic = args.deterministic;
  spec.link_jitter_sigma = args.link_jitter;
  const exec::ExecReport report = exec::ValidateAgainstSim(spec);
  if (args.emit == "--json") {
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
  spec.policy = args.policies.empty() ? "tic" : args.policies.back();
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

int CmdExportGraph(const Args& args) {
  const core::Graph graph = models::BuildWorkerGraph(
      models::FindModel(args.model), {.training = args.training});
  std::cout << core::GraphToString(graph);
  return 0;
}

int CmdExportDot(const Args& args) {
  const core::Graph graph = models::BuildWorkerGraph(
      models::FindModel(args.model), {.training = args.training});
  const core::Schedule tic = core::Tic(graph);
  std::cout << core::ToDot(graph, &tic);
  return 0;
}

// --- the command and flag tables --------------------------------------------

struct Command {
  std::string_view name;
  bool takes_model;  // a positional <model> follows the command
  bool joins_spec;   // stray (non-flag) tokens join the spec text
  int (*run)(const Args&);
  std::string_view requires_flag = "";  // whose text the command runs
};

const Command kCommands[] = {
    {"models", false, false, CmdModels},
    {"policies", false, false, CmdListPolicies},
    {"schedule", true, false, CmdSchedule},
    {"run", false, true, CmdRun, "--spec"},
    {"sweep", false, true, CmdSweep, "--sweep"},
    {"multijob", false, true, CmdMultiJob, "--jobs"},
    {"lower", false, true, CmdLower, "--jobs"},
    {"clustersweep", false, true, CmdClusterSweep, "--jobs"},
    {"serve", false, false, CmdServe, "--arrivals"},
    {"exec", false, false, CmdExec},
    {"simulate", true, false, CmdSimulate},
    {"compare", true, false, CmdCompare},
    {"export-graph", true, false, CmdExportGraph},
    {"export-dot", true, false, CmdExportDot},
};

// A switch sets its bool, or stores its own name in a string (--csv and
// --json share `emit`; the last one wins). A valued flag parses into its
// number, replaces its string, or appends to its list (repeatable).
using Field =
    std::variant<bool Args::*, int Args::*, std::optional<int> Args::*,
                 double Args::*, std::uint64_t Args::*, std::string Args::*,
                 std::vector<std::string> Args::*>;

struct Flag {
  std::string_view name;
  std::string_view metavar;   // empty for a switch
  std::string_view commands;  // ", "-separated: the commands that read it
  Field field;
  double min = -std::numeric_limits<double>::infinity();  // numbers only
  double max = std::numeric_limits<double>::infinity();
};

const Flag kFlags[] = {
    {"--spec", "\"<spec>\"", "run", &Args::spec},
    {"--sweep", "\"<sweep>\"", "sweep", &Args::spec},
    {"--jobs", "\"<job groups>\"", "multijob, lower, clustersweep",
     &Args::spec},
    {"--model", "<name>", "exec", &Args::model},
    {"--policy", "<name>", "schedule, exec, simulate", &Args::policies},
    {"--workers", "N", "exec, simulate, compare", &Args::workers},
    {"--ps", "N", "exec, simulate, compare", &Args::ps},
    {"--training", "", "schedule, simulate, compare, export-graph, export-dot",
     &Args::training},
    {"--iterations", "N", "simulate, compare", &Args::iterations, 1,
     runtime::kMaxIterations},
    {"--iters", "N", "exec", &Args::iterations, 1, runtime::kMaxIterations},
    {"--env", "<env>", "simulate, compare", &Args::env},
    {"--parallel", "N", "sweep", &Args::parallelism, 1},
    {"--no-isolated", "", "multijob", &Args::no_isolated},
    {"--dump", "", "lower", &Args::dump},
    {"--arrivals", "\"<arrival>\"", "serve", &Args::arrivals},
    {"--fabrics", "K", "clustersweep, serve", &Args::fabrics},
    {"--threads", "N", "clustersweep", &Args::threads, 0},
    {"--duration", "T", "serve", &Args::duration},
    {"--job", "\"<spec>\"", "serve", &Args::serve_jobs},
    {"--placement", "<name>", "serve", &Args::placement},
    {"--max-jobs", "N", "serve", &Args::max_jobs},
    {"--queue", "N", "serve", &Args::queue},
    {"--seed", "N", "serve, exec", &Args::seed},
    {"--faults", "\"<faults>\"", "serve", &Args::faults},
    {"--retry-budget", "N", "serve", &Args::retry_budget},
    {"--trace", "FILE", "serve", &Args::trace_out},
    {"--straggler", "w=F", "exec", &Args::stragglers},
    {"--deterministic", "", "exec", &Args::deterministic},
    {"--link-jitter", "SIGMA", "exec", &Args::link_jitter, 0},
    {"--csv", "", "sweep", &Args::emit},
    {"--json", "", "sweep, multijob, lower, clustersweep, serve, exec",
     &Args::emit},
};

const Flag* FindFlag(std::string_view name) {
  const Flag* flag =
      std::find_if(std::begin(kFlags), std::end(kFlags),
                   [&](const Flag& f) { return f.name == name; });
  return flag == std::end(kFlags) ? nullptr : flag;
}

bool Reads(const Flag& flag, std::string_view command) {
  const std::string list = ", " + std::string(flag.commands) + ", ";
  return list.find(", " + std::string(command) + ", ") != std::string::npos;
}

int Usage() {
  std::cerr << "usage:\n";
  for (const Command& command : kCommands) {
    std::cerr << "  tictac_cli " << command.name
              << (command.takes_model ? " <model>" : "");
    for (const Flag& flag : kFlags) {
      if (!Reads(flag, command.name)) continue;
      const bool repeatable =
          std::holds_alternative<std::vector<std::string> Args::*>(flag.field);
      std::cerr << " [" << flag.name << (flag.metavar.empty() ? "" : " ")
                << flag.metavar << (repeatable ? "]..." : "]");
    }
    std::cerr << "\n";
  }
  std::cerr
      << "spec grammar:  envG:workers=8:ps=4:training model=VGG-16 "
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
         "placements: "
      << PlacementNames()
      << "\npolicies (see `tictac_cli policies`): "
      << Join(core::PolicyRegistry::Global().List(), ", ") << "\n";
  return 2;
}

// Writes one flag's value (a switch passes its own name) into its field;
// false, after naming the flag, on a malformed or out-of-bounds number.
bool Store(const Flag& flag, std::string_view value, std::string_view command,
           Args& args) {
  return std::visit(
      [&](auto field) {
        auto& dst = args.*field;
        using T = std::decay_t<decltype(dst)>;
        if constexpr (std::is_same_v<T, bool>) {
          dst = true;
        } else if constexpr (std::is_same_v<T, std::string>) {
          dst = value;
        } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
          dst.emplace_back(value);
        } else {
          using Number =  // int for a std::optional<int> field
              std::conditional_t<std::is_arithmetic_v<T>, T, int>;
          const std::optional<Number> number = util::ParseNumber<Number>(value);
          if (!number) {
            std::cerr << command << ": " << flag.name << " expects "
                      << util::NumberKind<Number>() << ", got '" << value
                      << "'\n";
            return false;
          }
          if (*number < flag.min) {
            std::cerr << command << ": " << flag.name << " must be >= "
                      << flag.min << "\n";
            return false;
          }
          if (*number > flag.max) {
            std::cerr << command << ": " << flag.name << " must be <= "
                      << static_cast<std::int64_t>(flag.max) << "\n";
            return false;
          }
          dst = *number;
        }
        return true;
      },
      flag.field);
}

// Fills `args` from argv and returns the command to run; nullptr (after
// naming the offender) means usage and exit 2.
const Command* Parse(int argc, char** argv, Args& args) {
  if (argc < 2) return nullptr;
  const std::string_view name =
      std::string_view(argv[1]) == "--list-policies" ? "policies" : argv[1];
  const Command* command = std::find_if(
      std::begin(kCommands), std::end(kCommands),
      [&](const Command& c) { return c.name == name; });
  if (command == std::end(kCommands)) {
    std::cerr << "unknown command: " << name << "\n";
    return nullptr;
  }
  int i = 2;
  if (command->takes_model) {
    if (i >= argc) return nullptr;
    args.model = argv[i++];
  }
  for (; i < argc; ++i) {
    const std::string_view token = argv[i];
    const Flag* flag = FindFlag(token);
    if (!flag) {
      if (command->joins_spec && !token.starts_with("--")) {
        args.spec.emplace_back(token);  // unquoted spec text
        continue;
      }
      std::cerr << "unknown flag: " << token << "\n";
      return nullptr;
    }
    if (!Reads(*flag, name)) {
      std::cerr << name << ": " << token
                << " is not accepted (its uses belong to " << flag->commands
                << ")\n";
      return nullptr;
    }
    std::string_view value = token;
    if (!flag->metavar.empty()) {
      if (++i >= argc) {
        std::cerr << name << ": " << token << " expects " << flag->metavar
                  << "\n";
        return nullptr;
      }
      value = argv[i];
    }
    if (!Store(*flag, value, name, args)) return nullptr;
  }
  // A required flag holds spec text: a string, or the spec pieces.
  if (const Flag* flag = FindFlag(command->requires_flag)) {
    const auto* text = std::get_if<std::string Args::*>(&flag->field);
    const auto* pieces =
        std::get_if<std::vector<std::string> Args::*>(&flag->field);
    if (text ? (args.*(*text)).empty() : Join(args.*(*pieces), " ").empty()) {
      std::cerr << name << ": missing " << flag->name << ' ' << flag->metavar
                << "\n";
      return nullptr;
    }
  }
  return command;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  const Command* command = Parse(argc, argv, args);
  if (!command) return Usage();
  try {
    return command->run(args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
