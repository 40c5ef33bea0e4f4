// Multi-job shared-cluster lowering (DESIGN.md §6): spec grammar
// round-trips, fabric-sharing validation, the 1-job bit-identity with
// the single-job Session path, per-job/combined slicing consistency,
// genuine cross-job contention, and arrival offsets.
#include "runtime/multijob.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/session.h"
#include "models/zoo.h"
#include "util/stats.h"

#include "lowering_hash.h"

namespace tictac::runtime {
namespace {

ExperimentSpec Job(const std::string& model, int workers, int ps,
                   bool training, const std::string& policy,
                   int iterations = 3, std::uint64_t seed = 5) {
  ExperimentSpec spec;
  spec.model = model;
  spec.cluster.workers = workers;
  spec.cluster.ps = ps;
  spec.cluster.training = training;
  spec.policy = policy;
  spec.iterations = iterations;
  spec.seed = seed;
  return spec;
}

TEST(MultiJobSpec, ToStringRoundTripsAndCollapsesReplicas) {
  MultiJobSpec spec;
  spec.jobs.push_back({Job("Inception v1", 4, 2, true, "tac"), 0.0});
  spec.jobs.push_back({Job("Inception v1", 4, 2, true, "tac"), 0.0});
  spec.jobs.push_back({Job("VGG-16", 2, 2, false, "baseline"), 0.05});

  const std::string text = spec.ToString();
  EXPECT_NE(text.find("2x{"), std::string::npos) << text;
  EXPECT_NE(text.find("}@0.05"), std::string::npos) << text;
  EXPECT_EQ(MultiJobSpec::Parse(text), spec);
}

TEST(MultiJobSpec, ParseExpandsCountsAndAcceptsJobsPrefix) {
  const auto with_prefix = MultiJobSpec::Parse(
      "jobs=2x{envG:workers=2:ps=1:training model=Inception v1 policy=tic "
      "iterations=3 seed=5}");
  ASSERT_EQ(with_prefix.jobs.size(), 2u);
  EXPECT_EQ(with_prefix.jobs[0], with_prefix.jobs[1]);
  EXPECT_EQ(with_prefix.jobs[0].spec.model, "Inception v1");

  const auto without_prefix = MultiJobSpec::Parse(
      "2x{envG:workers=2:ps=1:training model=Inception v1 policy=tic "
      "iterations=3 seed=5}");
  EXPECT_EQ(with_prefix, without_prefix);
}

TEST(MultiJobSpec, ParseRejectsMalformedInput) {
  EXPECT_THROW(MultiJobSpec::Parse(""), std::invalid_argument);
  EXPECT_THROW(MultiJobSpec::Parse("jobs="), std::invalid_argument);
  EXPECT_THROW(MultiJobSpec::Parse("2x"), std::invalid_argument);
  EXPECT_THROW(MultiJobSpec::Parse("0x{envG:workers=2:ps=1 model=VGG-16}"),
               std::invalid_argument);
  EXPECT_THROW(
      MultiJobSpec::Parse("{envG:workers=2:ps=1 model=VGG-16"),  // no '}'
      std::invalid_argument);
  EXPECT_THROW(
      MultiJobSpec::Parse(
          "{envG:workers=2:ps=1 model=VGG-16 iterations=3 seed=5}@later"),
      std::invalid_argument);
}

// max_count caps the running total before anything is appended, so a
// list of groups can neither pass the cap nor grow without bound.
TEST(MultiJobSpec, ParseJobGroupsCapsTheTotal) {
  const std::string job =
      "{envG:workers=2:ps=1 model=VGG-16 iterations=3 seed=5}";
  EXPECT_EQ(ParseJobGroups("4096x" + job, 4096).size(), 4096u);
  const auto message = [](const std::string& text, long long max_count) {
    try {
      ParseJobGroups(text, max_count);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_NE(message("4096x" + job + " 4096x" + job + " 4096x" + job, 4096)
                .find("at most 4096 jobs in all, got 8192 at '4096x{"),
            std::string::npos);
  std::string singles;
  for (int i = 0; i < 65; ++i) singles += job + " ";
  EXPECT_NE(message(singles, 64).find("at most 64 jobs in all, got 65"),
            std::string::npos);
  EXPECT_THROW(MultiJobSpec::Parse(singles), std::invalid_argument);
  EXPECT_EQ(MultiJobSpec::Parse("63x" + job + " " + job).jobs.size(), 64u);
}

TEST(MultiJobSpec, ValidateEnforcesTheSharedFabric) {
  MultiJobSpec mismatched_ps;
  mismatched_ps.jobs.push_back({Job("VGG-16", 2, 1, false, "tic"), 0.0});
  mismatched_ps.jobs.push_back({Job("VGG-16", 2, 2, false, "tic"), 0.0});
  EXPECT_THROW(mismatched_ps.Validate(), std::invalid_argument);

  MultiJobSpec mismatched_env;
  mismatched_env.jobs.push_back({Job("VGG-16", 2, 1, false, "tic"), 0.0});
  mismatched_env.jobs.push_back({Job("VGG-16", 2, 1, false, "tic"), 0.0});
  mismatched_env.jobs[1].spec.cluster.env = "envC";
  EXPECT_THROW(mismatched_env.Validate(), std::invalid_argument);

  MultiJobSpec mismatched_seed;
  mismatched_seed.jobs.push_back({Job("VGG-16", 2, 1, false, "tic"), 0.0});
  mismatched_seed.jobs.push_back(
      {Job("VGG-16", 2, 1, false, "tic", 3, /*seed=*/9), 0.0});
  EXPECT_THROW(mismatched_seed.Validate(), std::invalid_argument);

  MultiJobSpec negative_offset;
  negative_offset.jobs.push_back({Job("VGG-16", 2, 1, false, "tic"), -1.0});
  EXPECT_THROW(negative_offset.Validate(), std::invalid_argument);

  MultiJobSpec empty;
  EXPECT_THROW(empty.Validate(), std::invalid_argument);
}

// Every per-iteration statistic and summary of `got` equals `want`'s,
// bit for bit.
void ExpectSameResult(const ExperimentResult& got,
                      const ExperimentResult& want) {
  ASSERT_EQ(got.iterations.size(), want.iterations.size());
  for (std::size_t i = 0; i < want.iterations.size(); ++i) {
    EXPECT_EQ(got.iterations[i].makespan, want.iterations[i].makespan);
    EXPECT_EQ(got.iterations[i].worker_finish,
              want.iterations[i].worker_finish);
    EXPECT_EQ(got.iterations[i].straggler_pct,
              want.iterations[i].straggler_pct);
    EXPECT_EQ(got.iterations[i].mean_efficiency,
              want.iterations[i].mean_efficiency);
    EXPECT_EQ(got.iterations[i].overlap_fraction,
              want.iterations[i].overlap_fraction);
    EXPECT_EQ(got.iterations[i].recv_order, want.iterations[i].recv_order);
  }
  EXPECT_EQ(got.samples_per_iteration, want.samples_per_iteration);
  EXPECT_EQ(got.Throughput(), want.Throughput());
  EXPECT_EQ(got.MeanIterationTime(), want.MeanIterationTime());
  EXPECT_EQ(got.UniqueRecvOrders(), want.UniqueRecvOrders());
}

// The acceptance bar of the subsystem: one job on the shared fabric IS
// the single-job path, bit for bit — same schedule (the bandwidth scale
// degenerates to exactly 1), same task graph, same seeds, same stats.
TEST(MultiJob, SingleJobBitIdenticalToSession) {
  const ExperimentSpec spec = Job("Inception v1", 2, 1, true, "tac");
  MultiJobSpec multi;
  multi.jobs.push_back({spec, 0.0});

  harness::Session session;
  const ExperimentResult single = session.Run(spec);
  const MultiJobRunner runner(multi);
  const MultiJobResult shared = runner.Run();

  ASSERT_EQ(shared.jobs.size(), 1u);
  ExpectSameResult(shared.jobs[0], single);
  ExpectSameResult(shared.combined, single);
}

// Replicated jobs share one Runner and one schedule through an injected
// cache, and the fabric built from it is the one a fresh cache builds.
TEST(MultiJob, InjectedCacheSharesRunnersAcrossReplicas) {
  MultiJobSpec multi;
  multi.jobs.assign(64, {Job("AlexNet v2", 1, 1, true, "tac", 2), 0.0});
  RunnerCache cache;
  const MultiJobRunner shared(multi, &cache);
  EXPECT_EQ(cache.size(), 1u);
  const RunnerCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.runner_builds, 1u);
  EXPECT_EQ(counters.schedules_computed, 1u);
  EXPECT_EQ(counters.schedule_hits, 63u);

  const MultiJobResult got = shared.Run();
  const MultiJobResult want = MultiJobRunner(multi).Run();
  ASSERT_EQ(got.jobs.size(), want.jobs.size());
  ExpectSameResult(got.combined, want.combined);
  for (std::size_t j = 0; j < want.jobs.size(); ++j) {
    ExpectSameResult(got.jobs[j], want.jobs[j]);
  }

  // The same spec on fabrics of 2 and of 4 workers sees two contention
  // levels: two Runners.
  RunnerCache sizes;
  for (const std::size_t n : {2u, 4u}) {
    MultiJobSpec fabric;
    fabric.jobs.assign(n, multi.jobs.front());
    const MultiJobRunner runner(fabric, &sizes);
  }
  EXPECT_EQ(sizes.size(), 2u);
}

// A 1-job fabric and LowerCluster are the same export: the same tasks,
// tables, update/sink hooks and job slice, hashed whole.
TEST(MultiJob, SingleJobLoweringMatchesLowerCluster) {
  MultiJobSpec multi;
  multi.jobs.push_back({Job("Inception v1", 2, 1, true, "tic"), 0.0});
  const MultiJobRunner runner(multi);
  const Lowering& lowering = runner.fabric().lowering;

  ASSERT_EQ(lowering.jobs.size(), 1u);
  EXPECT_FALSE(lowering.update_task.empty());
  const Runner single(models::FindModel("Inception v1"),
                      multi.jobs[0].spec.BuildCluster());
  const Lowering local =
      LowerCluster(single.worker_graph(), single.MakeSchedule("tic"),
                   single.ps_of_param(), single.config());
  LoweringHash fabric_hash;
  fabric_hash.AddFabric(lowering);
  LoweringHash local_hash;
  local_hash.AddFabric(local);
  EXPECT_EQ(fabric_hash.value(), local_hash.value());
}

// Each task belongs to exactly one job, so the combined makespan is the
// max over the per-job makespans, iteration by iteration — the "sums
// consistently" criterion.
TEST(MultiJob, CombinedMakespanIsMaxOverJobs) {
  MultiJobSpec multi;
  multi.jobs.push_back({Job("Inception v1", 2, 2, true, "tac"), 0.0});
  multi.jobs.push_back({Job("VGG-16", 2, 2, false, "baseline"), 0.0});
  const MultiJobRunner runner(multi);
  const MultiJobResult result = runner.Run();

  ASSERT_EQ(result.jobs.size(), 2u);
  for (std::size_t i = 0; i < result.combined.iterations.size(); ++i) {
    double max_job = 0.0;
    for (const ExperimentResult& job : result.jobs) {
      max_job = std::max(max_job, job.iterations[i].makespan);
    }
    EXPECT_EQ(result.combined.iterations[i].makespan, max_job);
  }
  EXPECT_EQ(result.combined.samples_per_iteration,
            result.jobs[0].samples_per_iteration +
                result.jobs[1].samples_per_iteration);
}

TEST(MultiJob, SharedFabricLayoutCollapsesPsResources) {
  MultiJobSpec multi;
  multi.jobs.push_back({Job("Inception v1", 2, 2, true, "tic"), 0.0});
  multi.jobs.push_back({Job("Inception v1", 3, 2, true, "tic"), 0.0});
  const MultiJobRunner runner(multi);
  const Lowering& lowering = runner.fabric().lowering;

  const int T = lowering.num_workers;
  const int S = lowering.num_ps;
  EXPECT_EQ(T, 5);
  EXPECT_EQ(S, 2);
  EXPECT_EQ(lowering.num_resources, T + 2 * T * S + S);
  // Both jobs' PS-side tasks (read/aggregate/update) land on the shared
  // S bookkeeping CPUs at the top of the layout.
  const int ps_base = T + 2 * T * S;
  for (const JobSlice& slice : lowering.jobs) {
    bool saw_ps_task = false;
    const sim::TaskGraph& tasks = lowering.tasks;
    for (sim::TaskId t = slice.first_task; t < slice.last_task; ++t) {
      const auto ti = static_cast<std::size_t>(t);
      if (tasks.worker[ti] < 0) {
        EXPECT_GE(tasks.resource[ti], ps_base);
        EXPECT_LT(tasks.resource[ti], ps_base + S);
        saw_ps_task = true;
      }
    }
    EXPECT_TRUE(saw_ps_task);
  }
}

// Co-locating a second job must genuinely slow both down: the PS NICs
// are time-shared by every worker in the fabric and the PS CPUs are
// shared simulator resources.
TEST(MultiJob, ContentionSlowsEveryJob) {
  MultiJobSpec multi;
  multi.jobs.push_back({Job("Inception v1", 2, 1, true, "tac"), 0.0});
  multi.jobs.push_back({Job("Inception v1", 2, 1, true, "tac"), 0.0});

  harness::Session session;
  const harness::MultiJobReport report = session.RunMultiJob(multi);
  ASSERT_EQ(report.interference.slowdown.size(), 2u);
  for (const double slowdown : report.interference.slowdown) {
    EXPECT_GT(slowdown, 1.05);
  }
  // Identical jobs must absorb the contention symmetrically.
  EXPECT_GT(report.interference.fairness, 0.99);
  EXPECT_GE(report.interference.max_slowdown,
            report.interference.mean_slowdown);
}

// Pins MultiJobReport::ToJson's shape — downstream tooling parses these
// keys, including the per-iteration p50/p99 slowdown distribution added
// with the scheduler service.
TEST(MultiJob, ReportJsonShapeIsPinned) {
  MultiJobSpec multi;
  multi.jobs.push_back({Job("Inception v1", 2, 1, true, "tac"), 0.0});
  multi.jobs.push_back({Job("Inception v1", 2, 1, true, "tac"), 0.0});
  harness::Session session;
  const harness::MultiJobReport report = session.RunMultiJob(multi);
  const std::string json = report.ToJson();
  for (const char* key :
       {"\"spec\": ", "\"combined\": {\"mean_iteration_s\": ",
        "\"throughput\": ", "\"jobs\": [", "\"job\": 0", "\"job\": 1",
        "\"model\": \"Inception v1\"", "\"policy\": \"tac\"",
        "\"start_offset_s\": ", "\"mean_iteration_s\": ",
        "\"mean_efficiency\": ", "\"mean_overlap\": ",
        "\"isolated_iteration_s\": ", "\"slowdown\": ",
        "\"p50_slowdown\": ", "\"p99_slowdown\": ", "\"mean_slowdown\": ",
        "\"max_slowdown\": ", "\"fairness\": "}) {
    EXPECT_NE(json.find(key), std::string::npos)
        << "missing " << key << " in:\n" << json;
  }
  // Per-iteration percentiles sit inside the observed slowdown range.
  const std::vector<double> ratios = report.IterationSlowdowns(0);
  ASSERT_EQ(ratios.size(), 3u);  // one per iteration
  const double p50 = util::Percentile(ratios, 0.5);
  const double p99 = util::Percentile(ratios, 0.99);
  EXPECT_GE(p99, p50);
  EXPECT_GE(p50, *std::min_element(ratios.begin(), ratios.end()));
  EXPECT_LE(p99, *std::max_element(ratios.begin(), ratios.end()));
  // Without isolated references the slowdown keys must be absent.
  const harness::MultiJobReport bare =
      session.RunMultiJob(multi, /*with_isolated=*/false);
  EXPECT_EQ(bare.ToJson().find("\"p50_slowdown\""), std::string::npos);
  EXPECT_TRUE(bare.IterationSlowdowns(0).empty());
}

TEST(MultiJob, RunMultiJobWithoutIsolatedSkipsReferences) {
  MultiJobSpec multi;
  multi.jobs.push_back({Job("Inception v1", 2, 1, false, "tic"), 0.0});
  harness::Session session;
  const harness::MultiJobReport report =
      session.RunMultiJob(multi, /*with_isolated=*/false);
  EXPECT_TRUE(report.isolated.empty());
  EXPECT_EQ(report.interference.mean_slowdown, 1.0);
  EXPECT_FALSE(report.result.jobs.empty());
}

// An arrival offset holds back every task of the delayed job: nothing
// of it may start before offset seconds.
TEST(MultiJob, StartOffsetDelaysTheJob) {
  ExperimentSpec spec = Job("Inception v1", 2, 1, true, "tac");
  spec.cluster.jitter_sigma = 0.0;  // the delay task's duration is exact
  spec.cluster.out_of_order = 0.0;

  MultiJobSpec plain;
  plain.jobs.push_back({spec, 0.0});
  MultiJobSpec delayed;
  delayed.jobs.push_back({spec, 0.5});

  const MultiJobRunner runner(delayed);
  const JobSlice& slice = runner.fabric().lowering.jobs[0];
  EXPECT_GE(slice.delay_task, 0);
  sim::TaskGraphSim sim = runner.fabric().lowering.BuildSim();
  sim::SimOptions options = spec.BuildCluster().sim;
  options.enforce_gates = true;
  const sim::SimResult run = sim.Run(options, spec.seed);
  for (sim::TaskId t = slice.first_task; t < slice.last_task; ++t) {
    EXPECT_GE(run.start[static_cast<std::size_t>(t)], 0.5);
  }

  // Per-job metrics run on the job's own clock (arrival = t = 0):
  // waiting for the offset is not billed as execution time, so the
  // delayed job's makespan stays in the ballpark of the plain run while
  // the combined fabric timeline carries the full offset.
  const MultiJobResult base = MultiJobRunner(plain).Run();
  const MultiJobResult shifted = MultiJobRunner(delayed).Run();
  for (std::size_t i = 0; i < base.jobs[0].iterations.size(); ++i) {
    EXPECT_LT(shifted.jobs[0].iterations[i].makespan,
              base.jobs[0].iterations[i].makespan + 0.5);
    EXPECT_NEAR(shifted.combined.iterations[i].makespan,
                shifted.jobs[0].iterations[i].makespan + 0.5, 1e-9);
  }

  // A lone delayed job suffers no contention, so its slowdown against
  // the isolated reference must be ~1, not offset/iteration-time.
  harness::Session session;
  const harness::MultiJobReport report = session.RunMultiJob(delayed);
  EXPECT_GT(report.interference.slowdown[0], 0.8);
  EXPECT_LT(report.interference.slowdown[0], 1.2);
}

TEST(MultiJob, MixedEnforcementJobsCoexist) {
  // A gated TAC job next to an ungated baseline job: gates stay on for
  // the scheduled job only, and both slices stay internally consistent.
  MultiJobSpec multi;
  multi.jobs.push_back({Job("Inception v1", 2, 1, true, "tac"), 0.0});
  multi.jobs.push_back({Job("AlexNet v2", 2, 1, false, "baseline"), 0.0});
  const MultiJobRunner runner(multi);
  const MultiJobResult result = runner.Run();
  for (const ExperimentResult& job : result.jobs) {
    for (const IterationStats& it : job.iterations) {
      EXPECT_GT(it.makespan, 0.0);
      for (const double finish : it.worker_finish) {
        EXPECT_LE(finish, it.makespan + 1e-12);
      }
    }
  }
}

TEST(MultiJob, SharedClusterKeepsLegacyErrorPrecedence) {
  try {
    Lower({});
    FAIL() << "expected the empty-jobs diagnostic";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "lowering: Lower needs >= 1 job");
  }
  const Runner a(models::FindModel("Inception v1"), EnvG(2, 1, true));
  const Runner b(models::FindModel("Inception v1"), EnvG(2, 2, true));
  const core::Schedule none;
  std::vector<JobLoweringInput> inputs;
  inputs.push_back(
      JobLoweringInput{a.worker_graph(), none, a.ps_of_param(), a.config()});
  inputs.push_back(
      JobLoweringInput{b.worker_graph(), none, b.ps_of_param(), b.config()});
  try {
    Lower(inputs);
    FAIL() << "expected the ps-mismatch diagnostic";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "all jobs must share the PS fleet: got num_ps=2 vs 1"),
              std::string::npos)
        << e.what();
  }
}

TEST(MultiJob, CoLocatedFlowJobsMustAgreeOnTheFabricTopology) {
  // One shared fabric has one fat-tree: lower_flow_nics refuses jobs
  // whose pods= / oversub= differ, naming both values.
  const MultiJobSpec spec = MultiJobSpec::Parse(
      "{envG:workers=2:ps=1:training:flow:pods=2:oversub=3 model=AlexNet v2 "
      "policy=tac iterations=1} {envG:workers=2:ps=1:training:flow:pods=1 "
      "model=AlexNet v2 policy=tac iterations=1}");
  RunnerCache cache;
  try {
    BuildSharedFabric(spec.jobs, cache);
    FAIL() << "expected the fabric-topology diagnostic";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "ir.lower_flow_nics: co-located jobs disagree on the fabric "
                 "topology (pods=1 vs 2, over=1 vs 3) — one fabric, one "
                 "topology");
  }
}

}  // namespace
}  // namespace tictac::runtime
