// Differential pinning of the pass-based lowering pipeline against the
// FROZEN pre-IR implementations (runtime/reference_lowering.h): every
// legacy-expressible scenario must reproduce the pre-refactor task
// graph BIT FOR BIT — same tasks in the same emission order, same
// durations/resources/priorities/gates/preds, same worker tables — over
// the model zoo, the grammar's ablation knobs, and a large sweep of
// random DAGs.
#include "ir/lower.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/tic.h"
#include "models/builder.h"
#include "models/random_dag.h"
#include "models/zoo.h"
#include "runtime/allreduce.h"
#include "runtime/lowering.h"
#include "runtime/multijob.h"
#include "runtime/reference_lowering.h"
#include "runtime/runner.h"
#include "runtime/sharding.h"

namespace tictac::runtime {
namespace {

void ExpectTasksIdentical(const sim::TaskGraph& got,
                          const std::vector<sim::Task>& want,
                          const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t t = 0; t < got.size(); ++t) {
    const sim::Task& b = want[t];
    const std::string at = context + ", task " + std::to_string(t);
    EXPECT_EQ(got.duration[t], b.duration) << at;  // bitwise: no tolerance
    EXPECT_EQ(got.resource[t], b.resource) << at;
    EXPECT_EQ(got.priority[t], b.priority) << at;
    EXPECT_EQ(got.gate_group[t], b.gate_group) << at;
    EXPECT_EQ(got.gate_rank[t], b.gate_rank) << at;
    EXPECT_EQ(std::vector<sim::TaskId>(got.preds(t).begin(),
                                       got.preds(t).end()),
              b.preds)
        << at;
    EXPECT_EQ(got.op[t], b.op) << at;
    EXPECT_EQ(got.kind[t], b.kind) << at;
    EXPECT_EQ(got.worker[t], b.worker) << at;
  }
}

void ExpectLoweringIdentical(const Lowering& got,
                             const reference::Lowering& want,
                             const std::string& context) {
  ExpectTasksIdentical(got.tasks, want.tasks, context);
  EXPECT_EQ(got.num_resources, want.num_resources) << context;
  EXPECT_EQ(got.num_workers, want.num_workers) << context;
  EXPECT_EQ(got.worker_tasks, want.worker_tasks) << context;
  EXPECT_EQ(got.worker_recv_tasks, want.worker_recv_tasks) << context;
  EXPECT_EQ(got.transfer_param, want.transfer_param) << context;
  EXPECT_EQ(got.update_task, want.update_task) << context;
  EXPECT_EQ(got.worker_sink, want.worker_sink) << context;
}

void ExpectMultiJobIdentical(const MultiJobLowering& got,
                             const reference::MultiJobLowering& want,
                             const std::string& context) {
  ExpectLoweringIdentical(got.combined, want.combined, context + " combined");
  EXPECT_EQ(got.total_workers, want.total_workers) << context;
  EXPECT_EQ(got.num_ps, want.num_ps) << context;
  ASSERT_EQ(got.jobs.size(), want.jobs.size()) << context;
  for (std::size_t j = 0; j < got.jobs.size(); ++j) {
    const std::string at = context + ", job " + std::to_string(j);
    EXPECT_EQ(got.jobs[j].first_task, want.jobs[j].first_task) << at;
    EXPECT_EQ(got.jobs[j].last_task, want.jobs[j].last_task) << at;
    EXPECT_EQ(got.jobs[j].first_worker, want.jobs[j].first_worker) << at;
    EXPECT_EQ(got.jobs[j].delay_task, want.jobs[j].delay_task) << at;
    EXPECT_EQ(got.jobs[j].start_offset, want.jobs[j].start_offset) << at;
  }
}

// ---------------------------------------------------------------------------
// Zoo x policy x task: LowerCluster

TEST(Differential, ClusterLoweringMatchesReferenceAcrossZoo) {
  for (const auto& info : models::ModelZoo()) {
    for (const bool training : {false, true}) {
      const Runner runner(info, EnvG(2, 2, training));
      for (const char* policy : {"baseline", "tic", "tac"}) {
        const core::Schedule schedule = runner.MakeSchedule(policy);
        const std::string context =
            info.name + (training ? "/train/" : "/infer/") + policy;
        ExpectLoweringIdentical(
            LowerCluster(runner.worker_graph(), schedule,
                         runner.ps_of_param(), runner.config()),
            reference::LowerCluster(runner.worker_graph(), schedule,
                                    runner.ps_of_param(), runner.config()),
            context);
      }
    }
  }
}

TEST(Differential, ChunkedShardedClusterMatchesReference) {
  for (const char* model : {"Inception v2", "VGG-16"}) {
    ClusterConfig config = EnvG(3, 2, true);
    config.chunk_bytes = 1 << 20;
    config.shard = ShardStrategy::kEven;
    const Runner runner(models::FindModel(model), config);
    const core::Schedule schedule = runner.MakeSchedule("tic");
    ExpectLoweringIdentical(
        LowerCluster(runner.worker_graph(), schedule, runner.ps_of_param(),
                     runner.config()),
        reference::LowerCluster(runner.worker_graph(), schedule,
                                runner.ps_of_param(), runner.config()),
        std::string(model) + "/chunked+even");
  }
}

TEST(Differential, EnforcementVariantsMatchReference) {
  for (const Enforcement enforcement :
       {Enforcement::kPriorityOnly, Enforcement::kHandoffGate,
        Enforcement::kDagChain}) {
    ClusterConfig config = EnvG(2, 2, true);
    config.enforcement = enforcement;
    const Runner runner(models::FindModel("Inception v1"), config);
    const core::Schedule schedule = runner.MakeSchedule("tic");
    ExpectLoweringIdentical(
        LowerCluster(runner.worker_graph(), schedule, runner.ps_of_param(),
                     runner.config()),
        reference::LowerCluster(runner.worker_graph(), schedule,
                                runner.ps_of_param(), runner.config()),
        std::string("enforcement ") + ToString(enforcement));
  }
}

// ---------------------------------------------------------------------------
// LowerPipeline

TEST(Differential, PipelineLoweringMatchesReference) {
  for (const bool training : {false, true}) {
    const Runner runner(models::FindModel("Inception v1"),
                        EnvG(2, 2, training));
    const core::Schedule schedule = runner.MakeSchedule("tic");
    for (const int iterations : {1, 2, 4}) {
      const PipelineLowering got =
          LowerPipeline(runner.worker_graph(), schedule,
                        runner.ps_of_param(), runner.config(), iterations);
      const reference::PipelineLowering want = reference::LowerPipeline(
          runner.worker_graph(), schedule, runner.ps_of_param(),
          runner.config(), iterations);
      const std::string context = std::string(training ? "train" : "infer") +
                                  "/k=" + std::to_string(iterations);
      ExpectLoweringIdentical(got.lowering, want.lowering, context);
      EXPECT_EQ(got.task_iteration, want.task_iteration) << context;
      EXPECT_EQ(got.iterations, want.iterations) << context;
    }
  }
}

TEST(Differential, PipelineValidatesIterationsBeforeLowering) {
  const Runner runner(models::FindModel("Inception v1"), EnvG(2, 1, true));
  EXPECT_THROW(LowerPipeline(runner.worker_graph(), core::Schedule{},
                             runner.ps_of_param(), runner.config(), 0),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// LowerAllReduce

TEST(Differential, AllReduceMatchesReferenceAcrossZoo) {
  for (const auto& info : models::ModelZoo()) {
    for (const int workers : {2, 5}) {
      ClusterConfig config = EnvG(workers, 1, true);
      config.topology = Topology::kRing;
      const core::Graph graph =
          models::BuildWorkerGraph(info, {.training = true});
      ExpectLoweringIdentical(
          LowerAllReduce(graph, config),
          reference::LowerAllReduce(graph, config),
          info.name + "/ring/W=" + std::to_string(workers));
    }
  }
}

TEST(Differential, AllReduceKeepsLegacyErrorPrecedence) {
  const core::Graph graph = models::BuildWorkerGraph(
      models::FindModel("Inception v1"), {.training = true});
  ClusterConfig config = EnvG(1, 1, true);
  try {
    LowerAllReduce(graph, config);
    FAIL() << "expected the worker-count diagnostic";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "all-reduce needs >= 2 workers");
  }
  config = EnvG(4, 1, false);
  try {
    LowerAllReduce(graph, config);
    FAIL() << "expected the training-only diagnostic";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "all-reduce applies to training only");
  }
}

// ---------------------------------------------------------------------------
// LowerSharedCluster

TEST(Differential, SharedClusterMatchesReference) {
  // Three jobs, mixed models/policies/worker counts, one with an arrival
  // offset — the full multi-job surface.
  std::vector<std::unique_ptr<Runner>> runners;
  std::vector<core::Schedule> schedules;
  std::vector<double> offsets{0.0, 0.05, 0.0};
  runners.push_back(std::make_unique<Runner>(
      models::FindModel("Inception v1"), EnvG(2, 2, true)));
  runners.push_back(std::make_unique<Runner>(models::FindModel("VGG-16"),
                                             EnvG(3, 2, true)));
  runners.push_back(std::make_unique<Runner>(
      models::FindModel("Inception v2"), EnvG(2, 2, false)));
  schedules.push_back(runners[0]->MakeSchedule("tac"));
  schedules.push_back(runners[1]->MakeSchedule("baseline"));
  schedules.push_back(runners[2]->MakeSchedule("tic"));

  std::vector<JobLoweringInput> inputs;
  for (std::size_t j = 0; j < runners.size(); ++j) {
    inputs.push_back(JobLoweringInput{
        runners[j]->worker_graph(), schedules[j], runners[j]->ps_of_param(),
        runners[j]->config(), offsets[j]});
  }
  ExpectMultiJobIdentical(LowerSharedCluster(inputs),
                          reference::LowerSharedCluster(inputs),
                          "3-job fabric");
  // A single zero-offset job must degenerate to LowerCluster bit for bit
  // through both implementations.
  std::vector<JobLoweringInput> single;
  single.push_back(JobLoweringInput{runners[0]->worker_graph(), schedules[0],
                                    runners[0]->ps_of_param(),
                                    runners[0]->config(), 0.0});
  ExpectMultiJobIdentical(LowerSharedCluster(single),
                          reference::LowerSharedCluster(single), "1-job");
}

TEST(Differential, SharedClusterKeepsLegacyErrorPrecedence) {
  try {
    LowerSharedCluster({});
    FAIL() << "expected the empty-jobs diagnostic";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "multijob: LowerSharedCluster needs >= 1 job");
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
    LowerSharedCluster(inputs);
    FAIL() << "expected the ps-mismatch diagnostic";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "all jobs must share the PS fleet: got num_ps=2 vs 1"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Random DAGs: 110 seeds through every preset

class RandomDagDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomDagDifferential, AllPresetsMatchReference) {
  const std::uint64_t seed = GetParam();
  models::RandomDagOptions options;
  options.num_recvs = 3 + static_cast<int>(seed % 6);
  options.num_computes = 5 + static_cast<int>(seed % 11);
  options.num_layers = 2 + static_cast<int>(seed % 4);
  options.with_sends = (seed % 3) != 0;  // training needs gradient pushes
  const core::Graph graph = models::MakeRandomDag(options, seed);

  ClusterConfig config =
      EnvG(1 + static_cast<int>(seed % 4), 1 + static_cast<int>(seed % 3),
           /*training=*/options.with_sends);
  if (seed % 4 == 1) config.enforcement = Enforcement::kPriorityOnly;
  if (seed % 4 == 2) config.enforcement = Enforcement::kDagChain;

  // Params of a random DAG are the recv indices.
  std::vector<int> ps_of_param(static_cast<std::size_t>(options.num_recvs));
  for (std::size_t p = 0; p < ps_of_param.size(); ++p) {
    ps_of_param[p] = static_cast<int>(p) % config.num_ps;
  }
  const core::Schedule schedule =
      (seed % 2) ? core::Tic(graph) : core::Schedule{};
  const std::string context = "seed " + std::to_string(seed);

  ExpectLoweringIdentical(
      LowerCluster(graph, schedule, ps_of_param, config),
      reference::LowerCluster(graph, schedule, ps_of_param, config),
      context);

  const int iterations = 1 + static_cast<int>(seed % 3);
  const PipelineLowering got_pipeline =
      LowerPipeline(graph, schedule, ps_of_param, config, iterations);
  const reference::PipelineLowering want_pipeline = reference::LowerPipeline(
      graph, schedule, ps_of_param, config, iterations);
  ExpectLoweringIdentical(got_pipeline.lowering, want_pipeline.lowering,
                          context + "/pipeline");
  EXPECT_EQ(got_pipeline.task_iteration, want_pipeline.task_iteration)
      << context;

  if (config.training && config.num_workers >= 2) {
    ExpectLoweringIdentical(LowerAllReduce(graph, config),
                            reference::LowerAllReduce(graph, config),
                            context + "/ring");
  }

  // Two copies of the job on one shared fabric, the second delayed.
  std::vector<JobLoweringInput> inputs;
  inputs.push_back(JobLoweringInput{graph, schedule, ps_of_param, config});
  inputs.push_back(
      JobLoweringInput{graph, schedule, ps_of_param, config, 0.01});
  ExpectMultiJobIdentical(LowerSharedCluster(inputs),
                          reference::LowerSharedCluster(inputs),
                          context + "/shared");
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagDifferential,
                         ::testing::Range<std::uint64_t>(0, 110));

}  // namespace
}  // namespace tictac::runtime
