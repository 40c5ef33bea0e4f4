// harness::Session: Runner caching, the parallel sweep executor's
// determinism (bit-identical to serial execution), result emitters, and
// error propagation.
#include "harness/session.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "models/zoo.h"

namespace tictac::harness {
namespace {

runtime::ExperimentSpec SmallSpec(const std::string& model,
                                  const std::string& policy,
                                  std::uint64_t seed = 3,
                                  int iterations = 2) {
  runtime::ExperimentSpec spec;
  spec.model = model;
  spec.cluster.workers = 2;
  spec.cluster.ps = 1;
  spec.policy = policy;
  spec.seed = seed;
  spec.iterations = iterations;
  return spec;
}

TEST(Session, RunMatchesDirectRunnerBitForBit) {
  const auto spec = SmallSpec("Inception v1", "tic");
  Session session;
  const auto via_session = session.Run(spec);
  const runtime::Runner runner(models::FindModel(spec.model),
                               spec.BuildCluster());
  const auto direct = runner.Run(spec.policy, spec.iterations, spec.seed);
  ASSERT_EQ(via_session.iterations.size(), direct.iterations.size());
  for (std::size_t i = 0; i < direct.iterations.size(); ++i) {
    EXPECT_EQ(via_session.iterations[i].makespan,
              direct.iterations[i].makespan);
    EXPECT_EQ(via_session.iterations[i].recv_order,
              direct.iterations[i].recv_order);
  }
}

TEST(Session, CachesOneRunnerPerModelClusterPair) {
  Session session;
  const auto tic = SmallSpec("Inception v1", "tic");
  const auto tac = SmallSpec("Inception v1", "tac", /*seed=*/9);
  session.Run(tic);
  session.Run(tac);  // different policy + seed, same graph
  EXPECT_EQ(session.cached_runners(), 1u);
  EXPECT_EQ(&session.runner(tic), &session.runner(tac));

  auto training = tic;
  training.cluster.training = true;  // different graph
  session.Run(training);
  EXPECT_EQ(session.cached_runners(), 2u);

  session.Run(SmallSpec("AlexNet v2", "tic"));  // different model
  EXPECT_EQ(session.cached_runners(), 3u);
}

TEST(Session, RunMultiJobKeepsContendedRunnersInTheCache) {
  Session session;
  const auto spec = runtime::MultiJobSpec::Parse(
      "2x{envG:workers=2:ps=1 model=AlexNet v2 policy=tac iterations=1}");
  session.RunMultiJob(spec);
  // One Runner at fabric size T = 4 shared by both replicas, plus the
  // isolated reference at T = 2.
  EXPECT_EQ(session.cached_runners(), 2u);
  session.RunMultiJob(spec);  // the same mix reuses both
  EXPECT_EQ(session.cached_runners(), 2u);
  // A lone job (T == its workers) is the isolated run's entry.
  session.RunMultiJob(runtime::MultiJobSpec::Parse(
      "{envG:workers=2:ps=1 model=AlexNet v2 policy=tac iterations=1}"));
  EXPECT_EQ(session.cached_runners(), 2u);
  // A new fabric size is a new entry.
  session.RunMultiJob(
      runtime::MultiJobSpec::Parse(
          "3x{envG:workers=2:ps=1 model=AlexNet v2 policy=tac iterations=1}"),
      /*with_isolated=*/false);
  EXPECT_EQ(session.cached_runners(), 3u);
}

TEST(Session, ParallelRunAllBitIdenticalToSerial) {
  runtime::SweepSpec sweep;
  sweep.models = {"Inception v1", "AlexNet v2"};
  sweep.workers = {2, 4};
  sweep.ps = {1};
  sweep.tasks = {false, true};
  sweep.policies = {"baseline", "tic"};
  sweep.iterations = 2;
  sweep.seed = 13;
  const auto specs = sweep.Expand();

  Session serial_session;
  const ResultTable serial = serial_session.RunAll(specs, 1);
  Session parallel_session;
  const ResultTable parallel = parallel_session.RunAll(specs, 8);

  ASSERT_EQ(serial.size(), specs.size());
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial.row(i).spec, specs[i]);  // rows in spec order
    EXPECT_EQ(parallel.row(i).spec, serial.row(i).spec);
    EXPECT_EQ(parallel.row(i).mean_iteration_s,
              serial.row(i).mean_iteration_s);
    EXPECT_EQ(parallel.row(i).throughput, serial.row(i).throughput);
    EXPECT_EQ(parallel.row(i).mean_efficiency,
              serial.row(i).mean_efficiency);
    EXPECT_EQ(parallel.row(i).mean_overlap, serial.row(i).mean_overlap);
    EXPECT_EQ(parallel.row(i).max_straggler_pct,
              serial.row(i).max_straggler_pct);
    EXPECT_EQ(parallel.row(i).mean_straggler_pct,
              serial.row(i).mean_straggler_pct);
    EXPECT_EQ(parallel.row(i).unique_recv_orders,
              serial.row(i).unique_recv_orders);
  }
  // Identical emitted artifacts, not just identical numbers.
  EXPECT_EQ(serial.ToCsv(), parallel.ToCsv());
  EXPECT_EQ(serial.ToJson(), parallel.ToJson());
}

TEST(Session, ParallelismExceedingSpecCountIsFine) {
  Session session;
  const std::vector<runtime::ExperimentSpec> specs = {
      SmallSpec("AlexNet v2", "tic")};
  const ResultTable table = session.RunAll(specs, 64);
  ASSERT_EQ(table.size(), 1u);
  EXPECT_GT(table.row(0).throughput, 0.0);
}

TEST(Session, SpeedupVsBaseline) {
  Session session;
  const std::vector<runtime::ExperimentSpec> specs = {
      SmallSpec("Inception v2", "baseline", 7, 4),
      SmallSpec("Inception v2", "tic", 7, 4),
  };
  const ResultTable table = session.RunAll(specs, 2);
  const double speedup = table.SpeedupVsBaseline(table.row(1));
  EXPECT_EQ(speedup,
            table.row(1).throughput / table.row(0).throughput - 1.0);
  // The baseline row's own speedup is exactly zero.
  EXPECT_EQ(table.SpeedupVsBaseline(table.row(0)), 0.0);
  // A table without the matching baseline row refuses.
  const ResultTable no_base = session.RunAll(
      std::vector<runtime::ExperimentSpec>{SmallSpec("VGG-16", "tic")}, 1);
  EXPECT_THROW(no_base.SpeedupVsBaseline(no_base.row(0)),
               std::invalid_argument);
}

TEST(Session, CsvAndJsonEmitters) {
  Session session;
  auto slow_worker = SmallSpec("AlexNet v2", "tic");
  slow_worker.cluster.worker_speed_factors = {1.0, 0.5};
  const std::vector<runtime::ExperimentSpec> specs = {
      SmallSpec("AlexNet v2", "baseline"), slow_worker};
  const ResultTable table = session.RunAll(specs, 2);

  const std::string csv = table.ToCsv();
  std::size_t lines = 0;
  for (const char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, 3u);  // header + 2 rows
  EXPECT_EQ(csv.find("spec,model,env,workers"), 0u);
  EXPECT_NE(csv.find("envG:workers=2:ps=1:inference model=AlexNet v2 "
                     "policy=baseline iterations=2 seed=3"),
            std::string::npos);
  // A spec containing commas (the speeds= list) arrives CSV-quoted.
  EXPECT_NE(csv.find("\"envG:workers=2:ps=1:inference:speeds=1,0.5 "
                     "model=AlexNet v2 policy=tic iterations=2 seed=3\""),
            std::string::npos);

  const std::string json = table.ToJson();
  EXPECT_EQ(json.front(), '[');
  std::size_t objects = 0;
  for (const char c : json) objects += c == '{';
  EXPECT_EQ(objects, 2u);
  EXPECT_NE(json.find("\"model\": \"AlexNet v2\""), std::string::npos);
  EXPECT_NE(json.find("\"policy\": \"baseline\""), std::string::npos);
  EXPECT_NE(json.find("\"throughput\": "), std::string::npos);

  EXPECT_EQ(table.ToTable().rows(), 2u);
}

TEST(Session, InvalidSpecsThrow) {
  Session session;
  auto bad_iterations = SmallSpec("AlexNet v2", "tic");
  bad_iterations.iterations = 0;
  EXPECT_THROW(session.Run(bad_iterations), std::invalid_argument);

  auto bad_model = SmallSpec("No Such Net", "tic");
  EXPECT_THROW(session.Run(bad_model), std::out_of_range);

  auto bad_policy = SmallSpec("AlexNet v2", "no-such-policy");
  EXPECT_THROW(session.Run(bad_policy), std::invalid_argument);

  EXPECT_THROW(session.RunAll({SmallSpec("AlexNet v2", "tic")}, 0),
               std::invalid_argument);
}

TEST(Session, RunAllPropagatesWorkerExceptions) {
  Session session;
  std::vector<runtime::ExperimentSpec> specs = {
      SmallSpec("AlexNet v2", "tic"),
      SmallSpec("AlexNet v2", "no-such-policy"),
      SmallSpec("Inception v1", "tic"),
  };
  EXPECT_THROW(session.RunAll(specs, 3), std::invalid_argument);
  EXPECT_THROW(session.RunAll(specs, 1), std::invalid_argument);
}

TEST(Session, FailedConstructionLeavesNoCacheEntry) {
  Session session;
  EXPECT_THROW(session.Run(SmallSpec("No Such Net", "tic")),
               std::out_of_range);
  EXPECT_EQ(session.cached_runners(), 0u);
  // The key is retryable after a failure.
  auto fixed = SmallSpec("AlexNet v2", "tic");
  EXPECT_GT(session.Run(fixed).Throughput(), 0.0);
  EXPECT_EQ(session.cached_runners(), 1u);
}

TEST(Session, EmptySpecListYieldsEmptyTable) {
  Session session;
  const ResultTable table = session.RunAll(
      std::vector<runtime::ExperimentSpec>{}, 4);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.ToJson(), "[\n]\n");
}

TEST(Session, DefaultParallelismIsPositive) {
  EXPECT_GE(Session::DefaultParallelism(), 1);
}

}  // namespace
}  // namespace tictac::harness
