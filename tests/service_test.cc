#include "sched/service.h"

#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/session.h"
#include "sched/placement.h"
#include "service_invariants.h"

namespace tictac::sched {
namespace {

runtime::ExperimentSpec Job(int workers = 2, int iterations = 2) {
  runtime::ExperimentSpec spec;
  spec.model = "Inception v2";
  spec.cluster.workers = workers;
  spec.cluster.ps = 1;
  spec.cluster.training = true;
  spec.policy = "tac";
  spec.iterations = iterations;
  return spec;
}

std::string WriteTrace(const std::string& name,
                       const std::vector<std::pair<double, std::string>>&
                           rows) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path);
  for (const auto& [t, spec] : rows) {
    out << runtime::FormatDouble(t) << "," << spec << "\n";
  }
  return path;
}

ServiceConfig TraceConfig(const std::string& path) {
  ServiceConfig config;
  config.arrivals = ArrivalSpec::Parse("trace:" + path);
  config.duration = 10.0;
  return config;
}

// The differential acceptance test: one job arriving at t=0 on one
// fabric IS the single-job Session experiment — per-iteration makespans
// must match bit for bit (the 1-job shared lowering degenerates exactly:
// bandwidth scale 1, identity resource remap, seeds spec.seed + i), with
// flow-level fairness off and on.
class SingleJobTrace : public ::testing::TestWithParam<bool> {};

TEST_P(SingleJobTrace, BitIdenticalToSession) {
  const runtime::ExperimentSpec job =
      GetParam() ? runtime::ExperimentSpec::Parse(
                       "envG:workers=2:ps=1:training:flow:pods=2:oversub=4 "
                       "model=VGG-16 policy=tac iterations=3")
                 : Job(/*workers=*/3, /*iterations=*/4);
  const std::string path =
      WriteTrace("tictac_single.csv", {{0.0, job.ToString()}});
  harness::Session session;
  const runtime::ExperimentResult reference = session.Run(job);

  const ServiceReport report = RunChecked(TraceConfig(path));
  ASSERT_EQ(report.jobs.size(), 1u);
  const JobRecord& record = report.jobs[0];
  ASSERT_EQ(record.iteration_times.size(),
            static_cast<std::size_t>(job.iterations));
  for (std::size_t i = 0; i < record.iteration_times.size(); ++i) {
    EXPECT_EQ(record.iteration_times[i], reference.iterations[i].makespan)
        << "iteration " << i;
  }
  EXPECT_EQ(record.mean_iter_s, reference.MeanIterationTime());
  EXPECT_EQ(record.isolated_iter_s, reference.MeanIterationTime());
  EXPECT_EQ(record.slowdown, 1.0);
  EXPECT_EQ(report.p50_slowdown, 1.0);
  EXPECT_EQ(report.p99_slowdown, 1.0);
  EXPECT_EQ(record.QueueDelay(), 0.0);
  // The service clock left-folds the same iteration times.
  double sum = 0.0;
  for (const auto& it : reference.iterations) sum += it.makespan;
  EXPECT_EQ(report.makespan, sum);
  EXPECT_EQ(report.utilization, 1.0);  // one fabric, busy start to finish
}

INSTANTIATE_TEST_SUITE_P(SchedulerService, SingleJobTrace,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "FlowOn" : "FlowOff";
                         });

TEST(SchedulerService, SameConfigSameSeedBitIdenticalJson) {
  ServiceConfig config;
  config.arrivals = ArrivalSpec::Parse("poisson:rate=8");
  config.workload = {Job()};
  config.fabrics = 2;
  config.duration = 1.0;
  config.seed = 11;
  const ServiceReport a = RunChecked(config);
  const ServiceReport b = RunChecked(config);
  EXPECT_EQ(a.ToJson(), b.ToJson());
  EXPECT_EQ(a.JobTraceJson(), b.JobTraceJson());
  config.seed = 12;
  EXPECT_NE(RunChecked(config).ToJson(), a.ToJson());
}

TEST(SchedulerService, CoLocationSlowsJobsDown) {
  // Four identical jobs arriving together on one fabric contend for the
  // PS NICs: every job must run slower than its isolated baseline.
  const std::string spec = Job(2, 2).ToString();
  const std::string path = WriteTrace(
      "tictac_burst.csv",
      {{0.0, spec}, {0.0, spec}, {0.0, spec}, {0.0, spec}});
  const ServiceReport report =
      RunChecked(TraceConfig(path));
  ASSERT_EQ(report.jobs.size(), 4u);
  EXPECT_EQ(report.counters.completed, 4u);
  for (const JobRecord& record : report.jobs) {
    EXPECT_GT(record.slowdown, 1.05) << "job " << record.id;
  }
  EXPECT_GT(report.p50_slowdown, 1.05);
  EXPECT_GE(report.p99_slowdown, report.p50_slowdown);
  EXPECT_GE(report.max_slowdown, report.p99_slowdown);
  // Identical jobs admitted together: contention is symmetric.
  EXPECT_GT(report.mean_fairness, 0.9);
}

TEST(SchedulerService, TwoFabricsIsolateTheLoad) {
  // Same four-job burst, but two fabrics and least-loaded placement:
  // 2 jobs per fabric — strictly less contention than the 4-on-1 case.
  const std::string spec = Job(2, 2).ToString();
  const std::vector<std::pair<double, std::string>> rows = {
      {0.0, spec}, {0.0, spec}, {0.0, spec}, {0.0, spec}};
  ServiceConfig one = TraceConfig(WriteTrace("tictac_one.csv", rows));
  ServiceConfig two = TraceConfig(WriteTrace("tictac_two.csv", rows));
  two.fabrics = 2;
  const ServiceReport crowded = RunChecked(one);
  const ServiceReport spread = RunChecked(two);
  EXPECT_LT(spread.mean_slowdown, crowded.mean_slowdown);
  // least-loaded alternates over the empty fabrics: 2 jobs on each.
  EXPECT_EQ(spread.jobs[0].fabric, 0);
  EXPECT_EQ(spread.jobs[1].fabric, 1);
  EXPECT_EQ(spread.jobs[2].fabric, 0);
  EXPECT_EQ(spread.jobs[3].fabric, 1);
}

TEST(SchedulerService, QueueingAndRejectionAccounting) {
  // One fabric, one slot, queue of one: a 4-job burst admits 1, queues
  // 1, rejects 2. The queued job starts only when the first drains.
  const std::string spec = Job(2, 2).ToString();
  ServiceConfig config = TraceConfig(WriteTrace(
      "tictac_queue.csv",
      {{0.0, spec}, {0.0, spec}, {0.0, spec}, {0.0, spec}}));
  config.max_jobs_per_fabric = 1;
  config.admission_queue_capacity = 1;
  const ServiceReport report = RunChecked(config);
  EXPECT_EQ(report.counters.arrivals, 4u);
  EXPECT_EQ(report.counters.admitted, 2u);
  EXPECT_EQ(report.counters.queued, 1u);
  EXPECT_EQ(report.counters.rejected, 2u);
  EXPECT_EQ(report.counters.completed, 2u);
  ASSERT_EQ(report.jobs.size(), 4u);
  EXPECT_FALSE(report.jobs[0].rejected);
  EXPECT_FALSE(report.jobs[1].rejected);
  EXPECT_TRUE(report.jobs[2].rejected);
  EXPECT_TRUE(report.jobs[3].rejected);
  EXPECT_EQ(report.jobs[2].fabric, -1);
  // The queued job waited exactly one full job's run (no co-location, so
  // both jobs run at isolated speed back to back).
  EXPECT_EQ(report.jobs[0].QueueDelay(), 0.0);
  EXPECT_GT(report.jobs[1].QueueDelay(), 0.0);
  EXPECT_EQ(report.jobs[1].admit_time, report.jobs[0].completion_time);
  EXPECT_EQ(report.jobs[0].slowdown, 1.0);
  EXPECT_EQ(report.jobs[1].slowdown, 1.0);
  EXPECT_GT(report.p99_queue_delay_s, 0.0);
  EXPECT_LE(report.p99_queue_delay_s, report.jobs[1].QueueDelay());
}

// The "no full-world recompute" guarantee: PropertyIndex dependency
// analyses (Runner builds) stay bounded by the distinct contention
// levels while arrivals grow with the duration.
TEST(SchedulerService, PropertyIndexBuildsStayBoundedAsArrivalsGrow) {
  ServiceConfig config;
  config.arrivals = ArrivalSpec::Parse("poisson:rate=25");
  config.workload = {Job(2, 2)};
  config.duration = 1.0;
  config.max_jobs_per_fabric = 4;
  config.seed = 5;
  const ServiceReport report = RunChecked(config);
  EXPECT_GT(report.counters.arrivals, 15u);
  // One identical template with <= 4 co-residents: the only bandwidth
  // scales are 1, 1/2, 1/3, 1/4 (scale 1 doubles as the isolated
  // baseline), so at most 4 Runner builds ever happen.
  EXPECT_LE(report.counters.property_index_builds, 4u);
  EXPECT_GT(report.counters.runner_cache_hits,
            report.counters.property_index_builds);
  // Re-lowering happens per affected fabric, not per fabric per event:
  // with one fabric it is bounded by arrivals + drains.
  EXPECT_LE(report.counters.fabric_relowerings,
            report.counters.admitted + report.counters.completed);
}

TEST(SchedulerService, JsonShapeIsPinned) {
  const std::string path = WriteTrace("tictac_shape.csv",
                                      {{0.0, Job(2, 2).ToString()}});
  const ServiceReport report =
      RunChecked(TraceConfig(path));
  const std::string json = report.ToJson();
  for (const char* key :
       {"\"arrivals\": ", "\"placement\": \"least-loaded\"",
        "\"fabrics\": 1", "\"duration_s\": ", "\"seed\": ",
        "\"jobs\": {\"arrived\": 1, \"admitted\": 1, \"queued\": 0, "
        "\"rejected\": 0, \"completed\": 1}",
        "\"slo\": {\"p50_slowdown\": ", "\"p99_slowdown\": ",
        "\"mean_queue_delay_s\": ", "\"utilization\": ",
        "\"mean_fairness\": ", "\"window_fairness\": [",
        "\"counters\": {\"fabric_relowerings\": ",
        "\"property_index_builds\": ", "\"sim_runs\": "}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key
                                                 << " in:\n" << json;
  }
  const std::string trace = report.JobTraceJson();
  for (const char* key :
       {"\"id\": 0", "\"fabric\": 0", "\"spec\": ", "\"arrival_s\": ",
        "\"queue_delay_s\": ", "\"slowdown\": ", "\"rejected\": false"}) {
    EXPECT_NE(trace.find(key), std::string::npos) << "missing " << key;
  }
}

TEST(SchedulerService, ValidatesConfig) {
  ServiceConfig config;
  config.arrivals = ArrivalSpec::Parse("poisson:rate=4");
  config.workload = {Job()};
  config.fabrics = 0;
  EXPECT_THROW(SchedulerService{config}, std::invalid_argument);
  config.fabrics = 1;
  config.duration = 0.0;
  EXPECT_THROW(SchedulerService{config}, std::invalid_argument);
  config.duration = 1.0;
  config.placement = "wishful-thinking";
  EXPECT_THROW(SchedulerService{config}, std::invalid_argument);
  config.placement = "least-loaded";
  config.workload.clear();
  EXPECT_THROW(SchedulerService{config}, std::invalid_argument);
}

TEST(SchedulerService, RejectsMixedEnvironmentStreams) {
  runtime::ExperimentSpec cpu = Job();
  cpu.cluster.env = "envC";
  const std::string path = WriteTrace(
      "tictac_mixed.csv",
      {{0.0, Job().ToString()}, {0.1, cpu.ToString()}});
  SchedulerService service(TraceConfig(path));
  try {
    service.Run();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("env"), std::string::npos)
        << e.what();
  }
}

// A ring job has no PS fleet to share: the service must refuse it, as
// MultiJobSpec::Validate does, rather than run it on a PS fabric.
TEST(SchedulerService, RejectsRingArrivals) {
  const std::string path = WriteTrace(
      "tictac_ring.csv", {{0.0, "envG:workers=2:ps=1:training:topology=ring "
                                "model=VGG-16 policy=tac iterations=3"}});
  SchedulerService service(TraceConfig(path));
  try {
    service.Run();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("topology=ring"), std::string::npos)
        << e.what();
  }
}

// ---- placement policies ----------------------------------------------------

TEST(PlacementPolicy, LeastLoadedPicksFewestWorkers) {
  const PlacementPolicy& policy = FindPlacementPolicy("least-loaded");
  const std::vector<FabricLoad> loads = {{2, 8, 100.0}, {1, 2, 50.0},
                                         {1, 4, 10.0}};
  EXPECT_EQ(policy.Place(Job(), loads, 0, 8), 1);
}

TEST(PlacementPolicy, LeastLoadedSkipsFullFabrics) {
  const PlacementPolicy& policy = FindPlacementPolicy("least-loaded");
  const std::vector<FabricLoad> loads = {{1, 2, 0.0}, {2, 8, 0.0}};
  EXPECT_EQ(policy.Place(Job(), loads, 0, 1), -1);  // all full
  EXPECT_EQ(policy.Place(Job(), loads, 0, 2), 0);
}

TEST(PlacementPolicy, RoundRobinRotatesWithDecisionSeq) {
  const PlacementPolicy& policy = FindPlacementPolicy("round-robin");
  const std::vector<FabricLoad> loads(3);
  EXPECT_EQ(policy.Place(Job(), loads, 0, 8), 0);
  EXPECT_EQ(policy.Place(Job(), loads, 1, 8), 1);
  EXPECT_EQ(policy.Place(Job(), loads, 2, 8), 2);
  EXPECT_EQ(policy.Place(Job(), loads, 3, 8), 0);
}

TEST(PlacementPolicy, RoundRobinSkipsFullFabric) {
  const PlacementPolicy& policy = FindPlacementPolicy("round-robin");
  std::vector<FabricLoad> loads(3);
  loads[1].active_jobs = 2;
  EXPECT_EQ(policy.Place(Job(), loads, 1, 2), 2);  // 1 is full, move on
}

TEST(PlacementPolicy, BestFitPacksTheFullestEligibleFabric) {
  const PlacementPolicy& policy = FindPlacementPolicy("best-fit-bytes");
  const std::vector<FabricLoad> loads = {{1, 2, 50.0}, {2, 4, 200.0},
                                         {0, 0, 0.0}};
  EXPECT_EQ(policy.Place(Job(), loads, 0, 8), 1);
  // With fabric 1 at capacity the next-fullest wins.
  EXPECT_EQ(policy.Place(Job(), loads, 0, 2), 0);
}

// Equal scores go to the lowest fabric id.
TEST(PlacementPolicy, TiesGoToTheLowestFabricId) {
  const std::vector<FabricLoad> loads = {{1, 4, 64.0}, {1, 4, 64.0},
                                         {1, 4, 64.0}};
  for (const char* name :
       {"least-loaded", "best-fit-bytes", "failure-aware"}) {
    EXPECT_EQ(FindPlacementPolicy(name).Place(Job(), loads, 2, 8), 0)
        << name;
  }
  // Failure-aware ties on load plus fault penalty, not on load alone.
  std::vector<FabricLoad> faulty(3);
  for (FabricLoad& load : faulty) {
    load.active_workers = 2;
    load.recent_faults = 1;
  }
  faulty[0].down = true;
  EXPECT_EQ(FindPlacementPolicy("failure-aware").Place(Job(), faulty, 0, 8),
            1);
}

// From the last fabric, round-robin wraps to the front, past full ones.
TEST(PlacementPolicy, RoundRobinWrapsPastFullFabrics) {
  const PlacementPolicy& policy = FindPlacementPolicy("round-robin");
  std::vector<FabricLoad> loads(4);
  loads[3].active_jobs = 2;
  loads[0].active_jobs = 2;
  EXPECT_EQ(policy.Place(Job(), loads, 3, 2), 1);
  EXPECT_EQ(policy.Place(Job(), loads, 7, 2), 1);
  EXPECT_EQ(policy.Place(Job(), loads, 2, 2), 2);
  loads[1].active_jobs = 2;
  loads[2].down = true;
  EXPECT_EQ(policy.Place(Job(), loads, 3, 2), -1);
}

TEST(PlacementPolicy, UnknownNameIsNamedExactly) {
  try {
    FindPlacementPolicy("nope");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "placement: unknown policy 'nope' — registered: "
                 "least-loaded, round-robin, best-fit-bytes, failure-aware");
  }
}

TEST(PlacementPolicy, UnknownNameListsRegisteredOnes) {
  try {
    FindPlacementPolicy("random");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const PlacementPolicy& policy : kPlacementPolicies) {
      EXPECT_NE(what.find(policy.name), std::string::npos) << what;
    }
  }
}

}  // namespace
}  // namespace tictac::sched
