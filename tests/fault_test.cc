// Fault-injection robustness tests (DESIGN.md §8): the FaultSpec grammar
// round-trips, trace files tolerate editor artifacts with line-numbered
// errors, and — the load-bearing pins — the differential determinism
// contract: an empty or no-op FaultSpec leaves the engine and the
// service bit-identical to the fault-free paths, enabling faults never
// perturbs the seeded arrival sequence, and a chaotic run replays bit
// for bit under the same seed.
#include "fault/fault.h"

#include <gtest/gtest.h>

#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "clause_rows.h"
#include "models/zoo.h"
#include "runtime/cluster.h"
#include "runtime/lowering.h"
#include "runtime/runner.h"
#include "sched/placement.h"
#include "sched/service.h"
#include "service_invariants.h"
#include "sim/engine.h"

namespace tictac::fault {
namespace {

TEST(FaultSpec, RoundTripsEveryKind) {
  const char* specs[] = {
      "straggler:worker=2:factor=3:at=1:for=2",
      "straggler:worker=0:factor=1.5:at=0",  // no for= — never lifts
      "slowlink:nic=0:scale=0.25:at=1:for=2:fabric=1",
      "crash:worker=2:at=5",
      "crash:worker=2:at=5:fabric=1",
      "crash:fabric=1:at=5",
      "flap:nic=0:period=0.5:at=1:for=3",
      "straggler:worker=1:factor=2:at=0.5:for=1;crash:fabric=0:at=2",
  };
  for (const char* text : specs) {
    const FaultSpec spec = FaultSpec::Parse(text);
    EXPECT_EQ(spec.ToString(), text);
    EXPECT_EQ(FaultSpec::Parse(spec.ToString()), spec) << text;
    EXPECT_FALSE(spec.empty());
  }
  EXPECT_TRUE(FaultSpec{}.empty());
  EXPECT_EQ(FaultSpec{}.ToString(), "");
}

TEST(FaultSpec, RejectsMalformedClauses) {
  // Unknown kinds and fields, missing/forbidden keys per kind.
  EXPECT_THROW(FaultSpec::Parse("meteor:at=1"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::Parse("straggler:worker=1:factor=2:asteroids=9"),
               std::invalid_argument);
  EXPECT_THROW(FaultSpec::Parse("straggler:factor=3:at=1"),
               std::invalid_argument);  // requires worker=
  EXPECT_THROW(FaultSpec::Parse("straggler:worker=1:at=1"),
               std::invalid_argument);  // requires factor=
  EXPECT_THROW(FaultSpec::Parse("straggler:worker=1:factor=2"),
               std::invalid_argument);  // requires at=
  EXPECT_THROW(FaultSpec::Parse("slowlink:nic=0:scale=0.5:worker=1:at=0"),
               std::invalid_argument);  // worker= forbidden
  EXPECT_THROW(FaultSpec::Parse("crash:at=1"),
               std::invalid_argument);  // worker= or fabric=
  EXPECT_THROW(FaultSpec::Parse("crash:fabric=1:at=1:for=2"),
               std::invalid_argument);  // permanent
  EXPECT_THROW(FaultSpec::Parse("flap:nic=0:period=1:at=0"),
               std::invalid_argument);  // unbounded flap
  EXPECT_THROW(
      FaultSpec::Parse("straggler:worker=1:factor=2:at=1;;crash:fabric=0:at=2"),
      std::invalid_argument);  // empty clause
  EXPECT_THROW(FaultSpec::Parse("trace:"), std::invalid_argument);
  EXPECT_THROW(FaultSpec::Parse(""), std::invalid_argument);
  // Crashes are permanent: a for= must be named as the offender.
  try {
    FaultSpec::Parse("crash:worker=1:at=1:for=2");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("does not take for="),
              std::string::npos)
        << e.what();
  }
}

// Numbers are read whole and integer fields as integers, so a value that
// is out of range, float-typed or signed is named exactly as typed
// (worker=1e300 used to be cast to int, which is undefined behaviour).
TEST(FaultSpec, MalformedNumbersAreQuotedAsTyped) {
  const std::pair<const char*, const char*> cases[] = {
      {"crash:worker=1e300:at=1", "'1e300'"},
      {"crash:worker=inf:at=1", "'inf'"},
      {"crash:worker=4294967296:at=1", "'4294967296'"},
      {"straggler:worker=2.0:factor=2:at=1", "'2.0'"},
      {"straggler:worker=1:factor=+2:at=1", "'+2'"},
  };
  for (const auto& [spec, token] : cases) {
    try {
      FaultSpec::Parse(spec);
      ADD_FAILURE() << "accepted " << spec;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(token), std::string::npos)
          << e.what();
    }
  }
}

// A repeated field is rejected naming it, inline and in a trace row; it
// used to keep the last value (factor=3:factor=1 echoed factor=1).
TEST(FaultSpec, RepeatedFieldIsNamed) {
  const std::pair<const char*, const char*> cases[] = {
      {"straggler:worker=0:factor=3:factor=1:at=0",
       "fault: duplicate field 'factor=' in "
       "'straggler:worker=0:factor=3:factor=1:at=0'"},
      {"crash:fabric=0:at=1; crash:worker=1:at=1:at=2",
       "duplicate field 'at='"},
  };
  for (const auto& [spec, message] : cases) {
    try {
      FaultSpec::Parse(spec);
      ADD_FAILURE() << "accepted " << spec;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
  const std::string path = ::testing::TempDir() + "/tictac_faults_dup.csv";
  std::ofstream(path) << "crash:fabric=0:fabric=1:at=1\n";
  try {
    FaultSpec::Parse("trace:" + path).Materialize();
    ADD_FAILURE() << "accepted a repeated field in a trace row";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 1: duplicate field 'fabric='"),
              std::string::npos)
        << e.what();
  }
}

TEST(FaultSpec, ValidatesStructuralBounds) {
  EXPECT_THROW(FaultSpec::Parse("straggler:worker=1:factor=0.5:at=1"),
               std::invalid_argument);  // factor >= 1
  EXPECT_THROW(FaultSpec::Parse("slowlink:nic=0:scale=1.5:at=1"),
               std::invalid_argument);  // scale in (0, 1]
  EXPECT_THROW(FaultSpec::Parse("slowlink:nic=0:scale=0:at=1"),
               std::invalid_argument);
  EXPECT_THROW(FaultSpec::Parse("straggler:worker=-1:factor=2:at=1"),
               std::invalid_argument);
  EXPECT_THROW(FaultSpec::Parse("straggler:worker=1:factor=2:at=-1"),
               std::invalid_argument);
  EXPECT_THROW(FaultSpec::Parse("straggler:worker=1:factor=2:at=1:for=0"),
               std::invalid_argument);
  EXPECT_THROW(FaultSpec::Parse("crash:fabric=-1:at=1"),
               std::invalid_argument);
  // 60 / 0.001 = 60000 cycles — past the 4096-cycle flap cap.
  EXPECT_THROW(FaultSpec::Parse("flap:nic=0:period=0.001:at=0:for=60"),
               std::invalid_argument);
}

// Every kind row of kFaultGrammar (both crash rows included): round-trip,
// missing, forbidden and repeated keys, and each bound's first value
// outside it.
TEST(FaultSpec, EveryGrammarRowHolds) {
  ASSERT_EQ(kFaultGrammar.kinds.size(), 5u);
  util::ExpectEveryRowHolds(kFaultGrammar, [](const std::string& text) {
    const std::vector<FaultEvent> events = FaultSpec::Parse(text).events;
    EXPECT_EQ(events.size(), 1u);
    return events.at(0);
  });
}

TEST(FaultSpec, TraceToleratesEditorArtifactsAndSortsByTime) {
  const std::string path = ::testing::TempDir() + "/tictac_faults.csv";
  std::ofstream out(path, std::ios::binary);
  out << "\xef\xbb\xbf# fault timeline\r\n"
      << "\r\n"
      << "  crash:fabric=1:at=2  \r\n"
      << "\t# indented comment\r\n"
      << "straggler:worker=0:factor=2:at=0.5:for=1\t\r\n"
      << "   \r\n";
  out.close();
  const FaultSpec spec = FaultSpec::Parse("trace:" + path);
  EXPECT_EQ(spec.ToString(), "trace:" + path);
  const std::vector<FaultEvent> timeline = spec.Materialize();
  ASSERT_EQ(timeline.size(), 2u);
  // Materialize sorts by at=: the straggler (0.5) before the crash (2).
  EXPECT_EQ(timeline[0].ToString(),
            "straggler:worker=0:factor=2:at=0.5:for=1");
  EXPECT_EQ(timeline[1].ToString(), "crash:fabric=1:at=2");
}

TEST(FaultSpec, TraceErrorsNameTheLine) {
  const std::string path = ::testing::TempDir() + "/tictac_faults_bad.csv";
  std::ofstream out(path);
  out << "crash:fabric=0:at=1\n"
      << "meteor:at=2\n";
  out.close();
  try {
    FaultSpec::Parse("trace:" + path).Materialize();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(FaultSpec::Parse("trace:/nonexistent/nope.csv").Materialize(),
               std::runtime_error);
}

// Tentpole (b) / satellite 4: a null or empty fault timeline must leave
// the engine bit-identical to the pre-fault engine — across the model
// zoo and all three transfer-scheduling policies. The fault path draws
// no randomness and is skipped entirely when the timeline is empty.
TEST(EngineFaults, EmptyTimelineIsBitIdenticalAcrossZoo) {
  const std::vector<sim::ResourceFault> empty;
  for (const models::ModelInfo& info : models::ModelZoo()) {
    const runtime::Runner runner(info, runtime::EnvG(4, 2, true));
    for (const char* policy : {"baseline", "tic", "tac"}) {
      const core::Schedule schedule = runner.MakeSchedule(policy);
      const runtime::Lowering low =
          runtime::LowerCluster(runner.worker_graph(), schedule,
                                runner.ps_of_param(), runner.config());
      const sim::TaskGraphSim sim = low.BuildSim();
      sim::SimOptions options = runner.config().sim;
      options.faults = nullptr;
      const sim::SimResult base = sim.Run(options, 42);
      options.faults = &empty;
      const sim::SimResult faulted = sim.Run(options, 42);
      EXPECT_EQ(base.makespan, faulted.makespan)
          << info.name << " / " << policy;
      EXPECT_EQ(base.start, faulted.start);
      EXPECT_EQ(base.end, faulted.end);
      EXPECT_EQ(base.start_order, faulted.start_order);
    }
  }
}

}  // namespace
}  // namespace tictac::fault

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

ServiceConfig ChaosConfig() {
  ServiceConfig config;
  config.arrivals = ArrivalSpec::Parse("poisson:rate=30");
  config.workload = {Job()};
  config.fabrics = 2;
  config.duration = 0.5;
  config.seed = 11;
  return config;
}

// Satellite 1: fault randomness comes from an independent Rng stream, so
// enabling faults — even crashes and flaps — never perturbs the seeded
// arrival sequence.
TEST(ServiceFaults, FaultsNeverPerturbTheArrivalSequence) {
  ServiceConfig config = ChaosConfig();
  const ServiceReport base = RunChecked(config);
  config.faults = fault::FaultSpec::Parse(
      "crash:fabric=0:at=0.2;flap:nic=0:period=0.05:at=0:for=0.4:fabric=1");
  const ServiceReport report = RunChecked(config);
  ASSERT_EQ(report.counters.arrivals, base.counters.arrivals);
  ASSERT_EQ(report.jobs.size(), base.jobs.size());
  for (std::size_t i = 0; i < base.jobs.size(); ++i) {
    EXPECT_EQ(report.jobs[i].arrival_time, base.jobs[i].arrival_time) << i;
    EXPECT_EQ(report.jobs[i].spec.ToString(), base.jobs[i].spec.ToString());
  }
}

// Satellite 4: no-op perturbations (factor=1 straggler, scale=1
// slowlink) compile to an empty per-iteration timeline, so every job's
// placement, admission, and iteration times match the fault-free run bit
// for bit.
TEST(ServiceFaults, NoOpFaultTimelineMatchesFaultFreeRun) {
  ServiceConfig config = ChaosConfig();
  const ServiceReport base = RunChecked(config);
  config.faults = fault::FaultSpec::Parse(
      "straggler:worker=0:factor=1:at=0;slowlink:nic=0:scale=1:at=0:fabric=1");
  const ServiceReport report = RunChecked(config);
  EXPECT_EQ(report.makespan, base.makespan);
  EXPECT_EQ(report.counters.completed, base.counters.completed);
  EXPECT_EQ(report.counters.sim_runs, base.counters.sim_runs);
  ASSERT_EQ(report.jobs.size(), base.jobs.size());
  for (std::size_t i = 0; i < base.jobs.size(); ++i) {
    EXPECT_EQ(report.jobs[i].fabric, base.jobs[i].fabric) << i;
    EXPECT_EQ(report.jobs[i].admit_time, base.jobs[i].admit_time) << i;
    EXPECT_EQ(report.jobs[i].completion_time, base.jobs[i].completion_time)
        << i;
    EXPECT_EQ(report.jobs[i].iteration_times, base.jobs[i].iteration_times)
        << i;
    EXPECT_EQ(report.jobs[i].retries, 0) << i;
    EXPECT_FALSE(report.jobs[i].failed) << i;
  }
}

// The fault block only appears in reports when faults are configured, so
// fault-free output stays byte-identical to the pre-fault service.
TEST(ServiceFaults, FaultFreeReportOmitsTheFaultBlock) {
  const ServiceReport base = RunChecked(ChaosConfig());
  EXPECT_EQ(base.ToJson().find("\"faults\""), std::string::npos);
  EXPECT_EQ(base.JobTraceJson().find("\"retries\""), std::string::npos);
}

// Tentpole (c)/(d): a whole-fabric crash evicts the residents, the
// retry/backoff machinery re-places them, survivors run to completion,
// and the robustness SLOs (MTTR, wasted work, goodput <= offered) come
// out meaningful — and the whole chaotic run replays bit for bit.
TEST(ServiceFaults, FabricCrashEvictsRetriesAndReplaysBitIdentically) {
  ServiceConfig config = ChaosConfig();
  config.faults = fault::FaultSpec::Parse("crash:fabric=0:at=0.2");
  const ServiceReport report = RunChecked(config);
  EXPECT_EQ(report.counters.fabric_crashes, 1u);
  EXPECT_GT(report.counters.retries, 0u);
  EXPECT_GT(report.counters.replacements, 0u);
  EXPECT_GT(report.counters.lost_iterations, 0u);
  EXPECT_GT(report.mttr_mean_s, 0.0);
  EXPECT_GE(report.mttr_max_s, report.mttr_mean_s);
  EXPECT_GT(report.wasted_s, 0.0);
  EXPECT_GT(report.goodput_iters_per_s, 0.0);
  EXPECT_LE(report.goodput_iters_per_s, report.offered_iters_per_s);
  bool any_retried = false;
  for (const JobRecord& job : report.jobs) {
    if (job.retries > 0) any_retried = true;
    if (job.rejected || job.failed) continue;
    EXPECT_GT(job.completion_time, 0.0) << "job " << job.id;
  }
  EXPECT_TRUE(any_retried);
  EXPECT_NE(report.ToJson().find("\"faults\""), std::string::npos);
  // Same config + same seed => byte-identical chaos replay.
  const ServiceReport replay = RunChecked(config);
  EXPECT_EQ(replay.ToJson(), report.ToJson());
  EXPECT_EQ(replay.JobTraceJson(), report.JobTraceJson());
}

// A straggler on one fabric slows only the jobs placed there.
TEST(ServiceFaults, StragglerSlowsOnlyTheStruckFabric) {
  ServiceConfig config = ChaosConfig();
  const ServiceReport base = RunChecked(config);
  config.faults =
      fault::FaultSpec::Parse("straggler:worker=0:factor=8:at=0:fabric=0");
  const ServiceReport report = RunChecked(config);
  ASSERT_EQ(report.jobs.size(), base.jobs.size());
  bool any_slower = false;
  for (std::size_t i = 0; i < base.jobs.size(); ++i) {
    if (base.jobs[i].rejected) continue;
    if (report.jobs[i].mean_iter_s > base.jobs[i].mean_iter_s) {
      any_slower = true;
    }
    // Jobs on the untouched fabric keep their exact iteration times as
    // long as both runs placed them identically off-strike.
    if (report.jobs[i].fabric == 1 && base.jobs[i].fabric == 1) {
      EXPECT_GE(report.jobs[i].mean_iter_s, 0.0);
    }
  }
  EXPECT_TRUE(any_slower);
}

TEST(PlacementPolicy, FailureAwareAvoidsRecentlyFaultyFabrics) {
  const PlacementPolicy& policy = FindPlacementPolicy("failure-aware");
  std::vector<FabricLoad> loads(2);
  loads[0].active_workers = 0;
  loads[0].recent_faults = 1;
  loads[1].active_workers = 4;
  // Least-loaded chases the empty-but-flapping fabric; failure-aware
  // pays the fault penalty and takes the healthy one.
  EXPECT_EQ(FindPlacementPolicy("least-loaded").Place(Job(), loads, 0, 8),
            0);
  EXPECT_EQ(policy.Place(Job(), loads, 0, 8), 1);
  // ...but a faulty fabric is still usable when it is the only seat.
  loads[1].down = true;
  EXPECT_EQ(policy.Place(Job(), loads, 0, 8), 0);
}

TEST(PlacementPolicy, DownFabricsAreIneligibleForEveryPolicy) {
  for (const PlacementPolicy& policy : kPlacementPolicies) {
    std::vector<FabricLoad> loads(2);
    loads[0].down = true;
    EXPECT_EQ(policy.Place(Job(), loads, 0, 8), 1) << policy.name;
    loads[1].down = true;
    EXPECT_EQ(policy.Place(Job(), loads, 0, 8), -1) << policy.name;
  }
}

TEST(PlacementPolicy, FailureAwareIsRegistered) {
  EXPECT_EQ(FindPlacementPolicy("failure-aware").name, "failure-aware");
}

TEST(ServiceFaults, ValidatesRecoveryKnobs) {
  ServiceConfig config = ChaosConfig();
  config.retry_budget = -1;
  EXPECT_THROW(SchedulerService{config}, std::invalid_argument);
  config.retry_budget = 3;
  config.retry_backoff_s = 0.0;
  EXPECT_THROW(SchedulerService{config}, std::invalid_argument);
  config.retry_backoff_s = 0.05;
  config.faults.events.push_back(
      fault::FaultEvent{.kind = fault::FaultEvent::Kind::kStraggler,
                        .worker = 0,
                        .factor = 0.5,
                        .at = 1.0});
  EXPECT_THROW(SchedulerService{config}, std::invalid_argument);
}

}  // namespace
}  // namespace tictac::sched
