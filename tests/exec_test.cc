#include "exec/ps_backend.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "exec/transport.h"
#include "exec/validate.h"
#include "learn/data.h"
#include "learn/ps_trainer.h"
#include "models/builder.h"
#include "models/zoo.h"
#include "runtime/lowering.h"
#include "runtime/runner.h"

namespace tictac::exec {
namespace {

// Shared setup: a real zoo model lowered for the backend under a named
// policy. AlexNet v2 is the smallest zoo model (16 params), so these
// genuinely-multithreaded tests stay fast.
struct Fixture {
  Fixture(const char* model_name, const char* policy, int workers, int ps)
      : info(models::FindModel(model_name)) {
    config.num_workers = workers;
    config.num_ps = ps;
    config.training = true;
    runner = std::make_unique<runtime::Runner>(info, config);
    schedule = runner->MakeSchedule(policy);
    lowering = runtime::LowerCluster(runner->worker_graph(), schedule,
                                     runner->ps_of_param(), config);
  }

  BackendOptions Options(std::uint64_t seed) const {
    BackendOptions options;
    options.iterations = 3;
    options.seed = seed;
    options.deterministic_clock = true;
    options.assumed = config.platform;
    return options;
  }

  const models::ModelInfo& info;
  runtime::ClusterConfig config;
  std::unique_ptr<runtime::Runner> runner;
  core::Schedule schedule;
  runtime::Lowering lowering;
};

TEST(Transport, BackpressureBlocksProducerAndTerminatesCleanly) {
  InProcTransport transport(/*num_channels=*/1, /*capacity=*/2);
  constexpr int kMessages = 10;
  std::thread producer([&] {
    for (int i = 0; i < kMessages; ++i) {
      Message m;
      m.tag = i;
      m.tensor.assign(8, static_cast<double>(i));
      transport.Send(0, std::move(m));
    }
  });
  // Let the producer run into the full queue before draining.
  while (transport.messages_sent() < 2) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (int i = 0; i < kMessages; ++i) {
    const Message m = transport.Recv(0, i);
    ASSERT_EQ(m.tag, i);
    ASSERT_EQ(m.tensor.size(), 8u);
    EXPECT_EQ(m.tensor.front(), static_cast<double>(i));
  }
  producer.join();
  EXPECT_EQ(transport.messages_sent(), static_cast<std::uint64_t>(kMessages));
  // capacity 2 < 10 messages: the producer must have blocked at least once.
  EXPECT_GT(transport.blocked_sends(), 0u);
}

TEST(Transport, TaggedRecvSkipsOtherTags) {
  InProcTransport transport(1, 4);
  for (int tag : {3, 1, 2}) {
    Message m;
    m.tag = tag;
    transport.Send(0, std::move(m));
  }
  EXPECT_EQ(transport.Recv(0, 2).tag, 2);
  EXPECT_EQ(transport.Recv(0, 3).tag, 3);
  EXPECT_EQ(transport.Recv(0, 1).tag, 1);
}

TEST(Transport, RejectsBadArguments) {
  EXPECT_THROW(InProcTransport(0, 1), std::invalid_argument);
  EXPECT_THROW(InProcTransport(1, 0), std::invalid_argument);
}

TEST(PsBackend, RejectsBadOptions) {
  Fixture f("AlexNet v2", "tic", 2, 2);
  BackendOptions bad = f.Options(1);
  bad.iterations = 0;
  EXPECT_THROW(PsBackend(f.lowering, f.runner->worker_graph(), bad),
               std::invalid_argument);
  bad = f.Options(1);
  bad.straggler_factors = {0.5};
  EXPECT_THROW(PsBackend(f.lowering, f.runner->worker_graph(), bad),
               std::invalid_argument);
  bad = f.Options(1);
  bad.straggler_factors = {1.0, 1.0, 1.0};  // three factors, two workers
  EXPECT_THROW(PsBackend(f.lowering, f.runner->worker_graph(), bad),
               std::invalid_argument);
}

// One thread per lowered resource: 8 workers and 16 PS lower to
// 8 + 2·8·16 + 16 = 280 resources, past kMaxBackendThreads, so the
// constructor refuses before Run() could start a thread.
TEST(PsBackend, RejectsLoweringsPastTheThreadCap) {
  Fixture f("AlexNet v2", "tic", 8, 16);
  ASSERT_GT(f.lowering.num_resources, kMaxBackendThreads);
  EXPECT_THROW(PsBackend(f.lowering, f.runner->worker_graph(), f.Options(1)),
               std::invalid_argument);
}

// The backend replays one job's single-iteration graph. A 2-job fabric
// fits the worker/PS resource layout — (R - T) = S·(2T + 1) — but has no
// job's update tables, and a pipelined lowering holds several
// iterations: both are refused by name. A 1-job fabric is LowerCluster's
// export, hooks included, so it is accepted.
void ExpectBackendRefuses(const Fixture& f, const runtime::Lowering& lowering,
                          const std::string& named) {
  try {
    PsBackend backend(lowering, f.runner->worker_graph(), f.Options(1));
    ADD_FAILURE() << "expected an error naming '" << named << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(named), std::string::npos)
        << e.what();
  }
}

TEST(PsBackend, RejectsMultiJobFabrics) {
  Fixture f("AlexNet v2", "tic", 2, 2);
  const runtime::JobLoweringInput job{f.runner->worker_graph(), f.schedule,
                                      f.runner->ps_of_param(), f.config};
  const runtime::Lowering fabric = runtime::Lower({job, job});
  const int T = fabric.num_workers;
  const int S = fabric.num_ps;
  ASSERT_EQ(fabric.num_resources - T, S * (2 * T + 1));
  ExpectBackendRefuses(f, fabric, "got 2 jobs and 1 iterations");
  EXPECT_NO_THROW(PsBackend(runtime::Lower({job}), f.runner->worker_graph(),
                            f.Options(1)));
}

TEST(PsBackend, RejectsPipelinedLowerings) {
  Fixture f("AlexNet v2", "tic", 2, 2);
  ExpectBackendRefuses(
      f,
      runtime::Lower({{f.runner->worker_graph(), f.schedule,
                       f.runner->ps_of_param(), f.config}},
                     3),
      "got 1 jobs and 3 iterations");
}

TEST(PsBackend, SingleWorkerRunIsBitRepeatableUnderFixedSeed) {
  Fixture f("AlexNet v2", "tic", /*workers=*/1, /*ps=*/1);
  PsBackend a(f.lowering, f.runner->worker_graph(), f.Options(42));
  PsBackend b(f.lowering, f.runner->worker_graph(), f.Options(42));
  const ExecutionTrace ta = a.Run();
  const ExecutionTrace tb = b.Run();

  ASSERT_EQ(ta.iterations.size(), tb.iterations.size());
  for (std::size_t i = 0; i < ta.iterations.size(); ++i) {
    EXPECT_EQ(ta.iterations[i].start, tb.iterations[i].start) << "iter " << i;
    EXPECT_EQ(ta.iterations[i].end, tb.iterations[i].end) << "iter " << i;
    EXPECT_EQ(ta.iterations[i].start_order, tb.iterations[i].start_order);
  }
  EXPECT_EQ(ta.iteration_time_s, tb.iteration_time_s);
  EXPECT_EQ(ta.loss, tb.loss);
  EXPECT_EQ(ta.final_accuracy, tb.final_accuracy);
  EXPECT_EQ(ta.final_weight_checksums, tb.final_weight_checksums);
  EXPECT_EQ(ta.handoff_order, tb.handoff_order);
  EXPECT_EQ(ta.messages, tb.messages);

  // A different seed perturbs the cargo (weights, minibatch order).
  PsBackend c(f.lowering, f.runner->worker_graph(), f.Options(43));
  EXPECT_NE(c.Run().loss, ta.loss);
}

TEST(PsBackend, EnforcedHandoffOrderMatchesScheduleOrder) {
  Fixture f("AlexNet v2", "tic", /*workers=*/2, /*ps=*/2);
  PsBackend backend(f.lowering, f.runner->worker_graph(), f.Options(7));
  const ExecutionTrace trace = backend.Run();

  for (int w = 0; w < f.config.num_workers; ++w) {
    // Expected order per worker: its gated recv params by gate rank.
    std::vector<std::pair<int, int>> by_rank;
    const auto& recvs = f.lowering.worker_recv_tasks[static_cast<std::size_t>(w)];
    const auto& params = f.lowering.transfer_param[static_cast<std::size_t>(w)];
    for (std::size_t i = 0; i < recvs.size(); ++i) {
      const auto t = static_cast<std::size_t>(recvs[i]);
      ASSERT_GE(f.lowering.tasks.gate_group[t], 0)
          << "tic schedule must gate every recv";
      by_rank.emplace_back(f.lowering.tasks.gate_rank[t], params[i]);
    }
    std::sort(by_rank.begin(), by_rank.end());
    std::vector<int> expected;
    for (const auto& [rank, param] : by_rank) expected.push_back(param);
    EXPECT_EQ(trace.handoff_order[static_cast<std::size_t>(w)], expected)
        << "worker " << w;
  }
}

TEST(PsBackend, BaselineHasNoGatesAndNoHandoffLog) {
  Fixture f("AlexNet v2", "baseline", 2, 2);
  PsBackend backend(f.lowering, f.runner->worker_graph(), f.Options(7));
  const ExecutionTrace trace = backend.Run();
  for (const auto& order : trace.handoff_order) EXPECT_TRUE(order.empty());
  EXPECT_GT(trace.MeanIterationTime(), 0.0);
}

TEST(PsBackend, StragglerKnobMonotonicallyIncreasesIterationTime) {
  Fixture f("AlexNet v2", "tic", 2, 2);
  double previous = 0.0;
  for (const double factor : {1.0, 2.0, 4.0}) {
    BackendOptions options = f.Options(7);
    options.straggler_factors = {1.0, factor};
    PsBackend backend(f.lowering, f.runner->worker_graph(), options);
    const double measured = backend.Run().MeanIterationTime();
    EXPECT_GT(measured, previous) << "straggler factor " << factor;
    previous = measured;
  }
}

TEST(PsBackend, ThreadedExecutionMatchesSerialPsTrainerBitForBit) {
  // The differential pin: the backend's threaded parameter-server loop
  // must reproduce the serial learn::PsTrainer numerics exactly —
  // per-iteration losses, final accuracy, and final weights.
  constexpr std::uint64_t kSeed = 11;
  constexpr int kIterations = 4;
  Fixture f("AlexNet v2", "tac", /*workers=*/2, /*ps=*/2);
  BackendOptions options = f.Options(kSeed);
  options.iterations = kIterations;
  PsBackend backend(f.lowering, f.runner->worker_graph(), options);
  const ExecutionTrace trace = backend.Run();

  learn::TrainConfig train;
  train.num_workers = f.config.num_workers;
  train.batch_per_worker = options.workload.batch_per_worker;
  train.learning_rate = options.workload.learning_rate;
  train.model_seed = kSeed;
  train.data_seed = kSeed;
  const learn::Dataset dataset = learn::MakeGaussianMixture(
      options.workload.dataset_examples, options.workload.shape.inputs,
      static_cast<int>(options.workload.shape.classes),
      options.workload.dataset_seed);
  learn::PsTrainer trainer(train, dataset);
  const learn::TrainLog log = trainer.Train(kIterations, {});

  ASSERT_EQ(trace.loss.size(), log.loss.size());
  for (std::size_t i = 0; i < log.loss.size(); ++i) {
    EXPECT_EQ(trace.loss[i], log.loss[i]) << "iteration " << i;
  }
  EXPECT_EQ(trace.final_accuracy, log.final_accuracy);
  ASSERT_EQ(trace.final_weight_checksums.size(), trainer.model().num_params());
  for (std::size_t p = 0; p < trainer.model().num_params(); ++p) {
    const auto& data = trainer.model().param(p).data();
    double checksum = 0.0;
    for (double v : data) checksum += v;
    EXPECT_EQ(trace.final_weight_checksums[p], checksum) << "param " << p;
  }
}

TEST(PsBackend, RealClockSmoke) {
  // Wall-clock mode: honest (machine-dependent) measurement. Just pin
  // that the threaded run completes and produces ordered timestamps.
  Fixture f("AlexNet v2", "tic", 2, 1);
  BackendOptions options = f.Options(3);
  options.deterministic_clock = false;
  options.iterations = 2;
  options.work_scale = 1e-6;
  options.wire_scale = 1e-4;
  PsBackend backend(f.lowering, f.runner->worker_graph(), options);
  const ExecutionTrace trace = backend.Run();
  EXPECT_GT(trace.MeanIterationTime(), 0.0);
  for (const sim::SimResult& it : trace.iterations) {
    for (std::size_t t = 0; t < it.start.size(); ++t) {
      EXPECT_LE(it.start[t], it.end[t]);
    }
  }
  EXPECT_GT(trace.messages, 0u);
  EXPECT_FALSE(trace.loss.empty());
}

TEST(ValidateAgainstSim, SelfCalibrationKeepsPredictionErrorSmall) {
  ExecSpec spec;
  spec.model = "AlexNet v2";
  spec.policies = {"baseline", "tic", "tac"};
  spec.num_workers = 2;
  spec.num_ps = 2;
  spec.iterations = 3;
  spec.seed = 1;
  spec.deterministic = true;
  const ExecReport report = ValidateAgainstSim(spec);

  ASSERT_EQ(report.policies.size(), 3u);
  for (const PolicyValidation& row : report.policies) {
    EXPECT_GT(row.measured_s, 0.0) << row.policy;
    EXPECT_TRUE(row.calibration_ok) << row.policy;
    EXPECT_TRUE(row.order_matches_schedule) << row.policy;
    EXPECT_LE(row.error_pct, 15.0) << row.policy;
    // The hidden platform is skewed from the assumed one, so the
    // uncalibrated prediction must be visibly worse than the
    // calibrated one — otherwise the round-trip proves nothing.
    EXPECT_GT(row.uncalibrated_error_pct, row.error_pct) << row.policy;
  }
  EXPECT_LE(report.MeanAbsErrorPct(), 15.0);
}

TEST(ValidateAgainstSim, DeterministicReportIsByteIdentical) {
  ExecSpec spec;
  spec.model = "AlexNet v2";
  spec.policies = {"tic"};
  spec.num_workers = 2;
  spec.num_ps = 1;
  spec.iterations = 2;
  spec.seed = 5;
  spec.deterministic = true;
  const std::string a = ValidateAgainstSim(spec).ToJson();
  const std::string b = ValidateAgainstSim(spec).ToJson();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"prediction_error_pct\""), std::string::npos);
}

TEST(ValidateAgainstSim, RejectsClustersPastTheThreadCapBeforeLowering) {
  ExecSpec spec;
  spec.model = "AlexNet v2";
  spec.num_workers = 64;
  spec.num_ps = 64;  // 64 + 2·64·64 + 64 = 8,320 threads
  try {
    ValidateAgainstSim(spec);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("workers=64"), std::string::npos) << what;
    EXPECT_NE(what.find("ps=64"), std::string::npos) << what;
    EXPECT_NE(what.find("256"), std::string::npos) << what;
  }
}

TEST(ValidateAgainstSim, TracksStragglerPerturbation) {
  // Simulator validation under perturbation: with the knob mirrored into
  // worker speed factors, the calibrated prediction must stay close even
  // when worker 1 runs 3x slow.
  ExecSpec spec;
  spec.model = "AlexNet v2";
  spec.policies = {"tic"};
  spec.num_workers = 2;
  spec.num_ps = 2;
  spec.iterations = 3;
  spec.seed = 2;
  spec.deterministic = true;
  spec.straggler_factors = {1.0, 3.0};
  const ExecReport report = ValidateAgainstSim(spec);
  ASSERT_EQ(report.policies.size(), 1u);
  EXPECT_LE(report.policies.front().error_pct, 15.0);
}

}  // namespace
}  // namespace tictac::exec
