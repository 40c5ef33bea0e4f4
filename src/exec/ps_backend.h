// Executable parameter-server backend (DESIGN.md §9).
//
// PsBackend takes the same lowered task graph the discrete-event
// simulator consumes (runtime::LowerCluster) and *runs* it: one thread
// per lowered resource — W worker computation threads, 2·W·S channel
// threads, S parameter-server CPU threads — synchronizing on the task
// graph's dependency edges and §5.1 hand-off gates exactly as the
// simulator assumes, and moving real data through exec::Transport
// queues. Worker threads train a real learn::Mlp (the cargo model):
// parameters are pulled from the PS in the schedule-enforced order,
// gradients are computed on each worker's batch shard and pushed back,
// and the PS aggregates and applies SGD — numerically identical, bit for
// bit, to the serial learn::PsTrainer reference (pinned in
// tests/exec_test.cc). Parameters beyond the cargo model's size carry
// synthetic payloads sized by the lowered op's bytes.
//
// Two clocks:
//   * Real (default off in tests, on for honest measurement): task
//     timestamps come from std::chrono::steady_clock; compute tasks spin
//     `cost * work_scale` GFLOPs of actual arithmetic, transfers copy
//     `bytes * wire_scale` real bytes through bounded scratch buffers.
//     Measurements are honest and machine-dependent — NOT reproducible.
//   * Deterministic (options.deterministic_clock): execution order per
//     resource is fixed by a reference simulation of the same lowering
//     and timestamps are *virtual* — pure functions of the task graph, a
//     hidden platform (the assumed platform skewed by fixed factors, so
//     self-calibration has real constants to recover), the straggler /
//     jitter knobs, and the seed. Threads, queues, gates, and the
//     training numerics all still run for real; only the clock is
//     synthesized, so two same-seed runs are byte-identical (the CI exec
//     smoke pins this).
//
// Perturbation knobs mirror the fault::FaultSpec vocabulary:
// straggler_factors[w] (compute on worker w runs factor× slower, like
// straggler:worker=w:factor=F), link_jitter_sigma (per-transfer lognormal
// jitter, the jittery-link analogue of slowlink), and the cluster's own
// worker_speed_factors for heterogeneous workers. The simulator must
// track all of them — exec::ValidateAgainstSim checks that it does.
#pragma once

#include <cstdint>
#include <vector>

#include "core/graph.h"
#include "core/time_oracle.h"
#include "learn/mlp.h"
#include "runtime/lowering.h"
#include "sim/task.h"

namespace tictac::exec {

// The real training cargo riding on the executed task graph.
struct WorkloadConfig {
  learn::MlpShape shape;  // tiny by default (learn/mlp.h)
  std::size_t dataset_examples = 256;
  std::size_t batch_per_worker = 16;
  double learning_rate = 0.05;
  std::uint64_t dataset_seed = 1234;  // dataset identity, not run seed
};

struct BackendOptions {
  int iterations = 5;
  // Seeds the cargo model's weight init and minibatch order
  // (learn::TrainConfig model_seed/data_seed) plus the deterministic
  // clock's jitter stream.
  std::uint64_t seed = 1;

  bool deterministic_clock = false;
  // Platform the lowering's durations were computed from; the
  // deterministic clock derives its hidden platform from it.
  core::PlatformModel assumed;
  // Hidden-platform skews (deterministic clock): the virtual machine
  // computes at `hidden_compute_factor`× the assumed rate, moves bytes at
  // `hidden_bandwidth_factor`× the assumed bandwidth, and pays
  // `hidden_latency_factor`× the assumed per-transfer latency. Deliberate
  // mis-assumptions: calibration must recover the hidden constants.
  double hidden_compute_factor = 0.8;
  double hidden_bandwidth_factor = 1.25;
  double hidden_latency_factor = 2.0;

  // Real-clock payload scales: fraction of the modeled GFLOPs actually
  // spun and of the modeled bytes actually copied per task.
  double work_scale = 1e-4;
  double wire_scale = 1e-2;

  // Perturbation knobs (see header comment). straggler_factors is per
  // worker (empty = none, entries >= 1); link_jitter_sigma is the
  // lognormal shape on every transfer.
  std::vector<double> straggler_factors;
  double link_jitter_sigma = 0.0;

  // Per-channel transport queue bound; 0 = auto (the per-PS parameter
  // count — the maximum ever in flight on one channel, see transport.h).
  int queue_capacity = 0;

  WorkloadConfig workload;
};

// Measured execution: per-iteration task timestamps in the same
// SimResult shape the simulator emits, so trace::CollectSpans,
// trace::CalibratePlatform, and runtime::ComputeIterationStats consume
// measured runs unchanged.
struct ExecutionTrace {
  std::vector<sim::SimResult> iterations;
  std::vector<double> iteration_time_s;  // = iterations[i].makespan

  // Gate hand-off order of the first iteration, per worker, as parameter
  // indices — the order each worker actually initiated its pulls in.
  // Empty per-worker lists when the schedule carried no gates (baseline).
  std::vector<std::vector<int>> handoff_order;

  // Training cargo results (empty loss for inference graphs).
  std::vector<double> loss;  // per iteration, mean over workers
  double final_accuracy = 0.0;
  std::vector<double> final_weight_checksums;  // per cargo parameter

  std::uint64_t messages = 0;
  std::uint64_t payload_bytes_copied = 0;

  double MeanIterationTime() const;
};

// Upper bound on PsBackend's OS threads: one per lowered resource, so a
// cluster of W workers and S PS needs W + 2·W·S + S of them. Past this
// the backend refuses the lowering instead of exhausting the machine
// (64 workers × 64 PS would be 8,320 threads). A constant, not an option.
inline constexpr int kMaxBackendThreads = 256;

class PsBackend {
 public:
  // `lowering` must be a single-iteration, single-job PS lowering over
  // `worker_graph` (LowerCluster's, or a 1-job fabric's); both must
  // outlive the backend. Throws std::invalid_argument on malformed
  // options (factor < 1, scales <= 0, iterations < 1), a lowering of
  // several jobs or iterations, or one with more than kMaxBackendThreads
  // resources.
  PsBackend(const runtime::Lowering& lowering, const core::Graph& worker_graph,
            BackendOptions options);

  // Executes options.iterations iterations with real threads and
  // returns the measured trace. May be called once per backend.
  ExecutionTrace Run();

 private:
  const runtime::Lowering* lowering_;
  const core::Graph* graph_;
  BackendOptions options_;
};

}  // namespace tictac::exec
