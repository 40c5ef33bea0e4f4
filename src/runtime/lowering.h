// Lowers a Model-Replica cluster (identical worker partitions) into the
// simulator's flat task graph, over either aggregation topology.
//
// Parameter-server fabric (Figure 2's distributed execution), with
// gRPC's "one channel per worker-PS pair; only one transfer active per
// channel" semantics (§5.1). Resource layout:
//   [0, W)                      worker computation resources (GPU/CPU)
//   [W, W + W*S)                downlink channels (PS s -> worker w):
//                                 index W + w*S + s
//   [W + W*S, W + 2*W*S)        uplink channels (worker w -> PS s):
//                                 index W + W*S + w*S + s
//   [W + 2*W*S, W + 2*W*S + S)  PS bookkeeping CPUs (aggregate/read/update)
//
// A PS NIC is time-shared by its W channels, so each pair-channel gets
// bandwidth/W — this is how PS communication load grows with worker count
// (§6.1) while per-worker transfer order remains the worker's own affair.
//
// Ring all-reduce — the decentralized aggregation pattern (Horovod-style)
// that the paper names as out of scope (§2) and future work (§7), built
// as a comparison substrate so the PS+TicTac results can be put in
// context. No parameter servers: weights live on the workers, so the
// forward pass never waits on the network, and recv ops become zero-cost
// local weight reads. After each parameter's gradient is ready on every
// worker, it is all-reduced around a ring of W unidirectional links in
// 2(W-1) phases, each moving 1/W of the parameter's bytes per link
// concurrently. Resource layout:
//   [0, W)      worker computation resources
//   [W, 2W)     ring links (worker i -> worker (i+1) mod W)
#pragma once

#include <memory>
#include <vector>

#include "core/graph.h"
#include "core/schedule.h"
#include "runtime/cluster.h"
#include "sim/engine.h"

namespace tictac::runtime {

// The lowered task graph plus the tables mapping its tasks back to model
// semantics, for statistics.
struct Lowering {
  // An engine over a copy of `tasks`.
  sim::TaskGraphSim BuildSim() const {
    return sim::TaskGraphSim(tasks, num_resources);
  }

  sim::TaskGraph tasks;
  int num_resources = 0;
  int num_workers = 0;

  // Capacity graph for flow-level max-min fairness, attached by the
  // lower_flow_nics pass when the config enables flow_fairness (null =
  // static bandwidth/T split only). Runners point
  // SimOptions::network at it for the sim's lifetime.
  std::shared_ptr<const sim::FlowNetwork> flow;

  // Task ids of each worker's ops (the worker partition), used for the
  // per-worker makespan and the U/L bounds of Section 3.2.
  std::vector<std::vector<sim::TaskId>> worker_tasks;
  // Task ids of each worker's parameter transfers, aligned with
  // `transfer_param[w]` giving the parameter index of each.
  std::vector<std::vector<sim::TaskId>> worker_recv_tasks;
  std::vector<std::vector<int>> transfer_param;
  // PS-side update task per parameter (-1 when absent, e.g. inference);
  // and each worker's final forward compute — the hooks the pipelined
  // lowering stitches consecutive iterations with.
  std::vector<sim::TaskId> update_task;
  std::vector<sim::TaskId> worker_sink;
};

// One job's already-scheduled inputs to a lowering (single-job entry
// points use exactly one; the shared-fabric lowering takes a vector). The
// config's platform must already carry any contended bandwidth scaling
// (runtime::SharedFabricConfig); runtime::BuildSharedFabric assembles
// these inputs from RunnerCache entries that do.
struct JobLoweringInput {
  const core::Graph& graph;
  const core::Schedule& schedule;
  const std::vector<int>& ps_of_param;
  const ClusterConfig& config;
  double start_offset = 0.0;
};

// Builds the iteration task graph.
//
// `worker_graph` is the per-worker partition (identical on every worker,
// Model-Replica). `schedule` supplies recv priorities; pass an empty
// schedule (no priorities) for the baseline. `ps_of_param` maps parameter
// index -> PS. Durations come from config.platform.
//
// A ring config (config.topology == kRing) ignores `schedule` and
// `ps_of_param`: the collective fixes the transfer order by its rounds,
// so no rank, priority or gate applies. It needs a training graph (sends
// present) and >= 2 workers, and throws std::invalid_argument otherwise.
// Its Lowering leaves update_task/worker_sink empty.
//
// Implemented as ir::StandardLoweringPipeline(config.topology)
// (ir/lower.h); the lowering/ cells of tests/sim_fingerprint_test.cc pin
// every exported field.
Lowering LowerCluster(const core::Graph& worker_graph,
                      const core::Schedule& schedule,
                      const std::vector<int>& ps_of_param,
                      const ClusterConfig& config);

// Pipelined execution of consecutive iterations. Dataflow runtimes do not
// erect a global barrier between steps: a parameter can be pulled for
// iteration k+1 the moment its PS update from iteration k lands (training)
// — so transfers of the next step overlap the tail of the current one. In
// inference (serving loop) iteration k+1 starts once the worker's forward
// pass k completes.
struct PipelineLowering {
  Lowering lowering;
  std::vector<int> task_iteration;  // per task: which iteration it belongs to
  int iterations = 0;
};

PipelineLowering LowerPipeline(const core::Graph& worker_graph,
                               const core::Schedule& schedule,
                               const std::vector<int>& ps_of_param,
                               const ClusterConfig& config, int iterations);

// Per-iteration completion times (max end over the iteration's tasks) and
// the steady-state per-iteration time, estimated over iterations [1, n).
struct PipelineTiming {
  std::vector<double> iteration_finish;
  double first_iteration = 0.0;
  double steady_state = 0.0;
};

PipelineTiming ComputePipelineTiming(const PipelineLowering& pipeline,
                                     const sim::SimResult& result);

}  // namespace tictac::runtime
