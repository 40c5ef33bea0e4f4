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
#include "ir/passes.h"
#include "runtime/cluster.h"
#include "sim/engine.h"

namespace tictac::runtime {

// One job's view of a lowering: its tasks [first_task, last_task) and its
// workers [first_worker, first_worker + num_workers), measured on the
// job's own clock, which starts start_offset seconds into the run.
struct JobSlice {
  sim::TaskId first_task = 0;
  sim::TaskId last_task = 0;
  int first_worker = 0;
  int num_workers = 0;
  // The arrival-delay task gating the job's sources, -1 when
  // start_offset == 0. It lies outside [first_task, last_task).
  sim::TaskId delay_task = -1;
  double start_offset = 0.0;
};

// The lowered task graph plus the tables mapping its tasks back to model
// semantics, for statistics. Every lowering — one job or a shared fabric
// of several, one iteration or a pipeline of them — has this one shape.
struct Lowering {
  // An engine over a copy of `tasks`.
  sim::TaskGraphSim BuildSim() const {
    return sim::TaskGraphSim(tasks, num_resources);
  }

  sim::TaskGraph tasks;
  int num_resources = 0;
  // All jobs' workers (the T of runtime/multijob.h's layout).
  int num_workers = 0;
  // Parameter servers of the PS fleet; 0 on the ring.
  int num_ps = 0;

  // Capacity graph for flow-level max-min fairness, attached by the
  // lower_flow_nics pass when the config enables flow_fairness (null =
  // static bandwidth/T split only). Runners point
  // SimOptions::network at it for the sim's lifetime.
  std::shared_ptr<const sim::FlowNetwork> flow;

  // Each job's slice, in job order; always at least one. A pipelined
  // lowering has one job, whose slice spans every iteration.
  std::vector<JobSlice> jobs;

  // Pipelined execution of consecutive iterations (Lower with
  // iterations > 1). Dataflow runtimes do not erect a global barrier
  // between steps: a parameter can be pulled for iteration k+1 the moment
  // its PS update from iteration k lands (training) — so transfers of the
  // next step overlap the tail of the current one. In inference (serving
  // loop) iteration k+1 starts once the worker's forward pass k
  // completes. task_iteration[t] is task t's iteration, empty when
  // iterations == 1.
  std::vector<int> task_iteration;
  int iterations = 1;

  // Task ids of each worker's ops (the worker partition), used for the
  // per-worker makespan and the U/L bounds of Section 3.2.
  std::vector<std::vector<sim::TaskId>> worker_tasks;
  // Task ids of each worker's parameter transfers, aligned with
  // `transfer_param[w]` giving the parameter index of each (an
  // iteration-0 table).
  std::vector<std::vector<sim::TaskId>> worker_recv_tasks;
  std::vector<std::vector<int>> transfer_param;
  // PS-side update task per parameter (-1 when absent, e.g. inference);
  // and each worker's final forward compute — the hooks the pipelined
  // lowering stitches consecutive iterations with, both of iteration 0.
  // Filled when the lowering holds exactly one PS job (parameter indices
  // are per-job); empty on the ring and on multi-job fabrics.
  std::vector<sim::TaskId> update_task;
  std::vector<sim::TaskId> worker_sink;
};

// One job's already-scheduled inputs to a lowering. The config's
// platform must already carry any contended bandwidth scaling
// (runtime::SharedFabricConfig); runtime::BuildSharedFabric assembles
// these inputs from RunnerCache entries that do.
struct JobLoweringInput {
  const core::Graph& graph;
  const core::Schedule& schedule;
  const std::vector<int>& ps_of_param;
  const ClusterConfig& config;
  double start_offset = 0.0;
};

// The one lowering entry point: ir::BuildLogicalModule(jobs), then
// ir::RunLoweringPasses(module, jobs.front().config.topology, iterations,
// after_pass) (a set hook also turns on per-pass invariant checks), then
// ir::ToLowering. The lowering/ cells of tests/sim_fingerprint_test.cc
// pin every field it exports.
//
// Each job's `graph` is its per-worker partition (identical on every
// worker, Model-Replica). `schedule` supplies recv priorities; an empty
// schedule (no priorities) is the baseline. `ps_of_param` maps parameter
// index -> PS. Durations come from config.platform.
//
// Several jobs share one PS fabric in runtime/multijob.h's layout (all
// must declare the same num_ps); a start_offset > 0 becomes a delay task
// every source task of the job depends on. A single zero-offset job is
// exactly its own cluster.
//
// A ring job (config.topology == kRing) ignores `schedule` and
// `ps_of_param`: the collective fixes the transfer order by its rounds,
// so no rank, priority or gate applies. It needs a training graph (sends
// present) and >= 2 workers.
//
// Throws std::invalid_argument on an empty job list, iterations < 1, a
// ring job on a fabric of several jobs, several jobs with iterations > 1,
// a ring job with iterations > 1, or a lowering pass's refusal.
Lowering Lower(const std::vector<JobLoweringInput>& jobs, int iterations = 1,
               const ir::PassHook& after_pass = {});

// Lower over one job, kept as the single-job entry point.
Lowering LowerCluster(const core::Graph& worker_graph,
                      const core::Schedule& schedule,
                      const std::vector<int>& ps_of_param,
                      const ClusterConfig& config);

// Per-iteration completion times (max end over the iteration's tasks) and
// the steady-state per-iteration time, estimated over iterations [1, n).
struct PipelineTiming {
  std::vector<double> iteration_finish;
  double first_iteration = 0.0;
  double steady_state = 0.0;
};

PipelineTiming ComputePipelineTiming(const Lowering& pipeline,
                                     const sim::SimResult& result);

}  // namespace tictac::runtime
