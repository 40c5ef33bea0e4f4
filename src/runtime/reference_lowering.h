// FROZEN pre-IR lowering implementations, kept verbatim as the ground
// truth the pass-based pipeline is differentially pinned against
// (tests/ir_differential_test.cc) and as the "old layout" side of
// bench_lowering. Do not modify these: the public entry points in
// runtime/lowering.h, runtime/allreduce.h and runtime/multijob.h are now
// thin ir::PassPipeline presets, and every behavior change must happen
// in src/ir/ passes — these bodies exist precisely so a drift there is
// caught bit for bit.
//
// Precedent: core/tac.h's TacFullRecompute, frozen for the same reason.
//
// The bodies build the row layout they were written against (one
// sim::Task per task, each owning its preds), so the result types they
// fill are frozen here too: the live runtime::Lowering holds a columnar
// sim::TaskGraph instead.
#pragma once

#include <vector>

#include "core/graph.h"
#include "core/schedule.h"
#include "runtime/cluster.h"
#include "runtime/lowering.h"
#include "runtime/multijob.h"
#include "sim/task.h"

namespace tictac::runtime::reference {

// runtime::Lowering with row tasks.
struct Lowering {
  std::vector<sim::Task> tasks;
  int num_resources = 0;
  int num_workers = 0;
  std::vector<std::vector<sim::TaskId>> worker_tasks;
  std::vector<std::vector<sim::TaskId>> worker_recv_tasks;
  std::vector<std::vector<int>> transfer_param;
  std::vector<sim::TaskId> update_task;
  std::vector<sim::TaskId> worker_sink;
};

// runtime::PipelineLowering over the row Lowering.
struct PipelineLowering {
  Lowering lowering;
  std::vector<int> task_iteration;
  int iterations = 0;
};

// runtime::MultiJobLowering over the row Lowering.
struct MultiJobLowering {
  using JobSlice = runtime::MultiJobLowering::JobSlice;
  Lowering combined;
  std::vector<JobSlice> jobs;
  int total_workers = 0;
  int num_ps = 0;
};

// The pre-IR runtime::LowerCluster, verbatim.
Lowering LowerCluster(const core::Graph& worker_graph,
                      const core::Schedule& schedule,
                      const std::vector<int>& ps_of_param,
                      const ClusterConfig& config);

// The pre-IR runtime::LowerPipeline, verbatim.
PipelineLowering LowerPipeline(const core::Graph& worker_graph,
                               const core::Schedule& schedule,
                               const std::vector<int>& ps_of_param,
                               const ClusterConfig& config, int iterations);

// The pre-IR runtime::LowerAllReduce, verbatim.
Lowering LowerAllReduce(const core::Graph& worker_graph,
                        const ClusterConfig& config);

// The pre-IR runtime::LowerSharedCluster, verbatim (lowers each job with
// reference::LowerCluster).
MultiJobLowering LowerSharedCluster(const std::vector<JobLoweringInput>& jobs);

}  // namespace tictac::runtime::reference
