// The bridge between the runtime's lowering entry points and the IR
// pass pipeline (DESIGN.md §10): the builder importing scheduled worker
// graphs into a kLogical Module, the preset pass orders, and exporters
// producing the sim-facing Lowering structures. The exporters take the
// module by value (callers std::move it) and move its sim::TaskGraph
// into Lowering::tasks, so no task is copied on the way out; a
// multi-job module becomes one combined Lowering whose jobs are range
// views (MultiJobLowering::JobSlice).
//
// The runtime entry points (runtime::LowerCluster, over either topology,
// LowerPipeline and LowerSharedCluster) are thin wrappers over
// BuildLogicalModule + StandardLoweringPipeline + an exporter; the
// lowering/ cells of tests/sim_fingerprint_test.cc pin every field they
// export.
// Chunking, sharding and schedules come from runtime::Runner before the
// pipeline runs; composed multi-job scenarios (`tictac_cli lower`
// included) lower through runtime::BuildSharedFabric.
#pragma once

#include <vector>

#include "ir/module.h"
#include "ir/pass.h"
#include "runtime/cluster.h"
#include "runtime/lowering.h"
#include "runtime/multijob.h"

namespace tictac::ir {

// Appends a job — JobInfo (info.graph must be set), one kLogical node
// per graph op (in op-id order, preds in graph edge order), range — to a
// kLogical module and returns its job index.
int AddJob(Module& module, JobInfo info);

// A kLogical module over already-scheduled inputs: graphs are borrowed
// (non-owning — they must outlive the module), ps_of_param is imported
// directly, and each schedule becomes rank/priority attributes with the
// exact legacy gating — normalized recv ranks (and jobs[j].scheduled)
// only when the schedule covers the whole graph and every recv;
// best-effort send priorities whenever the sizes match.
Module BuildLogicalModule(const std::vector<runtime::JobLoweringInput>& jobs);

// The preset pass orders.
//   kPsFabric: expand_replicas, lower_ps_fabric, merge_jobs,
//              lower_flow_nics, apply_arrival_offsets,
//              pipeline_iters:<iterations>
//   kRing:     expand_replicas, lower_allreduce_ring,
//              apply_arrival_offsets, pipeline_iters:<iterations>
// Throws std::invalid_argument("iterations must be >= 1") for
// iterations < 1.
PassPipeline StandardLoweringPipeline(runtime::Topology topology,
                                      int iterations = 1);

// kMerged module -> the simulator-facing task list + worker tables.
// Single-job PS modules also fill update_task/worker_sink (from
// iteration 0, the pipelined stitching hooks); ring and multi-job
// modules leave them empty, as the legacy lowerings do.
runtime::Lowering ToLowering(Module module);

// ToLowering plus per-task iteration tags and the iteration count.
runtime::PipelineLowering ToPipelineLowering(Module module);

// kMerged multi-job module (iterations == 1) -> the combined fabric plus
// each job's slice: its task and worker ranges in the combined graph,
// its delay task and its arrival offset (runtime/multijob.h).
runtime::MultiJobLowering ToMultiJobLowering(Module module);

}  // namespace tictac::ir
