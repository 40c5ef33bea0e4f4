// The bridge between the runtime's lowering entry points and the IR
// pass pipeline (DESIGN.md §10): builders importing worker graphs into a
// kLogical Module, the preset pass orders, and exporters producing the
// sim-facing Lowering structures.
//
// The legacy entry points (runtime::LowerCluster / LowerPipeline /
// LowerAllReduce / LowerSharedCluster) are thin wrappers over
// BuildLogicalModule + StandardLoweringPipeline + an exporter, pinned
// bit-identical to the frozen pre-IR implementations
// (runtime/reference_lowering.h) by tests/ir_differential_test.cc.
// Composed scenarios — chunked + sharded + scheduled + multi-job +
// pipelined in ONE pipeline invocation — go through
// BuildModuleForSpec + FullLoweringPipeline (the `tictac_cli lower`
// subcommand).
#pragma once

#include <cstddef>
#include <vector>

#include "core/graph.h"
#include "core/schedule.h"
#include "ir/module.h"
#include "ir/pass.h"
#include "runtime/cluster.h"
#include "runtime/lowering.h"
#include "runtime/multijob.h"

namespace tictac::ir {

// Imports `graph`'s ops (in op-id order, preds in graph edge order) as
// kLogical nodes tagged with job index `job`; returns their range.
JobRange AppendLogicalNodes(Module& module, const core::Graph& graph,
                            int job);

// Appends a job — JobInfo (info.graph must be set), nodes, range — to a
// kLogical module and returns its job index.
int AddJob(Module& module, JobInfo info);

// Attaches schedule attributes to job `job`'s logical nodes, with the
// exact legacy gating: normalized recv ranks (and jobs[job].scheduled)
// only when the schedule covers the whole graph and every recv;
// best-effort send priorities whenever the sizes match.
void ApplyScheduleAttrs(Module& module, std::size_t job,
                        const core::Graph& graph,
                        const core::Schedule& schedule);

// A kLogical module over already-scheduled inputs (the legacy entry
// points' contract): graphs are borrowed (non-owning — they must outlive
// the module), schedules become attributes, ps_of_param is imported
// directly. No policy/param_bytes are set, so the logical-stage passes
// chunk_transfers / shard_params / compute_schedules are no-ops on it.
Module BuildLogicalModule(const std::vector<runtime::JobLoweringInput>& jobs);

// A kLogical module from a declarative multi-job spec: per job, builds
// the worker graph from the model zoo, carries policy + parameter sizes
// for the logical-stage passes, and takes the cluster config from
// runtime::SharedFabricConfig (bandwidth scaled by W_j / T, the
// shared-fabric contention model).
// Validates the spec. Unlike BuildLogicalModule the graphs are owned.
Module BuildModuleForSpec(const runtime::MultiJobSpec& spec);

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

// StandardLoweringPipeline with the logical-stage passes prepended:
// chunk_transfers, shard_params, compute_schedules. The spec-driven
// composed pipeline (use with BuildModuleForSpec).
PassPipeline FullLoweringPipeline(runtime::Topology topology,
                                  int iterations = 1);

// kMerged module -> the simulator-facing task list + worker tables.
// Single-job PS modules also fill update_task/worker_sink (from
// iteration 0, the pipelined stitching hooks); ring and multi-job
// modules leave them empty, as the legacy lowerings do.
runtime::Lowering ToLowering(const Module& module);

// ToLowering plus per-task iteration tags and the iteration count.
runtime::PipelineLowering ToPipelineLowering(const Module& module);

// kMerged multi-job module (iterations == 1) -> the combined fabric plus
// per-job slices, each slice's lowering reconstructed in the job's LOCAL
// task ids and resource space (runtime/multijob.h).
runtime::MultiJobLowering ToMultiJobLowering(const Module& module);

}  // namespace tictac::ir
