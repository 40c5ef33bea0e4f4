// The bridge between runtime::Lower and the IR lowering passes (DESIGN.md
// §10): the builder importing scheduled worker graphs into a kLogical
// Module and the one exporter producing the sim-facing runtime::Lowering.
// The exporter takes the module by value (callers std::move it) and
// moves its sim::TaskGraph into Lowering::tasks, so no task is copied on
// the way out; each job becomes a range view of the one graph
// (runtime::JobSlice).
//
// runtime::Lower is BuildLogicalModule + RunLoweringPasses (ir/passes.h)
// + ToLowering, and every runtime entry point (LowerCluster,
// BuildSharedFabric, `tictac_cli lower`) goes through it; the lowering/
// cells of tests/sim_fingerprint_test.cc pin every field it exports.
// Chunking, sharding and schedules come from runtime::Runner before the
// passes run.
#pragma once

#include <vector>

#include "ir/module.h"
#include "runtime/cluster.h"
#include "runtime/lowering.h"

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

// kMerged module -> the simulator-facing task list, worker tables and
// job slices, plus the per-task iteration tags when the module holds
// several iterations. Modules of one PS job also fill
// update_task/worker_sink (from iteration 0, the pipelined stitching
// hooks); ring and multi-job modules leave them empty. A pipelined
// module must hold one job, whose slice spans every iteration.
runtime::Lowering ToLowering(Module module);

}  // namespace tictac::ir
