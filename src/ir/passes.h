// The built-in lowering passes (DESIGN.md §10). Each is a single-purpose
// Module rewrite; the runtime's lowering entry points are presets over
// them (ir/lower.h), and multi-job + pipelined compositions are just
// longer pass orders. Chunking, parameter sharding and schedules are
// inputs: runtime::Runner computes them before the module is built.
//
// Stage contract (passes throw std::invalid_argument on violations):
//
//   pass                  requires      produces   what it does
//   ---------------------------------------------------------------------
//   expand_replicas       kLogical      kReplicated clone ops per worker
//                                                  (Model Replica)
//   lower_ps_fabric       kReplicated   kLowered   PS reads, channel
//                                                  resources, durations,
//                                                  §5.1 enforcement,
//                                                  aggregate/update
//   lower_allreduce_ring  kReplicated   kMerged    ring rounds instead of
//                                                  a PS fabric (single
//                                                  job)
//   merge_jobs            kLowered      kMerged    remap job-local
//                                                  resources onto the
//                                                  shared fabric
//   lower_flow_nics       kMerged       kMerged    attach the NIC/fat-tree
//                                                  capacity graph for
//                                                  flow-level fairness
//   apply_arrival_offsets kMerged       kMerged    delay tasks for
//                                                  staggered job arrivals
//   pipeline_iters:K      kMerged       kMerged    K pipelined iterations
//                                                  with cross-iteration
//                                                  dependencies
//
// lower_* consume kReplicated; merge_jobs and everything after consume
// lowered modules.
#pragma once

#include <memory>

#include "ir/pass.h"

namespace tictac::ir {

std::shared_ptr<const Pass> MakeExpandReplicasPass();
std::shared_ptr<const Pass> MakeLowerPsFabricPass();
std::shared_ptr<const Pass> MakeLowerAllreduceRingPass();
std::shared_ptr<const Pass> MakeMergeJobsPass();
std::shared_ptr<const Pass> MakeApplyArrivalOffsetsPass();
// Throws std::invalid_argument("iterations must be >= 1") for k < 1, at
// pipeline build, so runtime::Lower refuses it before any lowering work.
std::shared_ptr<const Pass> MakePipelineItersPass(int iterations);
// Attaches Module::flow, the capacity graph for the sim's max-min flow
// model (DESIGN.md §11), when a job's config enables flow fairness. The
// fat-tree knobs come from the merged jobs' ClusterConfigs, which must
// agree. PS fabrics only; refuses ring modules and runs once.
std::shared_ptr<const Pass> MakeLowerFlowNicsPass();

}  // namespace tictac::ir
