// The lowering passes (DESIGN.md §10), run in one fixed order by
// RunLoweringPasses. Each is a single-purpose Module rewrite; multi-job
// and pipelined compositions are the same order over more jobs and
// iterations. Chunking, parameter sharding and schedules are inputs:
// runtime::Runner computes them before the module is built.
//
//   pass                  consumes      produces   what it does
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
#pragma once

#include <functional>
#include <string>

#include "ir/module.h"
#include "runtime/cluster.h"

namespace tictac::ir {

// Called after each pass with the pass name and the rewritten module
// (e.g. to print module.DebugSummary()).
using PassHook =
    std::function<void(const std::string& pass, const Module& module)>;

// Lowers a kLogical module to kMerged through the fixed pass order:
//   kPsFabric: expand_replicas, lower_ps_fabric, merge_jobs,
//              lower_flow_nics, apply_arrival_offsets,
//              pipeline_iters:<iterations>
//   kRing:     expand_replicas, lower_allreduce_ring,
//              apply_arrival_offsets, pipeline_iters:<iterations>
// lower_flow_nics attaches Module::flow, the capacity graph for the
// sim's max-min flow model (DESIGN.md §11), only when a job's config
// enables flow fairness; the merged jobs' fat-tree knobs must agree.
//
// With `after_pass` set, Module::Validate() runs on the input and after
// every pass, and a violation is reported as "ir: invariant violated
// after pass '<name>'"; the hook then sees each pass's output. Throws
// std::invalid_argument("iterations must be >= 1") for iterations < 1,
// before any pass runs. The ring order lowers one job and one iteration;
// runtime::Lower refuses other ring inputs by name.
Module RunLoweringPasses(Module module, runtime::Topology topology,
                         int iterations = 1, const PassHook& after_pass = {});

}  // namespace tictac::ir
