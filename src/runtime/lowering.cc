#include "runtime/lowering.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ir/lower.h"

namespace tictac::runtime {
namespace {

[[noreturn]] void Fail(const std::string& message) {
  throw std::invalid_argument("lowering: " + message);
}

}  // namespace

Lowering Lower(const std::vector<JobLoweringInput>& jobs, int iterations,
               const ir::PassHook& after_pass) {
  // merge_jobs reads jobs.front() and checks the rest of the fabric.
  if (jobs.empty()) Fail("Lower needs >= 1 job");
  const Topology topology = jobs.front().config.topology;
  const bool ring = topology == Topology::kRing;
  if (jobs.size() > 1 &&
      std::any_of(jobs.begin(), jobs.end(), [](const JobLoweringInput& job) {
        return job.config.topology == Topology::kRing;
      })) {
    Fail("ring collectives have no shared fabric to slice (" +
         std::to_string(jobs.size()) +
         " jobs; a multi-job fabric is parameter-server only)");
  }
  if (ring && iterations > 1) {
    Fail("the ring collective lowers one iteration, got iterations=" +
         std::to_string(iterations) +
         " (pipelined iterations chain each pull to a PS update)");
  }
  if (ring) {
    // The ring takes no schedule and no placement: its rounds fix the
    // transfer order, so rank/priority attributes never apply.
    const JobLoweringInput& job = jobs.front();
    const core::Schedule no_schedule;
    const std::vector<int> no_params;
    return ir::ToLowering(ir::RunLoweringPasses(
        ir::BuildLogicalModule({{job.graph, no_schedule, no_params,
                                 job.config, job.start_offset}}),
        topology, iterations, after_pass));
  }
  return ir::ToLowering(ir::RunLoweringPasses(
      ir::BuildLogicalModule(jobs), topology, iterations, after_pass));
}

Lowering LowerCluster(const core::Graph& worker_graph,
                      const core::Schedule& schedule,
                      const std::vector<int>& ps_of_param,
                      const ClusterConfig& config) {
  return Lower({{worker_graph, schedule, ps_of_param, config}});
}

PipelineTiming ComputePipelineTiming(const Lowering& pipeline,
                                     const sim::SimResult& result) {
  PipelineTiming timing;
  timing.iteration_finish.assign(
      static_cast<std::size_t>(pipeline.iterations), 0.0);
  for (std::size_t t = 0; t < pipeline.tasks.size(); ++t) {
    auto& finish = timing.iteration_finish[static_cast<std::size_t>(
        pipeline.task_iteration.empty() ? 0 : pipeline.task_iteration[t])];
    finish = std::max(finish, result.end[t]);
  }
  timing.first_iteration = timing.iteration_finish.front();
  if (pipeline.iterations > 1) {
    timing.steady_state =
        (timing.iteration_finish.back() - timing.iteration_finish.front()) /
        static_cast<double>(pipeline.iterations - 1);
  } else {
    timing.steady_state = timing.first_iteration;
  }
  return timing;
}

}  // namespace tictac::runtime
