#include "runtime/lowering.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "ir/lower.h"

namespace tictac::runtime {

// The single-job entry points are presets over the IR pass pipeline
// (ir/lower.h).

Lowering LowerCluster(const core::Graph& worker_graph,
                      const core::Schedule& schedule,
                      const std::vector<int>& ps_of_param,
                      const ClusterConfig& config) {
  // The ring takes no schedule and no placement: its rounds fix the
  // transfer order, so rank/priority attributes never apply.
  const bool ring = config.topology == Topology::kRing;
  const core::Schedule no_schedule;
  const std::vector<int> no_params;
  const std::vector<JobLoweringInput> jobs{
      {worker_graph, ring ? no_schedule : schedule,
       ring ? no_params : ps_of_param, config}};
  return ir::ToLowering(ir::StandardLoweringPipeline(config.topology)
                            .Run(ir::BuildLogicalModule(jobs)));
}

PipelineLowering LowerPipeline(const core::Graph& worker_graph,
                               const core::Schedule& schedule,
                               const std::vector<int>& ps_of_param,
                               const ClusterConfig& config, int iterations) {
  const std::vector<JobLoweringInput> jobs{
      {worker_graph, schedule, ps_of_param, config}};
  // Validates iterations >= 1 before any lowering work.
  ir::PassPipeline pipeline =
      ir::StandardLoweringPipeline(Topology::kPsFabric, iterations);
  return ir::ToPipelineLowering(pipeline.Run(ir::BuildLogicalModule(jobs)));
}

PipelineTiming ComputePipelineTiming(const PipelineLowering& pipeline,
                                     const sim::SimResult& result) {
  PipelineTiming timing;
  timing.iteration_finish.assign(
      static_cast<std::size_t>(pipeline.iterations), 0.0);
  for (std::size_t t = 0; t < pipeline.lowering.tasks.size(); ++t) {
    auto& finish = timing.iteration_finish[static_cast<std::size_t>(
        pipeline.task_iteration[t])];
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
