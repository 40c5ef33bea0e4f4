#include "runtime/allreduce.h"

#include <stdexcept>
#include <vector>

#include "core/schedule.h"
#include "ir/lower.h"

namespace tictac::runtime {

Lowering LowerAllReduce(const core::Graph& worker_graph,
                        const ClusterConfig& config) {
  // Checked here (not just in the ring pass) to keep the legacy error
  // precedence: a bad worker count or task type fails before graph
  // traversal.
  if (config.num_workers < 2) {
    throw std::invalid_argument("all-reduce needs >= 2 workers");
  }
  if (!config.training) {
    throw std::invalid_argument("all-reduce applies to training only");
  }
  // The collective takes no schedule: transfer order is fixed by the ring
  // rounds, so rank/priority attributes never apply.
  const core::Schedule no_schedule;
  const std::vector<int> no_params;
  const std::vector<JobLoweringInput> jobs{
      {worker_graph, no_schedule, no_params, config}};
  return ir::ToLowering(ir::StandardLoweringPipeline(Topology::kRing)
                            .Run(ir::BuildLogicalModule(jobs)));
}

}  // namespace tictac::runtime
