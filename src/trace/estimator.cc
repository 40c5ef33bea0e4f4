#include "trace/estimator.h"

#include <algorithm>
#include <unordered_map>

#include "sim/engine.h"

namespace tictac::trace {

core::MapTimeOracle EstimateWorkerOracle(const runtime::Lowering& lowering,
                                         const sim::SimOptions& options,
                                         int runs, std::uint64_t seed) {
  sim::TaskGraphSim sim = lowering.BuildSim();
  std::unordered_map<core::OpId, double> best;
  for (int r = 0; r < runs; ++r) {
    const sim::SimResult result =
        sim.Run(options, seed + static_cast<std::uint64_t>(r));
    for (sim::TaskId t : lowering.worker_tasks[0]) {
      const auto ti = static_cast<std::size_t>(t);
      const core::OpId op = lowering.tasks.op[ti];
      const double measured = result.end[ti] - result.start[ti];
      auto [it, inserted] = best.try_emplace(op, measured);
      if (!inserted) it->second = std::min(it->second, measured);
    }
  }
  return core::MapTimeOracle(std::move(best));
}

}  // namespace tictac::trace
