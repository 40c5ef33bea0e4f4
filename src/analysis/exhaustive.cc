#include "analysis/exhaustive.h"

#include <algorithm>
#include <stdexcept>

#include "sim/engine.h"

namespace tictac::analysis {

using core::Op;
using core::OpKind;

double EvaluateOrder(const Graph& graph, const TimeOracle& oracle,
                     const std::vector<OpId>& recv_order) {
  // Rank per recv op.
  std::vector<int> rank(graph.size(), -1);
  for (std::size_t i = 0; i < recv_order.size(); ++i) {
    rank[static_cast<std::size_t>(recv_order[i])] = static_cast<int>(i);
  }

  // Deterministic compute priorities: topological position.
  const std::vector<OpId> topo = graph.TopologicalOrder();
  std::vector<int> topo_pos(graph.size(), 0);
  for (std::size_t i = 0; i < topo.size(); ++i) {
    topo_pos[static_cast<std::size_t>(topo[i])] = static_cast<int>(i);
  }

  std::vector<sim::Task> tasks(graph.size());
  for (const Op& op : graph.ops()) {
    sim::Task& task = tasks[static_cast<std::size_t>(op.id)];
    task.duration = oracle.Time(graph, op.id);
    task.op = op.id;
    task.kind = op.kind;
    switch (op.kind) {
      case OpKind::kRecv:
        task.resource = 1;
        task.priority = rank[static_cast<std::size_t>(op.id)];
        task.gate_group = 0;
        task.gate_rank = task.priority;
        break;
      case OpKind::kSend:
        task.resource = 2;
        task.priority = topo_pos[static_cast<std::size_t>(op.id)];
        break;
      default:
        task.resource = 0;
        task.priority = topo_pos[static_cast<std::size_t>(op.id)];
        break;
    }
    for (OpId pred : graph.preds(op.id)) {
      task.preds.push_back(pred);
    }
  }
  const sim::TaskGraphSim sim(sim::TaskGraph(tasks), 3);
  sim::SimOptions options;
  options.enforce_gates = true;
  return sim.Run(options, /*seed=*/0).makespan;
}

double EvaluateSchedule(const Graph& graph, const TimeOracle& oracle,
                        const Schedule& schedule) {
  return EvaluateOrder(graph, oracle, schedule.RecvOrder(graph));
}

ExhaustiveResult ExhaustiveSearch(const Graph& graph,
                                  const TimeOracle& oracle, int max_recvs) {
  std::vector<OpId> recvs = graph.RecvOps();
  if (static_cast<int>(recvs.size()) > max_recvs) {
    throw std::invalid_argument("too many recvs for exhaustive search");
  }
  std::sort(recvs.begin(), recvs.end());

  ExhaustiveResult result;
  double total = 0.0;
  do {
    const double makespan = EvaluateOrder(graph, oracle, recvs);
    total += makespan;
    ++result.orders_evaluated;
    if (result.orders_evaluated == 1 || makespan < result.best) {
      result.best = makespan;
      result.best_order = recvs;
    }
    if (result.orders_evaluated == 1 || makespan > result.worst) {
      result.worst = makespan;
      result.worst_order = recvs;
    }
  } while (std::next_permutation(recvs.begin(), recvs.end()));
  result.mean = total / static_cast<double>(result.orders_evaluated);
  return result;
}

}  // namespace tictac::analysis
