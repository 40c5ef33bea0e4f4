// Quickstart: the Figure 1 toy graph end to end.
//
// Builds the two-recv DAG from the paper's Figure 1a, derives TIC and TAC
// schedules, and simulates the good and bad transfer orders on a
// two-resource device (one NIC, one processor) to show why ordering
// matters.
//
//   recv1 ──> op1 ──> op2
//   recv2 ───────────^
#include <iostream>

#include "core/graph.h"
#include "core/metrics.h"
#include "core/tac.h"
#include "core/tic.h"
#include "sim/engine.h"

using namespace tictac;

int main() {
  // 1. Build the computational graph (bytes/costs in arbitrary units).
  core::Graph graph;
  const auto recv1 = graph.AddRecv("recv1", /*bytes=*/100, /*param=*/0);
  const auto recv2 = graph.AddRecv("recv2", /*bytes=*/100, /*param=*/1);
  const auto op1 = graph.AddCompute("op1", /*cost=*/1.0);
  const auto op2 = graph.AddCompute("op2", /*cost=*/1.0);
  graph.AddEdge(recv1, op1);
  graph.AddEdge(op1, op2);
  graph.AddEdge(recv2, op2);
  std::cout << graph.DebugSummary() << "\n";

  // 2. Schedule with TIC (structure only) and TAC (timing-aware).
  core::MapTimeOracle oracle(
      {{recv1, 1.0}, {recv2, 1.0}, {op1, 1.0}, {op2, 1.0}});
  const core::Schedule tic = core::Tic(graph);
  const core::Schedule tac = core::Tac(graph, oracle);
  std::cout << "TIC priorities: recv1=" << tic.priority(recv1)
            << " recv2=" << tic.priority(recv2) << "\n";
  std::cout << "TAC priorities: recv1=" << tac.priority(recv1)
            << " recv2=" << tac.priority(recv2) << "\n\n";

  // 3. Simulate both transfer orders: NIC = resource 1, CPU = resource 0.
  auto simulate = [&](bool recv1_first) {
    std::vector<sim::Task> tasks(4);
    tasks[0].duration = 1.0;                     // recv1 on the NIC
    tasks[0].resource = 1;
    tasks[0].priority = recv1_first ? 0 : 1;
    tasks[1].duration = 1.0;                     // recv2 on the NIC
    tasks[1].resource = 1;
    tasks[1].priority = recv1_first ? 1 : 0;
    tasks[2].duration = 1.0;                     // op1 <- recv1
    tasks[2].resource = 0;
    tasks[2].preds = {0};
    tasks[3].duration = 1.0;                     // op2 <- op1, recv2
    tasks[3].resource = 0;
    tasks[3].preds = {2, 1};
    const sim::TaskGraphSim sim(sim::TaskGraph(tasks), 2);
    return sim.Run({}, /*seed=*/1).makespan;
  };
  const double good = simulate(true);
  const double bad = simulate(false);
  std::cout << "makespan, recv1 first (Figure 1b, the TicTac order): "
            << good << "\n";
  std::cout << "makespan, recv2 first (Figure 1c, the unlucky order): "
            << bad << "\n\n";

  // 4. Scheduling-efficiency metric (Eq. 1-4).
  const auto bounds = core::ComputeBounds(graph, oracle);
  std::cout << "U (serial) = " << bounds.upper
            << ", L (ideal overlap) = " << bounds.lower << "\n";
  std::cout << "E(good) = " << core::Efficiency(bounds, good)
            << ", E(bad) = " << core::Efficiency(bounds, bad)
            << ", speedup headroom S = " << core::Speedup(bounds) << "\n";
  return 0;
}
