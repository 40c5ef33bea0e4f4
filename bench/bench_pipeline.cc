// Extension: steady-state pipelined execution. Dataflow runtimes overlap
// iteration k+1's parameter pulls with iteration k's tail (per-parameter
// update -> pull dependency, no global barrier). Reports cold first-
// iteration time vs steady-state per-iteration time, baseline vs TIC.
#include <iostream>

#include "core/chunking.h"
#include "core/push_schedule.h"
#include "core/tic.h"
#include "models/builder.h"
#include "models/zoo.h"
#include "runtime/lowering.h"
#include "runtime/sharding.h"
#include "util/table.h"

using namespace tictac;

namespace {

struct Variant {
  const char* label;
  bool scheduled;
  bool push_order;
  std::int64_t chunk_bytes;
};

}  // namespace

int main() {
  constexpr int kIterations = 8;
  std::cout << "Extension: pipelined training, cold vs steady-state "
               "iteration time (envG, 4 workers, 2 PS, "
            << kIterations << " chained iterations)\n\n";
  const Variant variants[] = {
      {"baseline", false, false, 0},
      {"TIC", true, false, 0},
      {"TIC + push order", true, true, 0},
      {"TIC + push + 4MiB chunks", true, true, 4ll << 20},
  };
  util::Table table({"Model", "Method", "Cold iter (ms)",
                     "Steady-state iter (ms)", "Pipelining gain"});
  for (const char* name : {"Inception v2", "ResNet-50 v2", "VGG-16"}) {
    const auto& info = models::FindModel(name);
    const auto config = runtime::EnvG(4, 2, /*training=*/true);
    const auto ps_of =
        runtime::ShardParams(models::ParamSizes(info), config.num_ps);

    for (const Variant& v : variants) {
      core::Graph graph = models::BuildWorkerGraph(info, {.training = true});
      if (v.chunk_bytes > 0) {
        graph = core::ChunkTransfers(graph,
                                     {.max_chunk_bytes = v.chunk_bytes});
      }
      core::Schedule schedule =
          v.scheduled ? core::Tic(graph) : core::Schedule();
      if (v.push_order) schedule = core::OrderSends(graph, schedule);
      const runtime::Lowering pipe =
          runtime::Lower({{graph, schedule, ps_of, config}}, kIterations);
      sim::TaskGraphSim sim = pipe.BuildSim();
      sim::SimOptions options = config.sim;
      options.enforce_gates = v.scheduled;
      const auto timing =
          runtime::ComputePipelineTiming(pipe, sim.Run(options, 23));
      table.AddRow({name, v.label,
                    util::Fmt(timing.first_iteration * 1e3, 1),
                    util::Fmt(timing.steady_state * 1e3, 1),
                    util::FmtPct(timing.first_iteration /
                                     timing.steady_state - 1.0)});
    }
  }
  table.Print(std::cout);
  std::cout
      << "\nObserved shape (a real limitation of TicTac this harness "
         "surfaces): the baseline\npipelines aggressively — backward "
         "updates *last*-layer parameters first, and an\nunordered worker "
         "pulls them for step k+1 while step k is still pushing. TIC's\n"
         "per-iteration gate wants *first*-layer parameters first, but "
         "their updates land\nlast, so the gate serializes consecutive "
         "iterations and gives back part of its\nwithin-iteration win. "
         "This is precisely the cross-iteration tension that the\n"
         "successor systems (P3, ByteScheduler) resolve by scheduling "
         "gradient pushes so\nfront-layer updates complete first. The "
         "paper itself evaluates synchronized\nper-step training "
         "(in-graph replication), where this regime does not arise.\n"
         "\nWith push priorities — and chunking for slice-granularity "
         "queue-jumping — the\npipeline reopens wherever the uplink is "
         "the constraint (VGG-16 steady state\novertakes even the "
         "unordered baseline). When the backward *computation* order\n"
         "itself delays front-layer updates (Inception v2), push "
         "priorities have nothing\nto reorder; closing that residual gap "
         "requires P3-style per-slice forward\ngating, beyond this "
         "reproduction's scope.\n";
  return 0;
}
