// Task-level execution model consumed by the discrete-event simulator.
//
// The runtime lowers a cluster (worker partitions + PS partitions +
// transfers) into a flat task graph: every task occupies exactly one
// resource for its duration, starts only after its predecessors complete,
// and — for network transfers under TicTac enforcement — only after its
// per-worker hand-off gate opens (§5.1).
//
// The graph has one layout, TaskGraph: the IR builds it (ir::Module),
// the Lowering exports it and the engine runs it. Task is a row of it,
// for graphs written by hand and for the reference oracles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/op.h"

namespace tictac::sim {

struct FlowNetwork;  // sim/flow.h

using TaskId = std::int32_t;

inline constexpr int kNoPriority = std::numeric_limits<int>::max();

struct Task {
  // Service time on `resource`, in seconds, before jitter.
  double duration = 0.0;
  // Resource index in [0, num_resources).
  int resource = 0;

  // Ready-queue priority number: a resource picks uniformly among ready
  // tasks holding the lowest number together with tasks holding no number
  // (Section 3.1 semantics).
  int priority = kNoPriority;

  // Enforcement gate (§5.1). A task with gate_group >= 0 is enqueued on
  // its resource only when its group's hand-off counter equals gate_rank;
  // the counter increments at that enqueue (the transfer is "handed to
  // gRPC"), not when it starts, so transfers pipeline while their
  // initiation order stays fixed.
  int gate_group = -1;
  int gate_rank = -1;

  // Dependencies: indices of tasks that must complete first.
  std::vector<TaskId> preds;

  // Provenance, for statistics (not used by the engine itself).
  core::OpId op = core::kInvalidOp;
  core::OpKind kind = core::OpKind::kCompute;
  int worker = -1;  // worker this task belongs to; -1 for PS-side tasks
};

// A task graph in columns: task t's fields (see Task) are the t-th
// entries of the columns, and its preds are
// pred_ids[pred_begin[t], pred_begin[t + 1]), appended in task order.
struct TaskGraph {
  TaskGraph() = default;
  // Reads hand-built rows into the columns.
  explicit TaskGraph(std::span<const Task> rows);

  std::size_t size() const { return duration.size(); }
  std::span<const TaskId> preds(std::size_t t) const {
    return {pred_ids.data() + pred_begin[t],
            pred_ids.data() + pred_begin[t + 1]};
  }

  // The engine's columns.
  std::vector<double> duration;
  std::vector<int> resource;
  std::vector<int> priority;
  std::vector<int> gate_group;
  std::vector<int> gate_rank;
  // Provenance, for statistics; the engine never reads these.
  std::vector<core::OpId> op;
  std::vector<core::OpKind> kind;
  std::vector<int> worker;
  // Preds as CSR.
  std::vector<std::size_t> pred_begin{0};
  std::vector<TaskId> pred_ids;
};

inline TaskGraph::TaskGraph(std::span<const Task> rows) {
  for (const Task& row : rows) {
    duration.push_back(row.duration);
    resource.push_back(row.resource);
    priority.push_back(row.priority);
    gate_group.push_back(row.gate_group);
    gate_rank.push_back(row.gate_rank);
    op.push_back(row.op);
    kind.push_back(row.kind);
    worker.push_back(row.worker);
    pred_ids.insert(pred_ids.end(), row.preds.begin(), row.preds.end());
    pred_begin.push_back(pred_ids.size());
  }
}

// One step of a piecewise-constant resource-speed timeline (fault
// injection): at `time`, `resource` switches to serving at `speed` times
// its nominal rate. speed <= 0 means DOWN — the resource starts no new
// tasks until a later event raises its speed; tasks already in flight
// complete at the rate they started with (the service layer models a
// permanent crash by re-queueing the job, never by an unending sim).
// A task picks up its resource's speed when it STARTS: effective
// duration = nominal / speed. Timelines must be sorted by time.
struct ResourceFault {
  double time = 0.0;
  int resource = 0;
  double speed = 1.0;
};

struct SimOptions {
  // Honor gate_group/gate_rank. Off = the unscheduled baseline.
  bool enforce_gates = true;
  // Probability that a dispatch ignores priority ranks, modeling gRPC
  // hand-off reordering (the paper measures 0.4-0.5%): the resource then
  // starts a task drawn uniformly from all tasks already enqueued on it,
  // whatever their rank. A task still held at its gate is never exempted
  // from it; it is enqueued only once the gate reaches its rank.
  double out_of_order_probability = 0.0;
  // Multiplicative lognormal jitter (shape sigma) on every task duration,
  // modeling platform timing variation. 0 = deterministic durations.
  double jitter_sigma = 0.0;
  // Mid-run resource perturbations, sorted by time; nullptr or empty =
  // the unperturbed engine, bit for bit (the fault path draws no extra
  // randomness and is skipped entirely). The pointee must outlive Run().
  const std::vector<ResourceFault>* faults = nullptr;
  // Flow-level max-min fair bandwidth sharing (DESIGN.md §11), on exactly
  // when a network is set. Null (the default) or a flow-less network
  // reproduces the static bandwidth/T split bit for bit — the flow path
  // is skipped entirely. Otherwise transfers on resources `network` maps
  // to shared links progress at progressive-filling max-min rates,
  // recomputed on every flow start and finish, instead of their fixed
  // nominal rate. The pointee must outlive Run().
  const FlowNetwork* network = nullptr;
};

struct SimResult {
  double makespan = 0.0;
  std::vector<double> start;  // per task
  std::vector<double> end;    // per task
  // Tasks in the order they started, useful for schedule forensics.
  std::vector<TaskId> start_order;
};

}  // namespace tictac::sim
