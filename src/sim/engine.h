// Discrete-event multi-resource simulator.
//
// Executes a task graph under the paper's runtime semantics:
//   * each resource serves one task at a time;
//   * a task becomes *ready* when all predecessors have completed and its
//     enforcement gate (if any) is open;
//   * an idle resource picks uniformly at random among the ready tasks
//     holding the lowest priority number plus those without a priority —
//     exactly the ready-to-execute queue rule of Section 3.1;
//   * enqueueing a gated task advances its group's hand-off counter.
//
// The engine is deterministic given (tasks, options, seed).
//
// Fault injection (SimOptions::faults): an optional sorted timeline of
// per-resource speed changes — compute slowdown, bandwidth scaling, or
// down intervals (speed <= 0 starts nothing new until a later event
// raises it). A task samples its resource's speed when it starts; tasks
// in flight finish at the rate they started with. The fault path draws
// no randomness and allocates nothing per event, and an absent/empty
// timeline reproduces the unperturbed engine bit for bit (pinned in
// tests/sim_test.cc and tests/fault_test.cc).
//
// Flow fairness (SimOptions::network): transfers on
// resources the FlowNetwork maps to shared links progress at
// progressive-filling max-min rates instead of their static per-channel
// slice, re-solved on every flow start and finish. Each flow keeps one
// completion projection, refreshed when its rate changes, and the first
// of them is ordered against the event queue by the queue's own (time,
// task) rule, so only fixed-duration tasks are queued (DESIGN.md §11).
// The water-fill walks per-link cursors, visiting only the flows a
// round freezes, in the same order as a full scan. No network — or a
// network without flows — reproduces the static-split engine bit for
// bit (pinned in tests/flow_test.cc). Like the fault path, the flow
// path draws no extra randomness, so schedules stay comparable across
// the two contention models under one seed.
//
// Graph storage: the engine keeps the TaskGraph it is built from (the
// per-task columns and CSR preds, sim/task.h) and derives the succs as a
// second CSR, so a completion walks a contiguous successor span and a
// Run seeds its missing-pred counters from offset differences.
//
// Hot-path data structures (sized once per Run, no per-event allocation):
//   * ready tasks live in per-resource priority buckets (priorities are
//     rank-compressed per resource in the constructor, so total bucket
//     count is bounded by the task count) plus a flat per-resource list
//     for the out-of-order uniform pick — a pick is O(1) instead of an
//     O(queue) min-scan into a freshly allocated candidate vector;
//   * gate-waiting tasks are bucketed by rank, so a cascade release is
//     O(1) per released task instead of a rescan of the waiting list;
//   * a wake list holds the resources an event touched (a task enqueued,
//     a completion freed it, a fault changed it), so a dispatch costs
//     O(touched · log touched) in ascending resource id instead of a
//     scan over every resource.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sim/task.h"
#include "util/rng.h"

namespace tictac::sim {

class TaskGraphSim {
 public:
  // `num_resources` must cover every task's resource index. The engine
  // keeps `graph` as its own storage.
  TaskGraphSim(TaskGraph graph, int num_resources);

  // Validates the graph once: in-range resources/preds, acyclicity,
  // dense gate ranks per group. Throws std::invalid_argument on failure.
  void Validate() const;

  SimResult Run(const SimOptions& options, std::uint64_t seed) const;

  std::size_t num_tasks() const { return graph_.size(); }
  int num_resources() const { return num_resources_; }

 private:
  std::span<const TaskId> succs(std::size_t t) const {
    return {succ_ids_.data() + succ_begin_[t],
            succ_ids_.data() + succ_begin_[t + 1]};
  }

  TaskGraph graph_;
  // Succs as CSR: task t's are succ_ids_[succ_begin_[t],
  // succ_begin_[t + 1]), in ascending task id.
  std::vector<std::size_t> succ_begin_{0};
  std::vector<TaskId> succ_ids_;
  int num_resources_ = 0;
  int num_gate_groups_ = 0;

  // Dense rank of each task's priority among the distinct finite
  // priorities present *on its resource* (kNoRank for kNoPriority).
  // Rank order == priority order within a resource — the only scope a
  // min-pick ever compares across — so selection semantics are unchanged
  // while total bucket storage stays bounded by the task count.
  // Resource r's bucket rows live at [bucket_offset_[r],
  // bucket_offset_[r + 1]); the last entry is the bucket count.
  static constexpr int kNoRank = -1;
  std::vector<int> priority_rank_;
  std::vector<std::size_t> bucket_offset_;

  // Flattened per-group gate-rank slots: group g's slots live at
  // [gate_offset_[g], gate_offset_[g] + gate_group_size_[g]).
  std::vector<int> gate_group_size_;  // gated-task count per group
  std::vector<std::size_t> gate_offset_;
  std::size_t gate_slot_count_ = 0;
};

}  // namespace tictac::sim
