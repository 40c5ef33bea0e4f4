// Flat task-graph IR (DESIGN.md §10).
//
// Every lowering in the runtime — cluster, pipeline, all-reduce,
// multi-job composition — is expressed as a sequence of small
// graph-rewrite passes over one shared representation, in the style of
// shady's passes/ + node.c: the simulator's own task-graph columns
// (sim::TaskGraph: dense ids, CSR preds) plus side-table attributes
// (job / iteration / param / ...) that the simulation never touches.
//
// A Module moves through stages as passes lower it:
//
//   kLogical     one node per worker-graph op, per job (no resources),
//                schedules attached as rank/priority attributes
//   kReplicated  ops cloned once per worker (expand_replicas)
//   kLowered     resources + durations assigned in each job's LOCAL
//                resource space (lower_ps_fabric); ring lowerings skip
//                straight to kMerged
//   kMerged      jobs remapped onto one shared fabric (merge_jobs);
//                the stage apply_arrival_offsets / pipeline_iters
//                rewrite and the sim/Lowering exporters consume
//
// Node ids are dense and stage-local: passes rebuild storage rather than
// mutate in place, so a NodeId is only meaningful against the module
// revision that produced it. Node layout: the task fields live in one
// sim::TaskGraph — the columns and CSR preds the engine runs, which the
// exporters move into the Lowering — and the IR-only attributes (job,
// iteration, param, bytes, cost, rank, schedule priority, delay flag,
// name) in side-table columns beside it. Preds are appended in node
// order: SetPreds gives the newest node its list, once, so a pass that
// reserves its columns from its known output size lowers without
// reallocating.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/graph.h"
#include "core/op.h"
#include "runtime/cluster.h"
#include "sim/task.h"

namespace tictac::ir {

using NodeId = std::int32_t;
inline constexpr NodeId kNoNode = -1;
// Rank attribute of an unscheduled node (no normalized recv rank).
inline constexpr int kNoRank = -1;

// Lowering budgets. Passes check them before they reserve their columns,
// so an oversized cluster is rejected naming the knob instead of failing
// inside an allocation.
//
// kMaxLoweredTasks bounds the nodes (the sum over jobs of workers x
// worker-graph ops, times pipelined iterations, plus the ring
// collective's transfers). A PS-fabric run, whose pred lists are short,
// peaks at ~230 bytes of host memory per lowered task (`tictac_cli run`
// on ResNet-101 v2 training, 50 and 100 workers): ~3.9 GB at the budget.
//
// kMaxLoweredPredEntries bounds the pred-list entries. It is the binding
// limit for the ring collective, where every transfer lists its whole
// previous round, so the entries grow as transfers x workers: a ring run
// costs ~13 bytes per entry (`tictac_cli run` on AlexNet v2 training
// with topology=ring, 64 and 96 workers), ~3.5 GB at the budget.
inline constexpr std::int64_t kMaxLoweredTasks = std::int64_t{1} << 24;
inline constexpr std::int64_t kMaxLoweredPredEntries = std::int64_t{1} << 28;

enum class Stage { kLogical, kReplicated, kLowered, kMerged };
const char* ToString(Stage stage);

// Per-job lowering inputs carried alongside the nodes. The config's
// platform must already include any contention scaling (bandwidth · W/T
// for co-located jobs) — exactly the contract of runtime's lowering
// entry points.
struct JobInfo {
  runtime::ClusterConfig config;
  double start_offset = 0.0;
  // Parameter -> PS assignment, imported from the Runner.
  std::vector<int> ps_of_param;
  // True when rank attributes cover every recv of the job (the §5.1
  // enforcement precondition — gates are only emitted when set).
  bool scheduled = false;
  // The job's logical worker graph, kept alongside the (equivalent)
  // kLogical nodes. The module keeps each node's pred list but not the
  // graph's edge insertion order (the builder's, or
  // core::ChunkTransfers' rewiring), which is observable downstream, so
  // expand_replicas takes its replica emission order from this graph's
  // TopologicalOrder(). Null once the module leaves kLogical.
  std::shared_ptr<const core::Graph> graph;
};

// The contiguous node range of one job, maintained by every pass. The
// delay node (arrival offset) sits just before `first` and belongs to no
// range.
struct JobRange {
  NodeId first = 0;
  NodeId last = 0;  // [first, last)
  NodeId delay = kNoNode;
  int first_worker = 0;
};

class Module {
 public:
  // --- construction -------------------------------------------------------

  // Appends a default node (duration 0, no resource, no priority, empty
  // preds, provenance unset) and returns its id.
  NodeId AddNode();
  std::size_t size() const { return graph_.size(); }
  // Room for `nodes` more nodes whose pred lists hold `pred_entries`
  // more NodeIds in all.
  void Reserve(std::size_t nodes, std::size_t pred_entries);

  // --- hot task fields (what the simulator consumes) ----------------------

  double& duration(NodeId n) { return graph_.duration[idx(n)]; }
  double duration(NodeId n) const { return graph_.duration[idx(n)]; }
  int& resource(NodeId n) { return graph_.resource[idx(n)]; }
  int resource(NodeId n) const { return graph_.resource[idx(n)]; }
  int& priority(NodeId n) { return graph_.priority[idx(n)]; }
  int priority(NodeId n) const { return graph_.priority[idx(n)]; }
  int& gate_group(NodeId n) { return graph_.gate_group[idx(n)]; }
  int gate_group(NodeId n) const { return graph_.gate_group[idx(n)]; }
  int& gate_rank(NodeId n) { return graph_.gate_rank[idx(n)]; }
  int gate_rank(NodeId n) const { return graph_.gate_rank[idx(n)]; }

  // Copies every field of node `src` of `from` (which may be this
  // module) onto node `n`, except its preds, delay flag and name.
  void CopyNode(NodeId n, const Module& from, NodeId src);

  // Gives the newest node `n` its preds. Lists are appended in node
  // order, so each node gets its list once, before the next node is
  // added; anything else throws std::invalid_argument.
  void SetPreds(NodeId n, std::span<const NodeId> preds);
  std::span<const NodeId> preds(NodeId n) const {
    return graph_.preds(idx(n));
  }

  // --- provenance (exported with the task graph; never read by the engine)

  core::OpKind& kind(NodeId n) { return graph_.kind[idx(n)]; }
  core::OpKind kind(NodeId n) const { return graph_.kind[idx(n)]; }
  core::OpId& op(NodeId n) { return graph_.op[idx(n)]; }
  core::OpId op(NodeId n) const { return graph_.op[idx(n)]; }
  int& worker(NodeId n) { return graph_.worker[idx(n)]; }
  int worker(NodeId n) const { return graph_.worker[idx(n)]; }

  // --- side-table attributes (IR only; not exported) ----------------------

  int& job(NodeId n) { return job_[idx(n)]; }
  int job(NodeId n) const { return job_[idx(n)]; }
  int& iteration(NodeId n) { return iteration_[idx(n)]; }
  int iteration(NodeId n) const { return iteration_[idx(n)]; }
  int& param(NodeId n) { return param_[idx(n)]; }
  int param(NodeId n) const { return param_[idx(n)]; }
  std::int64_t& bytes(NodeId n) { return bytes_[idx(n)]; }
  std::int64_t bytes(NodeId n) const { return bytes_[idx(n)]; }
  double& cost(NodeId n) { return cost_[idx(n)]; }
  double cost(NodeId n) const { return cost_[idx(n)]; }
  // Normalized recv rank (§5.1 total order), kNoRank when unscheduled.
  int& rank(NodeId n) { return rank_[idx(n)]; }
  int rank(NodeId n) const { return rank_[idx(n)]; }
  // Raw schedule priority for best-effort send ordering.
  int& sched_priority(NodeId n) { return sched_priority_[idx(n)]; }
  int sched_priority(NodeId n) const { return sched_priority_[idx(n)]; }
  bool is_delay(NodeId n) const { return delay_[idx(n)] != 0; }
  void set_is_delay(NodeId n, bool value) { delay_[idx(n)] = value ? 1 : 0; }
  // Logical op names (needed only to export a core::Graph; replicas drop
  // them).
  void SetName(NodeId n, std::string name) { name_[idx(n)] = std::move(name); }
  const std::string& name(NodeId n) const { return name_[idx(n)]; }

  // --- module-level state -------------------------------------------------

  Stage stage = Stage::kLogical;
  std::vector<JobInfo> jobs;
  std::vector<JobRange> ranges;  // aligned with jobs
  // Valid at kMerged: the shared-fabric resource count and ΣW workers.
  int num_resources = 0;
  int total_workers = 0;
  // Number of pipelined iterations represented (1 until pipeline_iters).
  int iterations = 1;
  // Set by lower_allreduce_ring: the fabric is a ring collective, so the
  // exported Lowering has no PS-side update/sink tables.
  bool ring = false;
  // Set by lower_flow_nics (valid at kMerged): the shared-fabric capacity
  // graph for SimOptions::network — channel resources mapped to the
  // NIC / fat-tree core links they traverse (models/topology.h). Null =
  // static bandwidth/T split only. Shared, not copied, by the Lowering
  // exporters; passes that rebuild the module must carry it over.
  std::shared_ptr<const sim::FlowNetwork> flow;

  // The task graph the node fields live in. An exporter, holding the
  // module by value, moves it out with TakeGraph, after which only the
  // side tables may be read.
  const sim::TaskGraph& graph() const { return graph_; }
  sim::TaskGraph TakeGraph() { return std::move(graph_); }

  // --- invariants ---------------------------------------------------------

  // Structural validation, run between passes when RunLoweringPasses
  // has a hook (ir/passes.h): preds in range and acyclic, job
  // ranges partition the nodes in order, stage-consistent resources
  // (unassigned while logical/replicated, in [0, num_resources) once
  // merged), finite non-negative durations, and dense gate ranks per
  // group. Throws std::invalid_argument naming the violated invariant.
  void Validate() const;

  // One-line counts (nodes per kind, jobs, stage, pred entries).
  std::string DebugSummary() const;

 private:
  std::size_t idx(NodeId n) const { return static_cast<std::size_t>(n); }

  sim::TaskGraph graph_;

  std::vector<int> job_;
  std::vector<int> iteration_;
  std::vector<int> param_;
  std::vector<std::int64_t> bytes_;
  std::vector<double> cost_;
  std::vector<int> rank_;
  std::vector<int> sched_priority_;
  std::vector<std::uint8_t> delay_;
  std::vector<std::string> name_;
};

}  // namespace tictac::ir
