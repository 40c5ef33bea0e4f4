// Arena-interned task-graph IR (DESIGN.md §10).
//
// Every lowering in the runtime — cluster, pipeline, all-reduce,
// multi-job composition — is expressed as a sequence of small
// graph-rewrite passes over one shared representation, in the style of
// shady's passes/ + node.c: flat node storage with dense ids, an interned
// predecessor-list arena, and side-table attributes carrying provenance
// (job / worker / iteration / param) that the hot simulation path never
// touches.
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
// revision that produced it. Predecessor lists live in a content-interned
// arena — structurally identical lists (every transfer of an all-reduce
// round, every replica of a fan-in) share one span of the pool, which is
// both the memory win and what makes the flat storage cache-friendly to
// scan.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
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

// Content-interned predecessor-list arena: a CSR pool of NodeIds plus a
// dedupe index, so identical lists are stored once and a node holds only
// a ListId. The empty list is always id 0.
class PredArena {
 public:
  using ListId = std::int32_t;
  static constexpr ListId kEmptyList = 0;

  PredArena();

  // Returns the id of an existing identical list, or appends the list to
  // the pool and returns its fresh id.
  ListId Intern(std::span<const NodeId> list);

  std::span<const NodeId> list(ListId id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return {pool_.data() + s.offset, s.size};
  }

  // Distinct lists stored (including the empty list).
  std::size_t num_lists() const { return spans_.size(); }
  // Total NodeIds in the pool (what a non-interned layout would multiply).
  std::size_t pool_entries() const { return pool_.size(); }
  // Intern() calls answered by an existing list instead of new storage.
  std::size_t dedup_hits() const { return dedup_hits_; }

 private:
  struct Span {
    std::uint32_t offset = 0;
    std::uint32_t size = 0;
  };
  std::vector<NodeId> pool_;
  std::vector<Span> spans_;
  // Content hash -> candidate list ids (collisions resolved by compare).
  std::unordered_map<std::uint64_t, std::vector<ListId>> index_;
  std::size_t dedup_hits_ = 0;
};

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
  // kLogical nodes. The interned IR normalizes edge-list order away, but
  // the graph's edge insertion order (the builder's, or
  // core::ChunkTransfers' rewiring) is observable downstream, so
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
  std::size_t size() const { return duration_.size(); }

  // --- hot task fields (what the simulator consumes) ----------------------

  double& duration(NodeId n) { return duration_[idx(n)]; }
  double duration(NodeId n) const { return duration_[idx(n)]; }
  int& resource(NodeId n) { return resource_[idx(n)]; }
  int resource(NodeId n) const { return resource_[idx(n)]; }
  int& priority(NodeId n) { return priority_[idx(n)]; }
  int priority(NodeId n) const { return priority_[idx(n)]; }
  int& gate_group(NodeId n) { return gate_group_[idx(n)]; }
  int gate_group(NodeId n) const { return gate_group_[idx(n)]; }
  int& gate_rank(NodeId n) { return gate_rank_[idx(n)]; }
  int gate_rank(NodeId n) const { return gate_rank_[idx(n)]; }

  void SetPreds(NodeId n, std::span<const NodeId> preds) {
    pred_list_[idx(n)] = arena_.Intern(preds);
  }
  std::span<const NodeId> preds(NodeId n) const {
    return arena_.list(pred_list_[idx(n)]);
  }

  // --- side-table attributes (provenance; never read by the engine) -------

  core::OpKind& kind(NodeId n) { return kind_[idx(n)]; }
  core::OpKind kind(NodeId n) const { return kind_[idx(n)]; }
  core::OpId& op(NodeId n) { return op_[idx(n)]; }
  core::OpId op(NodeId n) const { return op_[idx(n)]; }
  int& worker(NodeId n) { return worker_[idx(n)]; }
  int worker(NodeId n) const { return worker_[idx(n)]; }
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
  // exported Lowering has no PS-side update/sink tables (the legacy
  // LowerAllReduce leaves them empty).
  bool ring = false;
  // Set by lower_flow_nics (valid at kMerged): the shared-fabric capacity
  // graph for SimOptions::flow_fairness — channel resources mapped to the
  // NIC / fat-tree core links they traverse (models/topology.h). Null =
  // static bandwidth/T split only. Shared, not copied, by the Lowering
  // exporters; passes that rebuild the module must carry it over.
  std::shared_ptr<const sim::FlowNetwork> flow;

  const PredArena& arena() const { return arena_; }

  // --- invariants ---------------------------------------------------------

  // Structural validation, run between passes when the pipeline's
  // check_invariants option is on: preds in range and acyclic, job
  // ranges partition the nodes in order, stage-consistent resources
  // (unassigned while logical/replicated, in [0, num_resources) once
  // merged), finite non-negative durations, and dense gate ranks per
  // group. Throws std::invalid_argument naming the violated invariant.
  void Validate() const;

  // One-line counts (nodes per kind, jobs, stage, arena dedup stats).
  std::string DebugSummary() const;
  // Per-node listing of the first `max_nodes` nodes, for dump hooks.
  std::string DebugDump(std::size_t max_nodes = 64) const;

 private:
  std::size_t idx(NodeId n) const { return static_cast<std::size_t>(n); }

  std::vector<double> duration_;
  std::vector<int> resource_;
  std::vector<int> priority_;
  std::vector<int> gate_group_;
  std::vector<int> gate_rank_;
  std::vector<PredArena::ListId> pred_list_;

  std::vector<core::OpKind> kind_;
  std::vector<core::OpId> op_;
  std::vector<int> worker_;
  std::vector<int> job_;
  std::vector<int> iteration_;
  std::vector<int> param_;
  std::vector<std::int64_t> bytes_;
  std::vector<double> cost_;
  std::vector<int> rank_;
  std::vector<int> sched_priority_;
  std::vector<std::uint8_t> delay_;
  std::vector<std::string> name_;

  PredArena arena_;
};

}  // namespace tictac::ir
