// Sharded execution of independent task-graph components (DESIGN.md §11).
//
// A merged multi-fabric lowering is many disjoint simulations glued into
// one task graph: fabrics share no tasks, resources, gates, or flow
// links, so their event loops never interact and can advance on separate
// threads. This file partitions the graph into such components (union
// over dependency edges, shared resources, shared gate groups, and — when
// a flow network is set — shared flow links), runs each component's legacy
// serial loop with its own split random stream, and merges the results
// deterministically.
//
// Determinism discipline:
//   * each component's run depends only on (component tasks, options,
//     StreamSeed(seed, component)) — never on which thread executed it or
//     when, so any thread count yields bit-identical results;
//   * components are numbered by their smallest global task id, so the
//     stream assignment is a pure function of the graph;
//   * the merged start_order interleaves component orders by
//     (start time, global task id) — a total order, since ids are unique.
// A single-component graph (every real single-fabric lowering: all tasks
// connect through the PS CPUs) delegates to Run() outright and is
// therefore bit-identical to the serial engine.

#include <algorithm>
#include <cstddef>
#include <queue>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "sim/flow.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace tictac::sim {

namespace {

// Union-find with path halving + union by size.
class Dsu {
 public:
  explicit Dsu(std::size_t n) : parent_(n), size_(n, 1) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = static_cast<int>(i);
  }

  int Find(int x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(
              parent_[static_cast<std::size_t>(x)])];
      x = parent_[static_cast<std::size_t>(x)];
    }
    return x;
  }

  void Unite(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (size_[static_cast<std::size_t>(a)] <
        size_[static_cast<std::size_t>(b)]) {
      std::swap(a, b);
    }
    parent_[static_cast<std::size_t>(b)] = a;
    size_[static_cast<std::size_t>(a)] +=
        size_[static_cast<std::size_t>(b)];
  }

 private:
  std::vector<int> parent_;
  std::vector<int> size_;
};

// One component's self-contained simulation: its tasks with local ids
// (in increasing global-id order) and densely remapped
// resources/gates/links, and the slice of the fault timeline and flow
// network it owns. The engine is built from `graph` on the thread that
// runs the shard.
struct Shard {
  TaskGraph graph;
  int num_resources = 0;
  std::vector<TaskId> global;  // local task id -> global task id
  int num_gates = 0;
  std::vector<ResourceFault> faults;
  FlowNetwork net;
  SimOptions options;
  SimResult result;
};

}  // namespace

std::vector<int> TaskGraphSim::ComponentOf(const SimOptions& options) const {
  const auto n = static_cast<int>(num_tasks());
  Dsu dsu(num_tasks());
  std::vector<int> resource_rep(static_cast<std::size_t>(num_resources_), -1);
  std::vector<int> gate_rep(static_cast<std::size_t>(num_gate_groups_), -1);
  const FlowNetwork* net = options.network;
  std::vector<int> link_rep;
  if (net != nullptr) link_rep.assign(net->links.size(), -1);
  auto unite_rep = [&](std::vector<int>& rep, std::size_t key, int t) {
    if (rep[key] < 0) {
      rep[key] = t;
    } else {
      dsu.Unite(rep[key], t);
    }
  };
  for (int t = 0; t < n; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    for (TaskId p : graph_.preds(ti)) dsu.Unite(t, p);
    const int resource = graph_.resource[ti];
    if (resource >= 0 && resource < num_resources_) {
      unite_rep(resource_rep, static_cast<std::size_t>(resource), t);
      if (net != nullptr &&
          static_cast<std::size_t>(resource) < net->resource_links.size()) {
        for (int l : net->resource_links[static_cast<std::size_t>(resource)]) {
          unite_rep(link_rep, static_cast<std::size_t>(l), t);
        }
      }
    }
    const int group = graph_.gate_group[ti];
    if (group >= 0 && group < num_gate_groups_) {
      unite_rep(gate_rep, static_cast<std::size_t>(group), t);
    }
  }
  // Dense component ids in first-task order: the component holding task 0
  // is component 0, and so on.
  std::vector<int> component(num_tasks(), -1);
  std::vector<int> root_id(num_tasks(), -1);
  int next = 0;
  for (int t = 0; t < n; ++t) {
    const int root = dsu.Find(t);
    if (root_id[static_cast<std::size_t>(root)] < 0) {
      root_id[static_cast<std::size_t>(root)] = next++;
    }
    component[static_cast<std::size_t>(t)] =
        root_id[static_cast<std::size_t>(root)];
  }
  return component;
}

SimResult TaskGraphSim::RunParallel(const SimOptions& options,
                                    std::uint64_t seed,
                                    int num_threads) const {
  return RunParallel(options, seed, num_threads, ComponentOf(options));
}

SimResult TaskGraphSim::RunParallel(const SimOptions& options,
                                    std::uint64_t seed, int num_threads,
                                    std::span<const int> component) const {
  if (component.size() != num_tasks()) {
    throw std::invalid_argument(
        "RunParallel: component covers " + std::to_string(component.size()) +
        " tasks, the graph has " + std::to_string(num_tasks()));
  }
  const auto n = static_cast<int>(num_tasks());
  int num_components = 0;
  for (int c : component) num_components = std::max(num_components, c + 1);
  if (num_components <= 1) return Run(options, seed);

  const bool use_flows = options.network != nullptr;
  std::vector<Shard> shards(static_cast<std::size_t>(num_components));

  // Local task ids, in increasing global-id order within each shard (so
  // predecessor ids — always smaller in-shard or not, either way already
  // assigned — remap with one pass).
  std::vector<TaskId> local_id(num_tasks(), 0);
  for (int t = 0; t < n; ++t) {
    Shard& s = shards[static_cast<std::size_t>(component[
        static_cast<std::size_t>(t)])];
    local_id[static_cast<std::size_t>(t)] =
        static_cast<TaskId>(s.global.size());
    s.global.push_back(t);
  }
  // Resources, gate groups, and flow links each belong to exactly one
  // component (they union the tasks touching them); remap densely.
  std::vector<int> res_local(static_cast<std::size_t>(num_resources_), -1);
  std::vector<int> gate_local(static_cast<std::size_t>(num_gate_groups_), -1);
  std::vector<int> res_comp(static_cast<std::size_t>(num_resources_), -1);
  for (int t = 0; t < n; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    const int c = component[ti];
    Shard& s = shards[static_cast<std::size_t>(c)];
    TaskGraph& local = s.graph;
    const auto r = static_cast<std::size_t>(graph_.resource[ti]);
    if (res_local[r] < 0) {
      res_local[r] = s.num_resources++;
      res_comp[r] = c;
    }
    const int group = graph_.gate_group[ti];
    if (group >= 0 && gate_local[static_cast<std::size_t>(group)] < 0) {
      gate_local[static_cast<std::size_t>(group)] = s.num_gates++;
    }
    local.duration.push_back(graph_.duration[ti]);
    local.resource.push_back(res_local[r]);
    local.priority.push_back(graph_.priority[ti]);
    local.gate_group.push_back(
        group >= 0 ? gate_local[static_cast<std::size_t>(group)] : group);
    local.gate_rank.push_back(graph_.gate_rank[ti]);
    local.op.push_back(graph_.op[ti]);
    local.kind.push_back(graph_.kind[ti]);
    local.worker.push_back(graph_.worker[ti]);
    for (const TaskId p : graph_.preds(ti)) {
      local.pred_ids.push_back(local_id[static_cast<std::size_t>(p)]);
    }
    local.pred_begin.push_back(local.pred_ids.size());
  }
  // Fault timelines filter per shard, order (and therefore sortedness)
  // preserved. Faults on resources no task uses can never affect a run —
  // dropping them is exact.
  if (options.faults != nullptr) {
    for (const ResourceFault& f : *options.faults) {
      if (f.resource < 0 || f.resource >= num_resources_) continue;
      const auto r = static_cast<std::size_t>(f.resource);
      if (res_comp[r] < 0) continue;
      ResourceFault copy = f;
      copy.resource = res_local[r];
      shards[static_cast<std::size_t>(res_comp[r])].faults.push_back(copy);
    }
  }
  // Flow networks slice the same way; link ids remap densely per shard in
  // first-use order (resource order, then link order — deterministic).
  if (use_flows) {
    const FlowNetwork& net = *options.network;
    std::vector<int> link_local(net.links.size(), -1);
    for (int r = 0; r < num_resources_; ++r) {
      const auto ri = static_cast<std::size_t>(r);
      if (res_comp[ri] < 0 || ri >= net.resource_links.size() ||
          net.resource_links[ri].empty()) {
        continue;
      }
      Shard& s = shards[static_cast<std::size_t>(res_comp[ri])];
      s.net.resource_links.resize(static_cast<std::size_t>(s.num_resources));
      s.net.resource_nominal_bps.resize(
          static_cast<std::size_t>(s.num_resources), 0.0);
      auto& local_links =
          s.net.resource_links[static_cast<std::size_t>(res_local[ri])];
      for (int l : net.resource_links[ri]) {
        const auto li = static_cast<std::size_t>(l);
        if (link_local[li] < 0) {
          link_local[li] = static_cast<int>(s.net.links.size());
          s.net.links.push_back(net.links[li]);
        }
        local_links.push_back(link_local[li]);
      }
      s.net.resource_nominal_bps[static_cast<std::size_t>(res_local[ri])] =
          net.resource_nominal_bps[ri];
    }
  }
  for (Shard& s : shards) {
    s.options = options;
    s.options.faults = s.faults.empty() ? nullptr : &s.faults;
    s.options.network = use_flows && s.net.HasFlows() ? &s.net : nullptr;
  }

  // Run shards over a work-stealing counter. Every shard's outcome is a
  // pure function of (shard, seed, component index), so the thread count
  // and interleaving cannot change any result.
  util::ParallelFor(
      shards.size(),
      num_threads > 0 ? num_threads
                      : static_cast<int>(std::thread::hardware_concurrency()),
      [&](std::size_t c) {
        Shard& s = shards[c];
        const TaskGraphSim sim(std::move(s.graph), s.num_resources);
        s.result = sim.Run(s.options, util::Rng::StreamSeed(seed, c));
      });

  // Deterministic merge: per-task times scatter by global id; the global
  // start order interleaves the (already time-sorted) shard orders by
  // (start time, global task id).
  SimResult out;
  out.start.assign(num_tasks(), 0.0);
  out.end.assign(num_tasks(), 0.0);
  out.start_order.reserve(num_tasks());
  for (const Shard& s : shards) {
    out.makespan = std::max(out.makespan, s.result.makespan);
    for (std::size_t i = 0; i < s.global.size(); ++i) {
      const auto g = static_cast<std::size_t>(s.global[i]);
      out.start[g] = s.result.start[i];
      out.end[g] = s.result.end[i];
    }
  }
  struct MergeHead {
    double time;
    TaskId global;
    int shard;
    std::size_t index;
    bool operator>(const MergeHead& other) const {
      if (time != other.time) return time > other.time;
      return global > other.global;
    }
  };
  std::priority_queue<MergeHead, std::vector<MergeHead>,
                      std::greater<MergeHead>>
      heads;
  auto head_of = [&](int c, std::size_t index) {
    const Shard& s = shards[static_cast<std::size_t>(c)];
    const TaskId local = s.result.start_order[index];
    const TaskId g = s.global[static_cast<std::size_t>(local)];
    heads.push({s.result.start[static_cast<std::size_t>(local)], g, c, index});
  };
  for (int c = 0; c < num_components; ++c) {
    if (!shards[static_cast<std::size_t>(c)].result.start_order.empty()) {
      head_of(c, 0);
    }
  }
  while (!heads.empty()) {
    const MergeHead head = heads.top();
    heads.pop();
    out.start_order.push_back(head.global);
    const Shard& s = shards[static_cast<std::size_t>(head.shard)];
    if (head.index + 1 < s.result.start_order.size()) {
      head_of(head.shard, head.index + 1);
    }
  }
  return out;
}

}  // namespace tictac::sim
