#include "sim/engine.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>
#include <stdexcept>

#include "sim/flow.h"

namespace tictac::sim {

TaskGraphSim::TaskGraphSim(std::vector<Task> tasks, int num_resources)
    : tasks_(std::move(tasks)), num_resources_(num_resources) {
  succs_.resize(tasks_.size());
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    for (TaskId p : tasks_[t].preds) {
      succs_[static_cast<std::size_t>(p)].push_back(static_cast<TaskId>(t));
    }
    num_gate_groups_ = std::max(num_gate_groups_, tasks_[t].gate_group + 1);
  }

  // Rank-compress finite priorities *per resource* so ready-bucket
  // storage is bounded by the task count: a resource's min-pick only
  // compares priorities of tasks on that same resource, so ranks need
  // only be consistent within a resource, and each resource gets exactly
  // as many bucket rows as it has distinct priorities.
  std::vector<std::vector<int>> distinct(
      static_cast<std::size_t>(num_resources_));
  for (const Task& task : tasks_) {
    if (task.priority != kNoPriority &&
        task.resource >= 0 && task.resource < num_resources_) {
      distinct[static_cast<std::size_t>(task.resource)].push_back(
          task.priority);
    }
  }
  bucket_offset_.resize(static_cast<std::size_t>(num_resources_));
  bucket_count_ = 0;
  for (int r = 0; r < num_resources_; ++r) {
    auto& d = distinct[static_cast<std::size_t>(r)];
    std::sort(d.begin(), d.end());
    d.erase(std::unique(d.begin(), d.end()), d.end());
    bucket_offset_[static_cast<std::size_t>(r)] = bucket_count_;
    bucket_count_ += d.size();
  }
  priority_rank_.assign(tasks_.size(), kNoRank);
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    const Task& task = tasks_[t];
    if (task.priority == kNoPriority ||
        task.resource < 0 || task.resource >= num_resources_) {
      continue;
    }
    const auto& d = distinct[static_cast<std::size_t>(task.resource)];
    priority_rank_[t] = static_cast<int>(
        std::lower_bound(d.begin(), d.end(), task.priority) - d.begin());
  }

  // Per-group gate slot layout, sized by the group's *task count*: ranks
  // must be dense 0..k-1 for validated graphs (k = group size), and a
  // rank >= the group's task count can never be released anyway — the
  // counter advances once per activated task — so such tasks (invalid
  // input Validate() would reject) are dropped at enqueue time instead
  // of getting a slot. This also bounds slot memory by the task count
  // regardless of what rank values unvalidated inputs carry.
  gate_group_size_.assign(static_cast<std::size_t>(num_gate_groups_), 0);
  for (const Task& task : tasks_) {
    if (task.gate_group >= 0) {
      ++gate_group_size_[static_cast<std::size_t>(task.gate_group)];
    }
  }
  gate_offset_.resize(static_cast<std::size_t>(num_gate_groups_));
  gate_slot_count_ = 0;
  for (int g = 0; g < num_gate_groups_; ++g) {
    gate_offset_[static_cast<std::size_t>(g)] = gate_slot_count_;
    gate_slot_count_ +=
        static_cast<std::size_t>(gate_group_size_[static_cast<std::size_t>(g)]);
  }
}

void TaskGraphSim::Validate() const {
  const auto n = static_cast<TaskId>(tasks_.size());
  std::vector<std::vector<int>> gate_ranks(
      static_cast<std::size_t>(num_gate_groups_));
  for (TaskId t = 0; t < n; ++t) {
    const Task& task = tasks_[static_cast<std::size_t>(t)];
    if (task.resource < 0 || task.resource >= num_resources_) {
      throw std::invalid_argument("task resource out of range");
    }
    if (task.duration < 0.0) {
      throw std::invalid_argument("negative task duration");
    }
    for (TaskId p : task.preds) {
      if (p < 0 || p >= n || p == t) {
        throw std::invalid_argument("task predecessor out of range");
      }
    }
    if ((task.gate_group >= 0) != (task.gate_rank >= 0)) {
      throw std::invalid_argument("gate group/rank must be set together");
    }
    if (task.gate_group >= 0) {
      gate_ranks[static_cast<std::size_t>(task.gate_group)].push_back(
          task.gate_rank);
    }
  }
  for (auto& ranks : gate_ranks) {
    std::sort(ranks.begin(), ranks.end());
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      if (ranks[i] != static_cast<int>(i)) {
        throw std::invalid_argument("gate ranks must be dense from 0");
      }
    }
  }
  // Acyclicity via Kahn.
  std::vector<int> indegree(tasks_.size(), 0);
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    indegree[t] = static_cast<int>(tasks_[t].preds.size());
  }
  std::queue<TaskId> q;
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    if (indegree[t] == 0) q.push(static_cast<TaskId>(t));
  }
  std::size_t seen = 0;
  while (!q.empty()) {
    const TaskId t = q.front();
    q.pop();
    ++seen;
    for (TaskId s : succs_[static_cast<std::size_t>(t)]) {
      if (--indegree[static_cast<std::size_t>(s)] == 0) q.push(s);
    }
  }
  if (seen != tasks_.size()) {
    throw std::invalid_argument("task graph has a cycle");
  }
}

namespace {

// Completion event. Time ties are broken by the smaller TaskId — made
// explicit here so completion order (and therefore successor release
// order) is deterministic. `epoch` invalidates projections for
// varying-rate flows: every max-min recompute that changes a flow's rate
// bumps the flow's epoch and pushes a fresh projection, so any earlier
// entry for that flow is stale and skipped on pop. Non-flow tasks always
// carry epoch 0 and are never stale.
struct CompletionEvent {
  double time;
  TaskId task;
  int epoch = 0;
  bool operator>(const CompletionEvent& other) const {
    if (time != other.time) return time > other.time;
    return task > other.task;
  }
};

// Per-resource ready set: priority-rank buckets for the Section-3.1 pick
// plus a flat list for the out-of-order uniform pick. Each container
// uses swap-removal with per-task position tracking, so insert and
// remove are O(1) and steady-state operation allocates nothing.
struct ReadySets {
  ReadySets(int num_resources, const std::vector<std::size_t>& bucket_offset,
            std::size_t bucket_count, std::size_t num_tasks)
      : buckets(bucket_count),
        nopri(static_cast<std::size_t>(num_resources)),
        flat(static_cast<std::size_t>(num_resources)),
        active(static_cast<std::size_t>(num_resources)),
        bucket_offset(&bucket_offset),
        class_pos(num_tasks),
        flat_pos(num_tasks) {}

  std::vector<TaskId>& bucket(int r, int rank) {
    return buckets[(*bucket_offset)[static_cast<std::size_t>(r)] +
                   static_cast<std::size_t>(rank)];
  }

  void Push(int r, int rank, TaskId t) {
    auto& f = flat[static_cast<std::size_t>(r)];
    flat_pos[static_cast<std::size_t>(t)] = f.size();
    f.push_back(t);
    auto& cls =
        rank == kNoRank ? nopri[static_cast<std::size_t>(r)]
                                     : bucket(r, rank);
    if (rank != kNoRank && cls.empty()) {
      active[static_cast<std::size_t>(r)].push(rank);
    }
    class_pos[static_cast<std::size_t>(t)] = cls.size();
    cls.push_back(t);
  }

  // Lowest rank with a non-empty bucket, or kNoRank. Lazily drains heap
  // entries whose bucket has since emptied.
  int MinRank(int r) {
    auto& heap = active[static_cast<std::size_t>(r)];
    while (!heap.empty()) {
      const int rank = heap.top();
      if (!bucket(r, rank).empty()) return rank;
      heap.pop();
    }
    return kNoRank;
  }

  void Remove(int r, int rank, TaskId t) {
    SwapRemove(rank == kNoRank ? nopri[static_cast<std::size_t>(r)]
                                            : bucket(r, rank),
               class_pos, t);
    SwapRemove(flat[static_cast<std::size_t>(r)], flat_pos, t);
  }

  static constexpr int kNoRank = -1;

  std::vector<std::vector<TaskId>> buckets;  // [bucket_offset[r] + rank]
  std::vector<std::vector<TaskId>> nopri;    // [r]
  std::vector<std::vector<TaskId>> flat;     // [r], all ready tasks
  // Min-heap of possibly-active ranks per resource (lazy deletion).
  std::vector<std::priority_queue<int, std::vector<int>, std::greater<int>>>
      active;
  const std::vector<std::size_t>* bucket_offset;
  std::vector<std::size_t> class_pos;  // task -> index in its bucket/nopri
  std::vector<std::size_t> flat_pos;   // task -> index in flat[r]

 private:
  static void SwapRemove(std::vector<TaskId>& v,
                         std::vector<std::size_t>& pos, TaskId t) {
    const std::size_t i = pos[static_cast<std::size_t>(t)];
    assert(i < v.size() && v[i] == t);
    v[i] = v.back();
    pos[static_cast<std::size_t>(v[i])] = i;
    v.pop_back();
  }
};

}  // namespace

SimResult TaskGraphSim::Run(const SimOptions& options,
                            std::uint64_t seed) const {
  util::Rng rng(seed);
  const auto n = static_cast<TaskId>(tasks_.size());

  // Per-task state.
  std::vector<int> missing_preds(tasks_.size());
  std::vector<double> duration(tasks_.size());
  for (TaskId t = 0; t < n; ++t) {
    const Task& task = tasks_[static_cast<std::size_t>(t)];
    missing_preds[static_cast<std::size_t>(t)] =
        static_cast<int>(task.preds.size());
    duration[static_cast<std::size_t>(t)] =
        options.jitter_sigma > 0.0
            ? task.duration * rng.Lognormal(1.0, options.jitter_sigma)
            : task.duration;
  }

  // Fault-injection state (SimOptions::faults). Sized only when a
  // timeline is present; with none, every fault branch below is skipped
  // and the run is bit-identical to the unperturbed engine.
  const bool has_faults = options.faults != nullptr && !options.faults->empty();
  std::vector<double> speed;     // per-resource rate multiplier
  std::vector<char> res_down;    // speed <= 0: start nothing new
  std::size_t next_fault = 0;
  // Wake list: the resources that may be able to start a task at the
  // next dispatch. A resource joins when its ready queue gains a task,
  // when a completion frees it, or when a fault event changes it; every
  // other resource is busy, down or has nothing ready, and stays so —
  // starting a task never readies another (gate counters advance at
  // enqueue) — so a dispatch touches only these.
  std::vector<int> wake;
  std::vector<char> woken(static_cast<std::size_t>(num_resources_), 0);
  auto wake_resource = [&](int r) {
    if (woken[static_cast<std::size_t>(r)] == 0) {
      woken[static_cast<std::size_t>(r)] = 1;
      wake.push_back(r);
    }
  };
  if (has_faults) {
    speed.assign(static_cast<std::size_t>(num_resources_), 1.0);
    res_down.assign(static_cast<std::size_t>(num_resources_), 0);
  }
  // Applies every timeline event with time <= t (events are sorted).
  // Speed changes affect tasks that start afterwards; in-flight tasks
  // keep the rate they started with. A resource coming back up restarts
  // its queue at the next dispatch.
  auto apply_faults_through = [&](double t) {
    while (next_fault < options.faults->size() &&
           (*options.faults)[next_fault].time <= t) {
      const ResourceFault& f = (*options.faults)[next_fault++];
      if (f.resource >= 0 && f.resource < num_resources_) {
        const auto r = static_cast<std::size_t>(f.resource);
        speed[r] = f.speed > 0.0 ? f.speed : 0.0;
        res_down[r] = f.speed <= 0.0;
        wake_resource(f.resource);
      }
    }
  };

  // Flow-fairness state (SimOptions::flow_fairness + network, DESIGN.md
  // §11). Sized only when enabled and the network maps at least one
  // resource to a shared link; otherwise every flow branch below is
  // skipped and the run is bit-identical to the static-split engine
  // (pinned in tests/flow_test.cc).
  const FlowNetwork* net = options.network;
  const bool has_flows =
      options.flow_fairness && net != nullptr && net->HasFlows();
  std::vector<double> flow_remaining;  // nominal seconds of demand left
  std::vector<double> flow_rate;       // progress per second of sim time
  std::vector<double> flow_last;       // last time `remaining` was advanced
  std::vector<double> flow_alloc;      // bytes/s from the last water-fill
  std::vector<int> flow_epoch;         // bumped on every rate change
  std::vector<char> flow_frozen;       // water-fill scratch
  std::vector<TaskId> active_flows;    // in-flight flow tasks
  std::vector<std::size_t> active_pos;  // task -> index in active_flows
  std::vector<int> link_members;        // water-fill scratch, per link
  std::vector<double> link_residual;    // water-fill scratch, per link
  std::vector<int> touched_links;
  if (has_flows) {
    net->Validate(num_resources_);
    flow_remaining.assign(tasks_.size(), 0.0);
    flow_rate.assign(tasks_.size(), 0.0);
    flow_last.assign(tasks_.size(), 0.0);
    flow_alloc.assign(tasks_.size(), 0.0);
    flow_epoch.assign(tasks_.size(), 0);
    flow_frozen.assign(tasks_.size(), 0);
    active_pos.assign(tasks_.size(), 0);
    link_members.assign(net->links.size(), 0);
    link_residual.assign(net->links.size(), 0.0);
  }
  // True when tasks on resource r share links (and so progress at the
  // water-filled rate instead of their fixed nominal duration).
  auto is_flow_resource = [&](int r) {
    return static_cast<std::size_t>(r) < net->resource_links.size() &&
           !net->resource_links[static_cast<std::size_t>(r)].empty();
  };

  std::vector<int> gate_counter(static_cast<std::size_t>(num_gate_groups_), 0);
  // Tasks whose predecessors are done but whose gate is still closed,
  // slotted by (group, rank) so a cascade release is a direct lookup.
  std::vector<TaskId> gate_slot(gate_slot_count_, -1);

  auto gate_open = [&](TaskId t) {
    const Task& task = tasks_[static_cast<std::size_t>(t)];
    if (!options.enforce_gates || task.gate_group < 0) return true;
    return gate_counter[static_cast<std::size_t>(task.gate_group)] ==
           task.gate_rank;
  };

  ReadySets ready(num_resources_, bucket_offset_, bucket_count_,
                  tasks_.size());
  std::vector<bool> busy(static_cast<std::size_t>(num_resources_), false);

  auto push_ready = [&](TaskId t) {
    const int r = tasks_[static_cast<std::size_t>(t)].resource;
    ready.Push(r, priority_rank_[static_cast<std::size_t>(t)], t);
    wake_resource(r);
  };

  // Hand-off (§5.1): a gated task is *enqueued* on its channel once its
  // dependencies are met and the group counter reaches its rank; the
  // counter advances at enqueue time (the transfer is "handed to gRPC"),
  // not at wire time, so channels drain their queues independently and
  // never idle waiting for another channel's wire transfer.
  auto deps_done_enqueue = [&](TaskId t) {
    const Task& task = tasks_[static_cast<std::size_t>(t)];
    if (!gate_open(t)) {
      // A negative or >= group-size rank (invalid input Validate() would
      // reject) has no slot; such a gate can never open — the counter
      // advances at most once per task in the group — so dropping it
      // here reproduces the old behavior: the task simply never starts.
      if (task.gate_rank >= 0 &&
          task.gate_rank <
              gate_group_size_[static_cast<std::size_t>(task.gate_group)]) {
        gate_slot[gate_offset_[static_cast<std::size_t>(task.gate_group)] +
                  static_cast<std::size_t>(task.gate_rank)] = t;
      }
      return;
    }
    push_ready(t);
    if (!options.enforce_gates || task.gate_group < 0) return;
    // Advance the counter and cascade-release successor ranks whose
    // dependencies are already met: one slot lookup per released task.
    const auto group = static_cast<std::size_t>(task.gate_group);
    const std::size_t base = gate_offset_[group];
    int& counter = gate_counter[group];
    ++counter;
    while (counter < gate_group_size_[group]) {
      const TaskId next = gate_slot[base + static_cast<std::size_t>(counter)];
      if (next < 0) break;
      gate_slot[base + static_cast<std::size_t>(counter)] = -1;
      push_ready(next);
      ++counter;
    }
  };

  SimResult result;
  result.start.assign(tasks_.size(), 0.0);
  result.end.assign(tasks_.size(), 0.0);
  result.start_order.reserve(tasks_.size());

  for (TaskId t = 0; t < n; ++t) {
    if (missing_preds[static_cast<std::size_t>(t)] == 0) deps_done_enqueue(t);
  }

  std::priority_queue<CompletionEvent, std::vector<CompletionEvent>,
                      std::greater<CompletionEvent>>
      completions;
  double now = 0.0;

  // Progressive-filling max-min allocation over the active flows,
  // invoked on every flow start and finish. Advances each active flow's
  // remaining demand to `t_now` at its old rate first (rates are
  // piecewise constant between recomputes), then water-fills: repeatedly
  // find the tightest link (minimum residual capacity per unfrozen
  // member), freeze every flow crossing a tightest link at that fair
  // share, and subtract the frozen bandwidth. Flows whose rate changed
  // get a new epoch and a fresh completion projection; unchanged flows
  // keep their queued event. All iteration is in deterministic
  // (active-list / link-id) order and uses exact float comparisons, so
  // results are reproducible across runs and shards.
  auto recompute_rates = [&](double t_now) {
    for (TaskId f : active_flows) {
      const auto fi = static_cast<std::size_t>(f);
      flow_remaining[fi] -= (t_now - flow_last[fi]) * flow_rate[fi];
      if (flow_remaining[fi] < 0.0) flow_remaining[fi] = 0.0;
      flow_last[fi] = t_now;
    }
    touched_links.clear();
    for (TaskId f : active_flows) {
      flow_frozen[static_cast<std::size_t>(f)] = 0;
      const int r = tasks_[static_cast<std::size_t>(f)].resource;
      for (int l : net->resource_links[static_cast<std::size_t>(r)]) {
        const auto li = static_cast<std::size_t>(l);
        if (link_members[li]++ == 0) {
          touched_links.push_back(l);
          link_residual[li] = net->links[li].capacity_bps;
        }
      }
    }
    std::size_t unfrozen = active_flows.size();
    while (unfrozen > 0) {
      double level = std::numeric_limits<double>::infinity();
      for (int l : touched_links) {
        const auto li = static_cast<std::size_t>(l);
        if (link_members[li] > 0) {
          level = std::min(level, link_residual[li] / link_members[li]);
        }
      }
      bool froze = false;
      for (TaskId f : active_flows) {
        const auto fi = static_cast<std::size_t>(f);
        if (flow_frozen[fi]) continue;
        const int r = tasks_[fi].resource;
        const auto& links = net->resource_links[static_cast<std::size_t>(r)];
        bool at_bottleneck = false;
        for (int l : links) {
          const auto li = static_cast<std::size_t>(l);
          // Exact comparison: `level` is the min over these very
          // divisions, so the argmin links match it bit for bit.
          if (link_members[li] > 0 &&
              link_residual[li] / link_members[li] == level) {
            at_bottleneck = true;
            break;
          }
        }
        if (!at_bottleneck) continue;
        flow_frozen[fi] = 1;
        flow_alloc[fi] = level;
        froze = true;
        --unfrozen;
        for (int l : links) {
          const auto li = static_cast<std::size_t>(l);
          link_residual[li] -= level;
          if (link_residual[li] < 0.0) link_residual[li] = 0.0;
          --link_members[li];
        }
      }
      // Unreachable for valid networks (the argmin link always has a
      // member to freeze); guards against float pathologies looping.
      if (!froze) break;
    }
    for (int l : touched_links) {
      link_members[static_cast<std::size_t>(l)] = 0;
      link_residual[static_cast<std::size_t>(l)] = 0.0;
    }
    for (TaskId f : active_flows) {
      const auto fi = static_cast<std::size_t>(f);
      const int r = tasks_[fi].resource;
      double rate =
          flow_alloc[fi] / net->resource_nominal_bps[static_cast<std::size_t>(r)];
      // Validate() guarantees positive capacities and nominal rates, so a
      // non-positive share can only come from accumulated float dust on a
      // degenerate topology; keep completion times finite regardless.
      if (!(rate > 0.0)) rate = std::numeric_limits<double>::epsilon();
      if (rate != flow_rate[fi]) {
        flow_rate[fi] = rate;
        ++flow_epoch[fi];
        completions.push({t_now + flow_remaining[fi] / rate, f, flow_epoch[fi]});
      }
    }
  };

  // Selection rule: uniformly random among {ready tasks with the minimum
  // priority number} ∪ {ready tasks with no priority}. With probability
  // out_of_order_probability the pick ignores priorities entirely,
  // modeling gRPC processing transfers out of hand-off order (§5.1
  // measures 0.4-0.5% of transfers affected).
  auto select_task = [&](int r) {
    TaskId chosen;
    if (options.out_of_order_probability > 0.0 &&
        rng.Chance(options.out_of_order_probability)) {
      const auto& flat = ready.flat[static_cast<std::size_t>(r)];
      chosen = flat[rng.Index(flat.size())];
    } else {
      const int min_rank = ready.MinRank(r);
      const auto& nopri = ready.nopri[static_cast<std::size_t>(r)];
      if (min_rank == ReadySets::kNoRank) {
        chosen = nopri[rng.Index(nopri.size())];
      } else {
        const auto& bucket = ready.bucket(r, min_rank);
        const std::size_t pick = rng.Index(bucket.size() + nopri.size());
        chosen = pick < bucket.size() ? bucket[pick]
                                      : nopri[pick - bucket.size()];
      }
    }
    ready.Remove(r, priority_rank_[static_cast<std::size_t>(chosen)], chosen);
    return chosen;
  };

  // Dispatch: each woken resource that is up, idle and has a ready task
  // starts one. Resources are visited in ascending id, so the RNG draws
  // and start_order depend only on which resources can start, never on
  // the order events woke them.
  auto start_eligible = [&] {
    std::sort(wake.begin(), wake.end());
    for (const int r : wake) {
      const auto ri = static_cast<std::size_t>(r);
      woken[ri] = 0;
      if (busy[ri] || ready.flat[ri].empty() || (has_faults && res_down[ri])) {
        continue;
      }
      const TaskId t = select_task(r);
      busy[ri] = true;
      result.start[static_cast<std::size_t>(t)] = now;
      result.start_order.push_back(t);
      // A task runs at its resource's speed at start time; division
      // only happens on the fault path so the plain path stays bit
      // for bit what it always was.
      const double d = has_faults
                           ? duration[static_cast<std::size_t>(t)] / speed[ri]
                           : duration[static_cast<std::size_t>(t)];
      if (has_flows && is_flow_resource(r)) {
        // A flow's fault/jitter-adjusted duration is its demand at the
        // nominal (static-split) rate; the water-fill converts it to
        // wall time. Joining reshapes every rate, so recompute
        // immediately — the new flow's first projection comes from its
        // 0 -> fair-share rate change.
        const auto ti = static_cast<std::size_t>(t);
        flow_remaining[ti] = d;
        flow_rate[ti] = 0.0;
        flow_last[ti] = now;
        active_pos[ti] = active_flows.size();
        active_flows.push_back(t);
        recompute_rates(now);
      } else {
        completions.push({now + d, t});
      }
    }
    wake.clear();
  };

  // Timeline events at t <= 0 (perturbations already in effect when the
  // run begins) apply before the first task starts.
  if (has_faults) apply_faults_through(0.0);
  start_eligible();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  while (true) {
    const double completion_at =
        completions.empty() ? kInf : completions.top().time;
    const double fault_at =
        has_faults && next_fault < options.faults->size()
            ? (*options.faults)[next_fault].time
            : kInf;
    if (completion_at == kInf && fault_at == kInf) break;
    if (fault_at < completion_at) {
      // A perturbation takes effect strictly before anything completes:
      // resources coming back up may start waiting tasks at this instant.
      now = std::max(now, fault_at);
      apply_faults_through(fault_at);
      start_eligible();
      continue;
    }
    const auto [time, t, epoch] = completions.top();
    completions.pop();
    if (has_flows && epoch != 0 &&
        epoch != flow_epoch[static_cast<std::size_t>(t)]) {
      // Superseded projection for a flow whose rate changed (or that
      // already finished) since this event was queued.
      continue;
    }
    now = time;
    result.end[static_cast<std::size_t>(t)] = now;
    result.makespan = std::max(result.makespan, now);
    const int freed = tasks_[static_cast<std::size_t>(t)].resource;
    busy[static_cast<std::size_t>(freed)] = false;
    wake_resource(freed);
    if (has_flows && epoch != 0) {
      // A flow finished: swap-remove it from the active list, invalidate
      // any projections still queued for it, and hand its bandwidth to
      // the remaining flows.
      const auto ti = static_cast<std::size_t>(t);
      const std::size_t i = active_pos[ti];
      active_flows[i] = active_flows.back();
      active_pos[static_cast<std::size_t>(active_flows[i])] = i;
      active_flows.pop_back();
      ++flow_epoch[ti];
      recompute_rates(now);
    }
    for (TaskId s : succs_[static_cast<std::size_t>(t)]) {
      if (--missing_preds[static_cast<std::size_t>(s)] == 0) {
        deps_done_enqueue(s);
      }
    }
    start_eligible();
  }
  return result;
}

}  // namespace tictac::sim
