#include "sim/engine.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <optional>
#include <queue>
#include <span>
#include <stdexcept>
#include <utility>

#include "sim/flow.h"

namespace tictac::sim {

TaskGraphSim::TaskGraphSim(TaskGraph graph, int num_resources)
    : graph_(std::move(graph)), num_resources_(num_resources) {
  // Everything else derives from the columns and CSR preds: the succ
  // CSR, gate groups, per-resource priority ranks and the gate-slot
  // layout.
  const std::size_t n = graph_.size();
  const auto R = static_cast<std::size_t>(num_resources_);
  const auto in_range = [&](std::size_t t) {
    return graph_.resource[t] >= 0 && graph_.resource[t] < num_resources_;
  };

  // Succs as CSR, each list in ascending task id (the order a completion
  // releases them in). Out-of-range preds (rejected by Validate) get no
  // succ entry.
  succ_begin_.assign(n + 1, 0);
  for (const TaskId p : graph_.pred_ids) {
    if (p >= 0 && static_cast<std::size_t>(p) < n) {
      ++succ_begin_[static_cast<std::size_t>(p) + 1];
    }
  }
  for (std::size_t t = 0; t < n; ++t) succ_begin_[t + 1] += succ_begin_[t];
  succ_ids_.resize(succ_begin_[n]);
  {
    std::vector<std::size_t> fill(succ_begin_.begin(), succ_begin_.end() - 1);
    for (std::size_t t = 0; t < n; ++t) {
      for (const TaskId p : graph_.preds(t)) {
        if (p >= 0 && static_cast<std::size_t>(p) < n) {
          succ_ids_[fill[static_cast<std::size_t>(p)]++] =
              static_cast<TaskId>(t);
        }
      }
    }
  }
  num_gate_groups_ = 0;
  for (const int g : graph_.gate_group) {
    num_gate_groups_ = std::max(num_gate_groups_, g + 1);
  }

  // Rank-compress finite priorities *per resource* so ready-bucket
  // storage is bounded by the task count: a resource's min-pick only
  // compares priorities of tasks on that same resource, so ranks need
  // only be consistent within a resource, and each resource gets exactly
  // as many bucket rows as it has distinct priorities. Sorting (resource,
  // priority) pairs once gives every resource's distinct list in one
  // array, resource r's at [bucket_offset_[r], bucket_offset_[r + 1]).
  std::vector<std::pair<int, int>> keyed;
  for (std::size_t t = 0; t < n; ++t) {
    if (graph_.priority[t] != kNoPriority && in_range(t)) {
      keyed.emplace_back(graph_.resource[t], graph_.priority[t]);
    }
  }
  std::sort(keyed.begin(), keyed.end());
  keyed.erase(std::unique(keyed.begin(), keyed.end()), keyed.end());
  bucket_offset_.assign(R + 1, 0);
  for (const auto& [r, priority] : keyed) {
    ++bucket_offset_[static_cast<std::size_t>(r) + 1];
  }
  for (std::size_t r = 0; r < R; ++r) {
    bucket_offset_[r + 1] += bucket_offset_[r];
  }
  priority_rank_.assign(n, kNoRank);
  for (std::size_t t = 0; t < n; ++t) {
    if (graph_.priority[t] == kNoPriority || !in_range(t)) continue;
    const auto r = static_cast<std::size_t>(graph_.resource[t]);
    const auto first =
        keyed.begin() + static_cast<std::ptrdiff_t>(bucket_offset_[r]);
    const auto last =
        keyed.begin() + static_cast<std::ptrdiff_t>(bucket_offset_[r + 1]);
    const std::pair key{graph_.resource[t], graph_.priority[t]};
    priority_rank_[t] =
        static_cast<int>(std::lower_bound(first, last, key) - first);
  }

  // Per-group gate slot layout, sized by the group's *task count*: ranks
  // must be dense 0..k-1 for validated graphs (k = group size), and a
  // rank >= the group's task count can never be released anyway — the
  // counter advances once per activated task — so such tasks (invalid
  // input Validate() would reject) are dropped at enqueue time instead
  // of getting a slot. This also bounds slot memory by the task count
  // regardless of what rank values unvalidated inputs carry.
  gate_group_size_.assign(static_cast<std::size_t>(num_gate_groups_), 0);
  for (const int g : graph_.gate_group) {
    if (g >= 0) ++gate_group_size_[static_cast<std::size_t>(g)];
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
  const auto n = static_cast<TaskId>(num_tasks());
  std::vector<std::vector<int>> gate_ranks(
      static_cast<std::size_t>(num_gate_groups_));
  for (TaskId t = 0; t < n; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    if (graph_.resource[ti] < 0 || graph_.resource[ti] >= num_resources_) {
      throw std::invalid_argument("task resource out of range");
    }
    if (graph_.duration[ti] < 0.0) {
      throw std::invalid_argument("negative task duration");
    }
    for (TaskId p : graph_.preds(ti)) {
      if (p < 0 || p >= n || p == t) {
        throw std::invalid_argument("task predecessor out of range");
      }
    }
    if ((graph_.gate_group[ti] >= 0) != (graph_.gate_rank[ti] >= 0)) {
      throw std::invalid_argument("gate group/rank must be set together");
    }
    if (graph_.gate_group[ti] >= 0) {
      gate_ranks[static_cast<std::size_t>(graph_.gate_group[ti])].push_back(
          graph_.gate_rank[ti]);
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
  std::vector<std::size_t> indegree(num_tasks());
  for (std::size_t t = 0; t < num_tasks(); ++t) {
    indegree[t] = graph_.pred_begin[t + 1] - graph_.pred_begin[t];
  }
  std::queue<TaskId> q;
  for (std::size_t t = 0; t < num_tasks(); ++t) {
    if (indegree[t] == 0) q.push(static_cast<TaskId>(t));
  }
  std::size_t seen = 0;
  while (!q.empty()) {
    const TaskId t = q.front();
    q.pop();
    ++seen;
    for (TaskId s : succs(static_cast<std::size_t>(t))) {
      if (--indegree[static_cast<std::size_t>(s)] == 0) q.push(s);
    }
  }
  if (seen != num_tasks()) {
    throw std::invalid_argument("task graph has a cycle");
  }
}

namespace {

// Completion event of a fixed-duration task. Time ties are broken by the
// smaller TaskId — made explicit here so completion order (and therefore
// successor release order) is deterministic. Flows are not queued: the
// first flow completion (FlowSolver::next) is ordered against the queue
// by the same (time, task) rule.
struct CompletionEvent {
  double time;
  TaskId task;
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
            std::size_t num_tasks)
      : buckets(bucket_offset.back()),
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

// Max-min fair flow state of one Run (SimOptions::network, DESIGN.md
// §11). Every flow start and finish re-solves the progressive-filling
// water-fill over all active flows. Each flow keeps
// one completion projection, refreshed exactly when a solve changes its
// rate, and the solve records the first of them: the event loop orders
// that one against its queue by the queue's own (time, task) rule, so
// flows are never queued. Flow state lives in slots: a flow's position
// in the active list, swap-removed when it finishes.
class FlowSolver {
 public:
  FlowSolver(const std::vector<int>& resource, const FlowNetwork& net)
      : resource_(resource),
        net_(net),
        link_begin_(net.links.size() + 1, 0),
        link_listed_(net.links.size(), 0),
        link_head_(net.links.size(), 0),
        link_members_(net.links.size(), 0),
        link_residual_(net.links.size(), 0.0),
        link_ratio_(net.links.size(), 0.0),
        link_on_(net.links.size(), 0),
        link_in_band_(net.links.size(), 0),
        link_gen_(net.links.size(), 0) {
    // A resource runs one task at a time, so link l never holds more
    // members than the resources that cross it: its segment is sized to
    // that count once.
    for (const std::vector<int>& links : net.resource_links) {
      for (int l : links) ++link_begin_[static_cast<std::size_t>(l) + 1];
    }
    for (std::size_t l = 0; l < net.links.size(); ++l) {
      link_begin_[l + 1] += link_begin_[l];
    }
    link_end_.assign(link_begin_.begin(), link_begin_.end() - 1);
    member_pos_.resize(link_begin_.back());
  }

  // True when tasks on resource r share links (and so progress at the
  // water-filled rate instead of their fixed nominal duration).
  bool IsFlowResource(int r) const {
    return static_cast<std::size_t>(r) < net_.resource_links.size() &&
           !net_.resource_links[static_cast<std::size_t>(r)].empty();
  }

  // Flow t starts at `now` with `demand` seconds of work at its nominal
  // (static-split) rate. Joining reshapes every rate, so this re-solves
  // at once; t's first projection comes from its 0 -> fair-share change.
  void Start(TaskId t, double demand, double now) {
    const auto r =
        static_cast<std::size_t>(resource_[static_cast<std::size_t>(t)]);
    const auto slot = static_cast<int>(flows_.size());
    flows_.push_back({t, demand, 0.0, 0.0, 0.0, net_.resource_nominal_bps[r],
                      net_.resource_links[r]});
    // The newest slot is the largest, so it goes at each segment's tail.
    for (int l : net_.resource_links[r]) {
      const auto li = static_cast<std::size_t>(l);
      if (link_end_[li] == link_begin_[li] && !link_listed_[li]) {
        link_listed_[li] = 1;
        touched_.push_back(l);
      }
      assert(link_end_[li] < link_begin_[li + 1]);
      member_pos_[link_end_[li]++] = slot;
    }
    Solve(now);
  }

  // next() completed at `now`: its bandwidth goes to the other flows.
  // Its slot takes the last flow, whose entry moves from the tail of each
  // of its links' segments to its sorted place.
  void FinishNext(double now) {
    const auto slot = static_cast<int>(next_slot_);
    const auto last = static_cast<int>(flows_.size() - 1);
    for (int l : flows_[next_slot_].links) {
      const auto [first, end] = Segment(l);
      int* const at = std::lower_bound(first, end, slot);
      assert(at != end && *at == slot);
      std::copy(at + 1, end, at);
      --link_end_[static_cast<std::size_t>(l)];
    }
    if (slot != last) {
      flows_[next_slot_] = flows_.back();
      for (int l : flows_[next_slot_].links) {
        const auto [first, end] = Segment(l);
        assert(end[-1] == last);
        int* const at = std::upper_bound(first, end - 1, slot);
        std::copy_backward(at, end - 1, end);
        *at = slot;
      }
    }
    flows_.pop_back();
    Solve(now);
  }

  // The in-flight flow that completes first, at next_at(): the
  // lexicographic minimum of (projection, task); -1 when none is.
  TaskId next() const { return next_; }
  double next_at() const { return next_at_; }

 private:
  // One in-flight flow, at its slot in flows_.
  struct Flow {
    TaskId task;
    double remaining;  // nominal seconds of demand left
    double rate;       // progress per second of sim time
    double alloc;      // bytes/s from the last water-fill
    double proj;       // projected completion time
    double nominal;    // the resource's static per-channel bytes/s
    std::span<const int> links;
  };

  // A link's cursor: its next unfrozen member, at member_pos_[idx] == pos.
  struct Cursor {
    int pos;
    int link;
    std::size_t idx;
    unsigned gen;
    bool operator>(const Cursor& other) const {
      return pos != other.pos ? pos > other.pos : link > other.link;
    }
  };

  void Solve(double now);
  double FindLevel();
  double RefillBand();
  void Freeze(int p, double level);

  // Link l's members: its slots, ascending.
  std::pair<int*, int*> Segment(int l) {
    const auto li = static_cast<std::size_t>(l);
    return {member_pos_.data() + link_begin_[li],
            member_pos_.data() + link_end_[li]};
  }

  // Index of link l's first unfrozen member at or after index i, or
  // link_end_[l] when there is none.
  std::size_t NextUnfrozen(int l, std::size_t i) const {
    const std::size_t end = link_end_[static_cast<std::size_t>(l)];
    while (i < end && pos_frozen_[static_cast<std::size_t>(member_pos_[i])]) {
      ++i;
    }
    return i;
  }

  // Link l's ratio is at most the band's bound: it joins the band unless
  // it is already in.
  void Enter(int l) {
    if (link_in_band_[static_cast<std::size_t>(l)]) return;
    link_in_band_[static_cast<std::size_t>(l)] = 1;
    band_.push_back(l);
  }

  // Queues link l's cursor at its first unfrozen member at or after
  // index i, if any.
  void PushCursor(int l, std::size_t i) {
    const auto li = static_cast<std::size_t>(l);
    i = NextUnfrozen(l, i);
    if (i == link_end_[li]) return;
    cursors_.push_back({member_pos_[i], l, i, link_gen_[li]});
    std::push_heap(cursors_.begin(), cursors_.end(), std::greater<Cursor>());
  }

  // Link l is at the fill level: a new cursor from index i.
  void OpenCursor(int l, std::size_t i) {
    link_on_[static_cast<std::size_t>(l)] = 1;
    ++link_gen_[static_cast<std::size_t>(l)];
    PushCursor(l, i);
  }

  const std::vector<int>& resource_;  // per task
  const FlowNetwork& net_;
  std::vector<Flow> flows_;  // in-flight flows, by slot
  double last_ = 0.0;        // when every flow's `remaining` was advanced
  TaskId next_ = -1;
  std::size_t next_slot_ = 0;
  double next_at_ = std::numeric_limits<double>::infinity();

  // Link membership, kept at Start and FinishNext. Positions are slots;
  // link l's members are the segment [link_begin_[l], link_end_[l]) of
  // member_pos_ in ascending position, inside its fixed room up to
  // link_begin_[l + 1]. touched_ lists every link with a flow, plus ones
  // emptied since the last solve.
  std::vector<int> member_pos_;
  std::vector<std::size_t> link_begin_, link_end_;
  std::vector<char> link_listed_;      // in touched_
  // Water-fill scratch. link_head_ is past a segment's frozen prefix.
  std::vector<char> pos_frozen_;
  std::vector<std::size_t> link_head_;
  std::vector<int> link_members_;      // unfrozen members
  std::vector<double> link_residual_;  // capacity not yet handed out
  std::vector<double> link_ratio_;     // residual / members, as last changed
  std::vector<char> link_on_;          // ratio == level this round
  std::vector<char> link_in_band_;     // listed in band_
  std::vector<unsigned> link_gen_;     // invalidates a dropped cursor
  std::vector<int> touched_, live_, on_;
  // The near band: every live link whose ratio is at most band_bound_
  // (twice the level found at the last refill), plus members that have
  // since died or risen past it, dropped when a round next scans them.
  std::vector<int> band_;
  double band_bound_ = 0.0;
  std::vector<Cursor> cursors_;  // min-heap on (pos, link)
};

// Progressive-filling max-min allocation over the active flows. Advances
// each active flow's remaining demand to `now` at its old rate first
// (rates are piecewise constant between solves), then water-fills in
// rounds: the fill level is the tightest link's residual capacity per
// unfrozen member, and a scan of the active list in order freezes every
// flow that, when its turn comes, crosses a link whose ratio equals the
// level exactly, subtracting its share from each of its links. A round
// visits only those flows: each link's ratio is cached and refreshed
// when a freeze changes it, and a link at the level walks a cursor over
// its members in active order — started past the current position when
// a freeze brings the link to the level, dropped when a freeze moves it
// off. Cursors take turns by (position, link) through a min-heap, except
// that a cursor alone walks its link without it. The level itself comes
// from the near band (FindLevel), not a scan of every link, and the link
// memberships are the ones Start and FinishNext keep. That is the same
// flows, in the same order, against the same state as a full scan, so
// every share is the same bits. Flows
// whose rate changed get a fresh completion projection; unchanged flows
// keep theirs. All iteration is in deterministic (active-list / link-id)
// order and uses exact float comparisons, so results are reproducible
// across runs.
void FlowSolver::Solve(double now) {
  const std::size_t n = flows_.size();
  pos_frozen_.assign(n, 0);
  for (Flow& f : flows_) {
    // Every solve advances every flow, so all were last advanced at
    // last_; a flow started since has rate 0 and does not move.
    f.remaining -= (now - last_) * f.rate;
    if (f.remaining < 0.0) f.remaining = 0.0;
  }
  last_ = now;
  std::size_t listed = 0;
  for (int l : touched_) {
    const auto li = static_cast<std::size_t>(l);
    if (link_end_[li] == link_begin_[li]) {
      link_listed_[li] = 0;
      continue;
    }
    touched_[listed++] = l;
    link_members_[li] = static_cast<int>(link_end_[li] - link_begin_[li]);
    link_residual_[li] = net_.links[li].capacity_bps;
    link_head_[li] = link_begin_[li];
    link_ratio_[li] = link_residual_[li] / link_members_[li];
  }
  touched_.resize(listed);
#ifndef NDEBUG
  // The kept membership is a rebuild's: every link's members are the
  // slots crossing it, ascending, and every link with one is listed.
  {
    std::vector<std::size_t> next(link_begin_.begin(), link_begin_.end() - 1);
    for (std::size_t p = 0; p < n; ++p) {
      for (int l : flows_[p].links) {
        const auto li = static_cast<std::size_t>(l);
        assert(link_listed_[li] && next[li] < link_end_[li]);
        assert(member_pos_[next[li]++] == static_cast<int>(p));
      }
    }
    assert(next == link_end_);
  }
#endif
  live_ = touched_;

  std::size_t unfrozen = n;
  while (unfrozen > 0) {
    const double level = FindLevel();
    for (int l : on_) {
      const auto li = static_cast<std::size_t>(l);
      link_head_[li] = NextUnfrozen(l, link_head_[li]);
      OpenCursor(l, link_head_[li]);
    }
    bool froze = false;
    while (!cursors_.empty()) {
      std::pop_heap(cursors_.begin(), cursors_.end(), std::greater<Cursor>());
      Cursor c = cursors_.back();
      cursors_.pop_back();
      const auto li = static_cast<std::size_t>(c.link);
      if (c.gen != link_gen_[li]) continue;
      // While c is the only cursor, no other link's member can come
      // before its next one: walk its members in position order, and
      // hand it back to the heap once a Freeze opens another cursor.
      while (true) {
        if (!pos_frozen_[static_cast<std::size_t>(c.pos)]) {
          Freeze(c.pos, level);
          froze = true;
          --unfrozen;
        }
        if (c.gen != link_gen_[li]) break;  // moved off the level
        if (!cursors_.empty()) {
          PushCursor(c.link, c.idx + 1);
          break;
        }
        c.idx = NextUnfrozen(c.link, c.idx + 1);
        if (c.idx == link_end_[li]) break;
        c.pos = member_pos_[c.idx];
      }
    }
    for (int l : on_) link_on_[static_cast<std::size_t>(l)] = 0;
    // Unreachable for valid networks (the argmin link always has a
    // member to freeze); guards against float pathologies looping.
    if (!froze) break;
  }
  for (int l : band_) link_in_band_[static_cast<std::size_t>(l)] = 0;
  band_.clear();
#ifndef NDEBUG
  // Every flow got a share, and no link hands out more than it has.
  for (int l : touched_) {
    const auto li = static_cast<std::size_t>(l);
    double sum = 0.0;
    for (std::size_t i = link_begin_[li]; i < link_end_[li]; ++i) {
      const double alloc =
          flows_[static_cast<std::size_t>(member_pos_[i])].alloc;
      assert(alloc > 0.0);
      sum += alloc;
    }
    assert(sum <= net_.links[li].capacity_bps * (1.0 + 1e-9));
  }
#endif

  next_ = -1;
  next_at_ = std::numeric_limits<double>::infinity();
  for (std::size_t p = 0; p < n; ++p) {
    Flow& f = flows_[p];
    double rate = f.alloc / f.nominal;
    // Validate() guarantees positive capacities and nominal rates, so a
    // non-positive share can only come from accumulated float dust on a
    // degenerate topology; keep completion times finite regardless.
    if (!(rate > 0.0)) rate = std::numeric_limits<double>::epsilon();
    if (rate != f.rate) {
      f.rate = rate;
      f.proj = now + f.remaining / rate;
    }
    if (f.proj < next_at_ || (f.proj == next_at_ && f.task < next_)) {
      next_at_ = f.proj;
      next_ = f.task;
      next_slot_ = p;
    }
  }
}

// This round's fill level, with on_ set to the links at it. Scans only
// the band, dropping members that died or rose past its bound; an empty
// band is refilled from every live link. Exact: every live link whose
// ratio is at most the bound is in the band (the refill puts it there,
// and ratios change only in Freeze, which adds it), so a non-empty band
// holds the minimum and every link tied with it. The order of on_ is
// not observable: cursors pop by (position, link), which is unique.
double FlowSolver::FindLevel() {
  double level = std::numeric_limits<double>::infinity();
  on_.clear();
  std::size_t kept = 0;
  for (int l : band_) {
    const auto li = static_cast<std::size_t>(l);
    if (link_members_[li] == 0 || link_ratio_[li] > band_bound_) {
      link_in_band_[li] = 0;
      continue;
    }
    band_[kept++] = l;
    // Exact comparisons: the argmin links match `level` bit for bit.
    if (link_ratio_[li] < level) {
      level = link_ratio_[li];
      on_.clear();
    }
    if (link_ratio_[li] == level) on_.push_back(l);
  }
  band_.resize(kept);
  if (band_.empty()) level = RefillBand();
#ifndef NDEBUG
  // The band's level and tied set are a full scan's.
  double full = std::numeric_limits<double>::infinity();
  for (int l : live_) {
    const auto li = static_cast<std::size_t>(l);
    if (link_members_[li] > 0) full = std::min(full, link_ratio_[li]);
  }
  assert(full == level);
  std::size_t tied = 0;
  for (int l : live_) {
    const auto li = static_cast<std::size_t>(l);
    if (link_members_[li] > 0 && link_ratio_[li] == full) {
      assert(link_in_band_[li]);
      ++tied;
    }
  }
  assert(tied == on_.size());
#endif
  return level;
}

// Drops dead links from live_, puts every live link whose ratio is at
// most twice the minimum into the band and the links at the minimum
// into on_, and returns the minimum.
double FlowSolver::RefillBand() {
  double level = std::numeric_limits<double>::infinity();
  std::size_t live = 0;
  for (int l : live_) {
    const auto li = static_cast<std::size_t>(l);
    if (link_members_[li] == 0) continue;
    live_[live++] = l;
    level = std::min(level, link_ratio_[li]);
  }
  live_.resize(live);
  band_bound_ = 2 * level;
  for (int l : live_) {
    const double ratio = link_ratio_[static_cast<std::size_t>(l)];
    if (ratio <= band_bound_) Enter(l);
    if (ratio == level) on_.push_back(l);
  }
  return level;
}

// Freezes the flow at position p at `level` and moves the cursors of the
// links whose ratio crossed the level.
void FlowSolver::Freeze(int p, double level) {
  pos_frozen_[static_cast<std::size_t>(p)] = 1;
  Flow& f = flows_[static_cast<std::size_t>(p)];
  f.alloc = level;
  const std::span<const int> links = f.links;
  for (int l : links) {
    const auto li = static_cast<std::size_t>(l);
    link_residual_[li] -= level;
    if (link_residual_[li] < 0.0) link_residual_[li] = 0.0;
    --link_members_[li];
  }
  for (int l : links) {
    const auto li = static_cast<std::size_t>(l);
    bool at_level = false;
    if (link_members_[li] > 0) {
      link_ratio_[li] = link_residual_[li] / link_members_[li];
      at_level = link_ratio_[li] == level;
      if (link_ratio_[li] <= band_bound_) Enter(l);
    }
    if (at_level == (link_on_[li] != 0)) continue;
    if (at_level) {
      // Its members after position p get their turn this round.
      on_.push_back(l);
      const auto first = member_pos_.begin();
      OpenCursor(l, static_cast<std::size_t>(
                        std::upper_bound(first + link_head_[li],
                                         first + link_end_[li], p) -
                        first));
    } else {
      link_on_[li] = 0;
      ++link_gen_[li];
    }
  }
}

}  // namespace

SimResult TaskGraphSim::Run(const SimOptions& options,
                            std::uint64_t seed) const {
  util::Rng rng(seed);
  const auto n = static_cast<TaskId>(num_tasks());

  // Per-task state.
  std::vector<int> missing_preds(num_tasks());
  std::vector<double> duration(num_tasks());
  for (std::size_t t = 0; t < num_tasks(); ++t) {
    missing_preds[t] = static_cast<int>(graph_.preds(t).size());
    duration[t] =
        options.jitter_sigma > 0.0
            ? graph_.duration[t] * rng.Lognormal(1.0, options.jitter_sigma)
            : graph_.duration[t];
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

  // Flow-fairness state (SimOptions::network, DESIGN.md §11). Built
  // only when a network is set and maps at least one
  // resource to a shared link; otherwise every flow branch below is
  // skipped and the run is bit-identical to the static-split engine
  // (pinned in tests/flow_test.cc).
  std::optional<FlowSolver> flows;
  if (options.network != nullptr && options.network->HasFlows()) {
    options.network->Validate(num_resources_);
    flows.emplace(graph_.resource, *options.network);
  }

  std::vector<int> gate_counter(static_cast<std::size_t>(num_gate_groups_), 0);
  // Tasks whose predecessors are done but whose gate is still closed,
  // slotted by (group, rank) so a cascade release is a direct lookup.
  std::vector<TaskId> gate_slot(gate_slot_count_, -1);

  auto gate_open = [&](TaskId t) {
    const int group = graph_.gate_group[static_cast<std::size_t>(t)];
    if (!options.enforce_gates || group < 0) return true;
    return gate_counter[static_cast<std::size_t>(group)] ==
           graph_.gate_rank[static_cast<std::size_t>(t)];
  };

  ReadySets ready(num_resources_, bucket_offset_, num_tasks());
  std::vector<char> busy(static_cast<std::size_t>(num_resources_), 0);

  auto push_ready = [&](TaskId t) {
    const int r = graph_.resource[static_cast<std::size_t>(t)];
    ready.Push(r, priority_rank_[static_cast<std::size_t>(t)], t);
    wake_resource(r);
  };

  // Hand-off (§5.1): a gated task is *enqueued* on its channel once its
  // dependencies are met and the group counter reaches its rank; the
  // counter advances at enqueue time (the transfer is "handed to gRPC"),
  // not at wire time, so channels drain their queues independently and
  // never idle waiting for another channel's wire transfer.
  auto deps_done_enqueue = [&](TaskId t) {
    const int gate_group = graph_.gate_group[static_cast<std::size_t>(t)];
    const int gate_rank = graph_.gate_rank[static_cast<std::size_t>(t)];
    if (!gate_open(t)) {
      // A negative or >= group-size rank (invalid input Validate() would
      // reject) has no slot; such a gate can never open — the counter
      // advances at most once per task in the group — so dropping it
      // here reproduces the old behavior: the task simply never starts.
      if (gate_rank >= 0 &&
          gate_rank < gate_group_size_[static_cast<std::size_t>(gate_group)]) {
        gate_slot[gate_offset_[static_cast<std::size_t>(gate_group)] +
                  static_cast<std::size_t>(gate_rank)] = t;
      }
      return;
    }
    push_ready(t);
    if (!options.enforce_gates || gate_group < 0) return;
    // Advance the counter and cascade-release successor ranks whose
    // dependencies are already met: one slot lookup per released task.
    const auto group = static_cast<std::size_t>(gate_group);
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
  result.start.assign(num_tasks(), 0.0);
  result.end.assign(num_tasks(), 0.0);
  result.start_order.reserve(num_tasks());

  for (TaskId t = 0; t < n; ++t) {
    if (missing_preds[static_cast<std::size_t>(t)] == 0) deps_done_enqueue(t);
  }

  std::priority_queue<CompletionEvent, std::vector<CompletionEvent>,
                      std::greater<CompletionEvent>>
      completions;
  double now = 0.0;

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
      busy[ri] = 1;
      result.start[static_cast<std::size_t>(t)] = now;
      result.start_order.push_back(t);
      // A task runs at its resource's speed at start time; division
      // only happens on the fault path so the plain path stays bit
      // for bit what it always was.
      const double d = has_faults
                           ? duration[static_cast<std::size_t>(t)] / speed[ri]
                           : duration[static_cast<std::size_t>(t)];
      if (flows && flows->IsFlowResource(r)) {
        // A flow's fault/jitter-adjusted duration is its demand at the
        // nominal rate; the water-fill converts it to wall time.
        flows->Start(t, d, now);
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
    CompletionEvent next =
        completions.empty() ? CompletionEvent{kInf, -1} : completions.top();
    // The first in-flight flow completes next if it precedes the queue's
    // top in (time, task) order.
    const bool flow_next =
        flows && flows->next() >= 0 &&
        next > CompletionEvent{flows->next_at(), flows->next()};
    if (flow_next) next = {flows->next_at(), flows->next()};
    const double fault_at =
        has_faults && next_fault < options.faults->size()
            ? (*options.faults)[next_fault].time
            : kInf;
    if (next.time == kInf && fault_at == kInf) break;
    if (fault_at < next.time) {
      // A perturbation takes effect strictly before anything completes:
      // resources coming back up may start waiting tasks at this instant.
      now = std::max(now, fault_at);
      apply_faults_through(fault_at);
      start_eligible();
      continue;
    }
    const TaskId t = next.task;
    now = next.time;
    result.end[static_cast<std::size_t>(t)] = now;
    result.makespan = std::max(result.makespan, now);
    const int freed = graph_.resource[static_cast<std::size_t>(t)];
    busy[static_cast<std::size_t>(freed)] = 0;
    wake_resource(freed);
    if (flow_next) {
      flows->FinishNext(now);
    } else {
      completions.pop();
    }
    for (const TaskId s : succs(static_cast<std::size_t>(t))) {
      if (--missing_preds[static_cast<std::size_t>(s)] == 0) {
        deps_done_enqueue(s);
      }
    }
    start_eligible();
  }
  return result;
}

}  // namespace tictac::sim
