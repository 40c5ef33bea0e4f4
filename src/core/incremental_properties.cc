#include "core/incremental_properties.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "core/tac.h"

namespace tictac::core {

bool IncrementalProperties::Supports(const PropertyIndex& index,
                                     const TimeOracle& oracle) {
  if (!index.recvs_are_roots()) return false;
  return std::all_of(index.recvs().begin(), index.recvs().end(),
                     [&](OpId r) {
                       const double t = oracle.Time(index.graph(), r);
                       return std::isfinite(t) && t >= 0.0;
                     });
}

IncrementalProperties::IncrementalProperties(const PropertyIndex& index,
                                             const TimeOracle& oracle)
    : index_(index) {
  // Precondition: recvs have no recv ancestors, so a recv's own M is its
  // transfer time (constant while outstanding) and completed recvs never
  // contribute to P or M+. Tac() and Tic() route graphs violating this to
  // the full-recompute reference instead of constructing this state.
  assert(index.recvs_are_roots());
  const Graph& g = index.graph();
  const auto& recvs = index.recvs();

  time_.resize(g.size());
  for (std::size_t id = 0; id < g.size(); ++id) {
    time_[id] = oracle.Time(g, static_cast<OpId>(id));
  }
  recv_time_.resize(recvs.size());
  for (std::size_t i = 0; i < recvs.size(); ++i) {
    recv_time_[i] = time_[static_cast<std::size_t>(recvs[i])];
  }

  outstanding_.assign(recvs.size(), 1);
  remaining_ = recvs.size();
  dirty_flag_.assign(recvs.size(), 0);
  dirty_.reserve(recvs.size());

  // Count, index sum and M once per class, all recvs outstanding. M is
  // summed in increasing recv order, the full pass's order.
  const std::size_t num_classes = index.num_classes();
  class_count_.resize(num_classes);
  class_sum_.assign(num_classes, 0);
  class_M_.resize(num_classes);
  class_deps_begin_.resize(num_classes);
  for (std::size_t c = 0; c < num_classes; ++c) {
    const auto members = index.class_recvs(c);
    class_count_[c] = static_cast<int>(members.size());
    class_deps_begin_[c] = class_deps_.size();
    class_deps_.insert(class_deps_.end(), members.begin(), members.end());
    double m = 0.0;
    for (const std::uint32_t r : members) {
      class_sum_[c] += static_cast<std::int64_t>(r);
      m += recv_time_[r];
    }
    class_M_[c] = m;
    if (members.size() == recvs.size() && members.size() >= 2) {
      full_class_ = c;
      full_row_len_ = members.size();
    }
  }

  // The full pass's G−R scan with every recv in R: P per op in op-id
  // order over one-dep classes, then M+ as one min-fold per class with
  // two or more deps (every member is a non-recv op, as recvs are roots)
  // except the full class, whose M is the floor.
  props_.resize(recvs.size());
  for (std::size_t i = 0; i < recvs.size(); ++i) {
    props_[i].op = recvs[i];
    props_[i].M = class_M_[index.dep_class(recvs[i])];
  }
  for (std::size_t id = 0; id < g.size(); ++id) {
    if (index.recv_index(static_cast<OpId>(id)) >= 0) continue;
    const std::size_t c = index.dep_class(static_cast<OpId>(id));
    if (class_count_[c] == 1) {
      props_[static_cast<std::size_t>(class_sum_[c])].P += time_[id];
    }
  }
  for (std::size_t c = 0; c < num_classes; ++c) {
    if (class_count_[c] < 2 || c == full_class_) continue;
    for (const std::uint32_t r : index.class_recvs(c)) {
      props_[r].Mplus = std::min(props_[r].Mplus, class_M_[c]);
    }
  }

  const std::size_t blocks =
      (recvs.size() + (std::size_t{1} << kBlockShift) - 1) >> kBlockShift;
  blk_dirty_.assign(blocks, 1);  // refreshed lazily on the first BestRecv
  blk_count_.resize(blocks);
  blk_max_p_.resize(blocks);
  blk_min_mplus_.resize(blocks);
  blk_min_u_.resize(blocks);
  blk_max_m_.resize(blocks);
  blk_any_m_eq_p_.resize(blocks);
}

std::vector<RecvProperties> IncrementalProperties::props() {
  double floor = kInfinity;
  if (FloorActive()) {
    if (floor_stale_) ResolveFloor();
    floor = class_M_[full_class_];
  }
  std::vector<RecvProperties> out = props_;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (outstanding_[i] != 0) out[i].Mplus = std::min(out[i].Mplus, floor);
  }
  return out;
}

double IncrementalProperties::FloorLowerBound() const {
  // With E the last exact value (n terms), R the removed total and F the
  // current floor, F >= (E - R) - 3γₙ(E + R) in exact arithmetic;
  // 4(n + 2)u(E + R) also covers the rounding of this expression, and
  // denorm_min the product's underflow (DESIGN.md §4).
  constexpr double kUnitRoundoff = std::numeric_limits<double>::epsilon() / 2;
  const double e = class_M_[full_class_];
  const double r = floor_removed_;
  const double slack =
      4.0 * static_cast<double>(full_row_len_ + 2) * kUnitRoundoff * (e + r) +
      std::numeric_limits<double>::denorm_min();
  return (e - r) - slack;
}

void IncrementalProperties::ResolveFloor() {
#ifndef NDEBUG
  const double lb = FloorLowerBound();
#endif
  std::uint32_t* deps = class_deps_.data() + class_deps_begin_[full_class_];
  double m = 0.0;
  std::size_t kept = 0;
  for (std::size_t k = 0; k < full_row_len_; ++k) {
    const std::uint32_t r = deps[k];
    if (outstanding_[r] == 0) continue;
    m += recv_time_[r];
    deps[kept++] = r;
  }
  assert(kept == static_cast<std::size_t>(class_count_[full_class_]));
  full_row_len_ = kept;
  class_M_[full_class_] = m;
  floor_removed_ = 0.0;
  floor_stale_ = false;
  ++floor_resolves_;
#ifndef NDEBUG
  // The bound the lazy verdicts relied on, and the lemma that lets a
  // finite stored M+ stand for min(stored, floor).
  assert(!(lb > m));
  for (std::size_t i = 0; i < props_.size(); ++i) {
    assert(outstanding_[i] == 0 || props_[i].Mplus == kInfinity ||
           props_[i].Mplus <= m);
  }
#endif
}

bool IncrementalProperties::BelowFloor(double x) {
  if (!FloorActive()) return x < kInfinity;
  if (floor_stale_) {
    if (x < FloorLowerBound()) return true;
    ResolveFloor();
  }
  return x < class_M_[full_class_];
}

bool IncrementalProperties::Before(const RecvProperties& a,
                                   const RecvProperties& b) {
  // TacBefore with M+ read as min(stored, F). A finite stored s is <= F,
  // so reads differ from storage only at +inf; a finite s against F
  // differs iff s < F, and the op-id tie-break settles s == F.
  const double lhs = std::min(b.P, a.M);
  const double rhs = std::min(a.P, b.M);
  if (lhs != rhs) return lhs < rhs;
  const bool op_first = a.op < b.op;
  if (a.Mplus == b.Mplus) return op_first;
  if (a.Mplus != kInfinity && b.Mplus != kInfinity) {
    return a.Mplus < b.Mplus;
  }
  if (b.Mplus == kInfinity) return op_first || BelowFloor(a.Mplus);
  return op_first && !BelowFloor(b.Mplus);
}

void IncrementalProperties::CompleteRecv(std::size_t ri) {
  assert(ri < outstanding_.size() && outstanding_[ri] != 0);
  outstanding_[ri] = 0;
  props_[ri] = RecvProperties{};
  MarkBlockDirty(ri);
  --remaining_;
  dirty_.clear();

  for (const std::uint32_t c : index_.multi_dep_classes(ri)) {
    const int d = --class_count_[c];
    class_sum_[c] -= static_cast<std::int64_t>(ri);
    if (d == 0) continue;  // its whole P contribution went to `ri` itself
    if (d >= 2 && c == full_class_) {
      // The floor goes stale: its M is re-summed only when a read cannot
      // be settled by its lower bound (BelowFloor()).
      floor_stale_ = true;
      floor_removed_ += recv_time_[ri];
      continue;
    }
    if (d == 1) {
      // The class leaves the M+ pool and its ops join the P pool of its
      // one surviving recv; both of that recv's properties need a rebuild.
      const auto q = static_cast<std::size_t>(class_sum_[c]);
      if (dirty_flag_[q] == 0) {
        dirty_flag_[q] = 1;
        dirty_.push_back(q);
      }
      continue;
    }
    // d >= 2: still an M+ contributor, but its outstanding communication
    // time shrank. Re-sum M over the row's d survivors — in increasing
    // recv order, the full pass's order, so the sum is bit-identical —
    // dropping `ri` from the row as it goes. Then fold the new value
    // into the M+ of every recv the class still depends on: a pure min()
    // update, exact because contributions only ever decrease.
    std::uint32_t* deps = class_deps_.data() + class_deps_begin_[c];
    double m = 0.0;
    std::size_t kept = 0;
    for (std::size_t k = 0; k <= static_cast<std::size_t>(d); ++k) {
      const std::uint32_t r = deps[k];
      if (r == ri) continue;
      m += recv_time_[r];
      deps[kept++] = r;
    }
    class_M_[c] = m;
    for (std::size_t k = 0; k < kept; ++k) {
      const std::uint32_t r = deps[k];
      if (m < props_[r].Mplus) {
        props_[r].Mplus = m;
        // Lowering a member's M+ moves the block's min to
        // min(old min, m) exactly, so the aggregate is maintained in
        // O(1) instead of dirtying the block — this fold touches most
        // outstanding recvs every round, and re-scanning every touched
        // block would cost more than the pruning saves.
        if (m < blk_min_mplus_[r >> kBlockShift]) {
          blk_min_mplus_[r >> kBlockShift] = m;
        }
      }
    }
  }

  // Rebuilds run after every count/M update so they see the final state.
  for (const std::size_t q : dirty_) {
    dirty_flag_[q] = 0;
    RecomputeRecv(q);
  }
}

void IncrementalProperties::RecomputeRecv(std::size_t q) {
  assert(outstanding_[q] != 0);
  // P sums the ops whose only outstanding dependency is q, in op-id
  // order: the non-recv ops of q's own one-dep class and of its multi-dep
  // classes down to count 1, gathered and sorted. M+ is the min M of the
  // classes still at two or more, the full class excepted.
  const OpId self = index_.recvs()[q];
  gathered_.clear();
  for (const OpId id : index_.class_ops(index_.dep_class(self))) {
    if (id != self) gathered_.push_back(id);
  }
  double mplus = kInfinity;
  for (const std::uint32_t c : index_.multi_dep_classes(q)) {
    const int d = class_count_[c];
    if (d == 1) {
      const auto ops = index_.class_ops(c);
      gathered_.insert(gathered_.end(), ops.begin(), ops.end());
    } else if (d >= 2 && c != full_class_) {
      mplus = std::min(mplus, class_M_[c]);
    }
  }
  std::sort(gathered_.begin(), gathered_.end());
  double p = 0.0;
  for (const OpId id : gathered_) p += time_[static_cast<std::size_t>(id)];
  props_[q].P = p;
  props_[q].Mplus = mplus;
  MarkBlockDirty(q);
}

void IncrementalProperties::RefreshBlock(std::size_t blk) {
  const std::size_t lo = blk << kBlockShift;
  const std::size_t hi =
      std::min(props_.size(), lo + (std::size_t{1} << kBlockShift));
  int count = 0;
  double max_p = -kInfinity;
  double min_mplus = kInfinity;
  double min_u = kInfinity;
  double max_m = -kInfinity;
  char any_m_eq_p = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    if (outstanding_[i] == 0) continue;
    ++count;
    max_m = std::max(max_m, props_[i].M);
    max_p = std::max(max_p, props_[i].P);
    min_mplus = std::min(min_mplus, props_[i].Mplus);
    if (props_[i].M < props_[i].P) min_u = std::min(min_u, props_[i].M);
    if (props_[i].M == props_[i].P) any_m_eq_p = 1;
  }
  blk_count_[blk] = count;
  blk_max_p_[blk] = max_p;
  blk_min_mplus_[blk] = min_mplus;
  blk_min_u_[blk] = min_u;
  blk_max_m_[blk] = max_m;
  blk_any_m_eq_p_[blk] = any_m_eq_p;
  blk_dirty_[blk] = 0;
}

namespace {
// Heterogeneous comparator for equal_range over (M, idx) pairs keyed
// by M alone.
struct MKeyLess {
  bool operator()(const std::pair<double, std::uint32_t>& a, double b) const {
    return a.first < b;
  }
  bool operator()(double a, const std::pair<double, std::uint32_t>& b) const {
    return a < b.first;
  }
};
}  // namespace

int IncrementalProperties::BestRecv() {
  if (m_sorted_.empty()) {
    m_sorted_.reserve(recv_time_.size());
    for (std::size_t i = 0; i < recv_time_.size(); ++i) {
      m_sorted_.emplace_back(recv_time_[i], static_cast<std::uint32_t>(i));
    }
    std::sort(m_sorted_.begin(), m_sorted_.end());
  }
  const std::size_t n = props_.size();
  int best = -1;
  RecvProperties b;  // props_[best], M+ as stored (+inf reads the floor)
  // Cached equal-M range for the current best's M (recomputed whenever
  // the best — and hence b.M — changes mid-fold).
  double eq_key = kInfinity;
  auto eq_lo = m_sorted_.cend();
  auto eq_hi = m_sorted_.cend();
  for (std::size_t blk = 0; blk < blk_dirty_.size(); ++blk) {
    if (blk_dirty_[blk] != 0) RefreshBlock(blk);
    if (blk_count_[blk] == 0) continue;
    const std::size_t lo = blk << kBlockShift;
    const std::size_t hi = std::min(n, lo + (std::size_t{1} << kBlockShift));
    if (best >= 0) {
      // Skip when no member can beat the best via any TacBefore path
      // (the exact case split in the BestRecv declaration comment).
      const bool no_m_path = blk_min_u_[blk] >= b.M;
      const bool no_p_path = b.P >= b.M || blk_max_p_[blk] <= b.P;
      if (no_m_path && no_p_path) {
        // Strict paths are closed; a tie needs exact lhs == rhs with a
        // strictly smaller M+ — check the four equality combos. Read
        // through the floor F, the block's M+ is below b's iff
        // blk_min < b.Mplus when b's is finite (a finite b.Mplus <= F),
        // and iff blk_min < F when b's reads F; that last, floor-reading
        // question is asked only after an equality combo fires.
        bool tie = blk_min_mplus_[blk] < b.Mplus;
        if (tie) {
          tie = b.P == b.M ||
                (b.P <= b.M && blk_max_p_[blk] >= b.P &&
                 blk_max_m_[blk] >= b.P) ||
                blk_any_m_eq_p_[blk] != 0;
          if (!tie && b.M <= b.P) {
            // M_i == b.M combo: exact lookup in the static M table.
            if (b.M != eq_key) {
              const auto range = std::equal_range(
                  m_sorted_.cbegin(), m_sorted_.cend(), b.M, MKeyLess{});
              eq_key = b.M;
              eq_lo = range.first;
              eq_hi = range.second;
            }
            for (auto it = eq_lo; it != eq_hi; ++it) {
              const std::size_t idx = it->second;
              if (idx >= lo && idx < hi && outstanding_[idx] != 0) {
                tie = true;
                break;
              }
            }
          }
        }
        if (tie && b.Mplus == kInfinity) tie = BelowFloor(blk_min_mplus_[blk]);
        if (!tie) continue;
      }
    }
    for (std::size_t i = lo; i < hi; ++i) {
      if (outstanding_[i] == 0) continue;
      if (best < 0 || Before(props_[i], b)) {
        best = static_cast<int>(i);
        b = props_[i];
      }
    }
  }
  return best;
}

}  // namespace tictac::core
