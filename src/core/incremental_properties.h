// Incremental maintenance of the Algorithm-1 properties across a
// sequence of recv completions.
//
// TAC schedules one recv per round; recomputing every property from
// scratch each round costs O(R·V) per round — O(R²·V) for a full
// schedule. This state object keeps, per dependency class
// (PropertyIndex::dep_class — ops with equal dep sets), the outstanding
// dependency count and communication time M, and, per outstanding recv,
// the P / M+ properties. Completing a recv updates only the classes with
// two or more deps that contain it (PropertyIndex::multi_dep_classes),
// once per class rather than once per member op. Oracle times are cached
// in a flat vector at construction, so the virtual Time() call is made
// once per op instead of once per op per round.
//
// The results are bit-identical to PropertyIndex::UpdateProperties on
// the same outstanding set:
//   * M is summed over the class's dep set in the same (increasing
//     recv-index) order as the full pass, never maintained by
//     subtraction, so float rounding matches exactly — and every op of a
//     class has exactly the sum the full pass computes for it;
//   * P is summed per op in op-id order — over all ops at construction,
//     over the gathered ops of the recv's count-1 classes afterwards —
//     the same order the full pass's G−R scan accumulates it in;
//   * M+ is a min, which is order-independent: it is folded once per
//     class; when a class's M shrinks its new value is folded in with
//     min(); when a class leaves the pool (its dep count drops to 1) the
//     one recv it still covers is recomputed from scratch.
// The min-folds are exact because a class's M never increases: with
// non-negative recv times, dropping a term from a left-to-right float
// sum never raises it (rounding is monotone), so the running min of a
// class's values is its current value. Supports() checks that premise.
//
// The full class — the one whose dep set is every recv, such as a
// random DAG's common sink — contains every outstanding recv, so it is
// never folded: its current M is a floor applied when M+ is read
// (props(), BestRecv()), while it still has two or more deps. Its M is
// also resolved lazily. Every finite stored M+ is the M of a class
// whose outstanding deps are a subset of the full class's survivors,
// hence ≤ the floor F, so min(stored, F) is the stored value unless
// that is +inf; the floor's value decides a verdict only when a finite
// M+ s meets a +inf one on an exact Eq. 6 tie, and then only through
// `s < F`. A completion therefore just adds the recv's time to a
// running removed total; `s < F` is decided against a rigorous lower
// bound LB ≤ F (the last exact value minus the removed total, less a
// γₙ rounding slack), and the exact ordered re-sum, which compacts the
// class's row, runs only when s ≥ LB (DESIGN.md §4).
// The full recompute stays available as the reference oracle for
// differential testing (tests/incremental_properties_test.cc).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/properties.h"
#include "core/time_oracle.h"

namespace tictac::core {

class IncrementalProperties {
 public:
  // True when the incremental updates are exact for this index and
  // oracle: recvs are roots (a recv's M is then constant while
  // outstanding and completed recvs never join the G−R scan) and every
  // recv time is finite and non-negative (so class M never increases).
  // Tac() falls back to the full recompute otherwise.
  static bool Supports(const PropertyIndex& index, const TimeOracle& oracle);

  // Caches oracle times and computes the initial properties with every
  // recv outstanding: M once per class, P per op in op-id order, M+ as
  // one min-fold per class. `index` must outlive this object. Requires
  // index.recvs_are_roots(); the initial properties are exact for any
  // times, the updates only when Supports() holds.
  IncrementalProperties(const PropertyIndex& index, const TimeOracle& oracle);

  // Current properties per recv, in index.recvs() order, with the full
  // class's floor applied to M+ (resolved exactly first if stale);
  // entries for completed recvs are the default (op == kInvalidOp),
  // exactly like the full recompute's output. O(R): a copy, for callers
  // that read every recv once.
  std::vector<RecvProperties> props();

  bool outstanding(std::size_t ri) const { return outstanding_[ri] != 0; }
  std::size_t remaining() const { return remaining_; }

  // Marks recv index `ri` (which must be outstanding) as transferred and
  // updates the affected classes only: O(Σ surviving deps) over ri's
  // multi-dep classes other than the full one, instead of a full O(V·R)
  // pass. The full class's M goes stale until a read resolves it.
  void CompleteRecv(std::size_t ri);

  // Exact re-sums of the full class's M made since construction, by
  // BestRecv() verdicts that LB could not settle and by props().
  std::size_t floor_resolves() const { return floor_resolves_; }

  // The recv tac.cc's flat left-to-right TacBefore fold over props()
  // would pick, or -1 with nothing outstanding. Computed with per-block
  // pruning: recvs are grouped into 256-wide blocks carrying exact
  // aggregates over their outstanding members, refreshed lazily. A
  // candidate i beats the running best b iff
  // min(b.P, M_i) < min(P_i, b.M); splitting on where the left min
  // lands gives the block-skip conditions (all three must hold):
  //   * M_i <= b.P path: needs M_i < min(P_i, b.M), so no member
  //     strictly beats when min over members of
  //     (M_i if M_i < P_i else +inf) >= b.M — most recvs have P == 0
  //     (no op depends solely on them yet), so this aggregate is
  //     usually +inf and the clause usually holds;
  //   * M_i > b.P path: needs b.P < P_i and b.P < b.M, killed by
  //     b.P >= b.M or max-P <= b.P;
  //   * M+ tie path: needs exact lhs == rhs, which decomposes over
  //     which side each min lands on into four equality combos:
  //     b.P == b.M; P_i == b.P (needs b.P <= b.M, and the block to
  //     bracket b.P in both its P and M ranges); M_i == P_i (a
  //     per-block flag); and M_i == b.M (needs b.M <= b.P). The first
  //     three use block aggregates; the last is checked *exactly* —
  //     recv M is static, so a sorted (M, idx) table gives the recvs
  //     whose M equals b.M by equal_range, and the combo fires only in
  //     blocks actually containing one. (A 256-wide min/max bracket
  //     over broad-spectrum M values almost always contains b.M even
  //     though exact equality is rare — the bracket version skipped
  //     almost nothing.) Any tie still needs min-M+ < b.Mplus to
  //     matter, and the final op-id tie-break never flips a verdict:
  //     candidates always carry a larger recv index than the running
  //     best. Every M+ above, the block minimum included, is read
  //     through the full class's floor: exactly, because a finite
  //     stored M+ is ≤ the floor, so only a +inf one reads it, and then
  //     only a `s < F` question against a finite s (BelowFloor()).
  // Skipped blocks provably contribute no fold update, and surviving
  // blocks are scanned with the exact scalar fold — the result is
  // bit-identical to the full scan at every step, which is what keeps
  // Tac() == TacFullRecompute() pinnable while the per-round argmin
  // drops below O(R) whenever blocks prune.
  int BestRecv();

 private:
  // Fresh P / M+ for outstanding recv `q` from the classes holding it.
  void RecomputeRecv(std::size_t q);

  // Whether the full class's floor is in force: the class exists and
  // still has two or more outstanding deps. Otherwise it reads +inf.
  bool FloorActive() const {
    return full_class_ != SIZE_MAX && class_count_[full_class_] >= 2;
  }
  // Exact `x < F` for the floor F (+inf when inactive): true outright
  // when x < FloorLowerBound(), else decided after ResolveFloor().
  bool BelowFloor(double x);
  // A rigorous lower bound on the current floor while it is stale: the
  // last exact value minus floor_removed_, less a rounding slack
  // (DESIGN.md §4). Overflowed sums give NaN or -inf, which settle
  // nothing and so force a resolve.
  double FloorLowerBound() const;
  // Re-sums the full class's M over its survivors in increasing recv
  // order — the full pass's order, so the bits match — compacting its
  // row in place. Makes class_M_[full_class_] exact.
  void ResolveFloor();
  // TacBefore on M+ values as stored: +inf reads the floor.
  bool Before(const RecvProperties& a, const RecvProperties& b);

  const PropertyIndex& index_;
  std::vector<double> time_;       // op id -> cached oracle time
  std::vector<double> recv_time_;  // recv index -> cached oracle time
  std::vector<char> outstanding_;  // recv index -> still to transfer
  // Per dependency class. Only classes that start with >= 2 deps are
  // updated on completion; a one-dep class {q} keeps count 1 while q is
  // outstanding and is never read after.
  std::vector<int> class_count_;  // |dep ∩ outstanding|
  // Σ of outstanding recv indices in dep; when class_count_ hits 1 this
  // IS the surviving recv index, found in O(1).
  std::vector<std::int64_t> class_sum_;
  std::vector<double> class_M_;  // outstanding communication time
  // The class's outstanding deps, in increasing recv order: a copy of
  // PropertyIndex::class_recvs whose rows CompleteRecv compacts to their
  // survivors whenever it re-sums M, so a row of a class with count >= 2
  // holds exactly its class_count_ outstanding recvs — except the full
  // class's, which ResolveFloor() compacts and which may hold completed
  // recvs in between (its first full_row_len_ entries).
  std::vector<std::uint32_t> class_deps_;
  std::vector<std::size_t> class_deps_begin_;
  // The class whose dep set is every recv, or SIZE_MAX when there is
  // none (or only one recv). Its M is never folded into props_[r].Mplus.
  std::size_t full_class_ = SIZE_MAX;
  // Lazy floor: class_M_[full_class_] is exact unless floor_stale_; then
  // it still holds the last exact value, the sum over the full class's
  // row of full_row_len_ recvs, and floor_removed_ sums (in completion
  // order) the times of the recvs completed since.
  std::size_t full_row_len_ = 0;
  bool floor_stale_ = false;
  double floor_removed_ = 0.0;
  std::size_t floor_resolves_ = 0;
  // Per recv; Mplus excludes the full class's floor.
  std::vector<RecvProperties> props_;
  std::size_t remaining_ = 0;

  // Scratch (reused across calls; no per-call allocation): CompleteRecv's
  // recvs to rebuild, RecomputeRecv's gathered count-1 ops.
  std::vector<std::size_t> dirty_;
  std::vector<char> dirty_flag_;
  std::vector<OpId> gathered_;

  // BestRecv's block-pruning state (see the method comment).
  static constexpr std::size_t kBlockShift = 8;  // 256 recvs per block
  void RefreshBlock(std::size_t blk);
  void MarkBlockDirty(std::size_t ri) {
    blk_dirty_[ri >> kBlockShift] = 1;
  }
  std::vector<char> blk_dirty_;
  std::vector<int> blk_count_;          // outstanding members
  std::vector<double> blk_max_p_;
  std::vector<double> blk_min_mplus_;
  std::vector<double> blk_min_u_;       // min of (M if M < P else +inf)
  std::vector<double> blk_max_m_;
  std::vector<char> blk_any_m_eq_p_;    // any outstanding member with M == P
  // (M, recv idx) sorted pairs over all recvs, built by the first
  // BestRecv (Tic never needs them); recv M is static, so the recvs whose
  // M is exactly equal to the running best's — the only way the
  // M_i == b.M tie combo can fire — are found by equal_range instead of
  // per-block brackets (a bracket over 256 broad-spectrum M values
  // almost always contains b.M; exact equality almost never).
  std::vector<std::pair<double, std::uint32_t>> m_sorted_;
};

}  // namespace tictac::core
