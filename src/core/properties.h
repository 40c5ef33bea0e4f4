// Op properties used by the scheduling heuristics (Section 4.1) and the
// property-update procedure (Algorithm 1).
//
// For every op:
//   dep  — the set of recv ops it directly or transitively depends on.
//   M    — communication time: total transfer time of its outstanding
//          recv dependencies.
// For every outstanding recv op additionally:
//   P    — directly-dependent compute load: total compute time of the ops
//          activated by completing this recv alone.
//   M+   — impending communication load: the minimum M over computation
//          ops with more than one outstanding recv dependency that include
//          this recv (M+ therefore includes this recv's own time).
//
// Ops with equal dep sets form one dependency class. Everything above
// except P depends on an op only through its dep set, and real models
// have few distinct sets (Inception v3 training: 3,475 multi-dep ops in
// 123 classes), so PropertyIndex stores each class's set once, as a
// sorted list of recv indices, and IncrementalProperties updates count,
// M and M+ once per class. Storage is proportional to the sets' entries
// and the op count, never to recvs × ops or classes × recvs.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/graph.h"
#include "core/time_oracle.h"

namespace tictac::core {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

// Per-recv scheduling properties after an UpdateProperties pass.
struct RecvProperties {
  OpId op = kInvalidOp;
  double M = 0.0;             // own outstanding transfer time
  double P = 0.0;             // directly-dependent compute load
  double Mplus = kInfinity;   // impending communication load
};

// Communication-dependency index for a graph. Computed once per graph
// (FindDependencies in Algorithms 2-3); UpdateProperties is then re-run
// against shrinking outstanding sets by TAC.
class PropertyIndex {
 public:
  // Builds op.dep for every op via one topological sweep, interning equal
  // dep sets into dependency classes as it goes.
  explicit PropertyIndex(const Graph& graph);

  const Graph& graph() const { return *graph_; }

  // Recv ops in id order; `recv_index(op)` inverts the mapping.
  const std::vector<OpId>& recvs() const { return recvs_; }
  int recv_index(OpId op) const { return recv_index_[static_cast<std::size_t>(op)]; }

  // Dependency class of `op`: two ops share a class iff their dep sets
  // are equal. Ids run 0..num_classes()-1 in order of first appearance
  // in a topological sweep, so they depend on the graph alone.
  std::size_t dep_class(OpId op) const {
    return class_of_[static_cast<std::size_t>(op)];
  }
  std::size_t num_classes() const { return class_recvs_begin_.size() - 1; }

  // The dep set of `op` (its class's set), as increasing indices into
  // recvs().
  std::span<const std::uint32_t> dep(OpId op) const {
    return class_recvs(dep_class(op));
  }

  // The members of class `c`'s dep set, in increasing recv index order.
  std::span<const std::uint32_t> class_recvs(std::size_t c) const {
    return {class_recvs_.data() + class_recvs_begin_[c],
            class_recvs_.data() + class_recvs_begin_[c + 1]};
  }

  // The classes with two or more deps whose set contains recv index
  // `ri`, in increasing class id order.
  std::span<const std::uint32_t> multi_dep_classes(std::size_t ri) const {
    return {multi_dep_classes_.data() + multi_dep_begin_[ri],
            multi_dep_classes_.data() + multi_dep_begin_[ri + 1]};
  }

  // The ops of class `c`, recvs included, in increasing op id order.
  // Every op is in exactly one class, so the rows hold V entries in all.
  // The ops whose dep set contains recv index `ri` are the rows of the
  // classes holding `ri`: its own one-dep class and multi_dep_classes(ri)
  // when recvs are roots. This is what lets IncrementalProperties touch
  // only the affected ops when one recv completes.
  std::span<const OpId> class_ops(std::size_t c) const {
    return {class_ops_.data() + class_ops_begin_[c],
            class_ops_.data() + class_ops_begin_[c + 1]};
  }

  // True when every recv's dep set is exactly {itself} — i.e. no recv has
  // a recv ancestor. All graph producers in this repo build recvs as
  // communication roots, but Graph::AddEdge does not forbid edges into a
  // recv. IncrementalProperties assumes this invariant (a recv's M is
  // then constant while outstanding and completed recvs never join the
  // G−R scan); Tac() falls back to the full recompute when it is false.
  bool recvs_are_roots() const { return recvs_are_roots_; }

  // Algorithm 1, evaluated per op. `outstanding` flags recvs (by recv
  // index) that are still to be transferred. Returns properties for each
  // outstanding recv, in recvs() order; entries for completed recvs have
  // op == kInvalidOp. This is the reference IncrementalProperties is
  // tested against.
  //
  // Also exposes op.M for every op via `op_M` when non-null (needed by
  // tests and by M+ computation internally).
  std::vector<RecvProperties> UpdateProperties(
      const TimeOracle& oracle, const std::vector<bool>& outstanding,
      std::vector<double>* op_M = nullptr) const;

 private:
  const Graph* graph_;
  std::vector<OpId> recvs_;
  std::vector<int> recv_index_;          // op id -> recv index or -1
  std::vector<std::uint32_t> class_of_;  // op id -> dependency class
  // CSR: class -> its recv indices; class -> its ops; recv -> its
  // classes with >= 2 deps.
  std::vector<std::size_t> class_recvs_begin_, class_ops_begin_,
      multi_dep_begin_;
  std::vector<std::uint32_t> class_recvs_, multi_dep_classes_;
  std::vector<OpId> class_ops_;
  bool recvs_are_roots_ = true;
};

}  // namespace tictac::core
