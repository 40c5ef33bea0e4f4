#include "core/properties.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

namespace tictac::core {

// Count accumulates four independent lane counters over 4-word blocks:
// the per-word popcounts no longer chain through a single accumulator,
// so the compiler can pipeline or vectorize them.

std::size_t RecvSet::Count() const {
  const std::size_t nw = words_.size();
  std::size_t n0 = 0, n1 = 0, n2 = 0, n3 = 0;
  std::size_t w = 0;
  for (; w + 4 <= nw; w += 4) {
    n0 += static_cast<std::size_t>(__builtin_popcountll(words_[w + 0]));
    n1 += static_cast<std::size_t>(__builtin_popcountll(words_[w + 1]));
    n2 += static_cast<std::size_t>(__builtin_popcountll(words_[w + 2]));
    n3 += static_cast<std::size_t>(__builtin_popcountll(words_[w + 3]));
  }
  for (; w < nw; ++w) {
    n0 += static_cast<std::size_t>(__builtin_popcountll(words_[w]));
  }
  return n0 + n1 + n2 + n3;
}

std::uint64_t RecvSet::Hash() const {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ bits_;
  for (const std::uint64_t w : words_) {
    h = (h ^ w) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
  }
  return h;
}

PropertyIndex::PropertyIndex(const Graph& graph) : graph_(&graph) {
  recvs_ = graph.RecvOps();
  recv_index_.assign(graph.size(), -1);
  for (std::size_t i = 0; i < recvs_.size(); ++i) {
    recv_index_[static_cast<std::size_t>(recvs_[i])] = static_cast<int>(i);
  }
  // op.dep: union of predecessors' deps, plus the op itself if it is a
  // recv. One pass in topological order suffices (nesfab's build_deps).
  // A non-recv op whose preds all share one class has that class's set
  // and inherits it; any other op ORs its preds' class sets into
  // `scratch` and interns the result: the words' hash picks a chain of
  // earlier classes, compared word by word. New classes are numbered in
  // sweep order.
  const std::vector<OpId> order = graph.TopologicalOrder();
  assert(order.size() == graph.size() && "graph must be acyclic");
  class_of_.resize(graph.size());
  RecvSet scratch(recvs_.size());
  std::unordered_map<std::uint64_t, std::uint32_t> chain_head;
  std::vector<std::uint32_t> chain_next;  // class -> older class, same hash
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  for (const OpId id : order) {
    const auto& preds = graph.preds(id);
    const int ri = recv_index_[static_cast<std::size_t>(id)];
    if (ri < 0 && !preds.empty()) {
      const std::uint32_t first = class_of_[static_cast<std::size_t>(preds[0])];
      if (std::all_of(preds.begin() + 1, preds.end(), [&](OpId pred) {
            return class_of_[static_cast<std::size_t>(pred)] == first;
          })) {
        class_of_[static_cast<std::size_t>(id)] = first;
        continue;
      }
    }
    scratch.ClearAll();
    for (const OpId pred : preds) {
      scratch.UnionWith(class_sets_[class_of_[static_cast<std::size_t>(pred)]]);
    }
    if (ri >= 0) scratch.Set(static_cast<std::size_t>(ri));
    const auto head = chain_head.try_emplace(scratch.Hash(), kNone).first;
    std::uint32_t c = head->second;
    while (c != kNone && class_sets_[c] != scratch) c = chain_next[c];
    if (c == kNone) {
      c = static_cast<std::uint32_t>(class_sets_.size());
      class_sets_.push_back(scratch);
      chain_next.push_back(head->second);
      head->second = c;
    }
    class_of_[static_cast<std::size_t>(id)] = c;
  }

  // Per class, its recv indices in increasing order.
  const std::size_t num_classes = class_sets_.size();
  class_recvs_begin_.assign(num_classes + 1, 0);
  for (std::size_t c = 0; c < num_classes; ++c) {
    class_sets_[c].ForEach([&](std::size_t r) {
      class_recvs_.push_back(static_cast<std::uint32_t>(r));
    });
    class_recvs_begin_[c + 1] = class_recvs_.size();
  }
  // Per recv, the classes with >= 2 deps that contain it, by class id:
  // count, prefix-sum, then fill in class order.
  multi_dep_begin_.assign(recvs_.size() + 1, 0);
  for (std::size_t c = 0; c < num_classes; ++c) {
    if (class_recvs(c).size() < 2) continue;
    for (const std::uint32_t r : class_recvs(c)) ++multi_dep_begin_[r + 1];
  }
  for (std::size_t r = 0; r < recvs_.size(); ++r) {
    multi_dep_begin_[r + 1] += multi_dep_begin_[r];
  }
  multi_dep_classes_.resize(multi_dep_begin_.back());
  std::vector<std::size_t> fill(multi_dep_begin_.begin(),
                                multi_dep_begin_.end() - 1);
  for (std::size_t c = 0; c < num_classes; ++c) {
    if (class_recvs(c).size() < 2) continue;
    for (const std::uint32_t r : class_recvs(c)) {
      multi_dep_classes_[fill[r]++] = static_cast<std::uint32_t>(c);
    }
  }

  // Transpose: for each recv, the non-recv ops that (transitively) depend
  // on it. Stored as bitsets over op ids — O(R·V/64) memory, and iterating
  // consumers(ri) is a word scan instead of a full-graph sweep.
  consumers_.assign(recvs_.size(), RecvSet(graph.size()));
  for (std::size_t id = 0; id < graph.size(); ++id) {
    const auto members = class_recvs(class_of_[id]);
    if (recv_index_[id] >= 0) {
      recvs_are_roots_ = recvs_are_roots_ && members.size() == 1;
      continue;
    }
    for (const std::uint32_t r : members) consumers_[r].Set(id);
  }
}

std::vector<RecvProperties> PropertyIndex::UpdateProperties(
    const TimeOracle& oracle, const std::vector<bool>& outstanding,
    std::vector<double>* op_M) const {
  const Graph& g = *graph_;
  assert(outstanding.size() == recvs_.size());

  // Cache Time(r) for outstanding recvs, indexed by recv index.
  std::vector<double> recv_time(recvs_.size(), 0.0);
  for (std::size_t i = 0; i < recvs_.size(); ++i) {
    if (outstanding[i]) recv_time[i] = oracle.Time(g, recvs_[i]);
  }

  // op.M = sum of Time(r) over outstanding recv dependencies (Alg. 1 l.3).
  std::vector<double> M(g.size(), 0.0);
  for (std::size_t id = 0; id < g.size(); ++id) {
    double m = 0.0;
    dep(static_cast<OpId>(id)).ForEach([&](std::size_t ri) {
      if (outstanding[ri]) m += recv_time[ri];
    });
    M[id] = m;
  }

  // Initialize outstanding recv properties (Alg. 1 l.5-8).
  std::vector<RecvProperties> props(recvs_.size());
  for (std::size_t i = 0; i < recvs_.size(); ++i) {
    if (!outstanding[i]) continue;
    props[i].op = recvs_[i];
    props[i].M = M[static_cast<std::size_t>(recvs_[i])];
    props[i].P = 0.0;
    props[i].Mplus = kInfinity;
  }

  // Scan non-outstanding ops (G - R): accumulate P for single-dependency
  // ops, tighten M+ for multi-dependency ops (Alg. 1 l.9-17).
  for (const Op& op : g.ops()) {
    const std::size_t id = static_cast<std::size_t>(op.id);
    const int ri = recv_index_[id];
    if (ri >= 0 && outstanding[static_cast<std::size_t>(ri)]) continue;  // op in R

    // D = op.dep ∩ R
    std::size_t d_count = 0;
    std::size_t only = 0;
    dep(static_cast<OpId>(id)).ForEach([&](std::size_t r) {
      if (outstanding[r]) {
        ++d_count;
        only = r;
      }
    });
    if (d_count == 1) {
      props[only].P += oracle.Time(g, op.id);
    } else if (d_count > 1) {
      dep(static_cast<OpId>(id)).ForEach([&](std::size_t r) {
        if (outstanding[r] && M[id] < props[r].Mplus) {
          props[r].Mplus = M[id];
        }
      });
    }
  }

  if (op_M != nullptr) *op_M = std::move(M);
  return props;
}

}  // namespace tictac::core
