#include "core/properties.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <unordered_map>

namespace tictac::core {

namespace {

// Hash of a sorted recv-index list, for interning equal dep sets.
std::uint64_t HashRecvList(std::span<const std::uint32_t> list) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ list.size();
  for (const std::uint32_t r : list) {
    h = (h ^ r) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
  }
  return h;
}

}  // namespace

PropertyIndex::PropertyIndex(const Graph& graph) : graph_(&graph) {
  recvs_ = graph.RecvOps();
  recv_index_.assign(graph.size(), -1);
  for (std::size_t i = 0; i < recvs_.size(); ++i) {
    recv_index_[static_cast<std::size_t>(recvs_[i])] = static_cast<int>(i);
  }
  // op.dep: union of predecessors' deps, plus the op itself if it is a
  // recv. One pass in topological order suffices (nesfab's build_deps).
  // A non-recv op whose preds all share one class has that class's set
  // and inherits it. Any other op marks its largest pred set and
  // collects, in `extra`, the recvs the other preds (and the op itself,
  // if a recv) add. No extras means the union is that pred's set, so
  // the op joins its class; otherwise the sorted extras are merged into
  // it and the list is interned: its hash picks a chain of earlier
  // classes, compared entry by entry. New classes are numbered in sweep
  // order.
  const std::vector<OpId> order = graph.TopologicalOrder();
  assert(order.size() == graph.size() && "graph must be acyclic");
  class_of_.resize(graph.size());
  class_recvs_begin_.assign(1, 0);
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  std::vector<std::uint32_t> mark(recvs_.size(), 0);  // recv -> last stamp
  std::uint32_t stamp = 0;
  std::vector<std::uint32_t> extra, merged;
  std::unordered_map<std::uint64_t, std::uint32_t> chain_head;
  std::vector<std::uint32_t> chain_next;  // class -> older class, same hash
  for (const OpId id : order) {
    const auto& preds = graph.preds(id);
    const int ri = recv_index_[static_cast<std::size_t>(id)];
    std::uint32_t big = kNone;
    for (const OpId pred : preds) {
      const std::uint32_t c = class_of_[static_cast<std::size_t>(pred)];
      if (big == kNone || class_recvs(c).size() > class_recvs(big).size()) {
        big = c;
      }
    }
    if (ri < 0 && big != kNone &&
        std::all_of(preds.begin(), preds.end(), [&](OpId pred) {
          return class_of_[static_cast<std::size_t>(pred)] == big;
        })) {
      class_of_[static_cast<std::size_t>(id)] = big;
      continue;
    }
    ++stamp;
    extra.clear();
    if (big != kNone) {
      for (const std::uint32_t r : class_recvs(big)) mark[r] = stamp;
    }
    for (const OpId pred : preds) {
      const std::uint32_t c = class_of_[static_cast<std::size_t>(pred)];
      if (c == big) continue;
      for (const std::uint32_t r : class_recvs(c)) {
        if (mark[r] == stamp) continue;
        mark[r] = stamp;
        extra.push_back(r);
      }
    }
    // An acyclic graph never has a recv in its own ancestors' sets.
    if (ri >= 0) extra.push_back(static_cast<std::uint32_t>(ri));
    if (extra.empty() && big != kNone) {
      class_of_[static_cast<std::size_t>(id)] = big;
      continue;
    }
    std::sort(extra.begin(), extra.end());
    merged.clear();
    if (big != kNone) {
      const auto base = class_recvs(big);
      std::merge(base.begin(), base.end(), extra.begin(), extra.end(),
                 std::back_inserter(merged));
    } else {
      merged.swap(extra);
    }
    const auto head = chain_head.try_emplace(HashRecvList(merged), kNone).first;
    std::uint32_t c = head->second;
    while (c != kNone && !std::ranges::equal(class_recvs(c), merged)) {
      c = chain_next[c];
    }
    if (c == kNone) {
      c = static_cast<std::uint32_t>(num_classes());
      class_recvs_.insert(class_recvs_.end(), merged.begin(), merged.end());
      class_recvs_begin_.push_back(class_recvs_.size());
      chain_next.push_back(head->second);
      head->second = c;
    }
    class_of_[static_cast<std::size_t>(id)] = c;
  }

  // CSR fills: count per row, prefix-sum, then fill in key order.
  const std::size_t num_classes = this->num_classes();
  class_ops_begin_.assign(num_classes + 1, 0);
  for (const std::uint32_t c : class_of_) ++class_ops_begin_[c + 1];
  for (std::size_t c = 0; c < num_classes; ++c) {
    class_ops_begin_[c + 1] += class_ops_begin_[c];
  }
  class_ops_.resize(graph.size());
  std::vector<std::size_t> fill(class_ops_begin_.begin(),
                                class_ops_begin_.end() - 1);
  for (std::size_t id = 0; id < graph.size(); ++id) {
    class_ops_[fill[class_of_[id]]++] = static_cast<OpId>(id);
  }
  // Per recv, the classes with >= 2 deps that contain it, by class id.
  multi_dep_begin_.assign(recvs_.size() + 1, 0);
  for (std::size_t c = 0; c < num_classes; ++c) {
    if (class_recvs(c).size() < 2) continue;
    for (const std::uint32_t r : class_recvs(c)) ++multi_dep_begin_[r + 1];
  }
  for (std::size_t r = 0; r < recvs_.size(); ++r) {
    multi_dep_begin_[r + 1] += multi_dep_begin_[r];
  }
  multi_dep_classes_.resize(multi_dep_begin_.back());
  fill.assign(multi_dep_begin_.begin(), multi_dep_begin_.end() - 1);
  for (std::size_t c = 0; c < num_classes; ++c) {
    if (class_recvs(c).size() < 2) continue;
    for (const std::uint32_t r : class_recvs(c)) {
      multi_dep_classes_[fill[r]++] = static_cast<std::uint32_t>(c);
    }
  }

  for (const OpId r : recvs_) {
    recvs_are_roots_ = recvs_are_roots_ && dep(r).size() == 1;
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
    for (const std::uint32_t ri : dep(static_cast<OpId>(id))) {
      if (outstanding[ri]) m += recv_time[ri];
    }
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
    for (const std::uint32_t r : dep(static_cast<OpId>(id))) {
      if (outstanding[r]) {
        ++d_count;
        only = r;
      }
    }
    if (d_count == 1) {
      props[only].P += oracle.Time(g, op.id);
    } else if (d_count > 1) {
      for (const std::uint32_t r : dep(static_cast<OpId>(id))) {
        if (outstanding[r] && M[id] < props[r].Mplus) {
          props[r].Mplus = M[id];
        }
      }
    }
  }

  if (op_M != nullptr) *op_M = std::move(M);
  return props;
}

}  // namespace tictac::core
