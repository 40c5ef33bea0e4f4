#include "ir/module.h"

#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace tictac::ir {
namespace {

[[noreturn]] void Fail(const std::string& what) {
  throw std::invalid_argument("ir: " + what);
}

const char* KindName(core::OpKind kind) {
  switch (kind) {
    case core::OpKind::kCompute:
      return "compute";
    case core::OpKind::kRecv:
      return "recv";
    case core::OpKind::kSend:
      return "send";
    case core::OpKind::kAggregate:
      return "aggregate";
    case core::OpKind::kRead:
      return "read";
    case core::OpKind::kUpdate:
      return "update";
  }
  return "?";
}

}  // namespace

const char* ToString(Stage stage) {
  switch (stage) {
    case Stage::kLogical:
      return "logical";
    case Stage::kReplicated:
      return "replicated";
    case Stage::kLowered:
      return "lowered";
    case Stage::kMerged:
      return "merged";
  }
  return "?";
}

void Module::Reserve(std::size_t nodes, std::size_t pred_entries) {
  const std::size_t n = size() + nodes;
  graph_.duration.reserve(n);
  graph_.resource.reserve(n);
  graph_.priority.reserve(n);
  graph_.gate_group.reserve(n);
  graph_.gate_rank.reserve(n);
  graph_.op.reserve(n);
  graph_.kind.reserve(n);
  graph_.worker.reserve(n);
  graph_.pred_begin.reserve(n + 1);
  graph_.pred_ids.reserve(graph_.pred_ids.size() + pred_entries);
  job_.reserve(n);
  iteration_.reserve(n);
  param_.reserve(n);
  bytes_.reserve(n);
  cost_.reserve(n);
  rank_.reserve(n);
  sched_priority_.reserve(n);
  delay_.reserve(n);
  name_.reserve(n);
}

NodeId Module::AddNode() {
  const NodeId id = static_cast<NodeId>(size());
  graph_.duration.push_back(0.0);
  graph_.resource.push_back(-1);
  graph_.priority.push_back(sim::kNoPriority);
  graph_.gate_group.push_back(-1);
  graph_.gate_rank.push_back(-1);
  graph_.op.push_back(core::kInvalidOp);
  graph_.kind.push_back(core::OpKind::kCompute);
  graph_.worker.push_back(-1);
  graph_.pred_begin.push_back(graph_.pred_ids.size());
  job_.push_back(-1);
  iteration_.push_back(0);
  param_.push_back(-1);
  bytes_.push_back(0);
  cost_.push_back(0.0);
  rank_.push_back(kNoRank);
  sched_priority_.push_back(sim::kNoPriority);
  delay_.push_back(0);
  name_.emplace_back();
  return id;
}

void Module::CopyNode(NodeId n, const Module& from, NodeId src) {
  duration(n) = from.duration(src);
  resource(n) = from.resource(src);
  priority(n) = from.priority(src);
  gate_group(n) = from.gate_group(src);
  gate_rank(n) = from.gate_rank(src);
  op(n) = from.op(src);
  kind(n) = from.kind(src);
  worker(n) = from.worker(src);
  job(n) = from.job(src);
  iteration(n) = from.iteration(src);
  param(n) = from.param(src);
  bytes(n) = from.bytes(src);
  cost(n) = from.cost(src);
  rank(n) = from.rank(src);
  sched_priority(n) = from.sched_priority(src);
}

void Module::SetPreds(NodeId n, std::span<const NodeId> preds) {
  if (size() == 0 || n != static_cast<NodeId>(size() - 1) ||
      graph_.pred_begin.back() != graph_.pred_begin[size() - 1]) {
    Fail("SetPreds(" + std::to_string(n) + ") must give the newest node (" +
         std::to_string(static_cast<NodeId>(size()) - 1) +
         ") its preds, once");
  }
  graph_.pred_ids.insert(graph_.pred_ids.end(), preds.begin(), preds.end());
  graph_.pred_begin.back() = graph_.pred_ids.size();
}

void Module::Validate() const {
  const NodeId n = static_cast<NodeId>(size());
  if (jobs.size() != ranges.size()) {
    Fail("jobs and ranges must be aligned: " + std::to_string(jobs.size()) +
         " jobs vs " + std::to_string(ranges.size()) + " ranges");
  }
  // Ranges partition [0, n) in order, with delay nodes in the gaps.
  std::vector<int> owner(static_cast<std::size_t>(n), -1);
  NodeId cursor = 0;
  for (std::size_t j = 0; j < ranges.size(); ++j) {
    const JobRange& r = ranges[j];
    if (r.first > r.last || r.first < 0 || r.last > n) {
      Fail("job " + std::to_string(j) + " range [" + std::to_string(r.first) +
           ", " + std::to_string(r.last) + ") is malformed");
    }
    if (r.delay != kNoNode) {
      if (r.delay != cursor || r.delay + 1 != r.first) {
        Fail("job " + std::to_string(j) +
             " delay node must immediately precede its range");
      }
      if (!is_delay(r.delay)) {
        Fail("job " + std::to_string(j) +
             " delay node lacks the is_delay attribute");
      }
      owner[static_cast<std::size_t>(r.delay)] = static_cast<int>(j);
      cursor = r.delay + 1;
    }
    if (r.first != cursor) {
      Fail("job ranges must tile the module: job " + std::to_string(j) +
           " starts at " + std::to_string(r.first) + ", expected " +
           std::to_string(cursor));
    }
    for (NodeId t = r.first; t < r.last; ++t) {
      owner[static_cast<std::size_t>(t)] = static_cast<int>(j);
    }
    cursor = r.last;
  }
  if (iterations == 1 && cursor != n) {
    Fail("job ranges must tile the module: " + std::to_string(n - cursor) +
         " trailing nodes are unowned");
  }
  const bool lowered = stage == Stage::kLowered || stage == Stage::kMerged;
  for (NodeId t = 0; t < n; ++t) {
    if (!(duration(t) >= 0.0) || duration(t) != duration(t)) {
      Fail("node " + std::to_string(t) + " has a negative or NaN duration");
    }
    if (lowered) {
      if (resource(t) < 0) {
        Fail("node " + std::to_string(t) + " has no resource at stage " +
             std::string(ToString(stage)));
      }
      if (stage == Stage::kMerged && resource(t) >= num_resources) {
        Fail("node " + std::to_string(t) + " resource " +
             std::to_string(resource(t)) + " is outside [0, " +
             std::to_string(num_resources) + ")");
      }
    } else if (resource(t) != -1) {
      Fail("node " + std::to_string(t) + " has a resource at stage " +
           std::string(ToString(stage)) + " (passes assign resources when "
           "lowering)");
    }
    for (NodeId p : preds(t)) {
      if (p < 0 || p >= n) {
        Fail("node " + std::to_string(t) + " pred " + std::to_string(p) +
             " is out of range");
      }
      if (p == t) {
        Fail("node " + std::to_string(t) + " depends on itself");
      }
    }
    if ((gate_group(t) >= 0) != (gate_rank(t) >= 0)) {
      Fail("node " + std::to_string(t) +
           " sets only one of gate_group/gate_rank");
    }
  }
  // Acyclicity (Kahn). Ids are mostly emission-ordered, but §5.1 chain
  // edges follow rank order and may point forward, so a topological
  // check — not an ordering check — is the real invariant.
  {
    std::vector<int> indegree(static_cast<std::size_t>(n), 0);
    std::vector<std::vector<NodeId>> succs(static_cast<std::size_t>(n));
    for (NodeId t = 0; t < n; ++t) {
      for (NodeId p : preds(t)) {
        succs[static_cast<std::size_t>(p)].push_back(t);
        ++indegree[static_cast<std::size_t>(t)];
      }
    }
    std::vector<NodeId> ready;
    for (NodeId t = 0; t < n; ++t) {
      if (indegree[static_cast<std::size_t>(t)] == 0) ready.push_back(t);
    }
    std::size_t visited = 0;
    while (!ready.empty()) {
      const NodeId t = ready.back();
      ready.pop_back();
      ++visited;
      for (NodeId s : succs[static_cast<std::size_t>(t)]) {
        if (--indegree[static_cast<std::size_t>(s)] == 0) ready.push_back(s);
      }
    }
    if (visited != static_cast<std::size_t>(n)) {
      Fail("dependency cycle through " +
           std::to_string(static_cast<std::size_t>(n) - visited) + " nodes");
    }
  }
}

std::string Module::DebugSummary() const {
  std::size_t per_kind[6] = {};
  for (std::size_t i = 0; i < size(); ++i) {
    per_kind[static_cast<std::size_t>(graph_.kind[i])]++;
  }
  std::ostringstream out;
  out << "ir::Module{stage=" << ToString(stage) << ", nodes=" << size()
      << ", jobs=" << jobs.size();
  if (stage == Stage::kMerged) {
    out << ", resources=" << num_resources << ", workers=" << total_workers
        << ", iterations=" << iterations;
  }
  out << ", kinds=[";
  const char* sep = "";
  for (int k = 0; k < 6; ++k) {
    if (per_kind[k] == 0) continue;
    out << sep << KindName(static_cast<core::OpKind>(k)) << ":" << per_kind[k];
    sep = " ";
  }
  out << "], pred_entries=" << graph_.pred_ids.size() << "}";
  return out.str();
}

}  // namespace tictac::ir
