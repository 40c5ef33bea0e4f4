#include "core/chunking.h"

#include <limits>
#include <vector>

namespace tictac::core {
namespace {

// Splits `bytes` into near-equal chunks no larger than `max`.
std::vector<std::int64_t> SplitBytes(std::int64_t bytes, std::int64_t max) {
  const auto chunks =
      static_cast<std::int64_t>((bytes + max - 1) / max);
  std::vector<std::int64_t> sizes(static_cast<std::size_t>(chunks),
                                  bytes / chunks);
  for (std::int64_t i = 0; i < bytes % chunks; ++i) {
    sizes[static_cast<std::size_t>(i)] += 1;
  }
  return sizes;
}

}  // namespace

std::int64_t ChunkedOpCount(const Graph& graph,
                            const ChunkingOptions& options) {
  constexpr std::int64_t kSaturated = std::numeric_limits<std::int64_t>::max();
  const std::int64_t max = options.max_chunk_bytes;
  std::int64_t count = 0;
  for (const Op& op : graph.ops()) {
    // An oversized transfer becomes its chunks plus one concat or split.
    const std::int64_t ops =
        max > 0 && IsCommunication(op.kind) && op.bytes > max
            ? (op.bytes - 1) / max + 2
            : 1;
    if (ops > kSaturated - count) return kSaturated;
    count += ops;
  }
  return count;
}

Graph ChunkTransfers(const Graph& graph, const ChunkingOptions& options) {
  const std::int64_t max = options.max_chunk_bytes;
  Graph out;
  // For edge rewiring: the op a consumer should depend on (concat for
  // chunked recvs, the op itself otherwise), and the op a producer edge
  // should point at (split for chunked sends).
  std::vector<OpId> as_pred(graph.size(), kInvalidOp);
  std::vector<OpId> as_succ(graph.size(), kInvalidOp);

  for (const Op& op : graph.ops()) {
    const bool oversized =
        max > 0 && IsCommunication(op.kind) && op.bytes > max;
    if (!oversized) {
      Op copy = op;
      copy.id = kInvalidOp;
      const OpId id = out.AddOp(std::move(copy));
      as_pred[static_cast<std::size_t>(op.id)] = id;
      as_succ[static_cast<std::size_t>(op.id)] = id;
      continue;
    }
    const std::vector<std::int64_t> sizes = SplitBytes(op.bytes, max);
    if (op.kind == OpKind::kRecv) {
      // chunk recvs -> concat; consumers hang off the concat.
      const OpId concat = out.AddCompute(op.name + "/concat", 0.0);
      for (std::size_t c = 0; c < sizes.size(); ++c) {
        const OpId chunk = out.AddRecv(
            op.name + "/chunk" + std::to_string(c), sizes[c], op.param);
        out.AddEdge(chunk, concat);
      }
      as_pred[static_cast<std::size_t>(op.id)] = concat;
      as_succ[static_cast<std::size_t>(op.id)] = concat;  // recvs: no preds
    } else {
      // split -> chunk sends; producers feed the split.
      const OpId split = out.AddCompute(op.name + "/split", 0.0);
      for (std::size_t c = 0; c < sizes.size(); ++c) {
        const OpId chunk = out.AddSend(
            op.name + "/chunk" + std::to_string(c), sizes[c], op.param);
        out.AddEdge(split, chunk);
      }
      as_pred[static_cast<std::size_t>(op.id)] = split;  // sends: no succs
      as_succ[static_cast<std::size_t>(op.id)] = split;
    }
  }

  for (const Op& op : graph.ops()) {
    for (const OpId succ : graph.succs(op.id)) {
      out.AddEdge(as_pred[static_cast<std::size_t>(op.id)],
                  as_succ[static_cast<std::size_t>(succ)]);
    }
  }
  return out;
}

}  // namespace tictac::core
