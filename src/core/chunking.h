// Transfer chunking: split large tensors into bounded-size slices.
//
// TicTac orders whole-tensor transfers; once a multi-hundred-megabyte
// tensor occupies the channel it cannot be preempted, so a late-arriving
// higher-priority transfer waits for the full residual (head-of-line
// blocking). The successor line of work (P3, ByteScheduler) splits
// tensors into chunks so priority decisions apply at chunk granularity.
// ChunkTransfers rewrites a worker graph accordingly; the scheduling
// algorithms and the runtime work on the rewritten graph unchanged.
#pragma once

#include <cstdint>

#include "core/graph.h"

namespace tictac::core {

struct ChunkingOptions {
  // Transfers larger than this are split into ceil(bytes / max) chunks.
  // <= 0 disables chunking (ChunkTransfers becomes the identity copy).
  std::int64_t max_chunk_bytes = 4ll << 20;
};

// The number of ops ChunkTransfers(graph, options) returns, counted in
// O(V) without building it (saturating at INT64_MAX), so a caller can
// check a size budget before a tiny chunk size multiplies the graph.
std::int64_t ChunkedOpCount(const Graph& graph,
                            const ChunkingOptions& options);

// Returns a graph where every oversized recv is replaced by chunk recvs
// feeding a zero-cost concat compute, and every oversized send by a
// zero-cost split compute feeding chunk sends. Chunk ops inherit the
// original op's param index (they shard to the same PS). All other ops,
// costs and edges are preserved; op ids are NOT stable across the
// rewrite.
Graph ChunkTransfers(const Graph& graph, const ChunkingOptions& options);

}  // namespace tictac::core
