#include "core/chunking.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/tic.h"
#include "models/builder.h"
#include "models/zoo.h"

namespace tictac::core {
namespace {

Graph TwoTransferGraph() {
  Graph g;
  g.AddRecv("big", 10 << 20, 0);    // 10 MiB
  g.AddRecv("small", 1 << 20, 1);   // 1 MiB
  const OpId c = g.AddCompute("c", 1.0);
  g.AddEdge(0, c);
  g.AddEdge(1, c);
  if (true) {
    const OpId pg = g.AddCompute("pg", 0.5);
    g.AddEdge(c, pg);
    const OpId s = g.AddSend("push", 10 << 20, 0);
    g.AddEdge(pg, s);
  }
  return g;
}

TEST(Chunking, SplitsOversizedTransfersOnly) {
  const Graph g = TwoTransferGraph();
  const Graph chunked = ChunkTransfers(g, {.max_chunk_bytes = 4 << 20});
  // big recv -> 3 chunks + concat; small recv untouched; send -> split + 3.
  EXPECT_EQ(chunked.RecvOps().size(), 4u);  // 3 chunks + small
  EXPECT_EQ(chunked.OpsOfKind(OpKind::kSend).size(), 3u);
  EXPECT_TRUE(chunked.IsAcyclic());
}

TEST(Chunking, PreservesTotalBytesAndParams) {
  const Graph g = TwoTransferGraph();
  const Graph chunked = ChunkTransfers(g, {.max_chunk_bytes = 3 << 20});
  EXPECT_EQ(chunked.TotalRecvBytes(), g.TotalRecvBytes());
  for (OpId r : chunked.RecvOps()) {
    EXPECT_LE(chunked.op(r).bytes, 3 << 20);
    EXPECT_GE(chunked.op(r).param, 0);
  }
}

TEST(Chunking, ChunkRecvsAreRootsAndFeedConcat) {
  const Graph g = TwoTransferGraph();
  const Graph chunked = ChunkTransfers(g, {.max_chunk_bytes = 4 << 20});
  for (OpId r : chunked.RecvOps()) {
    EXPECT_TRUE(chunked.preds(r).empty());
    ASSERT_EQ(chunked.succs(r).size(), 1u);
  }
  // Chunked sends are leaves.
  for (OpId s : chunked.OpsOfKind(OpKind::kSend)) {
    EXPECT_TRUE(chunked.succs(s).empty());
  }
}

TEST(Chunking, DisabledIsStructurePreserving) {
  const Graph g = TwoTransferGraph();
  const Graph same = ChunkTransfers(g, {.max_chunk_bytes = 0});
  EXPECT_EQ(same.size(), g.size());
  EXPECT_EQ(same.num_edges(), g.num_edges());
  EXPECT_EQ(same.TotalRecvBytes(), g.TotalRecvBytes());
}

TEST(Chunking, PreservesComputeCosts) {
  const Graph g = TwoTransferGraph();
  const Graph chunked = ChunkTransfers(g, {.max_chunk_bytes = 1 << 20});
  double cost_before = 0.0;
  double cost_after = 0.0;
  for (const Op& op : g.ops()) cost_before += op.cost;
  for (const Op& op : chunked.ops()) cost_after += op.cost;
  EXPECT_DOUBLE_EQ(cost_before, cost_after);
}

TEST(Chunking, SchedulableAfterRewrite) {
  const auto& info = models::FindModel("VGG-16");
  const Graph g = models::BuildWorkerGraph(info, {.training = true});
  const Graph chunked = ChunkTransfers(g, {.max_chunk_bytes = 8 << 20});
  EXPECT_GT(chunked.RecvOps().size(), g.RecvOps().size());
  const Schedule schedule = Tic(chunked);
  EXPECT_TRUE(schedule.CoversAllRecvs(chunked));
}

// The count a size budget is checked against before the rewrite must be
// the rewrite's own op count, including at the "off" sizes.
TEST(Chunking, ChunkedOpCountMatchesTheRewrite) {
  const Graph g = models::BuildWorkerGraph(models::FindModel("VGG-16"),
                                           {.training = true});
  for (const std::int64_t max :
       {std::int64_t{-1}, std::int64_t{0}, std::int64_t{1} << 20,
        std::int64_t{4} << 20, std::int64_t{1} << 40}) {
    const ChunkingOptions options{.max_chunk_bytes = max};
    EXPECT_EQ(ChunkedOpCount(g, options),
              static_cast<std::int64_t>(ChunkTransfers(g, options).size()))
        << max;
  }
  EXPECT_EQ(ChunkedOpCount(g, {.max_chunk_bytes = 0}),
            static_cast<std::int64_t>(g.size()));
}

TEST(Chunking, ChunkSizesNearEqual) {
  Graph g;
  g.AddRecv("r", 10, 0);
  const OpId c = g.AddCompute("c", 1.0);
  g.AddEdge(0, c);
  const Graph chunked = ChunkTransfers(g, {.max_chunk_bytes = 3});
  // ceil(10/3) = 4 chunks of sizes {3,3,2,2}.
  std::vector<std::int64_t> sizes;
  for (OpId r : chunked.RecvOps()) sizes.push_back(chunked.op(r).bytes);
  std::sort(sizes.begin(), sizes.end());
  EXPECT_EQ(sizes, (std::vector<std::int64_t>{2, 2, 3, 3}));
}

}  // namespace
}  // namespace tictac::core
