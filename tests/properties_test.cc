#include "core/properties.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/chunking.h"
#include "models/builder.h"
#include "models/random_dag.h"
#include "models/zoo.h"

namespace tictac::core {
namespace {

// Figure 1a: recv1 -> op1 -> op2, recv2 -> op2.
struct Fig1a {
  Graph g;
  OpId recv1, recv2, op1, op2;
  Fig1a(double t_r1 = 1.0, double t_r2 = 1.0, double t_o1 = 1.0,
        double t_o2 = 1.0) {
    recv1 = g.AddRecv("recv1", 0);
    recv2 = g.AddRecv("recv2", 0);
    op1 = g.AddCompute("op1", t_o1);
    op2 = g.AddCompute("op2", t_o2);
    g.AddEdge(recv1, op1);
    g.AddEdge(op1, op2);
    g.AddEdge(recv2, op2);
    oracle.Set(recv1, t_r1);
    oracle.Set(recv2, t_r2);
    oracle.Set(op1, t_o1);
    oracle.Set(op2, t_o2);
  }
  MapTimeOracle oracle{{}};
};

TEST(PropertyIndex, CommunicationDependenciesFig1a) {
  Fig1a f;
  PropertyIndex index(f.g);
  ASSERT_EQ(index.recvs().size(), 2u);
  // op1.dep = {recv1}; op2.dep = {recv1, recv2} (transitive through op1).
  using Deps = std::vector<std::uint32_t>;
  const auto dep = [&](OpId op) {
    return Deps(index.dep(op).begin(), index.dep(op).end());
  };
  EXPECT_EQ(dep(f.op1), Deps{0});
  EXPECT_EQ(dep(f.op2), (Deps{0, 1}));
  // A recv depends on itself.
  EXPECT_EQ(dep(f.recv1), Deps{0});
}

TEST(PropertyIndex, TransitiveDependenciesOnChain) {
  // recv0 -> c0 -> c1 -> c2, recv1 -> c1, recv2 -> c2.
  Graph g;
  const OpId r0 = g.AddRecv("r0", 0);
  const OpId r1 = g.AddRecv("r1", 0);
  const OpId r2 = g.AddRecv("r2", 0);
  const OpId c0 = g.AddCompute("c0", 1);
  const OpId c1 = g.AddCompute("c1", 1);
  const OpId c2 = g.AddCompute("c2", 1);
  g.AddEdge(r0, c0);
  g.AddEdge(c0, c1);
  g.AddEdge(r1, c1);
  g.AddEdge(c1, c2);
  g.AddEdge(r2, c2);
  PropertyIndex index(g);
  EXPECT_EQ(index.dep(c0).size(), 1u);
  EXPECT_EQ(index.dep(c1).size(), 2u);
  EXPECT_EQ(index.dep(c2).size(), 3u);
}

TEST(PropertyIndex, ClassOpsOfFig1a) {
  Fig1a f;
  PropertyIndex index(f.g);
  // Classes {recv1} = {recv1, op1}, {recv2} = {recv2}, {recv1, recv2} =
  // {op2}; each row in op id order.
  using Ops = std::vector<OpId>;
  const auto ops_of = [&](OpId op) {
    const auto row = index.class_ops(index.dep_class(op));
    return Ops(row.begin(), row.end());
  };
  EXPECT_EQ(ops_of(f.recv1), (Ops{f.recv1, f.op1}));
  EXPECT_EQ(ops_of(f.recv2), Ops{f.recv2});
  EXPECT_EQ(ops_of(f.op2), Ops{f.op2});
  EXPECT_EQ(index.num_classes(), 3u);
}

// Dependency classes against an independent oracle: every op's dep set
// rebuilt naively as a per-op union of its preds' sets, with no
// interning. UpdateProperties (the reference TAC is tested against) reads
// the class sets too, so a wrong class would fool both sides of
// Tac() == TacFullRecompute(); this pins the classes on their own, and
// the class -> ops rows IncrementalProperties walks against the naive
// per-op consumer transpose. Returns the number of classes with two or
// more deps.
std::size_t ExpectClassesMatchNaiveDeps(const Graph& g,
                                        const std::string& what) {
  SCOPED_TRACE(what);
  const PropertyIndex index(g);
  const std::size_t R = index.recvs().size();
  std::vector<std::vector<bool>> naive(g.size(), std::vector<bool>(R));
  for (const OpId id : g.TopologicalOrder()) {
    auto& set = naive[static_cast<std::size_t>(id)];
    for (const OpId pred : g.preds(id)) {
      const auto& from = naive[static_cast<std::size_t>(pred)];
      for (std::size_t r = 0; r < R; ++r) set[r] = set[r] || from[r];
    }
    if (index.recv_index(id) >= 0) {
      set[static_cast<std::size_t>(index.recv_index(id))] = true;
    }
  }

  std::map<std::vector<bool>, std::size_t> class_of_set;
  std::map<std::size_t, std::vector<bool>> set_of_class;
  for (std::size_t id = 0; id < g.size(); ++id) {
    const auto op = static_cast<OpId>(id);
    const std::vector<bool>& want = naive[id];
    std::vector<bool> got(R);
    for (const std::uint32_t r : index.dep(op)) got[r] = true;
    EXPECT_EQ(got, want) << "op " << id;
    // Same class <=> same naive set, in both directions.
    const std::size_t c = index.dep_class(op);
    EXPECT_LT(c, index.num_classes());
    EXPECT_EQ(class_of_set.emplace(want, c).first->second, c) << "op " << id;
    EXPECT_EQ(set_of_class.emplace(c, want).first->second, want)
        << "op " << id;
  }
  EXPECT_EQ(set_of_class.size(), index.num_classes());
  // Ids are numbered by first appearance in topological order.
  std::size_t next_class = 0;
  for (const OpId id : g.TopologicalOrder()) {
    const std::size_t c = index.dep_class(id);
    EXPECT_LE(c, next_class) << "op " << id;
    if (c == next_class) ++next_class;
  }

  // The CSR views agree with the class sets.
  std::size_t multi = 0;
  std::vector<std::vector<std::uint32_t>> multi_of_recv(R);
  for (const auto& [c, set] : set_of_class) {
    std::vector<std::uint32_t> members;
    for (std::size_t r = 0; r < R; ++r) {
      if (set[r]) members.push_back(static_cast<std::uint32_t>(r));
    }
    const auto row = index.class_recvs(c);
    EXPECT_EQ(std::vector<std::uint32_t>(row.begin(), row.end()), members)
        << "class " << c;
    if (members.size() < 2) continue;
    ++multi;
    for (const std::uint32_t r : members) {
      multi_of_recv[r].push_back(static_cast<std::uint32_t>(c));
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    const auto row = index.multi_dep_classes(r);
    EXPECT_EQ(std::vector<std::uint32_t>(row.begin(), row.end()),
              multi_of_recv[r])
        << "recv " << r;
  }

  // The class -> ops CSR: each op once, in the row of its class, rows in
  // op id order; and the rows of the classes holding recv r, merged, are
  // the naive per-op consumer transpose of r.
  std::vector<std::vector<OpId>> naive_consumers(R);
  for (std::size_t id = 0; id < g.size(); ++id) {
    for (std::size_t r = 0; r < R; ++r) {
      if (naive[id][r]) naive_consumers[r].push_back(static_cast<OpId>(id));
    }
  }
  std::vector<std::vector<OpId>> consumers(R);
  std::size_t total_ops = 0;
  for (std::size_t c = 0; c < index.num_classes(); ++c) {
    const auto row = index.class_ops(c);
    total_ops += row.size();
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end())) << "class " << c;
    for (const OpId id : row) {
      EXPECT_EQ(index.dep_class(id), c) << "op " << id;
      for (const std::uint32_t r : index.class_recvs(c)) {
        consumers[r].push_back(id);
      }
    }
  }
  EXPECT_EQ(total_ops, g.size());
  for (std::size_t r = 0; r < R; ++r) {
    std::sort(consumers[r].begin(), consumers[r].end());
    EXPECT_EQ(consumers[r], naive_consumers[r]) << "recv " << r;
  }
  return multi;
}

TEST(PropertyIndex, ClassesMatchNaiveDepSetsOnZooModels) {
  for (const auto& info : models::ModelZoo()) {
    for (const bool training : {false, true}) {
      const Graph g = models::BuildWorkerGraph(info, {.training = training});
      const std::size_t multi = ExpectClassesMatchNaiveDeps(
          g, info.name + (training ? " training" : " inference"));
      if (info.name == "Inception v3" && training) {
        EXPECT_EQ(multi, 123u);
      }
    }
  }
}

TEST(PropertyIndex, ClassesMatchNaiveDepSetsOnChunkedGraph) {
  const Graph g = models::BuildWorkerGraph(models::FindModel("VGG-16"),
                                           {.training = true});
  const Graph chunked = ChunkTransfers(g, {.max_chunk_bytes = 4 << 20});
  ASSERT_GT(chunked.RecvOps().size(), g.RecvOps().size());
  ExpectClassesMatchNaiveDeps(chunked, "VGG-16 chunked");
}

TEST(PropertyIndex, ClassesMatchNaiveDepSetsOnRandomDags) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    models::RandomDagOptions options;
    options.num_recvs = 3 + static_cast<int>(seed % 29);
    options.num_computes = 6 + static_cast<int>((seed * 7) % 61);
    options.num_layers = 1 + static_cast<int>(seed % 5);
    options.edge_probability = 0.1 + 0.05 * static_cast<double>(seed % 10);
    options.with_sends = seed % 2 == 0;
    ExpectClassesMatchNaiveDeps(models::MakeRandomDag(options, seed),
                                "seed " + std::to_string(seed));
  }
}

TEST(UpdateProperties, Fig1aPaperValues) {
  // The paper's worked example: op1.M = Time(recv1), op2.M = Time(recv1)
  // + Time(recv2), recv1.P = Time(op1), recv2.P = 0, and both recvs' M+
  // equal op2.M.
  Fig1a f(/*t_r1=*/2.0, /*t_r2=*/3.0, /*t_o1=*/5.0, /*t_o2=*/7.0);
  PropertyIndex index(f.g);
  std::vector<double> op_M;
  const auto props =
      index.UpdateProperties(f.oracle, {true, true}, &op_M);

  EXPECT_DOUBLE_EQ(op_M[static_cast<std::size_t>(f.op1)], 2.0);
  EXPECT_DOUBLE_EQ(op_M[static_cast<std::size_t>(f.op2)], 5.0);

  const auto& p1 = props[0];
  const auto& p2 = props[1];
  EXPECT_EQ(p1.op, f.recv1);
  EXPECT_DOUBLE_EQ(p1.M, 2.0);
  EXPECT_DOUBLE_EQ(p1.P, 5.0);      // only op1 activates with recv1 alone
  EXPECT_DOUBLE_EQ(p2.P, 0.0);      // nothing runs with recv2 alone
  EXPECT_DOUBLE_EQ(p1.Mplus, 5.0);  // op2.M, includes recv1's own time
  EXPECT_DOUBLE_EQ(p2.Mplus, 5.0);
}

TEST(UpdateProperties, CompletedRecvShiftsProperties) {
  Fig1a f(2.0, 3.0, 5.0, 7.0);
  PropertyIndex index(f.g);
  // recv1 already transferred: only recv2 outstanding.
  const auto props = index.UpdateProperties(f.oracle, {false, true});
  EXPECT_EQ(props[0].op, kInvalidOp);  // completed recvs carry no props
  const auto& p2 = props[1];
  EXPECT_DOUBLE_EQ(p2.M, 3.0);
  // op2 now depends only on recv2, so it contributes to P, not M+.
  EXPECT_DOUBLE_EQ(p2.P, 7.0);
  EXPECT_EQ(p2.Mplus, kInfinity);
}

TEST(UpdateProperties, GeneralOracleCountsTransfers) {
  Fig1a f;
  PropertyIndex index(f.g);
  GeneralTimeOracle oracle;
  std::vector<double> op_M;
  const auto props = index.UpdateProperties(oracle, {true, true}, &op_M);
  // Under Eq. 5, M counts outstanding recv dependencies.
  EXPECT_DOUBLE_EQ(op_M[static_cast<std::size_t>(f.op2)], 2.0);
  EXPECT_DOUBLE_EQ(props[0].P, 0.0);  // compute ops cost 0
  EXPECT_DOUBLE_EQ(props[0].Mplus, 2.0);
}

TEST(UpdateProperties, Case2MplusOrdering) {
  // Constructed per §4.3 Case 2: with every P = 0, M+ must order
  // A = B < C < D.
  Graph g;
  const OpId a = g.AddRecv("A", 0);
  const OpId b = g.AddRecv("B", 0);
  const OpId c = g.AddRecv("C", 0);
  const OpId d = g.AddRecv("D", 0);
  const OpId opX = g.AddCompute("opX", 1);  // needs A, B
  const OpId opY = g.AddCompute("opY", 1);  // needs B, C
  const OpId opZ = g.AddCompute("opZ", 1);  // needs C, D
  g.AddEdge(a, opX);
  g.AddEdge(b, opX);
  g.AddEdge(b, opY);
  g.AddEdge(c, opY);
  g.AddEdge(c, opZ);
  g.AddEdge(d, opZ);
  MapTimeOracle oracle({{a, 1.0}, {b, 1.0}, {c, 3.0}, {d, 5.0}});
  PropertyIndex index(g);
  const auto props =
      index.UpdateProperties(oracle, {true, true, true, true});
  EXPECT_DOUBLE_EQ(props[0].Mplus, 2.0);  // A: opX needs A+B
  EXPECT_DOUBLE_EQ(props[1].Mplus, 2.0);  // B: min(opX, opY) = 2
  EXPECT_DOUBLE_EQ(props[2].Mplus, 4.0);  // C: min(opY=4, opZ=8)
  EXPECT_DOUBLE_EQ(props[3].Mplus, 8.0);  // D: opZ
  for (const auto& p : props) EXPECT_DOUBLE_EQ(p.P, 0.0);
}

TEST(UpdateProperties, RecvOwnMIsItsTransferTime) {
  Fig1a f(2.0, 3.0, 5.0, 7.0);
  PropertyIndex index(f.g);
  const auto props = index.UpdateProperties(f.oracle, {true, true});
  EXPECT_DOUBLE_EQ(props[0].M, 2.0);
  EXPECT_DOUBLE_EQ(props[1].M, 3.0);
}

}  // namespace
}  // namespace tictac::core
