// Differential tests: IncrementalProperties against the full Algorithm-1
// recompute, and the incremental TAC against the O(R²·V) reference
// implementation. The incremental path is only correct if it is
// *bit-identical* — M and P are float sums, and a last-ulp difference
// could flip the TacBefore comparator on a near-tie.
#include "core/incremental_properties.h"

#include <gtest/gtest.h>

#include "core/chunking.h"
#include "core/tac.h"
#include "models/builder.h"
#include "models/random_dag.h"
#include "models/zoo.h"

namespace tictac::core {
namespace {

using models::MakeRandomDag;
using models::RandomDagOptions;

// Bitwise property comparison (EXPECT_EQ on double is exact equality;
// kInfinity compares equal to itself).
void ExpectSameProps(const std::vector<RecvProperties>& full,
                     const std::vector<RecvProperties>& inc,
                     std::uint64_t seed, std::size_t step) {
  ASSERT_EQ(full.size(), inc.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].op, inc[i].op)
        << "recv " << i << " seed " << seed << " step " << step;
    EXPECT_EQ(full[i].M, inc[i].M)
        << "recv " << i << " seed " << seed << " step " << step;
    EXPECT_EQ(full[i].P, inc[i].P)
        << "recv " << i << " seed " << seed << " step " << step;
    EXPECT_EQ(full[i].Mplus, inc[i].Mplus)
        << "recv " << i << " seed " << seed << " step " << step;
  }
}

void ExpectSameSchedules(const Graph& g, const Schedule& a,
                         const Schedule& b) {
  for (const OpId r : g.RecvOps()) {
    EXPECT_EQ(a.priority(r), b.priority(r)) << "recv op " << r;
  }
}

// Every step of a TAC run: the incremental state's block-pruned BestRecv
// must pick what the flat fold over from-scratch UpdateProperties on the
// same outstanding set picks, and its properties must match those. The
// pick comes first, so it reads the full class's floor as CompleteRecv
// left it (stale); props() then resolves it. The trajectory is
// TacFullRecompute's own loop, so the final check — Tac() ranks the
// recvs in trajectory order — is Tac() == TacFullRecompute() without
// running the reference twice.
void ExpectMatchesFullRecomputeStepByStep(const Graph& g,
                                          const TimeOracle& oracle,
                                          std::uint64_t seed) {
  const PropertyIndex index(g);
  IncrementalProperties state(index, oracle);
  std::vector<bool> outstanding(index.recvs().size(), true);
  std::vector<std::size_t> order;
  for (std::size_t step = 0; step < index.recvs().size(); ++step) {
    const auto full = index.UpdateProperties(oracle, outstanding);
    int best = -1;
    for (std::size_t i = 0; i < outstanding.size(); ++i) {
      if (!outstanding[i]) continue;
      if (best < 0 ||
          TacBefore(full[i], full[static_cast<std::size_t>(best)])) {
        best = static_cast<int>(i);
      }
    }
    ASSERT_GE(best, 0);
    ASSERT_EQ(state.BestRecv(), best) << "seed " << seed << " step " << step;
    ExpectSameProps(full, state.props(), seed, step);
    outstanding[static_cast<std::size_t>(best)] = false;
    state.CompleteRecv(static_cast<std::size_t>(best));
    order.push_back(static_cast<std::size_t>(best));
  }
  EXPECT_EQ(state.remaining(), 0u);
  const Schedule tac = Tac(index, oracle);
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    EXPECT_EQ(tac.priority(index.recvs()[order[rank]]),
              static_cast<int>(rank))
        << "seed " << seed;
  }
}

// Whether some class's dep set is every recv (a common sink's): the
// class whose M is the lazily resolved M+ floor.
bool HasFullClass(const PropertyIndex& index) {
  for (std::size_t c = 0; c < index.num_classes(); ++c) {
    if (index.class_recvs(c).size() == index.recvs().size()) return true;
  }
  return false;
}

TEST(IncrementalProperties, MatchesFullRecomputeStepByStepOnRandomDags) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    RandomDagOptions options;
    options.num_recvs = 3 + static_cast<int>(seed % 13);
    options.num_computes = 6 + static_cast<int>((seed * 7) % 25);
    options.num_layers = 1 + static_cast<int>(seed % 5);
    options.edge_probability = 0.1 + 0.05 * static_cast<double>(seed % 10);
    options.with_sends = seed % 2 == 0;  // sends depend on *every* recv
    const Graph g = MakeRandomDag(options, seed);
    ASSERT_TRUE(HasFullClass(PropertyIndex(g))) << "seed " << seed;
    ExpectMatchesFullRecomputeStepByStep(
        g, AnalyticalTimeOracle{PlatformModel{}}, seed);
  }
}

// TAC's own loop (BestRecv, CompleteRecv), never calling props(), so the
// floor is resolved only where a verdict needs it; returns the number of
// exact resolves and checks the order against Tac().
std::size_t FloorResolvesOverTacRun(const Graph& g, const TimeOracle& oracle) {
  const PropertyIndex index(g);
  IncrementalProperties state(index, oracle);
  const Schedule tac = Tac(index, oracle);
  for (int rank = 0; state.remaining() > 0; ++rank) {
    const int best = state.BestRecv();
    EXPECT_EQ(tac.priority(index.recvs()[static_cast<std::size_t>(best)]),
              rank);
    state.CompleteRecv(static_cast<std::size_t>(best));
  }
  return state.floor_resolves();
}

// The resolve count is deterministic, so it is pinned: a change in when
// the lower bound settles a floor verdict shows up here even when the
// schedule does not move. Neither this random DAG nor the zoo graphs
// ever need the floor's exact value.
TEST(IncrementalProperties, FloorResolvesOnlyWhenAVerdictNeedsIt) {
  RandomDagOptions options;
  options.num_recvs = 2000;
  options.num_computes = 4000;
  options.num_layers = 8;
  options.edge_probability = 0.05;
  EXPECT_EQ(FloorResolvesOverTacRun(MakeRandomDag(options, 1),
                                    AnalyticalTimeOracle{PlatformModel{}}),
            0u);
  const AnalyticalTimeOracle oracle{PlatformModel{}};
  for (const char* model :
       {"AlexNet v2", "Inception v3", "ResNet-101 v2", "VGG-16"}) {
    EXPECT_EQ(FloorResolvesOverTacRun(
                  models::BuildWorkerGraph(models::FindModel(model),
                                           {.training = true}),
                  oracle),
              0u)
        << model;
  }
}

// Real models, where many ops share one dep class (Inception v3
// training: 3,475 multi-dep ops in 123 classes), so the per-class count,
// M and M+ updates are what carries the state — random DAGs share few.
// This is also the zoo's Tac() == TacFullRecompute() check.
TEST(IncrementalProperties, MatchesFullRecomputeStepByStepOnZooModels) {
  const AnalyticalTimeOracle oracle{PlatformModel{}};
  for (const auto& info : models::ModelZoo()) {
    for (const bool training : {false, true}) {
      SCOPED_TRACE(info.name + (training ? " training" : " inference"));
      ExpectMatchesFullRecomputeStepByStep(
          models::BuildWorkerGraph(info, {.training = training}), oracle, 0);
    }
  }
}

TEST(IncrementalProperties, MatchesFullRecomputeStepByStepOnChunkedGraph) {
  const Graph g = models::BuildWorkerGraph(models::FindModel("VGG-16"),
                                           {.training = true});
  ExpectMatchesFullRecomputeStepByStep(
      ChunkTransfers(g, {.max_chunk_bytes = 4 << 20}),
      AnalyticalTimeOracle{PlatformModel{}}, 0);
}

// Per-op noisy times break the exact ties of the analytical costs, so M
// and P sums see distinct summands on every class.
TEST(IncrementalProperties, MatchesFullRecomputeStepByStepUnderNoisyOracle) {
  const AnalyticalTimeOracle base{PlatformModel{}};
  const Graph g = models::BuildWorkerGraph(models::FindModel("Inception v3"),
                                           {.training = true});
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const NoisyTimeOracle oracle(base, /*sigma=*/0.3, seed);
    ExpectMatchesFullRecomputeStepByStep(g, oracle, seed);
  }
}

// Two disjoint random DAGs side by side: two common sinks and no class
// whose dep set is every recv, so no M+ is ever read through the floor.
Graph TwoSinkDag(const RandomDagOptions& options, std::uint64_t seed) {
  Graph g;
  for (const std::uint64_t part_seed : {seed, seed + 1000}) {
    const Graph part = MakeRandomDag(options, part_seed);
    const auto base = static_cast<OpId>(g.size());
    for (const Op& op : part.ops()) g.AddOp(op);
    for (const Op& op : part.ops()) {
      for (const OpId succ : part.succs(op.id)) {
        g.AddEdge(base + op.id, base + succ);
      }
    }
  }
  return g;
}

TEST(IncrementalProperties, MatchesFullRecomputeStepByStepWithTwoSinks) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    RandomDagOptions options;
    options.num_recvs = 3 + static_cast<int>(seed % 11);
    options.num_computes = 6 + static_cast<int>((seed * 7) % 19);
    options.num_layers = 1 + static_cast<int>(seed % 4);
    options.with_sends = seed % 2 == 0;
    const Graph g = TwoSinkDag(options, seed);
    const PropertyIndex index(g);
    for (std::size_t c = 0; c < index.num_classes(); ++c) {
      ASSERT_LT(index.class_recvs(c).size(), index.recvs().size());
    }
    ExpectMatchesFullRecomputeStepByStep(
        g, AnalyticalTimeOracle{PlatformModel{}}, seed);
  }
}

// The floor decides an exact M+ tie: X needs {b, c}, the sink Y needs
// {a, b, c}, and a takes no time, so Y.M == X.M. Every P is 0, so Eq. 6
// ties everywhere; a's M+ is Y.M only through the floor, b's and c's are
// X.M == Y.M, and the op-id tie-break must then pick a first. Reading
// a's M+ without the floor (+inf) would pick b.
TEST(IncrementalProperties, FullClassFloorDecidesExactMplusTie) {
  Graph g;
  const OpId a = g.AddRecv("a", 0);
  const OpId b = g.AddRecv("b", 0);
  const OpId c = g.AddRecv("c", 0);
  const OpId x = g.AddCompute("X", 1.0);
  const OpId y = g.AddCompute("Y", 1.0);
  g.AddEdge(b, x);
  g.AddEdge(c, x);
  g.AddEdge(x, y);
  g.AddEdge(a, y);
  const MapTimeOracle oracle({{a, 0.0}, {b, 1.0}, {c, 2.0}});
  ExpectMatchesFullRecomputeStepByStep(g, oracle, 0);
  EXPECT_EQ(Tac(g, oracle).priority(a), 0);
}

// Recvs r0 < r1 < … < r4 < z by op id. X needs r1..r4, so their stored
// M+ is X.M = 4; r0's only multi-dep class is the full one (the sink Y
// needs every recv), so its M+ reads the floor F = M(r0..r4) once z is
// gone. z has a private consumer (P > 0), so it goes first and leaves
// the floor stale; then every P is 0, Eq. 6 ties everywhere, and r0 —
// the running best from the start of the fold — keeps its place against
// r1 only if 4 < F is false, i.e. F == 4 exactly. With t0 = 1e-30 the term is absorbed
// and F == 4, so the op-id tie-break keeps r0. With t0 = 2^-50 it is
// not, F == 4 + 2^-50, and r1 goes second (as do r2, r3 in the next
// rounds, each an s == F − 2^-50 question). Each time s lies above the
// floor's lower bound, so only the exact resolve decides; the last exact
// value (5 + t0, z included) would wrongly put 4 below the floor.
TEST(IncrementalProperties, FloorResolvesAbsorbedTermTieExactly) {
  struct Case {
    double t0;
    bool absorbed;
    std::size_t resolves;
  };
  for (const Case& tc : {Case{1e-30, true, 1}, Case{0x1p-50, false, 3}}) {
    const double t0 = tc.t0;
    SCOPED_TRACE(t0);
    Graph g;
    const OpId r0 = g.AddRecv("r0", 0);
    std::vector<OpId> r;
    for (int i = 1; i <= 4; ++i) {
      r.push_back(g.AddRecv("r" + std::to_string(i), 0));
    }
    const OpId z = g.AddRecv("z", 0);
    const OpId x = g.AddCompute("X", 1.0);
    const OpId zc = g.AddCompute("Z", 1.0);
    const OpId y = g.AddCompute("Y", 1.0);
    for (const OpId ri : r) g.AddEdge(ri, x);
    g.AddEdge(z, zc);
    g.AddEdge(x, y);
    g.AddEdge(zc, y);
    g.AddEdge(r0, y);
    const MapTimeOracle oracle({{r0, t0},
                                {r[0], 1.0},
                                {r[1], 1.0},
                                {r[2], 1.0},
                                {r[3], 1.0},
                                {z, 1.0},
                                {zc, 1.0}});
    ExpectMatchesFullRecomputeStepByStep(g, oracle, 0);
    const Schedule tac = Tac(g, oracle);
    EXPECT_EQ(tac.priority(z), 0);
    EXPECT_EQ(tac.priority(tc.absorbed ? r0 : r[0]), 1);
    EXPECT_EQ(FloorResolvesOverTacRun(g, oracle), tc.resolves);
  }
}

// `base`'s times, except that every third recv (by op id) takes `value`.
class RecvOverrideOracle final : public TimeOracle {
 public:
  RecvOverrideOracle(const TimeOracle& base, double value)
      : base_(base), value_(value) {}
  double Time(const Graph& graph, OpId op) const override {
    if (graph.op(op).kind == OpKind::kRecv && op % 3 == 0) return value_;
    return base_.Time(graph, op);
  }

 private:
  const TimeOracle& base_;
  double value_;
};

// Zero-time recvs leave a class's M unchanged when they complete and
// make exact M ties, the edge of the floor's monotonicity argument.
TEST(IncrementalProperties, MatchesFullRecomputeStepByStepWithZeroTimeRecvs) {
  const AnalyticalTimeOracle base{PlatformModel{}};
  const RecvOverrideOracle oracle(base, 0.0);
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    RandomDagOptions options;
    options.num_recvs = 3 + static_cast<int>(seed % 13);
    options.num_computes = 6 + static_cast<int>((seed * 7) % 25);
    options.num_layers = 1 + static_cast<int>(seed % 5);
    options.with_sends = seed % 2 == 0;
    const Graph g = MakeRandomDag(options, seed);
    ASSERT_TRUE(IncrementalProperties::Supports(PropertyIndex(g), oracle));
    ExpectMatchesFullRecomputeStepByStep(g, oracle, seed);
  }
  ExpectMatchesFullRecomputeStepByStep(
      models::BuildWorkerGraph(models::FindModel("AlexNet v2"),
                               {.training = true}),
      oracle, 0);
}

// A negative or non-finite recv time breaks the premise that a class's M
// never increases, so Tac() must take the full recompute.
TEST(IncrementalProperties, NegativeOrNonFiniteRecvTimesFallBackToReference) {
  const AnalyticalTimeOracle base{PlatformModel{}};
  for (const double value : {-1e-3, kInfinity}) {
    const RecvOverrideOracle oracle(base, value);
    for (std::uint64_t seed = 300; seed < 320; ++seed) {
      RandomDagOptions options;
      options.num_recvs = 4 + static_cast<int>(seed % 13);
      options.num_computes = 8 + static_cast<int>(seed % 23);
      options.num_layers = 2 + static_cast<int>(seed % 4);
      const Graph g = MakeRandomDag(options, seed);
      const PropertyIndex index(g);
      EXPECT_FALSE(IncrementalProperties::Supports(index, oracle));
      ExpectSameSchedules(g, Tac(index, oracle),
                          TacFullRecompute(index, oracle));
    }
  }
}

TEST(IncrementalProperties, TacSchedulesBitIdenticalOnRandomDags) {
  for (std::uint64_t seed = 100; seed < 150; ++seed) {
    RandomDagOptions options;
    options.num_recvs = 4 + static_cast<int>(seed % 17);
    options.num_computes = 8 + static_cast<int>(seed % 31);
    options.num_layers = 2 + static_cast<int>(seed % 4);
    options.with_sends = seed % 3 == 0;
    const Graph g = MakeRandomDag(options, seed);
    const PropertyIndex index(g);
    const AnalyticalTimeOracle oracle{PlatformModel{}};
    ExpectSameSchedules(g, Tac(index, oracle),
                        TacFullRecompute(index, oracle));
  }
}

// The structural oracle produces masses of exact ties, stressing the
// M+/op-id tie-break path rather than the float sums.
TEST(IncrementalProperties, TacSchedulesBitIdenticalUnderGeneralOracle) {
  for (std::uint64_t seed = 200; seed < 220; ++seed) {
    RandomDagOptions options;
    options.num_recvs = 5 + static_cast<int>(seed % 11);
    options.num_computes = 10 + static_cast<int>(seed % 21);
    const Graph g = MakeRandomDag(options, seed);
    const PropertyIndex index(g);
    const GeneralTimeOracle oracle;
    ExpectSameSchedules(g, Tac(index, oracle),
                        TacFullRecompute(index, oracle));
  }
}

// Graph::AddEdge permits edges into a recv, giving it a recv ancestor —
// outside the invariant the incremental state assumes (a recv's M would
// shrink as ancestors complete). Tac() must detect this and stay
// bit-identical by routing through the full recompute.
TEST(IncrementalProperties, RecvWithRecvAncestorFallsBackToReference) {
  Graph g;
  const OpId r0 = g.AddRecv("r0", 100);
  const OpId c0 = g.AddCompute("c0", 1.0);
  const OpId r1 = g.AddRecv("r1", 200);  // depends on r0 through c0
  const OpId c1 = g.AddCompute("c1", 2.0);
  g.AddEdge(r0, c0);
  g.AddEdge(c0, r1);
  g.AddEdge(r1, c1);
  const PropertyIndex index(g);
  EXPECT_FALSE(index.recvs_are_roots());
  EXPECT_FALSE(IncrementalProperties::Supports(
      index, AnalyticalTimeOracle{PlatformModel{}}));
  const AnalyticalTimeOracle oracle{PlatformModel{}};
  ExpectSameSchedules(g, Tac(index, oracle), TacFullRecompute(index, oracle));
}

TEST(IncrementalProperties, RootRecvsReportedAsRoots) {
  const Graph g = MakeRandomDag({}, 3);
  EXPECT_TRUE(PropertyIndex(g).recvs_are_roots());
}

}  // namespace
}  // namespace tictac::core
