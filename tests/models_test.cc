#include "models/builder.h"
#include "models/topology.h"
#include "models/zoo.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <stdexcept>
#include <string>

namespace tictac::models {
namespace {

using core::Graph;
using core::OpId;
using core::OpKind;

TEST(Zoo, HasAllTenTable1Models) {
  const auto& zoo = ModelZoo();
  ASSERT_EQ(zoo.size(), 10u);
  EXPECT_EQ(zoo.front().name, "AlexNet v2");
  EXPECT_EQ(zoo.back().name, "VGG-19");
}

TEST(Zoo, FindModelByNameAndUnknownThrows) {
  EXPECT_EQ(FindModel("VGG-16").num_params, 32);
  EXPECT_THROW(FindModel("LeNet"), std::out_of_range);
}

TEST(Zoo, Table1CharacteristicsMatchPaper) {
  struct Row {
    const char* name;
    int params;
    double mib;
    int inf;
    int train;
    int batch;
  };
  // Table 1 of the paper, verbatim.
  const Row rows[] = {
      {"AlexNet v2", 16, 191.89, 235, 483, 512},
      {"Inception v1", 116, 25.24, 1114, 2246, 128},
      {"Inception v2", 141, 42.64, 1369, 2706, 128},
      {"Inception v3", 196, 103.54, 1904, 3672, 32},
      {"ResNet-50 v1", 108, 97.39, 1114, 2096, 32},
      {"ResNet-101 v1", 210, 169.74, 2083, 3898, 64},
      {"ResNet-50 v2", 125, 97.45, 1423, 2813, 64},
      {"ResNet-101 v2", 244, 169.86, 2749, 5380, 32},
      {"VGG-16", 32, 527.79, 388, 758, 32},
      {"VGG-19", 38, 548.05, 442, 857, 32},
  };
  for (const Row& row : rows) {
    const ModelInfo& info = FindModel(row.name);
    EXPECT_EQ(info.num_params, row.params) << row.name;
    EXPECT_DOUBLE_EQ(info.total_param_mib, row.mib) << row.name;
    EXPECT_EQ(info.ops_inference, row.inf) << row.name;
    EXPECT_EQ(info.ops_training, row.train) << row.name;
    EXPECT_EQ(info.standard_batch, row.batch) << row.name;
  }
}

TEST(ParamSizes, ExactCountAndTotal) {
  for (const ModelInfo& info : ModelZoo()) {
    const auto sizes = ParamSizes(info);
    ASSERT_EQ(sizes.size(), static_cast<std::size_t>(info.num_params))
        << info.name;
    std::int64_t total = 0;
    for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
      EXPECT_GT(sizes[i], 0) << info.name;
      EXPECT_EQ(sizes[i] % 4, 0) << info.name;
      total += sizes[i];
    }
    total += sizes.back();
    EXPECT_EQ(total, info.total_param_bytes()) << info.name;
  }
}

TEST(ParamSizes, ProfileIsNonDecreasingTail) {
  // Back-heavy chain models: the classifier parameters dominate.
  const auto sizes = ParamSizes(FindModel("VGG-16"));
  EXPECT_GT(sizes.back(), sizes.front() * 10);
}

TEST(ParamSizes, Deterministic) {
  const auto& info = FindModel("ResNet-50 v2");
  EXPECT_EQ(ParamSizes(info), ParamSizes(info));
}

class BuilderTest : public ::testing::TestWithParam<
                        std::tuple<std::string, bool>> {};

TEST_P(BuilderTest, MatchesTable1AndStructuralInvariants) {
  const auto& [name, training] = GetParam();
  const ModelInfo& info = FindModel(name);
  const Graph g = BuildWorkerGraph(info, {.training = training});

  // Op count matches Table 1 exactly.
  EXPECT_EQ(static_cast<int>(g.size()),
            training ? info.ops_training : info.ops_inference);

  // One recv per parameter, with exact byte totals.
  const auto recvs = g.RecvOps();
  EXPECT_EQ(static_cast<int>(recvs.size()), info.num_params);
  EXPECT_EQ(g.TotalRecvBytes(), info.total_param_bytes());

  // Sends exist only in training, one per parameter.
  const auto sends = g.OpsOfKind(OpKind::kSend);
  EXPECT_EQ(sends.size(), training ? recvs.size() : 0u);

  // DAG sanity.
  EXPECT_TRUE(g.IsAcyclic());

  // Recvs are roots; sends are leaves (§2.2).
  for (OpId r : recvs) EXPECT_TRUE(g.preds(r).empty());
  for (OpId s : sends) EXPECT_TRUE(g.succs(s).empty());

  // Every recv is consumed by some compute.
  for (OpId r : recvs) EXPECT_FALSE(g.succs(r).empty());

  // Positive compute cost overall.
  double cost = 0.0;
  for (const core::Op& op : g.ops()) cost += op.cost;
  EXPECT_GT(cost, 0.0);

  // Distinct param indices on recvs.
  std::set<int> params;
  for (OpId r : recvs) params.insert(g.op(r).param);
  EXPECT_EQ(params.size(), recvs.size());
}

std::vector<std::tuple<std::string, bool>> AllModelModes() {
  std::vector<std::tuple<std::string, bool>> out;
  for (const ModelInfo& info : ModelZoo()) {
    out.emplace_back(info.name, false);
    out.emplace_back(info.name, true);
  }
  return out;
}

std::string ModeTestName(
    const ::testing::TestParamInfo<std::tuple<std::string, bool>>& info) {
  std::string name = std::get<0>(info.param);
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name + (std::get<1>(info.param) ? "_train" : "_inference");
}

INSTANTIATE_TEST_SUITE_P(AllModels, BuilderTest,
                         ::testing::ValuesIn(AllModelModes()), ModeTestName);

TEST(Builder, BatchFactorScalesComputeLinearly) {
  const ModelInfo& info = FindModel("Inception v1");
  const Graph half = BuildWorkerGraph(info, {.batch_factor = 0.5});
  const Graph full = BuildWorkerGraph(info, {.batch_factor = 1.0});
  double cost_half = 0.0;
  double cost_full = 0.0;
  for (const core::Op& op : half.ops()) cost_half += op.cost;
  for (const core::Op& op : full.ops()) cost_full += op.cost;
  EXPECT_NEAR(cost_full / cost_half, 2.0, 1e-9);
  // Structure does not change with batch size.
  EXPECT_EQ(half.size(), full.size());
  EXPECT_EQ(half.num_edges(), full.num_edges());
}

TEST(Builder, TrainingGraphContainsInferencePrefix) {
  const ModelInfo& info = FindModel("ResNet-50 v1");
  const Graph inf = BuildWorkerGraph(info, {.training = false});
  const Graph train = BuildWorkerGraph(info, {.training = true});
  EXPECT_GT(train.size(), inf.size());
  // Total compute cost in training ~ 3x inference (backward = 2x forward).
  double cost_inf = 0.0;
  double cost_train = 0.0;
  for (const core::Op& op : inf.ops()) cost_inf += op.cost;
  for (const core::Op& op : train.ops()) cost_train += op.cost;
  EXPECT_NEAR(cost_train / cost_inf, 3.0, 0.15);
}

TEST(Builder, TotalComputeGflopsHelper) {
  const ModelInfo& info = FindModel("VGG-16");
  EXPECT_NEAR(TotalComputeGflops(info, {.training = false}),
              15.5 * 32, 1e-9);
  EXPECT_NEAR(TotalComputeGflops(info, {.training = true}),
              3 * 15.5 * 32, 1e-9);
  EXPECT_NEAR(
      TotalComputeGflops(info, {.training = false, .batch_factor = 2.0}),
      2 * 15.5 * 32, 1e-9);
}

TEST(Builder, InceptionHasBranchingResNetHasSkips) {
  // Inception: some op has >= 4 predecessors (module concat).
  const Graph inception =
      BuildWorkerGraph(FindModel("Inception v3"), {});
  bool has_concat = false;
  for (const core::Op& op : inception.ops()) {
    if (op.kind == OpKind::kCompute && inception.preds(op.id).size() >= 4) {
      has_concat = true;
    }
  }
  EXPECT_TRUE(has_concat);

  // ResNet: some compute has two compute predecessors (residual add).
  const Graph resnet = BuildWorkerGraph(FindModel("ResNet-50 v2"), {});
  bool has_add = false;
  for (const core::Op& op : resnet.ops()) {
    if (op.kind != OpKind::kCompute) continue;
    const auto& preds = resnet.preds(op.id);
    int compute_preds = 0;
    for (OpId p : preds) {
      if (resnet.op(p).kind == OpKind::kCompute) ++compute_preds;
    }
    if (compute_preds >= 2) has_add = true;
  }
  EXPECT_TRUE(has_add);
}

TEST(Builder, DeterministicAcrossCalls) {
  const ModelInfo& info = FindModel("VGG-19");
  const Graph a = BuildWorkerGraph(info, {.training = true});
  const Graph b = BuildWorkerGraph(info, {.training = true});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto id = static_cast<OpId>(i);
    EXPECT_EQ(a.op(id).name, b.op(id).name);
    EXPECT_EQ(a.op(id).bytes, b.op(id).bytes);
    EXPECT_EQ(a.op(id).cost, b.op(id).cost);
    EXPECT_EQ(a.preds(id), b.preds(id));
  }
}

void ExpectTopologyThrow(const std::function<void()>& build,
                         const std::string& fragment) {
  try {
    build();
    FAIL() << "expected invalid_argument containing '" << fragment << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(FatTree, PodOfSplitsHostsContiguously) {
  // floor(index * pods / count): contiguous, balanced, covers every pod.
  EXPECT_EQ(PodOf(0, 6, 2), 0);
  EXPECT_EQ(PodOf(2, 6, 2), 0);
  EXPECT_EQ(PodOf(3, 6, 2), 1);
  EXPECT_EQ(PodOf(5, 6, 2), 1);
  // Uneven split: 5 hosts over 2 pods -> 3 + 2.
  EXPECT_EQ(PodOf(2, 5, 2), 0);
  EXPECT_EQ(PodOf(3, 5, 2), 1);
  // pods == count degenerates to one host per pod.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(PodOf(i, 4, 4), i);
}

TEST(FatTree, ValidationNamesTheOffendingKnob) {
  const FabricShape shape{.num_workers = 2, .num_ps = 1,
                          .bandwidth_bps = 100.0};
  ExpectTopologyThrow(
      [&] { BuildFatTreeFlowNetwork(shape, {.pods = 0}); },
      "pods must be >= 1");
  ExpectTopologyThrow(
      [&] { BuildFatTreeFlowNetwork(shape, {.oversubscription = 0.0}); },
      "oversubscription must be a positive finite ratio");
  ExpectTopologyThrow(
      [&] { BuildFatTreeFlowNetwork(shape, {.pods = 8}); },
      "some pods would be empty");
  ExpectTopologyThrow(
      [&] {
        BuildFatTreeFlowNetwork({.num_workers = 0, .num_ps = 1,
                                 .bandwidth_bps = 100.0}, {});
      },
      "at least one worker and one PS");
  ExpectTopologyThrow(
      [&] {
        BuildFatTreeFlowNetwork({.num_workers = 2, .num_ps = 1,
                                 .bandwidth_bps = 0.0}, {});
      },
      "bandwidth_bps must be positive");
}

TEST(FatTree, SinglePodBuildsNicOnlyContention) {
  // W=2, S=1, line rate 100: 6 NIC links (worker in/out x2, PS out/in),
  // no core. Channel resources map to exactly the two NIC directions
  // they traverse; compute and PS-CPU resources stay non-flow.
  const sim::FlowNetwork net = BuildFatTreeFlowNetwork(
      {.num_workers = 2, .num_ps = 1, .bandwidth_bps = 100.0}, {});
  ASSERT_EQ(net.links.size(), 6u);
  for (const sim::FlowLink& link : net.links) {
    EXPECT_DOUBLE_EQ(link.capacity_bps, 100.0);
  }
  // Block: workers [0,2), downlinks [2,4), uplinks [4,6), PS CPU {6}.
  ASSERT_EQ(net.resource_links.size(), 7u);
  EXPECT_TRUE(net.resource_links[0].empty());
  EXPECT_TRUE(net.resource_links[1].empty());
  EXPECT_TRUE(net.resource_links[6].empty());
  // Downlink w=0: PS egress (link 4) + worker 0 ingress (link 0).
  EXPECT_EQ(net.resource_links[2], (std::vector<int>{0, 4}));
  EXPECT_EQ(net.resource_links[3], (std::vector<int>{1, 4}));
  // Uplink w=0: worker 0 egress (link 2) + PS ingress (link 5).
  EXPECT_EQ(net.resource_links[4], (std::vector<int>{2, 5}));
  EXPECT_EQ(net.resource_links[5], (std::vector<int>{3, 5}));
  // Nominal rate = static per-channel split, line / W.
  for (int r = 2; r <= 5; ++r) {
    EXPECT_DOUBLE_EQ(net.resource_nominal_bps[static_cast<std::size_t>(r)],
                     50.0);
  }
  net.Validate(7);
}

TEST(FatTree, OversubscribedCoreLinksOnCrossPodChannelsOnly) {
  // W=2, S=2, pods=2, oversub=4: worker 0 + PS 0 land in pod 0, worker 1
  // + PS 1 in pod 1. 8 NIC links at 100 plus 2 core uplinks and 2 core
  // downlinks at (2 hosts x 100) / 4 = 50.
  const sim::FlowNetwork net = BuildFatTreeFlowNetwork(
      {.num_workers = 2, .num_ps = 2, .bandwidth_bps = 100.0},
      {.pods = 2, .oversubscription = 4.0});
  ASSERT_EQ(net.links.size(), 12u);
  for (int l = 0; l < 8; ++l) {
    EXPECT_DOUBLE_EQ(net.links[static_cast<std::size_t>(l)].capacity_bps,
                     100.0);
  }
  for (int l = 8; l < 12; ++l) {
    EXPECT_DOUBLE_EQ(net.links[static_cast<std::size_t>(l)].capacity_bps,
                     50.0);
  }
  // Block: workers [0,2), downlinks [2,6), uplinks [6,10), PS CPUs [10,12).
  ASSERT_EQ(net.resource_links.size(), 12u);
  // Pod-local downlink (w=0, s=0): NICs only.
  EXPECT_EQ(net.resource_links[2], (std::vector<int>{0, 4}));
  // Cross-pod downlink (w=0, s=1): NICs + pod 1's core uplink (9) and
  // pod 0's core downlink (10).
  EXPECT_EQ(net.resource_links[3], (std::vector<int>{0, 5, 9, 10}));
  // Cross-pod uplink (w=1, s=0): worker 1 egress (3), PS 0 ingress (6),
  // pod 1's core uplink (9), pod 0's core downlink (10).
  EXPECT_EQ(net.resource_links[8], (std::vector<int>{3, 6, 9, 10}));
  net.Validate(12);
}

}  // namespace
}  // namespace tictac::models
