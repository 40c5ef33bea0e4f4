// Golden SimResult fingerprints: the engine's exact dispatch, pinned.
//
// The other sim suites compare the engine with itself (fault-free vs
// empty timeline, flow off vs legacy, 1 thread vs N) or with the naive
// reference on tie-free graphs. None of them pins *which* tied task a
// resource elects or when the random draws happen, so a dispatcher
// rewrite that reorders resource visits would pass them all. These
// 64-bit fingerprints hash every start/end bit pattern, the start order
// and the makespan of seeded runs across the zoo, fault timelines and
// flow-level fabrics; they were generated with the all-resource scan
// dispatcher and must never move unless a change is meant to alter
// simulated results.
//
// The "lowering/" cells pin the exported task graphs themselves — every
// field of every task plus the worker tables and job slices — so a
// change of the graph's storage is held to the same graphs.
//
// The "report/" cells pin whole report strings the same way — the
// service, cluster-sweep and multi-job JSON the CLI prints — so a
// refactor of the layers above the engine is held to the same bytes.
//
// A mismatch prints the new table line for the cell, so an intentional
// re-pin is a copy of the failure output into Goldens().
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/tic.h"
#include "fault/fault.h"
#include "harness/session.h"
#include "models/builder.h"
#include "models/random_dag.h"
#include "models/zoo.h"
#include "runtime/cluster.h"
#include "runtime/clustersweep.h"
#include "runtime/lowering.h"
#include "runtime/multijob.h"
#include "runtime/runner.h"
#include "runtime/spec.h"
#include "sched/service.h"
#include "sim/engine.h"
#include "sim/flow.h"
#include "util/rng.h"

#include "lowering_hash.h"
#include "service_invariants.h"
#include "sim_invariants.h"

namespace tictac {
namespace {

// FNV-1a over 64-bit words: the makespan, then each vector's length and
// elements (doubles by bit pattern, so -0.0/0.0 and last-ulp moves count).
std::uint64_t Fingerprint(const sim::SimResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(std::bit_cast<std::uint64_t>(r.makespan));
  mix(r.start.size());
  for (const double s : r.start) mix(std::bit_cast<std::uint64_t>(s));
  mix(r.end.size());
  for (const double e : r.end) mix(std::bit_cast<std::uint64_t>(e));
  mix(r.start_order.size());
  for (const sim::TaskId t : r.start_order) {
    mix(static_cast<std::uint32_t>(t));
  }
  return h;
}

// FNV-1a over every field of every job's IterationStats, iteration by
// iteration (doubles by bit pattern): makespan, worker_finish,
// efficiency, overlap, straggler share and worker 0's recv order.
std::uint64_t Fingerprint(const std::vector<runtime::ExperimentResult>& jobs) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  const auto mix_double = [&mix](double v) {
    mix(std::bit_cast<std::uint64_t>(v));
  };
  mix(jobs.size());
  for (const runtime::ExperimentResult& job : jobs) {
    mix(job.iterations.size());
    for (const runtime::IterationStats& it : job.iterations) {
      mix_double(it.makespan);
      mix(it.worker_finish.size());
      for (const double finish : it.worker_finish) mix_double(finish);
      mix_double(it.mean_efficiency);
      mix_double(it.overlap_fraction);
      mix_double(it.straggler_pct);
      mix(it.recv_order.size());
      for (const int param : it.recv_order) {
        mix(static_cast<std::uint32_t>(param));
      }
    }
  }
  return h;
}

// FNV-1a over the bytes of a report string.
std::uint64_t Fingerprint(const std::string& report) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : report) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

template <typename... Lowerings>
std::uint64_t LoweringFingerprint(const Lowerings&... lowerings) {
  LoweringHash hash;
  (hash.Add(lowerings), ...);
  return hash.value();
}

std::uint64_t PipelineFingerprint(const runtime::Lowering& lowering) {
  LoweringHash hash;
  hash.AddPipeline(lowering);
  return hash.value();
}

std::uint64_t FabricFingerprint(const runtime::Lowering& lowering) {
  LoweringHash hash;
  hash.AddFabric(lowering);
  return hash.value();
}

const std::map<std::string, std::uint64_t>& Goldens() {
  static const std::map<std::string, std::uint64_t> kGoldens = {
      {"zoo/AlexNet v2/baseline", 0x61e59d41762290dbull},
      {"zoo/AlexNet v2/tic", 0x512906f3f9a016c2ull},
      {"zoo/AlexNet v2/tac", 0x512906f3f9a016c2ull},
      {"zoo/Inception v1/baseline", 0xe6b522e7964ef3cfull},
      {"zoo/Inception v1/tic", 0x5f998c139b87b1f9ull},
      {"zoo/Inception v1/tac", 0x697dd1e3d8f76dceull},
      {"zoo/Inception v2/baseline", 0xeed6216047c93312ull},
      {"zoo/Inception v2/tic", 0xe27a626b9d23a117ull},
      {"zoo/Inception v2/tac", 0x31ca603c968c24edull},
      {"zoo/Inception v3/baseline", 0xaca7cc972676b46dull},
      {"zoo/Inception v3/tic", 0xb18a37d9e8d32ae6ull},
      {"zoo/Inception v3/tac", 0x4799524b11e7401dull},
      {"zoo/ResNet-50 v1/baseline", 0x3d16399d113f6eb1ull},
      {"zoo/ResNet-50 v1/tic", 0x43c8660a44b5a8cbull},
      {"zoo/ResNet-50 v1/tac", 0x43c8660a44b5a8cbull},
      {"zoo/ResNet-101 v1/baseline", 0x118152af64668733ull},
      {"zoo/ResNet-101 v1/tic", 0xd5beb4b152dcf8c3ull},
      {"zoo/ResNet-101 v1/tac", 0xd5beb4b152dcf8c3ull},
      {"zoo/ResNet-50 v2/baseline", 0x17409933eeca5a57ull},
      {"zoo/ResNet-50 v2/tic", 0x97a8afe438c1d732ull},
      {"zoo/ResNet-50 v2/tac", 0x97a8afe438c1d732ull},
      {"zoo/ResNet-101 v2/baseline", 0xa5b4c6f3153ba894ull},
      {"zoo/ResNet-101 v2/tic", 0xef523d4a7574e137ull},
      {"zoo/ResNet-101 v2/tac", 0xef523d4a7574e137ull},
      {"zoo/VGG-16/baseline", 0x2be674d3277e7680ull},
      {"zoo/VGG-16/tic", 0x75a99be8551ffde0ull},
      {"zoo/VGG-16/tac", 0x75a99be8551ffde0ull},
      {"zoo/VGG-19/baseline", 0x8134dc44b5250513ull},
      {"zoo/VGG-19/tic", 0x5ebc12ad523b7dd5ull},
      {"zoo/VGG-19/tac", 0x5ebc12ad523b7dd5ull},
      {"fault/AlexNet v2/tac", 0x8d1ccacd10cb3225ull},
      {"fault/wide-hand-built", 0x5f7f578580162324ull},
      {"flow/fat-tree-2job/seed1", 0x32ac8c9a8d43b1eeull},
      {"flow/fat-tree-2job/seed7", 0xbdb49277f947c1c9ull},
      {"flow/fault-timeline", 0x85a8c3ff0fdd90cfull},
      {"flow/pods4-oversub4/seed1", 0x15ea1d52afe2561aull},
      {"flow/pods4-oversub4/seed7", 0x948ad45f5692fe48ull},
      {"flow/inference-3job-pods1", 0xe193b547b2f4ebbaull},
      {"flow/near-tied-links", 0xa918ecebe798ff83ull},
      {"flow/capacity-ladder", 0xd610fe974f1ee12dull},
      {"flow/freeze-rounds-onto-bound", 0xc6e04eecffafc2d3ull},
      {"flow/uplink-downlink-apart/seed2", 0xd194e27b13563f98ull},
      {"flow/uplink-downlink-apart/seed9", 0x6ae890b267e0dc28ull},
      {"flow/finish-moves-member", 0x6d94116b3cdcc809ull},
      {"flow/bench-64x-vgg16", 0xf1894ae31fff1171ull},
      {"lowering/zoo/AlexNet v2/infer", 0xab4724c124b8031dull},
      {"lowering/zoo/AlexNet v2/train", 0xd64521d490cb83fdull},
      {"lowering/zoo/Inception v1/infer", 0x51e9b1cd6822ac74ull},
      {"lowering/zoo/Inception v1/train", 0x3479ef2a4542afbaull},
      {"lowering/zoo/Inception v2/infer", 0xab398cc7a2e00e08ull},
      {"lowering/zoo/Inception v2/train", 0xaf6947011a707880ull},
      {"lowering/zoo/Inception v3/infer", 0x502c21732b83a26dull},
      {"lowering/zoo/Inception v3/train", 0xa617e93ca8ba775aull},
      {"lowering/zoo/ResNet-50 v1/infer", 0x4e7a2418cb52be72ull},
      {"lowering/zoo/ResNet-50 v1/train", 0x2125d46efbc3dc81ull},
      {"lowering/zoo/ResNet-101 v1/infer", 0x3c0996170495ef31ull},
      {"lowering/zoo/ResNet-101 v1/train", 0x404b2f4db01378b3ull},
      {"lowering/zoo/ResNet-50 v2/infer", 0x1fe87872346b10c5ull},
      {"lowering/zoo/ResNet-50 v2/train", 0xd23d9acc2fb1f458ull},
      {"lowering/zoo/ResNet-101 v2/infer", 0xc034686e7c6a787dull},
      {"lowering/zoo/ResNet-101 v2/train", 0x6f0d0d1df552cba8ull},
      {"lowering/zoo/VGG-16/infer", 0x1afdc1fbce7f0a17ull},
      {"lowering/zoo/VGG-16/train", 0x704460a4cfc5376bull},
      {"lowering/zoo/VGG-19/infer", 0xef8f01fb77c97a53ull},
      {"lowering/zoo/VGG-19/train", 0x6b43f45fdab7bbefull},
      {"lowering/enforcement/priority-only", 0x53812da54ba4e762ull},
      {"lowering/enforcement/hand-off gate", 0xa548e99f3796c3aeull},
      {"lowering/enforcement/DAG chaining", 0xa447718c898ca393ull},
      {"lowering/dagchain/zoo", 0x4b08ec793ef6367eull},
      {"lowering/chunked-sharded", 0x64040427af811b8aull},
      {"lowering/pipeline/k=1/infer", 0x81924530243b5b12ull},
      {"lowering/pipeline/k=1/train", 0x735644623188d2c1ull},
      {"lowering/pipeline/k=2/infer", 0xe94335581fb6a015ull},
      {"lowering/pipeline/k=2/train", 0x2beea299efc92151ull},
      {"lowering/pipeline/k=3/infer", 0x10d92c0c4c266ad7ull},
      {"lowering/pipeline/k=3/train", 0x5ab2ccb90fe17858ull},
      {"lowering/pipeline/k=4/infer", 0xed75374ca9726609ull},
      {"lowering/pipeline/k=4/train", 0x1d757b47fdc58d3eull},
      {"lowering/ring/W=2", 0xf23f6d4309f753cfull},
      {"lowering/ring/W=5", 0xdcf9c2386ca1bc14ull},
      {"lowering/shared/1-job", 0xe6ef329debe86a6bull},
      {"lowering/shared/3-job-offset", 0xdd09a5c5a519774cull},
      {"lowering/flow-fabric", 0xddeb71f28b50d791ull},
      {"lowering/random-dags", 0x581488d60fe0747cull},
      {"report/serve-smoke", 0x42ce9696804cbf39ull},
      {"report/chaos-smoke", 0xf7d0463b8122234aull},
      {"report/serve-smoke-jobs", 0xc9f8032a8e9e9be9ull},
      {"report/chaos-smoke-jobs", 0xc8366cb4a2451595ull},
      {"report/serve-worker-crash", 0x37283cd3d04d6a86ull},
      {"report/serve-worker-crash-air", 0xb7242dd11231a000ull},
      {"report/serve-overlapping-windows", 0xb65b04b2d1f8d9c6ull},
      {"report/serve-retry-exhausted", 0xe73acdee3e0fea32ull},
      {"report/serve-all-fabrics-down", 0xd35bd7188958d324ull},
      {"report/serve-queue-reject", 0x2d397c555f3e57c2ull},
      {"report/serve-bursty", 0x480118d0a0278b30ull},
      {"report/serve-crash-arrival-tie", 0xac9b637450f0fdd9ull},
      {"report/clustersweep/flow-off", 0xcd893ab0c80cb714ull},
      {"report/clustersweep/flow-on", 0x529096e4295a226bull},
      {"report/clustersweep/vgg16-128-flow", 0x89e2aaad929caf16ull},
      {"report/clustersweep/mixed-3fabric", 0xd49fd3c20c350ca7ull},
      {"report/clustersweep/flow-pods2-oversub3", 0x5acae94cf8cfe8a2ull},
      {"report/clustersweep/flow-1fabric", 0xff3aae1899506eecull},
      {"report/multijob/3-job-offset", 0x3668de5f0bacc687ull},
      {"report/multijob/chunk-shard-offset", 0xa78340ddff8fa066ull},
      {"stats/per-job/multijob-flow-off", 0x176fc454991753faull},
      {"stats/per-job/multijob-flow-on", 0x326813cd058de650ull},
      {"stats/per-job/clustersweep-flow", 0xee80faffb13f5933ull},
      {"stats/per-job/clustersweep-mixed-3fabric", 0x7253a4fc0a2acf7bull},
      {"stats/per-job/clustersweep-flow-pods2-oversub3", 0x2edf5c11b4fe4e7cull},
      {"stats/per-job/clustersweep-flow-1fabric", 0x78249f636bd8c423ull},
  };
  return kGoldens;
}

void ExpectGolden(const std::string& cell, std::uint64_t got) {
  char line[128];
  std::snprintf(line, sizeof line, "{\"%s\", 0x%016llxull},", cell.c_str(),
                static_cast<unsigned long long>(got));
  const auto it = Goldens().find(cell);
  if (it == Goldens().end()) {
    ADD_FAILURE() << "cell not pinned; table line:\n    " << line;
  } else if (it->second != got) {
    ADD_FAILURE() << "fingerprint moved; new table line:\n    " << line;
  }
}

void ExpectGolden(const std::string& cell, const sim::SimResult& result) {
  ExpectGolden(cell, Fingerprint(result));
}

void ExpectGolden(const std::string& cell, const std::string& report) {
  ExpectGolden(cell, Fingerprint(report));
}

// Pins a run that completes every task of `graph`: its invariants, then
// its bits.
void ExpectGoldenRun(const std::string& cell, const sim::TaskGraph& graph,
                     const sim::SimResult& result) {
  sim::ExpectSimInvariants(graph, result);
  ExpectGolden(cell, result);
}

// Jitter and out-of-order draws on, so every tie-break and every RNG
// draw position feeds the fingerprint.
sim::SimOptions Randomized(sim::SimOptions options) {
  options.jitter_sigma = 0.1;
  options.out_of_order_probability = 0.05;
  return options;
}

runtime::Lowering LowerZoo(const runtime::Runner& runner,
                           const std::string& policy) {
  return runtime::LowerCluster(runner.worker_graph(),
                               runner.MakeSchedule(policy),
                               runner.ps_of_param(), runner.config());
}

TEST(SimFingerprint, ZooTimesPolicies) {
  for (const models::ModelInfo& info : models::ModelZoo()) {
    const runtime::Runner runner(info, runtime::EnvG(4, 2, true));
    for (const char* policy : {"baseline", "tic", "tac"}) {
      const runtime::Lowering low = LowerZoo(runner, policy);
      ExpectGoldenRun("zoo/" + info.name + "/" + policy, low.tasks,
                      low.BuildSim().Run(Randomized(runner.config().sim), 42));
    }
  }
}

// A resource with queued work goes down mid-run and comes back: the up
// event alone must restart its queue, at exactly the up time.
TEST(SimFingerprint, FaultTimelineRestartsAQueueOnResume) {
  const runtime::Runner runner(models::FindModel("AlexNet v2"),
                               runtime::EnvG(4, 2, true));
  const runtime::Lowering low = LowerZoo(runner, "tac");
  const sim::TaskGraphSim sim = low.BuildSim();
  const sim::SimOptions options = Randomized(runner.config().sim);
  const double makespan = sim.Run(options, 42).makespan;

  std::vector<int> load(static_cast<std::size_t>(low.num_resources), 0);
  for (const int r : low.tasks.resource) ++load[static_cast<std::size_t>(r)];
  const int busiest = static_cast<int>(
      std::max_element(load.begin(), load.end()) - load.begin());
  const int other = (busiest + 1) % low.num_resources;
  const double up_at = 0.4 * makespan;
  const std::vector<sim::ResourceFault> faults{
      {0.1 * makespan, busiest, 0.0},
      {0.2 * makespan, other, 0.5},
      {up_at, busiest, 1.0},
  };
  sim::SimOptions faulted = options;
  faulted.faults = &faults;
  const sim::SimResult r = sim.Run(faulted, 42);
  ExpectGoldenRun("fault/AlexNet v2/tac", low.tasks, r);

  bool resumed = false;
  for (std::size_t t = 0; t < low.tasks.size(); ++t) {
    resumed |= low.tasks.resource[t] == busiest && r.start[t] == up_at;
  }
  EXPECT_TRUE(resumed) << "no task started on resource " << busiest
                       << " when it came back up";
}

// Hand-built: 64 resources, two in use. Resource 5 goes down with two
// unprioritized tasks queued behind the one in flight; a completion on
// resource 40 readies another of its tasks while it is down.
TEST(SimFingerprint, FaultOnAWideMostlyIdleGraph) {
  std::vector<sim::Task> tasks(5);
  for (sim::Task& t : tasks) t.resource = 5;
  tasks[0].duration = 1.0;
  tasks[1].duration = 1.25;
  tasks[2].duration = 1.5;
  tasks[3].duration = 1.5;
  tasks[3].resource = 40;
  tasks[4].duration = 0.25;
  tasks[4].preds = {3};
  const std::vector<sim::ResourceFault> faults{{0.5, 5, 0.0}, {2.0, 5, 2.0}};
  sim::SimOptions options;
  options.faults = &faults;
  const sim::TaskGraph graph(tasks);
  const sim::SimResult r = sim::TaskGraphSim(graph, 64).Run(options, 3);
  ExpectGoldenRun("fault/wide-hand-built", graph, r);
  // Resources start in ascending id order: resource 5's pick comes first.
  const auto first = static_cast<std::size_t>(r.start_order.at(0));
  ASSERT_EQ(tasks[first].resource, 5);
  EXPECT_EQ(r.end[first], tasks[first].duration);  // keeps its start rate
  double resumed = 1e9;
  for (const std::size_t t : {0u, 1u, 2u, 4u}) {
    if (t != first) resumed = std::min(resumed, r.start[t]);
  }
  EXPECT_EQ(resumed, 2.0);
}

// One shared flow fabric: `cluster` with each of `jobs` ("model=…
// policy=…") appended, at iterations=2 seed=3.
runtime::MultiJobRunner FlowFabric(const std::string& cluster,
                                   const std::vector<std::string>& jobs) {
  runtime::MultiJobSpec spec;
  for (const std::string& job : jobs) {
    runtime::MultiJobEntry entry;
    entry.spec = runtime::ExperimentSpec::Parse(cluster + " " + job +
                                                " iterations=2 seed=3");
    spec.jobs.push_back(entry);
  }
  runtime::MultiJobRunner runner(std::move(spec));
  EXPECT_NE(runner.fabric().options.network, nullptr);
  return runner;
}

TEST(SimFingerprint, FlowFatTreeMultiJob) {
  const runtime::MultiJobRunner runner =
      FlowFabric("envG:workers=4:ps=2:training:flow:pods=2:oversub=2",
                 {"model=AlexNet v2 policy=tac",
                  "model=Inception v2 policy=tic"});
  const runtime::Lowering& low = runner.fabric().lowering;
  const sim::TaskGraphSim sim = low.BuildSim();
  for (const std::uint64_t seed : {1ull, 7ull}) {
    ExpectGoldenRun("flow/fat-tree-2job/seed" + std::to_string(seed),
                    low.tasks,
                    sim.Run(Randomized(runner.fabric().options), seed));
  }
}

// Flows under a fault timeline: one channel slows and recovers, another
// goes down and comes back, and a worker CPU straggles for a while, so
// flows start at scaled demands and wait out a down link mid-run.
TEST(SimFingerprint, FlowUnderFaultTimeline) {
  const runtime::MultiJobRunner runner =
      FlowFabric("envG:workers=4:ps=2:training:flow:pods=2:oversub=2",
                 {"model=AlexNet v2 policy=tac",
                  "model=ResNet-50 v2 policy=tic"});
  const runtime::Lowering& low = runner.fabric().lowering;
  const sim::FlowNetwork& net = *runner.fabric().options.network;
  std::vector<int> channels;
  for (std::size_t r = 0; r < net.resource_links.size(); ++r) {
    if (!net.resource_links[r].empty()) channels.push_back(static_cast<int>(r));
  }
  ASSERT_GE(channels.size(), 2u);
  int worker_cpu = -1;
  for (std::size_t t = 0; t < low.tasks.size() && worker_cpu < 0; ++t) {
    if (low.tasks.kind[t] == core::OpKind::kCompute &&
        low.tasks.worker[t] >= 0) {
      worker_cpu = low.tasks.resource[t];
    }
  }
  ASSERT_GE(worker_cpu, 0);
  const sim::TaskGraphSim sim = low.BuildSim();
  const sim::SimOptions options = Randomized(runner.fabric().options);
  const double makespan = sim.Run(options, 5).makespan;
  const int slow = channels.front();
  const int down = channels[channels.size() / 2];
  const std::vector<sim::ResourceFault> faults{
      {0.1 * makespan, slow, 0.5},        {0.2 * makespan, down, 0.0},
      {0.25 * makespan, worker_cpu, 0.3}, {0.4 * makespan, down, 1.0},
      {0.5 * makespan, slow, 1.0},        {0.6 * makespan, worker_cpu, 1.0},
  };
  sim::SimOptions faulted = options;
  faulted.faults = &faults;
  ExpectGoldenRun("flow/fault-timeline", low.tasks, sim.Run(faulted, 5));
}

// Four pods behind a 4x oversubscribed core: core links bottleneck, so a
// flow's rate both rises and falls as neighbours come and go.
TEST(SimFingerprint, FlowOversubscribedCore) {
  const runtime::MultiJobRunner runner =
      FlowFabric("envG:workers=4:ps=2:training:flow:pods=4:oversub=4",
                 {"model=AlexNet v2 policy=tac", "model=VGG-16 policy=tac",
                  "model=Inception v2 policy=baseline"});
  const runtime::Lowering& low = runner.fabric().lowering;
  const sim::TaskGraphSim sim = low.BuildSim();
  for (const std::uint64_t seed : {1ull, 7ull}) {
    ExpectGoldenRun("flow/pods4-oversub4/seed" + std::to_string(seed),
                    low.tasks,
                    sim.Run(Randomized(runner.fabric().options), seed));
  }
}

TEST(SimFingerprint, FlowInferenceFabric) {
  const runtime::MultiJobRunner runner =
      FlowFabric("envG:workers=2:ps=1:inference:flow:pods=1",
                 {"model=AlexNet v2 policy=tac", "model=VGG-16 policy=tic",
                  "model=ResNet-50 v2 policy=tac"});
  const runtime::Lowering& low = runner.fabric().lowering;
  ExpectGoldenRun(
      "flow/inference-3job-pods1", low.tasks,
      low.BuildSim().Run(Randomized(runner.fabric().options), 11));
}

// Many small flow networks whose link ratios tie the fill level up to
// the last bit: every flow crosses one shared link of capacity C and one
// of a few group links of capacity C·g/K (g of the K flows in the
// group), a product that rounds either way. Freezes then move links on
// and off the level within a round, including a link that reaches it
// after its first members' turns have passed, which the zoo fabrics
// rarely do.
TEST(SimFingerprint, FlowNearTiedLinks) {
  std::string digests;
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    util::Rng rng(seed);
    const int flows = 4 + static_cast<int>(rng.Index(20));
    const std::size_t groups = 1 + rng.Index(4);
    const double shared = rng.Uniform(1.0, 100.0);
    std::vector<std::size_t> group(static_cast<std::size_t>(flows));
    std::vector<int> group_size(groups, 0);
    for (std::size_t& g : group) ++group_size[g = rng.Index(groups)];
    sim::FlowNetwork net;
    net.links.push_back({shared});
    for (const int size : group_size) {
      net.links.push_back({shared * std::max(size, 1) / flows});
    }
    std::vector<sim::Task> tasks(static_cast<std::size_t>(flows));
    for (std::size_t k = 0; k < tasks.size(); ++k) {
      net.resource_links.push_back({0, 1 + static_cast<int>(group[k])});
      net.resource_nominal_bps.push_back(1.0);
      tasks[k].resource = static_cast<int>(k);
      tasks[k].duration = 1.0 + static_cast<double>(rng.Index(3));
    }
    sim::SimOptions options;
    options.network = &net;
    const sim::TaskGraph graph(tasks);
    const sim::SimResult r = sim::TaskGraphSim(graph, flows).Run(options, 1);
    sim::ExpectSimInvariants(graph, r);
    digests += std::to_string(Fingerprint(r)) + ",";
  }
  ExpectGolden("flow/near-tied-links", Fingerprint(digests));
}

// Hand-built networks whose link levels sit a power of two apart: link
// k carries capacity C·2^j·n_k/N for its n_k flows, so its ratio ties
// C·2^j/N up to the last bit, and ratios one step up the ladder land on
// twice a lower level, rounding either way. Flows cross one to three
// links and start and finish at staggered times behind predecessor
// chains, so one solve climbs several factors of two, and a freeze can
// bring a link from just above twice a level down to it.
TEST(SimFingerprint, FlowCapacityLadder) {
  std::string digests;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    util::Rng rng(seed);
    const int flows = 6 + static_cast<int>(rng.Index(26));
    const std::size_t links = 2 + rng.Index(7);
    const double base = rng.Uniform(1.0, 100.0);
    std::vector<std::vector<int>> route(static_cast<std::size_t>(flows));
    std::vector<int> members(links, 0);
    for (std::vector<int>& r : route) {
      const std::size_t hops = 1 + rng.Index(3);
      for (std::size_t h = 0; h < hops; ++h) {
        r.push_back(static_cast<int>(rng.Index(links)));
      }
      std::sort(r.begin(), r.end());
      r.erase(std::unique(r.begin(), r.end()), r.end());
      for (const int l : r) ++members[static_cast<std::size_t>(l)];
    }
    sim::FlowNetwork net;
    for (const int n : members) {
      const double step = static_cast<double>(1 << rng.Index(5));
      net.links.push_back({base * step * std::max(n, 1) / flows});
    }
    std::vector<sim::Task> tasks(static_cast<std::size_t>(flows));
    for (std::size_t k = 0; k < tasks.size(); ++k) {
      net.resource_links.push_back(route[k]);
      net.resource_nominal_bps.push_back(1.0 +
                                         static_cast<double>(rng.Index(2)));
      tasks[k].resource = static_cast<int>(k);
      tasks[k].duration = 1.0 + static_cast<double>(rng.Index(4));
      if (k >= 2 && rng.Chance(0.4)) {
        tasks[k].preds = {static_cast<sim::TaskId>(rng.Index(k))};
      }
    }
    sim::SimOptions options;
    options.network = &net;
    const sim::TaskGraph graph(tasks);
    const sim::SimResult r = sim::TaskGraphSim(graph, flows).Run(options, 1);
    sim::ExpectSimInvariants(graph, r);
    digests += std::to_string(Fingerprint(r)) + ",";
  }
  ExpectGolden("flow/capacity-ladder", Fingerprint(digests));
}

// A freeze that rounds a link's ratio down onto twice an earlier level.
// Link A (one flow, capacity B/2) is the first level; link S (flow f1,
// capacity L just below B) the second; link V (flow fv, capacity B) sits
// at B; link T carries f1, fv and m - 2 more flows, with capacity R just
// above m·B, so its ratio starts one ulp or so above B. Parameters are
// searched so that freezing f1 at L rounds T's ratio to exactly B: T and
// V then tie the next level, and a search that missed T would freeze fv
// at V's share instead of at T's.
TEST(SimFingerprint, FlowFreezeRoundsOntoTwiceTheLevel) {
  std::string digests;
  util::Rng rng(17);
  int cases = 0;
  for (int attempt = 0; attempt < 200000 && cases < 24; ++attempt) {
    const double B = 2 * rng.Uniform(0.5, 50.0);
    const int m = 3 + static_cast<int>(rng.Index(298));
    double R = m * B;
    for (std::size_t k = rng.Index(10); k > 0; --k) {
      R = std::nextafter(R, 1e300);
    }
    double L = B;
    for (std::size_t j = 1 + rng.Index(static_cast<std::size_t>(3 * m)); j > 0;
         --j) {
      L = std::nextafter(L, 0.0);
    }
    if (!(R / m > B) || (R - L) / (m - 1) != B) continue;
    ++cases;
    sim::FlowNetwork net;
    net.links = {{B / 2}, {L}, {B}, {R}};  // A, S, V, T
    std::vector<sim::Task> tasks(static_cast<std::size_t>(m + 1));
    net.resource_links.push_back({0});     // f0
    net.resource_links.push_back({1, 3});  // f1
    for (int g = 2; g < m; ++g) net.resource_links.push_back({3});
    net.resource_links.push_back({2, 3});  // fv
    for (std::size_t k = 0; k < tasks.size(); ++k) {
      net.resource_nominal_bps.push_back(1.0);
      tasks[k].resource = static_cast<int>(k);
      tasks[k].duration = 1.0 + static_cast<double>(k % 3);
    }
    sim::SimOptions options;
    options.network = &net;
    const sim::TaskGraph graph(tasks);
    const sim::SimResult r = sim::TaskGraphSim(graph, m + 1).Run(options, 1);
    sim::ExpectSimInvariants(graph, r);
    digests += std::to_string(Fingerprint(r)) + ",";
  }
  ASSERT_EQ(cases, 24);
  ExpectGolden("flow/freeze-rounds-onto-bound", Fingerprint(digests));
}

// A training fabric whose uplink-only links (worker egress, PS ingress)
// carry five times the line rate: pushes and pulls run together, and
// their bottleneck levels sit more than a factor of two apart.
TEST(SimFingerprint, FlowUplinkDownlinkLevelsApart) {
  const runtime::MultiJobRunner runner =
      FlowFabric("envG:workers=4:ps=2:training:flow:pods=2:oversub=2",
                 {"model=AlexNet v2 policy=tac", "model=VGG-16 policy=tic",
                  "model=Inception v2 policy=baseline"});
  const runtime::Lowering& low = runner.fabric().lowering;
  sim::FlowNetwork net = *runner.fabric().options.network;
  // Channels run downlinks first, then uplinks (runtime/lowering.h).
  std::vector<std::size_t> channels;
  for (std::size_t r = 0; r < net.resource_links.size(); ++r) {
    if (!net.resource_links[r].empty()) channels.push_back(r);
  }
  std::vector<char> downlink_link(net.links.size(), 0);
  for (std::size_t c = 0; c < channels.size() / 2; ++c) {
    for (const int l : net.resource_links[channels[c]]) {
      downlink_link[static_cast<std::size_t>(l)] = 1;
    }
  }
  for (std::size_t l = 0; l < net.links.size(); ++l) {
    if (!downlink_link[l]) net.links[l].capacity_bps *= 5.0;
  }
  sim::SimOptions options = Randomized(runner.fabric().options);
  options.network = &net;
  const sim::TaskGraphSim sim = low.BuildSim();
  for (const std::uint64_t seed : {2ull, 9ull}) {
    ExpectGoldenRun("flow/uplink-downlink-apart/seed" + std::to_string(seed),
                    low.tasks, sim.Run(options, seed));
  }
}

// Finishes that move a flow into the middle of a shared link's members.
// Flow state lives in slots, and a finish swap-moves the last slot's flow
// into the freed one. Every first-wave flow crosses link 0 and one of a
// few near-tied group links (as in flow/near-tied-links), all start at
// once in resource order, and the middle one is the shortest, so the
// first finish moves the last flow between two others on link 0. A
// second wave, one task per resource behind a random first-wave task,
// starts and finishes more flows after it.
TEST(SimFingerprint, FlowFinishMovesMember) {
  std::string digests;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    util::Rng rng(seed);
    const int flows = 5 + static_cast<int>(rng.Index(16));
    const std::size_t groups = 1 + rng.Index(4);
    const double shared = rng.Uniform(1.0, 100.0);
    std::vector<std::size_t> group(static_cast<std::size_t>(flows));
    std::vector<int> group_size(groups, 0);
    for (std::size_t& g : group) ++group_size[g = rng.Index(groups)];
    sim::FlowNetwork net;
    net.links.push_back({shared});
    for (const int size : group_size) {
      net.links.push_back({shared * std::max(size, 1) / flows});
    }
    for (std::size_t k = 0; k < group.size(); ++k) {
      net.resource_links.push_back({0, 1 + static_cast<int>(group[k])});
      net.resource_nominal_bps.push_back(1.0 +
                                         static_cast<double>(rng.Index(2)));
    }
    std::vector<sim::Task> tasks(2 * group.size());
    for (std::size_t k = 0; k < tasks.size(); ++k) {
      tasks[k].resource = static_cast<int>(k % group.size());
      tasks[k].duration = 1.0 + static_cast<double>(rng.Index(3));
      if (k >= group.size()) {
        tasks[k].preds = {static_cast<sim::TaskId>(rng.Index(group.size()))};
      }
    }
    const std::size_t middle = group.size() / 2;
    tasks[middle].duration = 0.5;
    net.resource_nominal_bps[middle] = 1.0;
    sim::SimOptions options;
    options.network = &net;
    const sim::TaskGraph graph(tasks);
    const sim::SimResult r = sim::TaskGraphSim(graph, flows).Run(options, 1);
    sim::ExpectSimInvariants(graph, r);
    digests += std::to_string(Fingerprint(r)) + ",";
  }
  ExpectGolden("flow/finish-moves-member", Fingerprint(digests));
}

// The fabric BM_SimFlow times (bench/bench_sched_overhead.cc): 64 VGG-16
// training jobs on one two-pod fat tree, the shape of one cluster-512
// fabric. Its solves hold ~124 flows over ~22 rounds, far more than any
// other cell's.
TEST(SimFingerprint, FlowBenchmarkFabric) {
  const runtime::MultiJobRunner runner(runtime::MultiJobSpec::Parse(
      "64x{envG:workers=2:ps=1:training:flow:pods=2:oversub=2 "
      "model=VGG-16 policy=tac iterations=1 seed=1}"));
  const runtime::SharedFabric& fabric = runner.fabric();
  ExpectGoldenRun("flow/bench-64x-vgg16", fabric.lowering.tasks,
                  fabric.lowering.BuildSim().Run(fabric.options, 1));
}

// --- lowering/ cells: the exported task graphs ----------------------------

TEST(LoweringFingerprint, ZooTimesModesTimesPolicies) {
  for (const models::ModelInfo& info : models::ModelZoo()) {
    for (const bool training : {false, true}) {
      const runtime::Runner runner(info, runtime::EnvG(2, 2, training));
      ExpectGolden("lowering/zoo/" + info.name +
                       (training ? "/train" : "/infer"),
                   LoweringFingerprint(LowerZoo(runner, "baseline"),
                                       LowerZoo(runner, "tic"),
                                       LowerZoo(runner, "tac")));
    }
  }
}

TEST(LoweringFingerprint, EnforcementVariants) {
  for (const runtime::Enforcement enforcement :
       {runtime::Enforcement::kPriorityOnly,
        runtime::Enforcement::kHandoffGate,
        runtime::Enforcement::kDagChain}) {
    runtime::ClusterConfig config = runtime::EnvG(2, 2, true);
    config.enforcement = enforcement;
    const runtime::Runner runner(models::FindModel("Inception v1"), config);
    ExpectGolden(std::string("lowering/enforcement/") +
                     runtime::ToString(enforcement),
                 LoweringFingerprint(LowerZoo(runner, "tic")));
  }
  // The DAG chain over every zoo model: each worker's recvs chained in
  // rank order.
  LoweringHash hash;
  for (const models::ModelInfo& info : models::ModelZoo()) {
    runtime::ClusterConfig config = runtime::EnvG(3, 2, true);
    config.enforcement = runtime::Enforcement::kDagChain;
    const runtime::Runner runner(info, config);
    hash.Add(LowerZoo(runner, "tac"));
  }
  ExpectGolden("lowering/dagchain/zoo", hash.value());
}

TEST(LoweringFingerprint, ChunkedSharded) {
  LoweringHash hash;
  for (const char* model : {"Inception v2", "VGG-16"}) {
    runtime::ClusterConfig config = runtime::EnvG(3, 2, true);
    config.chunk_bytes = 1 << 20;
    config.shard = runtime::ShardStrategy::kEven;
    const runtime::Runner runner(models::FindModel(model), config);
    hash.Add(LowerZoo(runner, "tic"));
  }
  ExpectGolden("lowering/chunked-sharded", hash.value());
}

TEST(LoweringFingerprint, PipelineIterations) {
  for (const bool training : {false, true}) {
    const runtime::Runner runner(models::FindModel("Inception v1"),
                                 runtime::EnvG(2, 2, training));
    const core::Schedule schedule = runner.MakeSchedule("tic");
    for (const int iterations : {1, 2, 3, 4}) {
      ExpectGolden(std::string("lowering/pipeline/k=") +
                       std::to_string(iterations) +
                       (training ? "/train" : "/infer"),
                   PipelineFingerprint(runtime::Lower(
                       {{runner.worker_graph(), schedule, runner.ps_of_param(),
                         runner.config()}},
                       iterations)));
    }
  }
}

TEST(LoweringFingerprint, RingAcrossZoo) {
  for (const int workers : {2, 5}) {
    runtime::ClusterConfig config = runtime::EnvG(workers, 1, true);
    config.topology = runtime::Topology::kRing;
    LoweringHash hash;
    for (const models::ModelInfo& info : models::ModelZoo()) {
      hash.Add(runtime::LowerCluster(
          models::BuildWorkerGraph(info, {.training = true}), {}, {},
          config));
    }
    ExpectGolden("lowering/ring/W=" + std::to_string(workers), hash.value());
  }
}

TEST(LoweringFingerprint, SharedFabricThreeJobsWithOffset) {
  const runtime::Runner a(models::FindModel("Inception v1"),
                          runtime::EnvG(2, 2, true));
  const runtime::Runner b(models::FindModel("VGG-16"),
                          runtime::EnvG(3, 2, true));
  const runtime::Runner c(models::FindModel("Inception v2"),
                          runtime::EnvG(2, 2, false));
  const core::Schedule sa = a.MakeSchedule("tac");
  const core::Schedule sb = b.MakeSchedule("baseline");
  const core::Schedule sc = c.MakeSchedule("tic");
  std::vector<runtime::JobLoweringInput> inputs;
  inputs.push_back({a.worker_graph(), sa, a.ps_of_param(), a.config(), 0.0});
  inputs.push_back({b.worker_graph(), sb, b.ps_of_param(), b.config(), 0.05});
  inputs.push_back({c.worker_graph(), sc, c.ps_of_param(), c.config(), 0.0});
  ExpectGolden("lowering/shared/3-job-offset",
               FabricFingerprint(runtime::Lower(inputs)));
  // A lone zero-offset job: the fabric degenerates to its own cluster,
  // update/sink hooks included.
  while (inputs.size() > 1) inputs.pop_back();
  ExpectGolden("lowering/shared/1-job",
               FabricFingerprint(runtime::Lower(inputs)));
}

// A flow fabric's graph plus the capacity graph lower_flow_nics attaches.
TEST(LoweringFingerprint, FlowFabric) {
  const runtime::MultiJobRunner runner =
      FlowFabric("envG:workers=4:ps=2:training:flow:pods=2:oversub=2",
                 {"model=AlexNet v2 policy=tac",
                  "model=Inception v2 policy=tic"});
  LoweringHash hash;
  hash.AddFabric(runner.fabric().lowering);
  const sim::FlowNetwork& net = *runner.fabric().lowering.flow;
  hash.Mix(net.links.size());
  for (const sim::FlowLink& link : net.links) {
    hash.Mix(std::bit_cast<std::uint64_t>(link.capacity_bps));
  }
  hash.MixTables(net.resource_links);
  for (const double bps : net.resource_nominal_bps) {
    hash.Mix(std::bit_cast<std::uint64_t>(bps));
  }
  ExpectGolden("lowering/flow-fabric", hash.value());
}

// 110 random DAGs through every preset.
TEST(LoweringFingerprint, RandomDagsThroughEveryPreset) {
  LoweringHash hash;
  for (std::uint64_t seed = 0; seed < 110; ++seed) {
    models::RandomDagOptions options;
    options.num_recvs = 3 + static_cast<int>(seed % 6);
    options.num_computes = 5 + static_cast<int>(seed % 11);
    options.num_layers = 2 + static_cast<int>(seed % 4);
    options.with_sends = (seed % 3) != 0;
    const core::Graph graph = models::MakeRandomDag(options, seed);
    runtime::ClusterConfig config = runtime::EnvG(
        1 + static_cast<int>(seed % 4), 1 + static_cast<int>(seed % 3),
        options.with_sends);
    if (seed % 4 == 1) config.enforcement = runtime::Enforcement::kPriorityOnly;
    if (seed % 4 == 2) config.enforcement = runtime::Enforcement::kDagChain;
    std::vector<int> ps_of_param(static_cast<std::size_t>(options.num_recvs));
    for (std::size_t p = 0; p < ps_of_param.size(); ++p) {
      ps_of_param[p] = static_cast<int>(p) % config.num_ps;
    }
    const core::Schedule schedule =
        (seed % 2) ? core::Tic(graph) : core::Schedule{};
    hash.Add(runtime::LowerCluster(graph, schedule, ps_of_param, config));
    hash.AddPipeline(runtime::Lower({{graph, schedule, ps_of_param, config}},
                                    1 + static_cast<int>(seed % 3)));
    if (config.training && config.num_workers >= 2) {
      runtime::ClusterConfig ring = config;
      ring.topology = runtime::Topology::kRing;
      hash.Add(runtime::LowerCluster(graph, {}, {}, ring));
    }
    std::vector<runtime::JobLoweringInput> inputs;
    inputs.push_back({graph, schedule, ps_of_param, config});
    inputs.push_back({graph, schedule, ps_of_param, config, 0.01});
    hash.AddFabric(runtime::Lower(inputs));
  }
  ExpectGolden("lowering/random-dags", hash.value());
}

// The scheduler-service config of the CI serve smoke (`tictac_cli serve
// --arrivals poisson:rate=30 --fabrics 2 --duration 1 --seed 7`, with
// the CLI's default workload template).
sched::ServiceConfig ServeSmokeConfig() {
  sched::ServiceConfig config;
  config.arrivals = sched::ArrivalSpec::Parse("poisson:rate=30");
  config.workload.push_back(runtime::ExperimentSpec::Parse(
      "envG:workers=4:ps=2:training model=Inception v2 policy=tac "
      "iterations=5"));
  config.fabrics = 2;
  config.duration = 1.0;
  config.seed = 7;
  return config;
}

TEST(ReportFingerprint, ServeSmoke) {
  const sched::ServiceReport report = sched::RunChecked(ServeSmokeConfig());
  ExpectGolden("report/serve-smoke", report.ToJson());
  ExpectGolden("report/serve-smoke-jobs", report.JobTraceJson());
}

// The CI chaos smoke: the serve smoke plus a fabric crash and a flapping
// NIC under failure-aware placement.
TEST(ReportFingerprint, ChaosSmoke) {
  sched::ServiceConfig config = ServeSmokeConfig();
  config.placement = "failure-aware";
  config.faults = fault::FaultSpec::Parse(
      "crash:fabric=0:at=0.4;flap:nic=0:period=0.1:at=0:for=0.8:fabric=1");
  const sched::ServiceReport report = sched::RunChecked(config);
  ExpectGolden("report/chaos-smoke", report.ToJson());
  ExpectGolden("report/chaos-smoke-jobs", report.JobTraceJson());
}

// A small two-fabric service for the loop-branch cells below: AlexNet v2
// jobs of three iterations arriving at 20/s for half a second.
sched::ServiceConfig SmallServeConfig() {
  sched::ServiceConfig config;
  config.arrivals = sched::ArrivalSpec::Parse("poisson:rate=20");
  config.workload.push_back(runtime::ExperimentSpec::Parse(
      "envG:workers=2:ps=2:training model=AlexNet v2 policy=tac "
      "iterations=3"));
  config.fabrics = 2;
  config.duration = 0.5;
  config.seed = 3;
  return config;
}

// Runs `config` and pins its summary and per-job records as one cell.
sched::ServiceReport ExpectServeGolden(const std::string& cell,
                                       const sched::ServiceConfig& config) {
  const sched::ServiceReport report = sched::RunChecked(config);
  ExpectGolden(cell, report.ToJson() + report.JobTraceJson());
  return report;
}

// Each cell below drives one branch of the service loop that the smokes
// above miss; the counter checks say which.
TEST(ReportFingerprint, ServeWorkerCrashEvicts) {
  sched::ServiceConfig config = SmallServeConfig();
  config.faults = fault::FaultSpec::Parse("crash:worker=1:at=0.1");
  const sched::ServiceReport report =
      ExpectServeGolden("report/serve-worker-crash", config);
  EXPECT_EQ(report.counters.worker_crashes, 1u);
  EXPECT_EQ(report.counters.retries, 1u);
}

TEST(ReportFingerprint, ServeWorkerCrashStrikesAir) {
  sched::ServiceConfig config = SmallServeConfig();
  config.faults = fault::FaultSpec::Parse("crash:worker=63:at=0.1");
  const sched::ServiceReport report =
      ExpectServeGolden("report/serve-worker-crash-air", config);
  EXPECT_EQ(report.counters.worker_crashes, 1u);
  EXPECT_EQ(report.counters.retries, 0u);
}

// Stragglers and a slowlink overlapping a flap on the same NIC: the
// speed of a target is the product of its active windows. A window on a
// NIC past ps= strikes air.
TEST(ReportFingerprint, ServeOverlappingWindows) {
  sched::ServiceConfig config = SmallServeConfig();
  config.faults = fault::FaultSpec::Parse(
      "straggler:worker=0:factor=2:at=0:for=0.3;"
      "straggler:worker=0:factor=3:at=0.1;"
      "slowlink:nic=1:scale=0.5:at=0.05:for=0.4;"
      "flap:nic=1:period=0.1:at=0.1:for=0.3;"
      "slowlink:nic=7:scale=0.5:at=0;"
      "straggler:worker=1:factor=4:at=0.05:for=0.2:fabric=1");
  ExpectServeGolden("report/serve-overlapping-windows", config);
}

TEST(ReportFingerprint, ServeRetryBudgetExhausted) {
  sched::ServiceConfig config = SmallServeConfig();
  config.retry_budget = 0;
  config.faults = fault::FaultSpec::Parse("crash:fabric=0:at=0.1");
  const sched::ServiceReport report =
      ExpectServeGolden("report/serve-retry-exhausted", config);
  EXPECT_EQ(report.counters.retries, 0u);
  EXPECT_GT(report.counters.failed_jobs, 0u);
}

// Every fabric dies: evicted jobs find no live fabric, and queued ones
// strand in the admission queue; both count as failed.
TEST(ReportFingerprint, ServeAllFabricsDown) {
  sched::ServiceConfig config = SmallServeConfig();
  config.max_jobs_per_fabric = 1;
  config.faults =
      fault::FaultSpec::Parse("crash:fabric=0:at=0.1;crash:fabric=1:at=0.2");
  const sched::ServiceReport report =
      ExpectServeGolden("report/serve-all-fabrics-down", config);
  EXPECT_EQ(report.counters.fabric_crashes, 2u);
  EXPECT_GT(report.counters.failed_jobs, report.counters.lost_iterations);
}

TEST(ReportFingerprint, ServeQueueCapacityZeroRejects) {
  sched::ServiceConfig config = SmallServeConfig();
  config.max_jobs_per_fabric = 1;
  config.admission_queue_capacity = 0;
  const sched::ServiceReport report =
      ExpectServeGolden("report/serve-queue-reject", config);
  EXPECT_GT(report.counters.rejected, 0u);
  EXPECT_EQ(report.counters.queued, 0u);
}

// A crash and an arrival at the same instant: the crash goes first, so
// the arrival never lands on the dying fabric.
TEST(ReportFingerprint, ServeCrashBeforeArrivalAtATie) {
  const std::string spec =
      "envG:workers=2:ps=2:training model=AlexNet v2 policy=tac "
      "iterations=3";
  const std::string path = ::testing::TempDir() + "/tictac_tie.csv";
  std::ofstream(path) << "0," << spec << "\n0," << spec << "\n0.05,"
                      << spec << "\n";
  sched::ServiceConfig config;
  config.arrivals = sched::ArrivalSpec::Parse("trace:" + path);
  config.fabrics = 2;
  config.faults = fault::FaultSpec::Parse("crash:fabric=0:at=0.05");
  const sched::ServiceReport report =
      ExpectServeGolden("report/serve-crash-arrival-tie", config);
  ASSERT_EQ(report.jobs.size(), 3u);
  EXPECT_EQ(report.jobs[0].retries, 1);
  EXPECT_EQ(report.jobs[2].retries, 0);
  EXPECT_EQ(report.jobs[2].admit_time, 0.05);
}

// Bursts of same-instant arrivals are admitted as one batch.
TEST(ReportFingerprint, ServeBurstyBatch) {
  sched::ServiceConfig config = SmallServeConfig();
  config.arrivals = sched::ArrivalSpec::Parse("bursty:rate=6:burst=3");
  const sched::ServiceReport report =
      ExpectServeGolden("report/serve-bursty", config);
  ASSERT_GE(report.jobs.size(), 3u);
  EXPECT_EQ(report.jobs[0].arrival_time, report.jobs[2].arrival_time);
}

// Two models over two fabrics, with and without flow-level fairness; the
// report must not depend on the engine's thread count.
TEST(ReportFingerprint, MixedClusterSweep) {
  for (const std::string flow : {"", ":flow:pods=2:oversub=2"}) {
    const std::string cluster = "envG:workers=2:ps=1:training" + flow;
    const std::vector<runtime::MultiJobEntry> jobs = runtime::ParseJobGroups(
        "3x{" + cluster + " model=AlexNet v2 policy=tac iterations=2 seed=1} "
        "2x{" + cluster + " model=Inception v2 policy=tic iterations=2 "
        "seed=1}",
        64);
    for (const int threads : {1, 4}) {
      const runtime::ClusterSweep sweep(
          jobs, runtime::ClusterSweepOptions{.fabrics = 2,
                                             .num_threads = threads});
      ExpectGolden(std::string("report/clustersweep/flow-") +
                       (flow.empty() ? "off" : "on"),
                   sweep.Run().ToJson());
    }
  }
}

// The shape of one cluster-512 sweep: 128 VGG-16 jobs on two flow
// fat-tree fabrics of 64, every downlink crossing its fabric's one PS.
TEST(ReportFingerprint, VggFlowClusterSweep) {
  const std::vector<runtime::MultiJobEntry> jobs = runtime::ParseJobGroups(
      "128x{envG:workers=2:ps=1:training:flow:pods=2:oversub=2 "
      "model=VGG-16 policy=tac iterations=1 seed=1}",
      128);
  for (const int threads : {1, 4}) {
    const runtime::ClusterSweep sweep(
        jobs, runtime::ClusterSweepOptions{.num_threads = threads});
    ExpectGolden("report/clustersweep/vgg16-128-flow", sweep.Run().ToJson());
  }
}

// Sweep shapes the cells above miss, each pinned as its report and its
// per-job statistics at one and four engine threads:
//   * three fabrics of mixed worker counts and policies, one of them
//     all-baseline, with offsets, jitter and out-of-order draws;
//   * two flow fabrics on an oversubscribed two-pod tree, of five and
//     four workers;
//   * one flow fabric under jitter, the single-fabric path.
TEST(ReportFingerprint, ClusterSweepShapes) {
  struct Case {
    std::string name;
    std::string jobs;
    int fabrics;
  };
  const std::string mixed = "envG:ps=1:training:jitter=0.2:ooo=0.1";
  const std::string tree = "envG:ps=2:training:flow:pods=2:oversub=3";
  const std::string lone =
      "envG:workers=2:ps=1:training:jitter=0.2:flow:pods=2:oversub=2";
  const std::vector<Case> cases = {
      {"mixed-3fabric",
       "2x{" + mixed + ":workers=2 model=AlexNet v2 policy=tac iterations=3 "
       "seed=2} {" + mixed + ":workers=3 model=Inception v1 policy=tic "
       "iterations=3 seed=2}@0.01 3x{" + mixed + ":workers=2 model=AlexNet "
       "v2 policy=baseline iterations=3 seed=2}@0.02",
       3},
      {"flow-pods2-oversub3",
       "{" + tree + ":workers=3 model=AlexNet v2 policy=tac iterations=2 "
       "seed=4} {" + tree + ":workers=2 model=Inception v2 policy=tic "
       "iterations=2 seed=4} 2x{" + tree + ":workers=2 model=AlexNet v2 "
       "policy=baseline iterations=2 seed=4}@0.005",
       2},
      {"flow-1fabric",
       "2x{" + lone + " model=AlexNet v2 policy=tac iterations=2 seed=6} "
       "{" + lone + " model=Inception v2 policy=tic iterations=2 seed=6}",
       1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::vector<runtime::MultiJobEntry> jobs =
        runtime::ParseJobGroups(c.jobs, 64);
    for (const int threads : {1, 4}) {
      const runtime::ClusterSweep sweep(
          jobs, runtime::ClusterSweepOptions{.fabrics = c.fabrics,
                                             .num_threads = threads});
      const runtime::ClusterSweepResult result = sweep.Run();
      ASSERT_EQ(result.fabrics, c.fabrics);
      ExpectGolden("report/clustersweep/" + c.name, result.ToJson());
      ExpectGolden("stats/per-job/clustersweep-" + c.name,
                   Fingerprint(result.job_results));
    }
  }
}

TEST(ReportFingerprint, MultiJobWithOffset) {
  const runtime::MultiJobSpec spec = runtime::MultiJobSpec::Parse(
      "2x{envG:workers=2:ps=2:training model=Inception v1 policy=tac "
      "iterations=3 seed=5} {envG:workers=3:ps=2:training model=AlexNet v2 "
      "policy=tic iterations=3 seed=5}@0.02");
  harness::Session session;
  ExpectGolden("report/multijob/3-job-offset",
               session.RunMultiJob(spec).ToJson());
}

// Chunked and evenly sharded jobs next to a staggered baseline job: the
// composed fabric `tictac_cli lower` builds.
TEST(ReportFingerprint, MultiJobChunkShardOffset) {
  const runtime::MultiJobSpec spec = runtime::MultiJobSpec::Parse(
      "2x{envG:workers=2:ps=2:training:chunk=1048576:shard=even "
      "model=Inception v1 policy=tac iterations=3 seed=7} "
      "{envG:workers=2:ps=2:training model=Inception v1 policy=baseline "
      "iterations=3 seed=7}@0.05");
  harness::Session session;
  ExpectGolden("report/multijob/chunk-shard-offset",
               session.RunMultiJob(spec).ToJson());
}

// Per-job statistics of staggered jobs on one fabric, under heavy
// jitter and out-of-order picks: every job is measured on its own clock
// (arrival = t = 0). The combined stats (whole-fabric call) come first.
TEST(StatsFingerprint, MultiJobPerJob) {
  for (const std::string flow : {"", ":flow:pods=2:oversub=2"}) {
    const std::string cluster =
        "envG:workers=2:ps=2:training:jitter=0.3:ooo=0.05" + flow;
    const runtime::MultiJobRunner runner(runtime::MultiJobSpec::Parse(
        "{" + cluster + " model=Inception v1 policy=tac iterations=3 "
        "seed=5} {" + cluster + " model=AlexNet v2 policy=tic iterations=3 "
        "seed=5}@0.0123 {" + cluster + " model=Inception v2 "
        "policy=baseline iterations=3 seed=5}@0.3333"));
    const runtime::MultiJobResult result = runner.Run();
    std::vector<runtime::ExperimentResult> all{result.combined};
    all.insert(all.end(), result.jobs.begin(), result.jobs.end());
    ExpectGolden(std::string("stats/per-job/multijob-flow-") +
                     (flow.empty() ? "off" : "on"),
                 Fingerprint(all));
  }
}

// The same per-job statistics out of a two-fabric sweep, at one and
// four threads.
TEST(StatsFingerprint, ClusterSweepPerJob) {
  const std::string cluster =
      "envG:workers=2:ps=1:training:jitter=0.3:ooo=0.05:flow:pods=2:"
      "oversub=2";
  const std::vector<runtime::MultiJobEntry> jobs = runtime::ParseJobGroups(
      "3x{" + cluster + " model=AlexNet v2 policy=tac iterations=2 seed=1} "
      "2x{" + cluster + " model=Inception v2 policy=tic iterations=2 "
      "seed=1}@0.0123",
      64);
  for (const int threads : {1, 4}) {
    const runtime::ClusterSweep sweep(
        jobs, runtime::ClusterSweepOptions{.fabrics = 2,
                                           .num_threads = threads});
    ExpectGolden("stats/per-job/clustersweep-flow",
                 Fingerprint(sweep.Run().job_results));
  }
}

}  // namespace
}  // namespace tictac
