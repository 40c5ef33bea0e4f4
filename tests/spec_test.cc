// ExperimentSpec / SweepSpec grammar: parse ↔ ToString round trips,
// sweep expansion counts and ordering, ClusterConfig validation, and the
// size caps hostile specs run into.
#include "runtime/spec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "models/zoo.h"
#include "runtime/multijob.h"
#include "runtime/runner.h"

namespace tictac::runtime {
namespace {

void ExpectThrowWith(const std::function<void()>& fn,
                     const std::string& fragment) {
  try {
    fn();
    FAIL() << "expected std::invalid_argument containing '" << fragment
           << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(ExperimentSpec, ParsesTheIssueStyleSpec) {
  const auto spec = ExperimentSpec::Parse(
      "envG:workers=8:ps=4:training model=VGG-16 policy=tac");
  EXPECT_EQ(spec.cluster.env, "envG");
  EXPECT_EQ(spec.cluster.workers, 8);
  EXPECT_EQ(spec.cluster.ps, 4);
  EXPECT_TRUE(spec.cluster.training);
  EXPECT_EQ(spec.model, "VGG-16");
  EXPECT_EQ(spec.policy, "tac");
  EXPECT_EQ(spec.iterations, 10);  // default
  EXPECT_EQ(spec.seed, 1u);        // default
}

TEST(ExperimentSpec, ModelNamesMayContainSpaces) {
  const auto spec = ExperimentSpec::Parse(
      "envC:workers=2:ps=1:inference model=Inception v2 policy=tic");
  EXPECT_EQ(spec.model, "Inception v2");
  EXPECT_EQ(spec.cluster.env, "envC");
  EXPECT_FALSE(spec.cluster.training);
}

TEST(ExperimentSpec, RoundTripIdentity) {
  const char* specs[] = {
      "envG:workers=8:ps=4:training model=VGG-16 policy=tac",
      "envC:workers=2:ps=1:inference model=Inception v2 policy=random:7 "
      "iterations=3 seed=99",
      "envG:workers=4:ps=2:training:batch=0.5:chunk=4194304:"
      "enforce=chain:sigma=0.3 model=AlexNet v2 policy=reverse:tic",
      "envG:workers=2:ps=1:training:jitter=0.1:ooo=0 model=VGG-19",
      "envG:workers=4:ps=1:training:speeds=1,1,1,0.5 model=Inception v1",
  };
  for (const char* text : specs) {
    const auto spec = ExperimentSpec::Parse(text);
    const auto reparsed = ExperimentSpec::Parse(spec.ToString());
    EXPECT_EQ(spec, reparsed) << text;
    EXPECT_EQ(spec.ToString(), reparsed.ToString()) << text;
  }
}

TEST(ExperimentSpec, RoundTripsDoublesNeedingFullPrecision) {
  // 0.1 + 0.2 needs 17 significant digits; a 15-digit emit would parse
  // back to a different double (and alias Session cache keys).
  ExperimentSpec spec;
  spec.model = "VGG-16";
  spec.cluster.jitter_sigma = 0.1 + 0.2;
  spec.cluster.batch_factor = 1.0 / 3.0;
  const auto reparsed = ExperimentSpec::Parse(spec.ToString());
  EXPECT_EQ(spec, reparsed);
  // Friendly values still print short.
  EXPECT_EQ(FormatDouble(0.5), "0.5");
  EXPECT_EQ(FormatDouble(0.1), "0.1");
}

TEST(ExperimentSpec, ByteSuffixesAndEnforcementTokens) {
  const auto spec = ExperimentSpec::Parse(
      "envG:workers=4:ps=2:inference:chunk=4M:enforce=priority "
      "model=VGG-16");
  EXPECT_EQ(spec.cluster.chunk_bytes, 4ll << 20);
  EXPECT_EQ(spec.cluster.enforcement, Enforcement::kPriorityOnly);
  const auto kib = ExperimentSpec::Parse(
      "envG:workers=4:ps=2:inference:chunk=512KiB model=VGG-16");
  EXPECT_EQ(kib.cluster.chunk_bytes, 512ll << 10);
}

TEST(ExperimentSpec, ActionableParseErrors) {
  ExpectThrowWith([] { ExperimentSpec::Parse(""); }, "empty");
  ExpectThrowWith([] { ExperimentSpec::Parse("envG:workers=4 policy=tic"); },
                  "model=");
  ExpectThrowWith(
      [] { ExperimentSpec::Parse("envX:workers=4 model=VGG-16"); }, "envX");
  ExpectThrowWith(
      [] {
        ExperimentSpec::Parse("envG:workerz=4:ps=1 model=VGG-16");
      },
      "workerz");
  ExpectThrowWith(
      [] {
        ExperimentSpec::Parse("envG:workers=four:ps=1 model=VGG-16");
      },
      "integer");
  ExpectThrowWith(
      [] {
        ExperimentSpec::Parse(
            "envG:workers=4:ps=1 model=VGG-16 frobnicate=1");
      },
      "frobnicate");
  // Duplicate field tokens would be silent last-wins otherwise.
  ExpectThrowWith(
      [] {
        SweepSpec::Parse("envG:workers=4:ps=1 models=VGG-16 "
                         "policies=baseline,tic policies=tac");
      },
      "duplicate");
  ExpectThrowWith(
      [] {
        SweepSpec::Parse("envG:workers=4:ps=1 models=VGG-16 seed=1 seed=2");
      },
      "duplicate");
  ExpectThrowWith(
      [] {
        ExperimentSpec::Parse(
            "envG:workers=4:ps=1 model=VGG-16 iterations=0");
      },
      "iterations");
  // Lists belong to sweeps.
  ExpectThrowWith(
      [] {
        ExperimentSpec::Parse("envG:workers=2,4:ps=1 model=VGG-16");
      },
      "SweepSpec");
  // Out-of-int-range axes fail instead of truncating/wrapping.
  ExpectThrowWith(
      [] {
        ExperimentSpec::Parse("envG:workers=4294967297:ps=1 model=VGG-16");
      },
      "workers");
  ExpectThrowWith(
      [] {
        ExperimentSpec::Parse(
            "envG:workers=4:ps=1:chunk=8589934592G model=VGG-16");
      },
      "overflow");
}

// Hostile sizes get a precise error naming the knob before anything is
// sized from them: iterations= past kMaxIterations at parse time, and a
// cluster whose lowering would pass ir::kMaxLoweredTasks (workers= x
// worker-graph ops) or, for a ring, ir::kMaxLoweredPredEntries (ring
// transfers x workers) before the lowering reserves its columns. All
// used to end in a bare std::bad_alloc.
TEST(ExperimentSpec, HostileSizesNameTheirKnob) {
  ExpectThrowWith(
      [] {
        ExperimentSpec::Parse("envG:workers=2:ps=1 model=AlexNet v2 "
                              "iterations=2000000000");
      },
      "iterations must be in [1, 1000000], got 2000000000");
  ExpectThrowWith(
      [] {
        SweepSpec::Parse("envG:workers=2:ps=1 models=AlexNet v2 "
                         "iterations=1000001");
      },
      "iterations");
  ExpectThrowWith(
      [] {
        MultiJobSpec::Parse("{envG:workers=2:ps=1 model=AlexNet v2 "
                            "iterations=2000000000}");
      },
      "iterations");
  EXPECT_EQ(ExperimentSpec::Parse("envG:workers=2:ps=1 model=AlexNet v2 "
                                  "iterations=1000000")
                .iterations,
            kMaxIterations);
  EXPECT_THROW(Runner(models::FindModel("AlexNet v2"), EnvG(2, 1, false))
                   .Run("tic", kMaxIterations + 1, 1),
               std::invalid_argument);

  // workers=1048576 is inside the grammar's range; its lowering is not.
  const ExperimentSpec wide = ExperimentSpec::Parse(
      "envG:workers=1048576:ps=1 model=AlexNet v2 policy=tac iterations=1");
  const Runner runner(models::FindModel(wide.model), wide.BuildCluster());
  ExpectThrowWith([&] { runner.Run(wide.policy, 1, 1); },
                  "lowering: workers=1048576 x ");
  ExpectThrowWith([&] { runner.Run(wide.policy, 1, 1); },
                  "ir::kMaxLoweredTasks");

  // A 512-worker ring: 16 parameter rings x 1022 rounds x 512 transfers
  // fit the task budget, but each transfer lists 512 preds.
  const ExperimentSpec ring = ExperimentSpec::Parse(
      "envG:workers=512:ps=1:training:topology=ring model=AlexNet v2 "
      "policy=tac iterations=1");
  const Runner ring_runner(models::FindModel(ring.model), ring.BuildCluster());
  ExpectThrowWith([&] { ring_runner.Run(ring.policy, 1, 1); },
                  "lowering: workers=512 x 8372224 ring transfers + ");
  ExpectThrowWith([&] { ring_runner.Run(ring.policy, 1, 1); },
                  "(ir::kMaxLoweredPredEntries); lower workers=");
}

TEST(ExperimentSpec, SeedsBeyondInt64RoundTrip) {
  ExperimentSpec spec;
  spec.model = "VGG-16";
  spec.seed = 1ull << 63;  // not representable as a signed 64-bit value
  const auto reparsed = ExperimentSpec::Parse(spec.ToString());
  EXPECT_EQ(reparsed.seed, 1ull << 63);
  EXPECT_EQ(spec, reparsed);
}

TEST(ClusterConfig, ValidateRejectsOutOfRangeFields) {
  ClusterConfig config = EnvG(4, 1, true);
  EXPECT_NO_THROW(config.Validate());

  config.num_workers = 0;
  ExpectThrowWith([&] { config.Validate(); }, "num_workers");
  config = EnvG(4, 1, true);
  config.num_ps = 0;
  ExpectThrowWith([&] { config.Validate(); }, "num_ps");
  config = EnvG(4, 1, true);
  config.batch_factor = -1.0;
  ExpectThrowWith([&] { config.Validate(); }, "batch_factor");
  config = EnvG(4, 1, true);
  config.chunk_bytes = -5;
  ExpectThrowWith([&] { config.Validate(); }, "chunk_bytes");
  config = EnvG(4, 1, true);
  config.worker_speed_factors = {1.0, 1.0};  // 2 factors, 4 workers
  ExpectThrowWith([&] { config.Validate(); }, "worker_speed_factors");
  config.worker_speed_factors = {1.0, 1.0, 1.0, 0.0};
  ExpectThrowWith([&] { config.Validate(); }, "worker_speed_factors[3]");
  config = EnvG(4, 1, true);
  config.sim.out_of_order_probability = 1.5;  // typo for 0.15
  ExpectThrowWith([&] { config.Validate(); }, "out_of_order_probability");
  config = EnvG(4, 1, true);
  config.tac_oracle_sigma = std::numeric_limits<double>::quiet_NaN();
  ExpectThrowWith([&] { config.Validate(); }, "tac_oracle_sigma");
  config = EnvG(4, 1, true);
  config.sim.jitter_sigma = -0.1;
  ExpectThrowWith([&] { config.Validate(); }, "jitter_sigma");
  config = EnvG(4, 1, true);
  config.sim.jitter_sigma = 1e308;  // exp(sigma·z) overflows
  ExpectThrowWith([&] { config.Validate(); }, "jitter_sigma");
  config.sim.jitter_sigma = kMaxNoiseSigma;
  EXPECT_NO_THROW(config.Validate());
  config.tac_oracle_sigma = std::nextafter(kMaxNoiseSigma, 11.0);
  ExpectThrowWith([&] { config.Validate(); }, "tac_oracle_sigma");
  config = EnvG(4, 1, true);
  config.batch_factor = std::numeric_limits<double>::infinity();
  ExpectThrowWith([&] { config.Validate(); }, "batch_factor");
  config = EnvG(4, 1, true);
  config.worker_speed_factors = {1.0, 1.0, 1.0,
                                 std::numeric_limits<double>::infinity()};
  ExpectThrowWith([&] { config.Validate(); }, "worker_speed_factors[3]");
}

TEST(ClusterConfig, SimOverridesValidatedAtParseTime) {
  ExpectThrowWith(
      [] {
        ExperimentSpec::Parse("envG:workers=2:ps=1:ooo=1.5 model=VGG-16");
      },
      "out_of_order_probability");
  ExpectThrowWith(
      [] {
        ExperimentSpec::Parse(
            "envG:workers=2:ps=1:sigma=nan model=VGG-16");
      },
      "tac_oracle_sigma");
}

TEST(ClusterSpec, BuildAppliesOverridesOnTopOfEnv) {
  ClusterSpec spec;
  spec.env = "envC";
  spec.workers = 3;
  spec.ps = 2;
  spec.training = true;
  spec.batch_factor = 2.0;
  spec.chunk_bytes = 1024;
  spec.enforcement = Enforcement::kDagChain;
  spec.tac_oracle_sigma = 0.25;
  spec.jitter_sigma = 0.5;
  spec.out_of_order = 0.0;
  const ClusterConfig config = spec.Build();
  const ClusterConfig reference = EnvC(3, 2, true);
  EXPECT_EQ(config.num_workers, 3);
  EXPECT_EQ(config.num_ps, 2);
  EXPECT_TRUE(config.training);
  EXPECT_EQ(config.batch_factor, 2.0);
  EXPECT_EQ(config.chunk_bytes, 1024);
  EXPECT_EQ(config.enforcement, Enforcement::kDagChain);
  EXPECT_EQ(config.tac_oracle_sigma, 0.25);
  EXPECT_EQ(config.sim.jitter_sigma, 0.5);
  EXPECT_EQ(config.sim.out_of_order_probability, 0.0);
  // Untouched platform constants come from the environment.
  EXPECT_EQ(config.platform.compute_rate, reference.platform.compute_rate);
  EXPECT_EQ(config.platform.bandwidth_bps,
            reference.platform.bandwidth_bps);
}

TEST(ClusterSpec, ParseTimeValidation) {
  // ExperimentSpec::Parse materializes the cluster once so a structurally
  // valid but out-of-range spec fails at parse time, not at Run time.
  ExpectThrowWith(
      [] {
        ExperimentSpec::Parse(
            "envG:workers=4:ps=1:speeds=1,1 model=VGG-16");
      },
      "worker_speed_factors");
  ExpectThrowWith(
      [] { ExperimentSpec::Parse("envG:workers=0:ps=1 model=VGG-16"); },
      "workers");
}

TEST(SweepSpec, ExpansionCountsAndOrdering) {
  const auto sweep = SweepSpec::Parse(
      "envG:workers=2,4:ps=1,2:task=inference,training "
      "models=VGG-16,Inception v2 policies=baseline,tic seed=5");
  EXPECT_EQ(sweep.size(), 2u * 2u * 2u * 2u * 2u);
  const auto specs = sweep.Expand();
  ASSERT_EQ(specs.size(), sweep.size());

  // Policy varies fastest; model slowest.
  EXPECT_EQ(specs[0].model, "VGG-16");
  EXPECT_EQ(specs[0].policy, "baseline");
  EXPECT_FALSE(specs[0].cluster.training);
  EXPECT_EQ(specs[0].cluster.workers, 2);
  EXPECT_EQ(specs[0].cluster.ps, 1);
  EXPECT_EQ(specs[1].policy, "tic");
  EXPECT_EQ(specs[1].model, specs[0].model);
  EXPECT_EQ(specs[2].cluster.ps, 2);
  EXPECT_EQ(specs[16].model, "Inception v2");

  // Every spec carries the shared scalars.
  for (const auto& spec : specs) {
    EXPECT_EQ(spec.seed, 5u);
    EXPECT_EQ(spec.iterations, 10);
  }

  // Deterministic: re-expansion is identical.
  EXPECT_EQ(specs, sweep.Expand());
}

// Expand nests model → task → workers → ps → batch → chunk → shard →
// topology → enforce → sigma → policy: with two values on every axis,
// bit k of a spec's index (policy is bit 0) picks its value on axis k.
TEST(SweepSpec, ExpansionNestsEveryAxisInOrder) {
  const SweepSpec sweep = SweepSpec::Parse(
      "envG:workers=2,4:ps=1,2:task=inference,training:batch=0.5,1:"
      "chunk=0,1M:shard=bytes,even:topology=ps,ring:enforce=priority,gate:"
      "sigma=0,0.5 models=AlexNet v2,VGG-16 policies=tic,tac");
  const std::vector<ExperimentSpec> specs = sweep.Expand();
  ASSERT_EQ(specs.size(), 2048u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto bit = [i](int k) { return ((i >> k) & 1) == 1; };
    const ClusterSpec& c = specs[i].cluster;
    EXPECT_EQ(specs[i].policy, bit(0) ? "tac" : "tic") << i;
    EXPECT_EQ(c.tac_oracle_sigma, bit(1) ? 0.5 : 0.0) << i;
    EXPECT_EQ(c.enforcement, bit(2) ? Enforcement::kHandoffGate
                                    : Enforcement::kPriorityOnly)
        << i;
    EXPECT_EQ(c.topology, bit(3) ? Topology::kRing : Topology::kPsFabric)
        << i;
    EXPECT_EQ(c.shard, bit(4) ? ShardStrategy::kEven : ShardStrategy::kBytes)
        << i;
    EXPECT_EQ(c.chunk_bytes, bit(5) ? 1 << 20 : 0) << i;
    EXPECT_EQ(c.batch_factor, bit(6) ? 1.0 : 0.5) << i;
    EXPECT_EQ(c.ps, bit(7) ? 2 : 1) << i;
    EXPECT_EQ(c.workers, bit(8) ? 4 : 2) << i;
    EXPECT_EQ(c.training, bit(9)) << i;
    EXPECT_EQ(specs[i].model, bit(10) ? "VGG-16" : "AlexNet v2") << i;
  }
}

TEST(SweepSpec, RoundTripIdentity) {
  const char* sweeps[] = {
      "envG:workers=1,2,4,8:ps=1:inference models=VGG-16 "
      "policies=baseline,tic iterations=10 seed=1",
      "envC:workers=4:ps=1,2:task=inference,training:batch=0.5,1,2 "
      "models=Inception v2,AlexNet v2 policies=tic,tac seed=7",
      "envG:workers=2:ps=1:training:chunk=0,4194304:enforce=priority,gate "
      "models=VGG-19 policies=tac",
      "envG:workers=2:ps=1:training:sigma=0,0.3,1 models=VGG-16 "
      "policies=tac",
  };
  for (const char* text : sweeps) {
    const auto sweep = SweepSpec::Parse(text);
    const auto reparsed = SweepSpec::Parse(sweep.ToString());
    EXPECT_EQ(sweep, reparsed) << text;
    EXPECT_EQ(sweep.ToString(), reparsed.ToString()) << text;
  }
}

TEST(SweepSpec, SingularAliasesAndDefaults) {
  const auto sweep =
      SweepSpec::Parse("envG:workers=4:ps=1 model=VGG-16 policy=tac");
  EXPECT_EQ(sweep.models, std::vector<std::string>{"VGG-16"});
  EXPECT_EQ(sweep.policies, std::vector<std::string>{"tac"});
  EXPECT_EQ(sweep.size(), 1u);
  // A sweep with all-singleton axes is exactly one ExperimentSpec.
  const auto spec = ExperimentSpec::Parse(
      "envG:workers=4:ps=1 model=VGG-16 policy=tac");
  EXPECT_EQ(sweep.Expand().front(), spec);
}

TEST(SweepSpec, RejectsEmptyAxes) {
  ExpectThrowWith([] { SweepSpec().Expand(); }, "models");
  ExpectThrowWith([] { SweepSpec::Parse("envG:workers=4 policies=tic"); },
                  "model=");
  // Every axis fails loudly when emptied programmatically — a zero-spec
  // sweep is a bug, not an empty result.
  SweepSpec sweep;
  sweep.models = {"VGG-16"};
  sweep.policies.clear();
  ExpectThrowWith([&] { sweep.Expand(); }, "policies");
  sweep.policies = {"tic"};
  sweep.workers.clear();
  ExpectThrowWith([&] { sweep.Expand(); }, "workers");
}

TEST(EnforcementTokens, RoundTrip) {
  for (const Enforcement e :
       {Enforcement::kPriorityOnly, Enforcement::kHandoffGate,
        Enforcement::kDagChain}) {
    EXPECT_EQ(ParseEnforcement(EnforcementToken(e)), e);
  }
  EXPECT_THROW(ParseEnforcement("dag"), std::invalid_argument);
}

TEST(ExperimentSpec, ShardAndTopologyKnobsRoundTripExactly) {
  const auto spec = ExperimentSpec::Parse(
      "envG:workers=4:ps=2:training:chunk=1M:shard=even "
      "model=VGG-16 policy=tac");
  EXPECT_EQ(spec.cluster.shard, ShardStrategy::kEven);
  EXPECT_EQ(spec.cluster.topology, Topology::kPsFabric);
  // Non-default shard= is emitted (after chunk=, before enforce=);
  // default topology is omitted from the canonical form.
  const std::string text = spec.ToString();
  EXPECT_NE(text.find(":chunk=1048576:shard=even"), std::string::npos)
      << text;
  EXPECT_EQ(text.find(":topology="), std::string::npos) << text;
  EXPECT_EQ(ExperimentSpec::Parse(text), spec);
  EXPECT_EQ(ExperimentSpec::Parse(text).ToString(), text);

  const auto ring = ExperimentSpec::Parse(
      "envG:workers=4:ps=1:training:topology=ring model=VGG-16 "
      "policy=baseline");
  EXPECT_EQ(ring.cluster.topology, Topology::kRing);
  EXPECT_NE(ring.ToString().find(":topology=ring"), std::string::npos)
      << ring.ToString();
  EXPECT_EQ(ExperimentSpec::Parse(ring.ToString()), ring);
  EXPECT_EQ(ExperimentSpec::Parse(ring.ToString()).ToString(),
            ring.ToString());
}

TEST(ExperimentSpec, ShardAndTopologyRejectUnknownValuesAndLists) {
  ExpectThrowWith(
      [] {
        ExperimentSpec::Parse(
            "envG:workers=4:ps=1:shard=hash model=VGG-16");
      },
      "hash");
  ExpectThrowWith(
      [] {
        ExperimentSpec::Parse(
            "envG:workers=4:ps=1:topology=mesh model=VGG-16");
      },
      "mesh");
  // Comma lists on these axes belong to SweepSpec, like every other axis.
  EXPECT_THROW(ExperimentSpec::Parse(
                   "envG:workers=4:ps=1:shard=bytes,even model=VGG-16"),
               std::invalid_argument);
  EXPECT_THROW(
      ExperimentSpec::Parse(
          "envG:workers=4:ps=1:training:topology=ps,ring model=VGG-16"),
      std::invalid_argument);
}

TEST(SweepSpec, ShardAndTopologyAxesExpandAndRoundTrip) {
  const auto sweep = SweepSpec::Parse(
      "envG:workers=2:ps=2:training:shard=bytes,even:topology=ps,ring "
      "models=VGG-16 policies=tic");
  EXPECT_EQ(sweep.shards, (std::vector<ShardStrategy>{
                              ShardStrategy::kBytes, ShardStrategy::kEven}));
  EXPECT_EQ(sweep.topologies, (std::vector<Topology>{Topology::kPsFabric,
                                                     Topology::kRing}));
  EXPECT_EQ(sweep.size(), 4u);
  const auto specs = sweep.Expand();
  ASSERT_EQ(specs.size(), 4u);
  // Nesting: shard varies slower than topology (chunk → shard →
  // topology → enforcement → ... → policy).
  EXPECT_EQ(specs[0].cluster.shard, ShardStrategy::kBytes);
  EXPECT_EQ(specs[0].cluster.topology, Topology::kPsFabric);
  EXPECT_EQ(specs[1].cluster.shard, ShardStrategy::kBytes);
  EXPECT_EQ(specs[1].cluster.topology, Topology::kRing);
  EXPECT_EQ(specs[2].cluster.shard, ShardStrategy::kEven);
  EXPECT_EQ(specs[2].cluster.topology, Topology::kPsFabric);

  const auto reparsed = SweepSpec::Parse(sweep.ToString());
  EXPECT_EQ(reparsed, sweep);
  EXPECT_EQ(reparsed.ToString(), sweep.ToString());
  // Default-valued axes stay out of the canonical form.
  const auto plain = SweepSpec::Parse("envG:workers=2:ps=1 models=VGG-16");
  EXPECT_EQ(plain.ToString().find(":shard="), std::string::npos);
  EXPECT_EQ(plain.ToString().find(":topology="), std::string::npos);
}

TEST(ExperimentSpec, FlowKnobsParseBuildAndRoundTrip) {
  const auto spec = ExperimentSpec::Parse(
      "envG:workers=8:ps=4:training:flow:pods=4:oversub=2.5 "
      "model=VGG-16 policy=tac");
  EXPECT_TRUE(spec.cluster.flow);
  EXPECT_EQ(spec.cluster.pods, 4);
  EXPECT_DOUBLE_EQ(spec.cluster.oversub, 2.5);

  const ClusterConfig config = spec.BuildCluster();
  EXPECT_TRUE(config.flow_fairness);
  EXPECT_EQ(config.fabric_pods, 4);
  EXPECT_DOUBLE_EQ(config.fabric_oversubscription, 2.5);

  EXPECT_EQ(ExperimentSpec::Parse(spec.ToString()), spec);
  EXPECT_NE(spec.ToString().find(":flow:pods=4:oversub=2.5"),
            std::string::npos);

  // Defaults stay invisible in the canonical form.
  const auto plain = ExperimentSpec::Parse(
      "envG:workers=8:ps=4:training model=VGG-16 policy=tac");
  EXPECT_FALSE(plain.cluster.flow);
  EXPECT_FALSE(plain.BuildCluster().flow_fairness);
  EXPECT_EQ(plain.ToString().find(":flow"), std::string::npos);
  EXPECT_EQ(plain.ToString().find(":pods="), std::string::npos);
  EXPECT_EQ(plain.ToString().find(":oversub="), std::string::npos);
}

TEST(ExperimentSpec, FlowKnobsRejectListsAndBadValues) {
  ExpectThrowWith(
      [] {
        ExperimentSpec::Parse(
            "envG:workers=4:ps=2:training:pods=2,4 model=VGG-16");
      },
      "pods= is not a sweep axis");
  ExpectThrowWith(
      [] {
        ExperimentSpec::Parse(
            "envG:workers=4:ps=2:training:oversub=0 model=VGG-16");
      },
      "oversub must be > 0");
  // pods > hosts is rejected at lowering time, not parse time, but
  // pods < 1 is structural and fails eagerly.
  ExpectThrowWith(
      [] {
        ExperimentSpec::Parse(
            "envG:workers=4:ps=2:training:pods=0 model=VGG-16");
      },
      "pods");
  // The flow model covers the PS fabric only.
  ExpectThrowWith(
      [] {
        ExperimentSpec::Parse(
            "envG:workers=4:ps=1:training:topology=ring:flow model=VGG-16");
      },
      "flow");
}

TEST(SweepSpec, FlowKnobsAreScalarsMirroredIntoEveryCluster) {
  const auto sweep = SweepSpec::Parse(
      "envG:workers=2,4:ps=2:training:flow:pods=2:oversub=4 "
      "models=VGG-16 policies=tic,tac");
  EXPECT_TRUE(sweep.flow);
  EXPECT_EQ(sweep.pods, 2);
  EXPECT_DOUBLE_EQ(sweep.oversub, 4.0);
  EXPECT_EQ(SweepSpec::Parse(sweep.ToString()), sweep);

  const auto specs = sweep.Expand();
  ASSERT_EQ(specs.size(), 4u);
  for (const ExperimentSpec& spec : specs) {
    EXPECT_TRUE(spec.cluster.flow);
    EXPECT_EQ(spec.cluster.pods, 2);
    EXPECT_DOUBLE_EQ(spec.cluster.oversub, 4.0);
  }
}

// A repeated cluster setting is rejected naming it, as the whitespace
// keys already were. training, inference and task= are one key.
TEST(ClusterSpec, RejectsRepeatedSettingsNamingThem) {
  const std::pair<const char*, const char*> cases[] = {
      {"envG:workers=4:workers=2:ps=1",
       "duplicate cluster setting 'workers' in 'envG:workers=4:workers=2:"
       "ps=1'"},
      {"envG:workers=4:ps=1:training:inference",
       "duplicate cluster setting 'inference' in 'envG:workers=4:ps=1:"
       "training:inference' (already set by 'training')"},
      {"envG:workers=4:ps=1:task=training:training",
       "duplicate cluster setting 'training'"},
      {"envG:workers=4:ps=1:training:flow:flow",
       "duplicate cluster setting 'flow'"},
      {"envG:workers=4:ps=1:training:flow:oversub=2:oversub=1",
       "duplicate cluster setting 'oversub'"},
      {"envG:workers=4:ps=1:sigma=0:sigma=0.5", "duplicate cluster setting "
                                               "'sigma'"},
  };
  for (const auto& [cluster, message] : cases) {
    ExpectThrowWith(
        [&] { SweepSpec::Parse(std::string(cluster) + " models=VGG-16"); },
        message);
    ExpectThrowWith(
        [&] { ExperimentSpec::Parse(std::string(cluster) + " model=VGG-16"); },
        message);
  }
}

// One case per row of the cluster-setting table, in table order. Each
// setting s sits between `before` and `after` in a canonical cluster
// text; `at_default` (when the row has an omittable default) must drop
// out of the canonical form, every `canonical` setting (each bound and a
// non-default value) must print back as written, and every `rejected`
// setting (one step past a bound) must fail with `fragment`, which names
// the key, or for the bounds only ClusterConfig::Validate holds (ooo=,
// speeds=, inf) the config field; the ooo= cases also pin the offending
// value at round-trip precision. Axis rows go through SweepSpec; the
// others through ExperimentSpec, which runs Validate.
struct SettingCase {
  std::string name;
  bool axis;
  std::string before;
  std::string after;
  std::string at_default;  // empty: always printed, or no such setting
  std::vector<std::string> canonical;
  std::vector<std::pair<std::string, std::string>> rejected;
};

const std::string kTiny = "4.94065645841247e-324";  // least positive
const std::string kHuge = "1.7976931348623157e+308";  // largest finite
const std::string kNegTiny = "-" + kTiny;

std::vector<SettingCase> SettingCases() {
  const std::string cluster = "envG:workers=4:ps=1:training:";
  const std::string flow = cluster + "flow:";
  const std::string counts = "must be in [1, 1048576]";
  return {
      {"workers", true, "envG:", ":ps=1:training", "",
       {"workers=1", "workers=1048576", "workers=8"},
       {{"workers=0", "workers " + counts},
        {"workers=1048577", "workers " + counts}}},
      {"ps", true, "envG:workers=4:", ":training", "",
       {"ps=1", "ps=1048576", "ps=3"},
       {{"ps=0", "ps " + counts}, {"ps=1048577", "ps " + counts}}},
      {"training", false, "envG:workers=4:ps=1:", "", "", {"training"},
       {{"training=1", "unknown cluster setting 'training'"}}},
      {"inference", false, "envG:workers=4:ps=1:", "", "", {"inference"},
       {{"inference=1", "unknown cluster setting 'inference'"}}},
      {"task", true, "envG:workers=4:ps=1:", "", "",
       {"task=inference,training", "task=training,training"},
       {{"task=train", "task= expects 'inference' or 'training'"}}},
      {"batch", true, cluster, "", "batch=1",
       {"batch=" + kTiny, "batch=" + kHuge, "batch=0.5"},
       {{"batch=0", "batch must be > 0"}, {"batch=inf", "batch_factor"}}},
      {"chunk", true, cluster, "", "chunk=0",
       {"chunk=9223372036854775807", "chunk=4194304"},
       {{"chunk=-1", "chunk must be >= 0"},
        {"chunk=9223372036854775808", "chunk= expects an integer"},
        {"chunk=8589934592G", "chunk= overflows"}}},
      {"shard", true, cluster, "", "shard=bytes", {"shard=even"},
       {{"shard=hash", "unknown shard strategy 'hash'"}}},
      {"topology", true, cluster, "", "topology=ps", {"topology=ring"},
       {{"topology=mesh", "unknown topology 'mesh'"}}},
      {"enforce", true, cluster, "", "enforce=gate",
       {"enforce=priority", "enforce=chain"},
       {{"enforce=dag", "unknown enforcement 'dag'"}}},
      {"sigma", true, cluster, "", "sigma=0", {"sigma=10", "sigma=0.3"},
       {{"sigma=" + kNegTiny, "sigma must be >= 0"},
        {"sigma=10.000000000000002", "sigma= must be at most 10"}}},
      {"jitter", false, cluster, "", "",
       {"jitter=0", "jitter=10", "jitter=0.1"},
       {{"jitter=" + kNegTiny, "jitter_sigma"},
        {"jitter=10.000000000000002", "jitter= must be at most 10"},
        {"jitter=0,1", "jitter= is not a sweep axis"}}},
      {"ooo", false, cluster, "", "", {"ooo=0", "ooo=1", "ooo=0.25"},
       {{"ooo=" + kNegTiny, "out_of_order_probability must be in [0, 1], "
                             "got " + kNegTiny},
        {"ooo=1.0000000000000002",
         "out_of_order_probability must be in [0, 1], "
         "got 1.0000000000000002"},
        {"ooo=0,1", "ooo= is not a sweep axis"}}},
      {"speeds", false, cluster, "", "",
       {"speeds=" + kTiny + ",1,1," + kHuge, "speeds=1,1,1,0.5"},
       {{"speeds=1,0,1,1", "worker_speed_factors[1]"},
        {"speeds=1,1,1,inf", "worker_speed_factors[3]"},
        {"speeds=1,1", "worker_speed_factors"}}},
      {"flow", false, cluster, "", "", {"flow"},
       {{"flow=1", "unknown cluster setting 'flow'"}}},
      {"pods", false, flow, "", "pods=1", {"pods=1048576", "pods=2"},
       {{"pods=0", "pods " + counts},
        {"pods=1048577", "pods " + counts},
        {"pods=2,4", "pods= is not a sweep axis"}}},
      {"oversub", false, flow, "", "oversub=1",
       {"oversub=" + kTiny, "oversub=" + kHuge, "oversub=2.5"},
       {{"oversub=0", "oversub must be > 0"},
        {"oversub=inf", "fabric_oversubscription"}}},
  };
}

// The canonical text of `cluster` parsed as a one-row sweep or spec.
std::string Canonical(const std::string& cluster, bool sweep) {
  return sweep ? SweepSpec::Parse(cluster + " models=AlexNet v2").ToString()
               : ExperimentSpec::Parse(cluster + " model=AlexNet v2")
                     .ToString();
}

TEST(ClusterSpec, EverySettingRoundTripsAtItsBoundsAndDefault) {
  const std::string sweep_tail =
      " models=AlexNet v2 policies=tic iterations=10 seed=1";
  const std::string spec_tail =
      " model=AlexNet v2 policy=tic iterations=10 seed=1";
  for (const SettingCase& row : SettingCases()) {
    const std::string& tail = row.axis ? sweep_tail : spec_tail;
    if (!row.at_default.empty()) {
      const std::string omitted =
          row.before.substr(0, row.before.size() - 1) + row.after;
      EXPECT_EQ(Canonical(row.before + row.at_default + row.after, row.axis),
                omitted + tail)
          << row.name;
    }
    for (const std::string& setting : row.canonical) {
      const std::string text = row.before + setting + row.after;
      EXPECT_EQ(Canonical(text, row.axis), text + tail) << row.name;
      // Expand nests every axis: one spec per value, each carrying it.
      const SweepSpec sweep = SweepSpec::Parse(text + " models=AlexNet v2");
      const std::vector<ExperimentSpec> specs = sweep.Expand();
      ASSERT_EQ(specs.size(), sweep.size()) << text;
      if (specs.size() == 1) {
        EXPECT_EQ(specs[0].cluster.ToString(), text);
      }
    }
    for (const auto& [setting, fragment] : row.rejected) {
      ExpectThrowWith(
          [&] {
            ExperimentSpec::Parse(row.before + setting + row.after +
                                  " model=AlexNet v2");
          },
          fragment);
    }
  }
}

TEST(ClusterSpec, UnknownSettingListsEveryRowInTableOrder) {
  std::string names;
  for (const SettingCase& row : SettingCases()) {
    names += (names.empty() ? "" : ", ") + row.name;
  }
  ExpectThrowWith(
      [] { ExperimentSpec::Parse("envG:workers=4:nosuch=1 model=VGG-16"); },
      "unknown cluster setting 'nosuch' in 'envG:workers=4:nosuch=1' "
      "(known: " + names + ")");
}

}  // namespace
}  // namespace tictac::runtime
