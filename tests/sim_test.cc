#include "sim/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace tictac::sim {
namespace {

Task MakeTask(double duration, int resource,
              std::vector<TaskId> preds = {}) {
  Task t;
  t.duration = duration;
  t.resource = resource;
  t.preds = std::move(preds);
  return t;
}

TEST(Engine, SingleResourceSerializes) {
  std::vector<Task> tasks{MakeTask(1.0, 0), MakeTask(2.0, 0),
                          MakeTask(3.0, 0)};
  TaskGraphSim sim(TaskGraph(tasks), 1);
  sim.Validate();
  const SimResult r = sim.Run({}, 1);
  EXPECT_DOUBLE_EQ(r.makespan, 6.0);
}

TEST(Engine, IndependentResourcesRunInParallel) {
  std::vector<Task> tasks{MakeTask(5.0, 0), MakeTask(3.0, 1)};
  TaskGraphSim sim(TaskGraph(tasks), 2);
  const SimResult r = sim.Run({}, 1);
  EXPECT_DOUBLE_EQ(r.makespan, 5.0);
  EXPECT_DOUBLE_EQ(r.start[1], 0.0);
}

TEST(Engine, DependencyChainSerializesAcrossResources) {
  std::vector<Task> tasks{MakeTask(1.0, 0), MakeTask(2.0, 1, {0}),
                          MakeTask(3.0, 0, {1})};
  TaskGraphSim sim(TaskGraph(tasks), 2);
  const SimResult r = sim.Run({}, 1);
  EXPECT_DOUBLE_EQ(r.makespan, 6.0);
  EXPECT_DOUBLE_EQ(r.start[1], 1.0);
  EXPECT_DOUBLE_EQ(r.start[2], 3.0);
}

// Figure 1: recv1, recv2 on the NIC (resource 1); op1, op2 on the
// processor (resource 0). op1 needs recv1; op2 needs op1 and recv2.
TEST(Engine, Fig1GoodOrderBeatsBadOrder) {
  // Good order (recv1 first): makespan 3. Bad order (recv2 first): 4.
  for (const bool good : {true, false}) {
    std::vector<Task> tasks;
    Task recv1 = MakeTask(1.0, 1);
    recv1.priority = good ? 0 : 1;
    Task recv2 = MakeTask(1.0, 1);
    recv2.priority = good ? 1 : 0;
    tasks.push_back(recv1);                    // 0
    tasks.push_back(recv2);                    // 1
    tasks.push_back(MakeTask(1.0, 0, {0}));    // 2: op1 <- recv1
    tasks.push_back(MakeTask(1.0, 0, {2, 1})); // 3: op2 <- op1, recv2
    TaskGraphSim sim(TaskGraph(tasks), 2);
    const SimResult r = sim.Run({}, 7);
    EXPECT_DOUBLE_EQ(r.makespan, good ? 3.0 : 4.0);
  }
}

TEST(Engine, PrioritySelectsLowestNumber) {
  std::vector<Task> tasks;
  for (int i = 0; i < 4; ++i) {
    Task t = MakeTask(1.0, 0);
    t.priority = 3 - i;  // task 3 has priority 0
    tasks.push_back(t);
  }
  TaskGraphSim sim(TaskGraph(tasks), 1);
  const SimResult r = sim.Run({}, 5);
  EXPECT_EQ(r.start_order, (std::vector<TaskId>{3, 2, 1, 0}));
}

TEST(Engine, SparseAndNegativePrioritiesOrderCorrectly) {
  // Priorities are rank-compressed internally; arbitrary (even negative)
  // numbers must still order by value.
  std::vector<Task> tasks;
  const int priorities[] = {1000000, -5, 0, 42};
  for (const int p : priorities) {
    Task t = MakeTask(1.0, 0);
    t.priority = p;
    tasks.push_back(t);
  }
  TaskGraphSim sim(TaskGraph(tasks), 1);
  const SimResult r = sim.Run({}, 11);
  EXPECT_EQ(r.start_order, (std::vector<TaskId>{1, 2, 3, 0}));
}

TEST(Engine, LongGateCascadeReleasesAllRanks) {
  // All 64 gated transfers become dependency-ready at t=0 with ranks
  // reversed w.r.t. id; activating rank 0 must cascade-release the
  // entire chain in rank order.
  constexpr int kRanks = 64;
  std::vector<Task> tasks;
  for (int i = 0; i < kRanks; ++i) {
    Task t = MakeTask(1.0, 0);
    t.gate_group = 0;
    t.gate_rank = kRanks - 1 - i;
    t.priority = kRanks - 1 - i;
    tasks.push_back(t);
  }
  TaskGraphSim sim(TaskGraph(tasks), 1);
  sim.Validate();
  SimOptions opts;
  opts.enforce_gates = true;
  const SimResult r = sim.Run(opts, 13);
  ASSERT_EQ(r.start_order.size(), static_cast<std::size_t>(kRanks));
  for (int i = 0; i < kRanks; ++i) {
    EXPECT_EQ(r.start_order[static_cast<std::size_t>(i)],
              static_cast<TaskId>(kRanks - 1 - i));
  }
  EXPECT_DOUBLE_EQ(r.makespan, static_cast<double>(kRanks));
}

TEST(Engine, UnprioritizedTasksCompeteWithLowest) {
  // One priority-5 task and one unprioritized task: both are candidates,
  // so across seeds each should win sometimes.
  int unprioritized_first = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    std::vector<Task> tasks;
    Task a = MakeTask(1.0, 0);
    a.priority = 5;
    Task b = MakeTask(1.0, 0);  // no priority
    tasks.push_back(a);
    tasks.push_back(b);
    TaskGraphSim sim(TaskGraph(tasks), 1);
    const SimResult r = sim.Run({}, seed);
    if (r.start_order.front() == 1) ++unprioritized_first;
  }
  EXPECT_GT(unprioritized_first, 5);
  EXPECT_LT(unprioritized_first, 35);
}

TEST(Engine, BaselineOrderVariesAcrossSeeds) {
  auto make = [] {
    std::vector<Task> tasks;
    for (int i = 0; i < 8; ++i) tasks.push_back(MakeTask(1.0, 0));
    return tasks;
  };
  TaskGraphSim sim(TaskGraph(make()), 1);
  const auto a = sim.Run({}, 1).start_order;
  const auto b = sim.Run({}, 2).start_order;
  EXPECT_NE(a, b);
}

TEST(Engine, DeterministicForSameSeed) {
  std::vector<Task> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back(MakeTask(0.5 + 0.1 * i, i % 3));
  }
  TaskGraphSim sim(TaskGraph(tasks), 3);
  SimOptions opts;
  opts.jitter_sigma = 0.1;
  const SimResult a = sim.Run(opts, 99);
  const SimResult b = sim.Run(opts, 99);
  EXPECT_EQ(a.start_order, b.start_order);
  EXPECT_EQ(a.end, b.end);
}

TEST(Engine, GatesEnforceHandoffOrderOnOneChannel) {
  // Three gated transfers on one channel with ranks 2, 1, 0 by id: wire
  // order must follow rank order.
  std::vector<Task> tasks;
  for (int i = 0; i < 3; ++i) {
    Task t = MakeTask(1.0, 0);
    t.gate_group = 0;
    t.gate_rank = 2 - i;
    t.priority = 2 - i;
    tasks.push_back(t);
  }
  TaskGraphSim sim(TaskGraph(tasks), 1);
  SimOptions opts;
  opts.enforce_gates = true;
  const SimResult r = sim.Run(opts, 3);
  EXPECT_EQ(r.start_order, (std::vector<TaskId>{2, 1, 0}));
}

TEST(Engine, GateHandoffDoesNotBlockOtherChannels) {
  // Rank 0 is a long transfer on channel 0; rank 1 lives on channel 1.
  // Hand-off (enqueue) happens at activation, so channel 1 must start its
  // transfer immediately rather than waiting for channel 0's wire time.
  std::vector<Task> tasks;
  Task big = MakeTask(10.0, 0);
  big.gate_group = 0;
  big.gate_rank = 0;
  Task small = MakeTask(1.0, 1);
  small.gate_group = 0;
  small.gate_rank = 1;
  tasks.push_back(big);
  tasks.push_back(small);
  TaskGraphSim sim(TaskGraph(tasks), 2);
  SimOptions opts;
  opts.enforce_gates = true;
  const SimResult r = sim.Run(opts, 3);
  EXPECT_DOUBLE_EQ(r.start[1], 0.0);
  EXPECT_DOUBLE_EQ(r.makespan, 10.0);
}

TEST(Engine, GateWaitsForPredecessorRankActivation) {
  // Rank 1's transfer is dependency-ready at t=0, but rank 0 only
  // activates after a 5s compute: rank 1 must not be handed off first.
  std::vector<Task> tasks;
  tasks.push_back(MakeTask(5.0, 1));  // 0: compute gating rank 0's recv
  Task first = MakeTask(1.0, 0, {0});
  first.gate_group = 0;
  first.gate_rank = 0;
  Task second = MakeTask(1.0, 0);
  second.gate_group = 0;
  second.gate_rank = 1;
  tasks.push_back(first);   // 1
  tasks.push_back(second);  // 2
  TaskGraphSim sim(TaskGraph(tasks), 2);
  SimOptions opts;
  opts.enforce_gates = true;
  const SimResult r = sim.Run(opts, 3);
  EXPECT_DOUBLE_EQ(r.start[1], 5.0);
  EXPECT_DOUBLE_EQ(r.start[2], 6.0);
}

TEST(Engine, GatesIgnoredWhenDisabled) {
  std::vector<Task> tasks;
  Task a = MakeTask(1.0, 0);
  a.gate_group = 0;
  a.gate_rank = 1;  // would be second with gates on
  Task b = MakeTask(1.0, 1);
  b.gate_group = 0;
  b.gate_rank = 0;
  tasks.push_back(a);
  tasks.push_back(b);
  TaskGraphSim sim(TaskGraph(tasks), 2);
  SimOptions opts;
  opts.enforce_gates = false;
  const SimResult r = sim.Run(opts, 3);
  EXPECT_DOUBLE_EQ(r.makespan, 1.0);  // both start at 0 on their channels
}

TEST(Engine, OutOfOrderInjectionScramblesPriorities) {
  SimOptions opts;
  opts.out_of_order_probability = 1.0;
  int scrambled = 0;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    std::vector<Task> tasks;
    for (int i = 0; i < 6; ++i) {
      Task t = MakeTask(1.0, 0);
      t.priority = i;
      tasks.push_back(t);
    }
    TaskGraphSim sim(TaskGraph(tasks), 1);
    const SimResult r = sim.Run(opts, seed);
    std::vector<TaskId> in_order(6);
    for (int i = 0; i < 6; ++i) in_order[static_cast<std::size_t>(i)] = i;
    if (r.start_order != in_order) ++scrambled;
  }
  EXPECT_GT(scrambled, 25);
}

TEST(Engine, JitterPerturbsDurationsDeterministically) {
  std::vector<Task> tasks{MakeTask(1.0, 0)};
  TaskGraphSim sim(TaskGraph(tasks), 1);
  SimOptions opts;
  opts.jitter_sigma = 0.2;
  const double a = sim.Run(opts, 1).makespan;
  const double b = sim.Run(opts, 1).makespan;
  const double c = sim.Run(opts, 2).makespan;
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_GT(a, 0.0);
}

TEST(Engine, MakespanNeverExceedsSerialTotal) {
  // Work conservation: some resource is always busy, so the makespan is
  // bounded by the serial sum of durations.
  util::Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Task> tasks;
    double total = 0.0;
    for (int i = 0; i < 30; ++i) {
      Task t = MakeTask(rng.Uniform(0.1, 1.0),
                        static_cast<int>(rng.Index(4)));
      if (i > 0 && rng.Chance(0.5)) {
        t.preds.push_back(static_cast<TaskId>(rng.Index(static_cast<std::size_t>(i))));
      }
      total += t.duration;
      tasks.push_back(t);
    }
    TaskGraphSim sim(TaskGraph(tasks), 4);
    sim.Validate();
    const SimResult r = sim.Run({}, static_cast<std::uint64_t>(trial));
    EXPECT_LE(r.makespan, total + 1e-9);
    EXPECT_EQ(r.start_order.size(), 30u);
  }
}

TEST(Engine, AllTasksCompleteWithEndAfterStart) {
  std::vector<Task> tasks{MakeTask(1.0, 0), MakeTask(2.0, 1, {0}),
                          MakeTask(0.5, 0, {1})};
  TaskGraphSim sim(TaskGraph(tasks), 2);
  const SimResult r = sim.Run({}, 1);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GT(r.end[i], r.start[i]);
  }
}

TEST(Validate, RejectsBadGraphs) {
  {
    std::vector<Task> tasks{MakeTask(1.0, 5)};
    TaskGraphSim sim(TaskGraph(tasks), 2);
    EXPECT_THROW(sim.Validate(), std::invalid_argument);
  }
  {
    std::vector<Task> tasks{MakeTask(-1.0, 0)};
    TaskGraphSim sim(TaskGraph(tasks), 1);
    EXPECT_THROW(sim.Validate(), std::invalid_argument);
  }
  {
    std::vector<Task> tasks{MakeTask(1.0, 0, {0})};  // self-loop
    TaskGraphSim sim(TaskGraph(tasks), 1);
    EXPECT_THROW(sim.Validate(), std::invalid_argument);
  }
  {
    // Gate ranks must be dense per group.
    Task a = MakeTask(1.0, 0);
    a.gate_group = 0;
    a.gate_rank = 1;
    std::vector<Task> tasks{a};
    TaskGraphSim sim(TaskGraph(tasks), 1);
    EXPECT_THROW(sim.Validate(), std::invalid_argument);
  }
  {
    // Rank without group.
    Task a = MakeTask(1.0, 0);
    a.gate_rank = 0;
    std::vector<Task> tasks{a};
    TaskGraphSim sim(TaskGraph(tasks), 1);
    EXPECT_THROW(sim.Validate(), std::invalid_argument);
  }
}

TEST(Validate, AcceptsWellFormedGraph) {
  Task a = MakeTask(1.0, 0);
  a.gate_group = 0;
  a.gate_rank = 0;
  Task b = MakeTask(1.0, 0, {0});
  b.gate_group = 0;
  b.gate_rank = 1;
  std::vector<Task> tasks{a, b};
  TaskGraphSim sim(TaskGraph(tasks), 1);
  EXPECT_NO_THROW(sim.Validate());
}

// Mid-run resource perturbations (DESIGN.md §8): the fault path only
// engages for a non-empty timeline, speed is sampled at task start, and
// a zero speed parks the resource until a recovery event.

TEST(SimFaults, NullAndEmptyTimelinesMatchBitForBit) {
  std::vector<Task> tasks{MakeTask(2.0, 0), MakeTask(1.0, 1, {0}),
                          MakeTask(3.0, 0, {0})};
  TaskGraphSim sim(TaskGraph(tasks), 2);
  SimOptions options;
  const SimResult base = sim.Run(options, 7);
  const std::vector<ResourceFault> empty;
  options.faults = &empty;
  const SimResult faulted = sim.Run(options, 7);
  EXPECT_EQ(base.makespan, faulted.makespan);
  EXPECT_EQ(base.start, faulted.start);
  EXPECT_EQ(base.end, faulted.end);
  EXPECT_EQ(base.start_order, faulted.start_order);
}

TEST(SimFaults, SpeedIsSampledAtTaskStart) {
  // Resource 0 halves over [0, 3): the first task (nominal 2) starts at
  // 0 and takes 4 — the in-flight duration is NOT re-scaled when speed
  // recovers at 3. The successor starts at 4 back at full speed.
  std::vector<Task> tasks{MakeTask(2.0, 0), MakeTask(2.0, 0, {0})};
  TaskGraphSim sim(TaskGraph(tasks), 1);
  const std::vector<ResourceFault> faults{{0.0, 0, 0.5}, {3.0, 0, 1.0}};
  SimOptions options;
  options.faults = &faults;
  const SimResult r = sim.Run(options, 1);
  EXPECT_DOUBLE_EQ(r.end[0], 4.0);
  EXPECT_DOUBLE_EQ(r.start[1], 4.0);
  EXPECT_DOUBLE_EQ(r.end[1], 6.0);
  EXPECT_DOUBLE_EQ(r.makespan, 6.0);
}

TEST(SimFaults, DownResourceDelaysStartsOthersUnaffected) {
  // Resource 0 is down over [0, 2): its task waits for the recovery
  // event; resource 1 is untouched and runs at t = 0.
  std::vector<Task> tasks{MakeTask(1.0, 0), MakeTask(1.0, 1)};
  TaskGraphSim sim(TaskGraph(tasks), 2);
  const std::vector<ResourceFault> faults{{0.0, 0, 0.0}, {2.0, 0, 1.0}};
  SimOptions options;
  options.faults = &faults;
  const SimResult r = sim.Run(options, 1);
  EXPECT_DOUBLE_EQ(r.start[0], 2.0);
  EXPECT_DOUBLE_EQ(r.end[0], 3.0);
  EXPECT_DOUBLE_EQ(r.start[1], 0.0);
  EXPECT_DOUBLE_EQ(r.end[1], 1.0);
  EXPECT_DOUBLE_EQ(r.makespan, 3.0);
}

TEST(SimFaults, MidRunSlowdownHitsOnlyLaterStarts) {
  // The perturbation lands at t = 1.5, mid-flight for the first task:
  // it finishes on time at 2; the successor starts at 2 under 4x
  // slowdown (speed 0.25) and takes 4.
  std::vector<Task> tasks{MakeTask(2.0, 0), MakeTask(1.0, 0, {0})};
  TaskGraphSim sim(TaskGraph(tasks), 1);
  const std::vector<ResourceFault> faults{{1.5, 0, 0.25}};
  SimOptions options;
  options.faults = &faults;
  const SimResult r = sim.Run(options, 1);
  EXPECT_DOUBLE_EQ(r.end[0], 2.0);
  EXPECT_DOUBLE_EQ(r.start[1], 2.0);
  EXPECT_DOUBLE_EQ(r.end[1], 6.0);
}


// Ready-storage edge cases. The ready sets hold one bucket per
// (resource, priority rank), a lazy min-heap of non-empty ranks per
// resource and a flat per-resource list; these cells pin the dispatch on
// the cases a ready-set layout has to get right — a resource with more
// ranks than one 64-bit word, a lower rank refilled after a higher one
// started, unprioritized tasks competing with ranked ones, and the
// out-of-order uniform pick — by a 64-bit fingerprint of every start/end
// bit pattern and the start order, so any later layout must keep the
// draws to the same sequence.

// FNV-1a over the makespan, then each vector's length and elements
// (doubles by bit pattern), as in tests/sim_fingerprint_test.cc.
std::uint64_t ResultFingerprint(const SimResult& r) {
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
  for (const TaskId t : r.start_order) mix(static_cast<std::uint32_t>(t));
  return h;
}

// A seeded random DAG: `n` tasks over `resources` resources, each with up
// to three earlier preds, a duration in [0.5, 1.5) and, with probability
// 1 - nopri, one of `priorities` priority values (spread over a sparse,
// partly negative range so rank compression has work to do).
std::vector<Task> RandomReadyGraph(std::uint64_t seed, int n, int resources,
                                   int priorities, double nopri) {
  util::Rng rng(seed);
  std::vector<Task> tasks;
  for (int i = 0; i < n; ++i) {
    Task t = MakeTask(rng.Uniform(0.5, 1.5),
                      static_cast<int>(rng.Index(
                          static_cast<std::size_t>(resources))));
    if (!rng.Chance(nopri)) {
      t.priority =
          3 * static_cast<int>(rng.Index(static_cast<std::size_t>(priorities))) -
          40;
    }
    const int fan_in = i == 0 ? 0 : static_cast<int>(rng.Index(4));
    for (int k = 0; k < fan_in; ++k) {
      const auto p = static_cast<TaskId>(rng.Index(static_cast<std::size_t>(i)));
      if (std::find(t.preds.begin(), t.preds.end(), p) == t.preds.end()) {
        t.preds.push_back(p);
      }
    }
    tasks.push_back(std::move(t));
  }
  return tasks;
}

TEST(ReadyStorage, MoreThan64RanksKeepTheirDispatch) {
  // 150 distinct priorities on one resource — more ranks than one 64-bit
  // word holds, where a rank bitset would have to carry across words —
  // with sources at many ranks ready at once.
  const TaskGraphSim sim(TaskGraph(RandomReadyGraph(11, 400, 1, 150, 0.0)), 1);
  SimOptions options;
  options.jitter_sigma = 0.1;
  EXPECT_EQ(ResultFingerprint(sim.Run(options, 3)), 0x9d27a6e76290e472ull);
  EXPECT_EQ(ResultFingerprint(sim.Run(options, 4)), 0x6cfa431c70ed0552ull);
}

TEST(ReadyStorage, LowerRankRefilledAfterAHigherOneStarted) {
  // Resource 0 starts priority 30 (its only ready task); its priority-20
  // and priority-10 tasks become ready while it runs, and the lower one
  // wins the next pick although a higher one started first. Priority 10
  // then empties when task 3 starts and refills (task 4) while 20 still
  // waits, so 4 jumps the queue as well.
  std::vector<Task> tasks{MakeTask(3.0, 0),          // 0: priority 30
                          MakeTask(1.0, 1),          // 1: releases 2, 3, 5
                          MakeTask(1.0, 0, {1}),     // 2: priority 20
                          MakeTask(1.0, 0, {1}),     // 3: priority 10
                          MakeTask(1.0, 0, {5}),     // 4: priority 10
                          MakeTask(2.5, 1, {1})};    // 5: releases 4 at 3.5
  tasks[0].priority = 30;
  tasks[2].priority = 20;
  tasks[3].priority = 10;
  tasks[4].priority = 10;
  const TaskGraphSim sim(TaskGraph(tasks), 2);
  const SimResult r = sim.Run({}, 1);
  EXPECT_EQ(r.start_order, (std::vector<TaskId>{0, 1, 5, 3, 4, 2}));
  EXPECT_DOUBLE_EQ(r.makespan, 6.0);
  // The same refill pattern at scale: ranks empty and refill as preds on
  // the other resources complete.
  const TaskGraphSim wide(TaskGraph(RandomReadyGraph(23, 300, 3, 90, 0.0)), 3);
  EXPECT_EQ(ResultFingerprint(wide.Run({}, 5)), 0x42ddbab568727ee0ull);
}

TEST(ReadyStorage, UnprioritizedTasksMixedWithRankedOnes) {
  // A third of the tasks carry no priority: every pick draws over the
  // lowest ready rank plus all unprioritized tasks, and a resource with
  // only unprioritized tasks ready draws among those.
  const TaskGraphSim sim(TaskGraph(RandomReadyGraph(37, 300, 2, 100, 0.33)), 2);
  EXPECT_EQ(ResultFingerprint(sim.Run({}, 2)), 0x7d5aeb01649dd145ull);
  SimOptions options;
  options.jitter_sigma = 0.2;
  EXPECT_EQ(ResultFingerprint(sim.Run(options, 9)), 0x6044defbe75b7a92ull);
}

TEST(ReadyStorage, OutOfOrderPickDrawsOverEveryReadyTask) {
  // With out_of_order_probability > 0 some picks draw uniformly over the
  // resource's whole ready list, whose order is the swap-removal order
  // of every earlier pick.
  const TaskGraphSim sim(TaskGraph(RandomReadyGraph(41, 300, 2, 120, 0.2)), 2);
  SimOptions options;
  options.out_of_order_probability = 0.3;
  EXPECT_EQ(ResultFingerprint(sim.Run(options, 6)), 0x471097dfc6a43246ull);
  options.out_of_order_probability = 1.0;
  EXPECT_EQ(ResultFingerprint(sim.Run(options, 6)), 0xf527b2a2a377ae58ull);
}

}  // namespace
}  // namespace tictac::sim
