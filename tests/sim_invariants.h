// Properties every completed simulation must hold, whatever the graph,
// options or thread count: finite times, each task after its preds, one
// task at a time per resource, a makespan that is the last end, and a
// start order that lists every task once in time order.
// sim_fingerprint_test and clustersweep_test call it on every run that
// completes all its tasks, so an engine change that breaks one fails by
// name instead of as a moved digest.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "sim/task.h"

namespace tictac::sim {

inline void ExpectSimInvariants(const TaskGraph& graph,
                                const SimResult& result) {
  const std::size_t n = graph.size();
  ASSERT_EQ(result.start.size(), n);
  ASSERT_EQ(result.end.size(), n);
  ASSERT_TRUE(std::isfinite(result.makespan));
  double last_end = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    ASSERT_TRUE(std::isfinite(result.start[t])) << "task " << t;
    ASSERT_TRUE(std::isfinite(result.end[t])) << "task " << t;
    EXPECT_LE(result.start[t], result.end[t]) << "task " << t;
    for (const TaskId p : graph.preds(t)) {
      EXPECT_LE(result.end[static_cast<std::size_t>(p)], result.start[t])
          << "task " << t << " starts before its pred " << p << " ends";
    }
    last_end = std::max(last_end, result.end[t]);
  }
  EXPECT_EQ(result.makespan, last_end);

  // One task at a time per resource: in (start, end) order, each ends
  // by the time the next starts.
  std::vector<std::pair<int, std::size_t>> by_resource;
  by_resource.reserve(n);
  for (std::size_t t = 0; t < n; ++t) {
    by_resource.emplace_back(graph.resource[t], t);
  }
  std::sort(by_resource.begin(), by_resource.end(),
            [&](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              if (result.start[a.second] != result.start[b.second]) {
                return result.start[a.second] < result.start[b.second];
              }
              return result.end[a.second] < result.end[b.second];
            });
  for (std::size_t i = 1; i < by_resource.size(); ++i) {
    const auto [r, prev] = by_resource[i - 1];
    const auto [r_next, next] = by_resource[i];
    if (r != r_next) continue;
    EXPECT_LE(result.end[prev], result.start[next])
        << "tasks " << prev << " and " << next << " overlap on resource "
        << r;
  }

  // start_order: a permutation of the tasks, in non-decreasing start.
  ASSERT_EQ(result.start_order.size(), n);
  std::vector<char> seen(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const TaskId t = result.start_order[i];
    ASSERT_GE(t, 0);
    ASSERT_LT(static_cast<std::size_t>(t), n);
    EXPECT_FALSE(seen[static_cast<std::size_t>(t)])
        << "task " << t << " starts twice";
    seen[static_cast<std::size_t>(t)] = 1;
    if (i > 0) {
      EXPECT_LE(
          result.start[static_cast<std::size_t>(result.start_order[i - 1])],
          result.start[static_cast<std::size_t>(t)])
          << "start_order position " << i;
    }
  }
}

}  // namespace tictac::sim
