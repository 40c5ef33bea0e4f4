// Properties every ServiceReport must hold, whatever the config: each
// arrival ends exactly one way, a job's clock runs forward, and the
// fault-free service clock is the left fold of its iteration times. The
// service, fault and fingerprint suites call it on every report they
// build, so a loop refactor that breaks an invariant fails by name.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

#include "sched/service.h"

namespace tictac::sched {

inline void ExpectServiceInvariants(const ServiceReport& report) {
  const ServiceCounters& counters = report.counters;
  EXPECT_EQ(counters.completed + counters.rejected + counters.failed_jobs,
            counters.arrivals);
  EXPECT_EQ(report.jobs.size(), counters.arrivals);
  const bool fault_free = report.config.faults.empty();
  for (const JobRecord& job : report.jobs) {
    if (job.rejected || job.failed) continue;
    EXPECT_LE(job.arrival_time, job.admit_time) << "job " << job.id;
    EXPECT_LE(job.admit_time, job.completion_time) << "job " << job.id;
    EXPECT_LE(job.completion_time, report.makespan) << "job " << job.id;
    EXPECT_EQ(job.iteration_times.size(),
              static_cast<std::size_t>(job.spec.iterations))
        << "job " << job.id;
    if (fault_free) {
      double clock = job.admit_time;
      for (const double duration : job.iteration_times) clock += duration;
      EXPECT_EQ(job.completion_time, clock) << "job " << job.id;
    }
  }
  EXPECT_GE(report.utilization, 0.0);
  EXPECT_LE(report.utilization, 1.0);
  for (std::size_t w = 0; w < report.window_fairness.size(); ++w) {
    EXPECT_GT(report.window_fairness[w], 0.0) << "window " << w;
    EXPECT_LE(report.window_fairness[w], 1.0) << "window " << w;
  }
}

// Runs the service on `config` and checks the invariants on its report.
inline ServiceReport RunChecked(const ServiceConfig& config) {
  ServiceReport report = SchedulerService(config).Run();
  ExpectServiceInvariants(report);
  return report;
}

}  // namespace tictac::sched
