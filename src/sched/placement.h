// Placement policies for the cluster-scheduler service (DESIGN.md §7):
// which of the K shared PS fabrics an admitted job lands on.
//
// Placement is intentionally decoupled from per-job transfer scheduling
// (core::SchedulingPolicy): the former decides WHERE a job's pushes and
// pulls contend, the latter in WHAT ORDER they drain once there. The
// service sweeps both axes independently (bench/bench_service.cc).
#pragma once

#include <algorithm>
#include <cstddef>
#include <string_view>
#include <vector>

#include "runtime/spec.h"

namespace tictac::sched {

// What a placement decision may look at: the current occupancy of one
// fabric. Loads are indexed by fabric id, one entry per fabric.
struct FabricLoad {
  int active_jobs = 0;
  int active_workers = 0;
  // Sum of the resident jobs' model parameter sizes — the PS-side bytes
  // the fabric's NICs and bookkeeping CPUs are serving.
  double active_param_mib = 0.0;
  // Crashed for good (fault injection): never eligible, any policy must
  // skip it.
  bool down = false;
  // Fault events (stragglers, slow links, flaps, worker crashes) active
  // on — or recently lifted from — this fabric, as counted by the
  // service's recency window. The failure-aware policy treats each as a
  // strong penalty; load-only policies ignore it.
  int recent_faults = 0;
};

// One placement decision's inputs. `decision_seq` counts placement
// decisions so far (round-robin's rotation state — policies themselves
// stay stateless and the service replayable).
struct PlacementQuery {
  const runtime::ExperimentSpec& job;
  const std::vector<FabricLoad>& loads;
  std::size_t decision_seq;
  int max_jobs_per_fabric;
};

// A placement policy is a name and a score per fabric.
struct PlacementPolicy {
  std::string_view name;
  double (*score)(const PlacementQuery& query, std::size_t fabric);

  // The eligible fabric with the lowest score, the lowest id on a tie, or
  // -1 to defer the job to the admission queue. A fabric is eligible when
  // it is not down and holds fewer than max_jobs_per_fabric jobs.
  int Place(const runtime::ExperimentSpec& job,
            const std::vector<FabricLoad>& loads, std::size_t decision_seq,
            int max_jobs_per_fabric) const;
};

inline constexpr PlacementPolicy kPlacementPolicies[] = {
    // Fewest active workers.
    {"least-loaded",
     [](const PlacementQuery& q, std::size_t f) {
       return static_cast<double>(q.loads[f].active_workers);
     }},
    // Rotate over the fabrics: the distance from the rotation point, so
    // the first eligible fabric at or after it wins.
    {"round-robin",
     [](const PlacementQuery& q, std::size_t f) {
       const std::size_t k = q.loads.size();
       return static_cast<double>((f + k - q.decision_seq % k) % k);
     }},
    // Bin-packing best fit: the fullest fabric by parameter bytes, so
    // other fabrics stay empty for future large arrivals.
    {"best-fit-bytes",
     [](const PlacementQuery& q, std::size_t f) {
       return -q.loads[f].active_param_mib;
     }},
    // Least-loaded with each recent fault costed like a full fabric of
    // jobs this size: a flapping fabric loses to any healthy one that
    // still has room, yet stays usable when it is the only seat left.
    {"failure-aware",
     [](const PlacementQuery& q, std::size_t f) {
       const long workers = std::max(q.job.cluster.workers, 1);
       return static_cast<double>(q.loads[f].active_workers +
                                  q.loads[f].recent_faults * workers *
                                      long{q.max_jobs_per_fabric});
     }},
};

// The policy called `name`, for --placement flags and bench sweeps.
// Throws std::invalid_argument listing every name for an unknown one.
const PlacementPolicy& FindPlacementPolicy(std::string_view name);

}  // namespace tictac::sched
