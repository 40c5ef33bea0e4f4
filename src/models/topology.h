// Synthetic datacenter topologies for the flow-level contention model
// (DESIGN.md §11).
//
// The PS-fabric lowering (runtime/lowering.h) gives every worker-PS
// pair-channel a static bandwidth/T slice. BuildFatTreeFlowNetwork turns
// the same fabric into an explicit capacity graph the simulator's
// max-min flow model can share dynamically:
//
//   * per-host NIC links — one ingress and one egress per worker and per
//     PS, each at the fabric's full line rate;
//   * an optional two-level fat tree — hosts are split contiguously
//     across `pods` leaf pods, and traffic between pods crosses the
//     source pod's core uplink and the destination pod's core downlink,
//     each provisioned at (pod host count x line rate) / oversubscription.
//
// With pods <= 1 (or every pair pod-local) the model reduces to pure NIC
// contention; a fully-loaded NIC then reproduces the static split
// exactly, which is the differential anchor tests/flow_test.cc pins.
#pragma once

#include "sim/flow.h"

namespace tictac::models {

// One PS fabric's resource block, in the shared layout of
// runtime/lowering.h (and of merge_jobs for co-located jobs, where
// num_workers is the merged total T):
//   [0, T)                 worker compute
//   [T, T+T*S)             downlink channels, T + w*S + s
//   [T+T*S, T+2*T*S)       uplink channels, T+T*S + w*S + s
//   [T+2*T*S, T+2*T*S+S)   PS CPUs
// Channel durations were computed against the static per-channel rate
// bandwidth_bps / num_workers, which becomes the channels' nominal rate
// in the flow model. `bandwidth_bps` is the ORIGINAL line rate of the
// fabric hardware — for merged multi-job configs, undo the W_j/T
// contention prescale before passing it here.
struct FabricShape {
  int num_workers = 0;
  int num_ps = 0;
  double bandwidth_bps = 0.0;
};

struct FatTreeOptions {
  // Leaf pods the fabric's hosts (workers first, then PSes, each split
  // contiguously) are distributed across. 1 = a single non-blocking
  // switch: no core links, NIC contention only.
  int pods = 1;
  // Core oversubscription ratio: a pod's core uplink/downlink carries
  // (hosts in pod x line rate) / oversubscription. 1 = full bisection
  // bandwidth; 4 = the classic 4:1 oversubscribed tree. Must be > 0;
  // values below 1 model an overprovisioned core.
  double oversubscription = 1.0;

  // Throws std::invalid_argument naming the offending knob and value.
  void Validate() const;
};

// Pod of a host given `index` within its contiguous class of `count`
// hosts: floor(index * pods / count). Exposed for tests.
int PodOf(int index, int count, int pods);

// Builds the capacity graph for one fabric. Throws std::invalid_argument
// (via FatTreeOptions::Validate or for a degenerate shape) on bad input.
sim::FlowNetwork BuildFatTreeFlowNetwork(const FabricShape& shape,
                                         const FatTreeOptions& options);

}  // namespace tictac::models
