// Flow-level network model for max-min fair bandwidth sharing
// (DESIGN.md §11).
//
// The static lowering gives every worker-PS pair-channel a fixed
// bandwidth/T slice of its NIC. That is exact when every channel is busy
// and pessimistic otherwise: a job pulling parameters while its
// neighbours compute is still billed as if all T channels contended.
// FlowNetwork describes the real capacity constraints — which shared
// links (PS NICs, worker NICs, oversubscribed fat-tree core links) each
// channel's transfers traverse and what each link can carry — so the
// engine can hand idle channels' bandwidth to the active transfers via
// progressive-filling max-min allocation (sim/engine.cc, on whenever
// SimOptions::network is set).
//
// Rates are expressed against each channel's *nominal* rate — the static
// per-channel bandwidth its task durations were computed with — so a
// fully-loaded link reproduces the static split (every flow at rate 1.0)
// and an underloaded one speeds its flows up by exactly the idle share.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace tictac::sim {

// One shared capacity constraint (a NIC direction or a fat-tree core
// link), in absolute bytes/second.
struct FlowLink {
  double capacity_bps = 0.0;
};

struct FlowNetwork {
  std::vector<FlowLink> links;

  // resource -> ids of the links its transfers traverse, each at most
  // once, in any order. Empty = not a flow resource: tasks on it run at
  // their nominal duration exactly as without a network. Indexed by
  // resource id; may be shorter than the simulation's resource count
  // (missing tail entries = not flow resources).
  std::vector<std::vector<int>> resource_links;

  // resource -> the static per-channel rate (bytes/second) its task
  // durations were computed with. Must be > 0 for every resource with a
  // non-empty link list; ignored for the rest. A flow allocated b bytes/s
  // progresses at b / nominal of its nominal service rate.
  std::vector<double> resource_nominal_bps;

  // True when at least one resource has a link list.
  bool HasFlows() const;

  // Structural checks: link ids in range and not repeated within a
  // resource's list, capacities and nominal rates positive and finite for
  // flow resources, resource tables sized consistently and within
  // `num_resources`. Throws std::invalid_argument
  // naming the offending entry.
  void Validate(int num_resources) const;
};

}  // namespace tictac::sim
