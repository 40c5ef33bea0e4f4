#include "ir/passes.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/time_oracle.h"
#include "models/topology.h"
#include "sim/flow.h"
#include "util/parse.h"

namespace tictac::ir {
namespace {

// Rejects a lowering whose `count` `what` (lowered tasks or pred
// entries) pass `limit`, the ir:: constant `limit_name`; `knob` and
// `detail` say which spec setting drove it there.
void CheckBudget(std::int64_t count, std::int64_t limit, const char* what,
                 const char* limit_name, const std::string& knob,
                 const std::string& detail) {
  if (count > limit) {
    throw std::invalid_argument(
        "lowering: " + knob + " " + detail + " = " + std::to_string(count) +
        " " + what + ", over the budget of " + std::to_string(limit) + " (" +
        limit_name + "); lower " + knob.substr(0, knob.find('=') + 1));
  }
}

void CheckTaskBudget(std::int64_t tasks, const std::string& knob,
                     const std::string& detail) {
  CheckBudget(tasks, kMaxLoweredTasks, "lowered tasks",
              "ir::kMaxLoweredTasks", knob, detail);
}

void CheckPredBudget(std::int64_t entries, const std::string& knob,
                     const std::string& detail) {
  CheckBudget(entries, kMaxLoweredPredEntries, "pred entries",
              "ir::kMaxLoweredPredEntries", knob, detail);
}

// --- expand_replicas --------------------------------------------------------

void ExpandReplicas(Module& module) {
  Module out;
  out.stage = Stage::kReplicated;
  out.jobs = module.jobs;

  // Every job's W replicas of its V logical nodes and their preds.
  std::int64_t nodes = 0;
  std::size_t entries = 0;
  for (std::size_t j = 0; j < module.jobs.size(); ++j) {
    const std::int64_t W = module.jobs[j].config.num_workers;
    const JobRange& r = module.ranges[j];
    const std::int64_t V = r.last - r.first;
    nodes += W * V;
    CheckTaskBudget(
        nodes, "workers=" + std::to_string(W),
        "x " + std::to_string(V) + " worker-graph ops" +
            (module.jobs.size() > 1
                 ? " in job " + std::to_string(j) + " of " +
                       std::to_string(module.jobs.size()) +
                       " (counting the jobs before it)"
                 : ""));
    for (NodeId n = r.first; n < r.last; ++n) {
      entries += static_cast<std::size_t>(W) * module.preds(n).size();
    }
  }
  out.Reserve(static_cast<std::size_t>(nodes), entries);

  std::vector<NodeId> buf;
  for (std::size_t j = 0; j < module.jobs.size(); ++j) {
    const JobInfo& job = module.jobs[j];
    const JobRange& r = module.ranges[j];
    const int W = job.config.num_workers;
    const auto V = static_cast<std::size_t>(r.last - r.first);
    if (!job.graph) {
      throw std::invalid_argument(
          "ir.expand_replicas: job " + std::to_string(j) +
          " carries no logical graph");
    }
    // The worker partitions are identical (Model Replica); clones are
    // emitted predecessors-first so every pred id exists when wired.
    const std::vector<core::OpId> topo = job.graph->TopologicalOrder();
    if (topo.size() != V) {
      throw std::invalid_argument("worker graph has a cycle");
    }
    std::vector<std::size_t> pos_of(V);
    for (std::size_t pos = 0; pos < topo.size(); ++pos) {
      pos_of[static_cast<std::size_t>(topo[pos])] = pos;
    }

    const NodeId first = static_cast<NodeId>(out.size());
    for (int w = 0; w < W; ++w) {
      const NodeId worker_base =
          first + static_cast<NodeId>(static_cast<std::size_t>(w) * V);
      for (const core::OpId op_id : topo) {
        const NodeId src = r.first + op_id;
        switch (module.kind(src)) {
          case core::OpKind::kCompute:
          case core::OpKind::kRecv:
          case core::OpKind::kSend:
            break;
          default:
            throw std::invalid_argument(
                "worker partition may only hold compute/recv/send ops");
        }
        const NodeId n = out.AddNode();
        out.CopyNode(n, module, src);
        out.worker(n) = w;
        buf.clear();
        for (const NodeId p : module.preds(src)) {
          buf.push_back(worker_base +
                        static_cast<NodeId>(
                            pos_of[static_cast<std::size_t>(p - r.first)]));
        }
        out.SetPreds(n, buf);
      }
    }
    out.ranges.push_back(
        JobRange{first, static_cast<NodeId>(out.size()), kNoNode, 0});
    out.jobs[j].graph.reset();  // the logical stage ends here
  }
  module = std::move(out);
}

// --- lower_ps_fabric --------------------------------------------------------

void LowerPsFabric(Module& module) {
  Module out;
  out.stage = Stage::kLowered;
  out.jobs = module.jobs;
  // Per job: P reads, the W·V replicas (a recv gains its read edge) and
  // at most P aggregate/update pairs (an aggregate's fan-in is one
  // entry per send).
  std::size_t params = 0;
  for (const JobInfo& job : module.jobs) params += job.ps_of_param.size();
  out.Reserve(module.size() + 3 * params,
              module.graph().pred_ids.size() + module.size() + params);

  std::vector<NodeId> buf;
  for (std::size_t j = 0; j < module.jobs.size(); ++j) {
    const JobInfo& job = module.jobs[j];
    const JobRange& r = module.ranges[j];
    const int W = job.config.num_workers;
    const int S = job.config.num_ps;
    if (W < 1 || S < 1) {
      throw std::invalid_argument("need >=1 worker and PS");
    }
    const core::PlatformModel& hw = job.config.platform;
    const std::vector<int>& ps_of_param = job.ps_of_param;
    const int P = static_cast<int>(ps_of_param.size());
    const auto V = static_cast<std::size_t>(r.last - r.first) /
                   static_cast<std::size_t>(W);

    // Job-LOCAL resource layout, identical to runtime/lowering.h;
    // merge_jobs remaps it onto the shared fabric.
    const auto downlink = [&](int w, int s) { return W + w * S + s; };
    const auto uplink = [&](int w, int s) { return W + W * S + w * S + s; };
    const auto ps_cpu = [&](int s) { return W + 2 * W * S + s; };

    // Each PS NIC is shared by W pair-channels.
    const double pair_bandwidth = hw.bandwidth_bps / W;
    const auto transfer_time = [&](std::int64_t bytes) {
      return hw.latency_s + static_cast<double>(bytes) / pair_bandwidth;
    };
    const auto ps_for = [&](int param) {
      if (param < 0 || static_cast<std::size_t>(param) >= ps_of_param.size()) {
        throw std::invalid_argument("transfer op without valid param index");
      }
      return ps_of_param[static_cast<std::size_t>(param)];
    };

    const NodeId first = static_cast<NodeId>(out.size());

    // PS-side read ops: parameters become available for sending at
    // iteration start (the PS activates all sends up front, §2.2).
    std::vector<NodeId> read_node(static_cast<std::size_t>(P));
    for (int p = 0; p < P; ++p) {
      const NodeId n = out.AddNode();
      out.duration(n) = hw.ps_op_time_s;
      out.resource(n) = ps_cpu(ps_for(p));
      out.kind(n) = core::OpKind::kRead;
      out.param(n) = p;
      out.job(n) = static_cast<int>(j);
      read_node[static_cast<std::size_t>(p)] = n;
    }

    const bool scheduled = job.scheduled;
    const runtime::Enforcement enforcement = job.config.enforcement;
    const NodeId delta = first + P - r.first;  // replica id shift

    // (worker, op id) -> lowered node, for the aggregation fan-in.
    std::vector<NodeId> op_node(static_cast<std::size_t>(W) * V, kNoNode);

    // DAG-chaining enforcement (§5.1's rejected variant): each transfer
    // also depends on the completion of its predecessor in the
    // normalized order, appended last to its preds. The replicas repeat
    // worker 0's block, so one rank -> block offset table names every
    // worker's chain.
    std::vector<NodeId> chain_offset;
    if (scheduled && enforcement == runtime::Enforcement::kDagChain) {
      chain_offset.assign(V, kNoNode);
      for (std::size_t offset = 0; offset < V; ++offset) {
        const NodeId src = r.first + static_cast<NodeId>(offset);
        const int rank = module.rank(src);
        if (module.kind(src) == core::OpKind::kRecv && rank >= 0 &&
            static_cast<std::size_t>(rank) < V) {
          chain_offset[static_cast<std::size_t>(rank)] =
              static_cast<NodeId>(offset);
        }
      }
    }

    for (NodeId src = r.first; src < r.last; ++src) {
      const int w = module.worker(src);
      const core::OpKind kind = module.kind(src);
      const NodeId n = out.AddNode();
      out.CopyNode(n, module, src);
      buf.clear();
      switch (kind) {
        case core::OpKind::kRecv: {
          const int s = ps_for(module.param(src));
          out.resource(n) = downlink(w, s);
          out.duration(n) = transfer_time(module.bytes(src));
          buf.push_back(
              read_node[static_cast<std::size_t>(module.param(src))]);
          if (scheduled) {
            // The channel serves transfers in hand-off order (gRPC
            // FIFO), so the wire priority is the normalized rank — the
            // total order of §5.1 — rather than the raw (possibly
            // tied) schedule priority.
            const int rank = module.rank(src);
            if (rank == kNoRank) {
              throw std::invalid_argument(
                  "ir.lower_ps_fabric: scheduled job has an unranked "
                  "recv");
            }
            out.priority(n) = rank;
            if (enforcement == runtime::Enforcement::kHandoffGate) {
              out.gate_group(n) = w;
              out.gate_rank(n) = rank;
            }
          }
          break;
        }
        case core::OpKind::kSend: {
          const int s = ps_for(module.param(src));
          out.resource(n) = uplink(w, s);
          out.duration(n) = transfer_time(module.bytes(src));
          // Gradient-push ordering (core/push_schedule.h) is
          // best-effort: the uplink channel honors priorities among
          // queued pushes, but no hand-off gate holds a ready gradient
          // back.
          if (module.sched_priority(src) != sim::kNoPriority) {
            out.priority(n) = module.sched_priority(src);
          }
          break;
        }
        case core::OpKind::kCompute: {
          out.resource(n) = w;
          double speed = 1.0;
          if (static_cast<std::size_t>(w) <
              job.config.worker_speed_factors.size()) {
            speed =
                job.config.worker_speed_factors[static_cast<std::size_t>(w)];
            if (speed <= 0.0) {
              throw std::invalid_argument("worker speed factor must be > 0");
            }
          }
          out.duration(n) = module.cost(src) / (hw.compute_rate * speed);
          break;
        }
        default:
          throw std::invalid_argument(
              "worker partition may only hold compute/recv/send ops");
      }
      for (const NodeId p : module.preds(src)) buf.push_back(p + delta);
      if (kind == core::OpKind::kRecv && !chain_offset.empty() &&
          module.rank(src) >= 1) {
        const NodeId block_first =
            r.first + static_cast<NodeId>(static_cast<std::size_t>(w) * V);
        buf.push_back(block_first + delta +
                      chain_offset[static_cast<std::size_t>(
                          module.rank(src) - 1)]);
      }
      out.SetPreds(n, buf);
      op_node[static_cast<std::size_t>(w) * V +
              static_cast<std::size_t>(module.op(src))] = n;
    }

    // PS-side aggregation + update per parameter (training only):
    // aggregate fires once every worker's gradient push for that
    // parameter lands.
    if (job.config.training) {
      std::vector<std::vector<NodeId>> sends_of_param(
          static_cast<std::size_t>(P));
      for (int w = 0; w < W; ++w) {
        for (std::size_t op = 0; op < V; ++op) {
          const NodeId n = op_node[static_cast<std::size_t>(w) * V + op];
          if (out.kind(n) == core::OpKind::kSend) {
            sends_of_param[static_cast<std::size_t>(out.param(n))]
                .push_back(n);
          }
        }
      }
      for (int p = 0; p < P; ++p) {
        const auto& sends = sends_of_param[static_cast<std::size_t>(p)];
        if (sends.empty()) continue;  // parameter without gradient (frozen)
        const NodeId agg = out.AddNode();
        out.duration(agg) = hw.ps_op_time_s;
        out.resource(agg) = ps_cpu(ps_for(p));
        out.kind(agg) = core::OpKind::kAggregate;
        out.param(agg) = p;
        out.job(agg) = static_cast<int>(j);
        out.SetPreds(agg, sends);

        const NodeId upd = out.AddNode();
        out.duration(upd) = hw.ps_op_time_s;
        out.resource(upd) = ps_cpu(ps_for(p));
        out.kind(upd) = core::OpKind::kUpdate;
        out.param(upd) = p;
        out.job(upd) = static_cast<int>(j);
        buf.assign(1, agg);
        out.SetPreds(upd, buf);
      }
    }
    out.ranges.push_back(
        JobRange{first, static_cast<NodeId>(out.size()), kNoNode, 0});
  }
  module = std::move(out);
}

// --- lower_allreduce_ring ---------------------------------------------------

// One job: runtime::Lower refuses a ring job among several.
void LowerAllreduceRing(Module& module) {
  const JobInfo& job = module.jobs.front();
  const JobRange r = module.ranges.front();
  const int W = job.config.num_workers;
  if (W < 2) throw std::invalid_argument("all-reduce needs >= 2 workers");
  if (!job.config.training) {
    throw std::invalid_argument("all-reduce applies to training only");
  }
  const core::PlatformModel& hw = job.config.platform;
  const auto V = static_cast<std::size_t>(r.last - r.first) /
                 static_cast<std::size_t>(W);

  // Replica ids and order are already exactly the legacy emission
  // (w-major, topo within); assign resources/durations in place and
  // append the ring rounds.
  int max_param = -1;
  for (NodeId n = r.first; n < r.last; ++n) {
    max_param = std::max(max_param, module.param(n));
  }
  const int P = max_param + 1;
  std::vector<std::vector<NodeId>> grad_ready(static_cast<std::size_t>(P));
  // Parameter -> gradient bytes, by lowest op id (the legacy lookup
  // scans ops in id order); worker 0's block covers every op.
  std::vector<std::int64_t> bytes_of_param(static_cast<std::size_t>(P), 0);
  std::vector<bool> bytes_known(static_cast<std::size_t>(P), false);
  {
    std::vector<NodeId> node_of_op(V, kNoNode);
    for (NodeId n = r.first; n < r.first + static_cast<NodeId>(V); ++n) {
      node_of_op[static_cast<std::size_t>(module.op(n))] = n;
    }
    for (std::size_t op = 0; op < V; ++op) {
      const NodeId n = node_of_op[op];
      if (module.kind(n) == core::OpKind::kSend && module.param(n) >= 0 &&
          !bytes_known[static_cast<std::size_t>(module.param(n))]) {
        bytes_of_param[static_cast<std::size_t>(module.param(n))] =
            module.bytes(n);
        bytes_known[static_cast<std::size_t>(module.param(n))] = true;
      }
    }
  }

  for (NodeId n = r.first; n < r.last; ++n) {
    const int w = module.worker(n);
    switch (module.kind(n)) {
      case core::OpKind::kRecv:
        // Weights are local: an instantaneous read on the worker.
        module.resource(n) = w;
        module.duration(n) = 0.0;
        break;
      case core::OpKind::kSend:
        // Gradient handoff to the collective: bookkeeping only; the
        // ring transfers are separate tasks below.
        module.resource(n) = w;
        module.duration(n) = 0.0;
        if (module.param(n) >= 0) {
          grad_ready[static_cast<std::size_t>(module.param(n))]
              .push_back(n);
        }
        break;
      case core::OpKind::kCompute: {
        module.resource(n) = w;
        double speed = 1.0;
        if (static_cast<std::size_t>(w) <
            job.config.worker_speed_factors.size()) {
          speed = job.config.worker_speed_factors[static_cast<std::size_t>(w)];
        }
        module.duration(n) = module.cost(n) / (hw.compute_rate * speed);
        break;
      }
      default:
        throw std::invalid_argument(
            "worker partition may only hold compute/recv/send ops");
    }
  }

  // Ring phases per parameter: 2(W-1) rounds, W chunk-transfers per
  // round (one per link, concurrently), each chunk bytes/W. A round
  // starts only when the previous round completes (bucket-synchronous
  // collective): every transfer of a round lists the whole previous
  // round (or the W gradient hand-offs) as its preds.
  std::int64_t rings = 0;
  for (const auto& ready : grad_ready) rings += ready.empty() ? 0 : 1;
  const std::int64_t transfers = rings * 2 * (W - 1) * W;
  CheckTaskBudget(
      static_cast<std::int64_t>(module.size()) + transfers,
      "workers=" + std::to_string(W),
      "x " + std::to_string(V) + " worker-graph ops + " +
          std::to_string(transfers) + " ring transfers");
  // Checked second: transfers * W only fits in 64 bits once the
  // transfer count is inside its budget.
  CheckPredBudget(
      static_cast<std::int64_t>(module.graph().pred_ids.size()) +
          transfers * W,
      "workers=" + std::to_string(W),
      "x " + std::to_string(transfers) + " ring transfers + " +
          std::to_string(module.graph().pred_ids.size()) +
          " worker-graph pred entries");
  module.Reserve(static_cast<std::size_t>(transfers),
                 static_cast<std::size_t>(transfers * W));
  for (int p = 0; p < P; ++p) {
    const auto& ready = grad_ready[static_cast<std::size_t>(p)];
    if (ready.empty()) continue;
    const double chunk_time =
        hw.latency_s +
        static_cast<double>(bytes_of_param[static_cast<std::size_t>(p)]) /
            W / hw.bandwidth_bps;
    std::vector<NodeId> previous_round = ready;
    std::vector<NodeId> this_round;
    for (int round = 0; round < 2 * (W - 1); ++round) {
      this_round.clear();
      for (int link = 0; link < W; ++link) {
        const NodeId n = module.AddNode();
        module.kind(n) = core::OpKind::kSend;
        module.resource(n) = W + link;
        module.duration(n) = chunk_time;
        module.param(n) = p;
        module.job(n) = 0;
        module.SetPreds(n, previous_round);
        this_round.push_back(n);
      }
      std::swap(previous_round, this_round);
    }
  }

  module.ranges.front().last = static_cast<NodeId>(module.size());
  module.num_resources = 2 * W;
  module.total_workers = W;
  module.ring = true;
  module.stage = Stage::kMerged;
}

// --- merge_jobs -------------------------------------------------------------

void MergeJobs(Module& module) {
  const auto fail = [](const std::string& message) {
    throw std::invalid_argument("multijob: " + message);
  };
  const int S = module.jobs.front().config.num_ps;
  long long total = 0;
  for (const JobInfo& job : module.jobs) {
    if (job.config.num_ps != S) {
      fail("all jobs must share the PS fleet: got num_ps=" +
           std::to_string(job.config.num_ps) + " vs " + std::to_string(S));
    }
    total += job.config.num_workers;
  }
  if (total > (1 << 20)) {
    fail("total workers across jobs must be <= 1048576, got " +
         std::to_string(total));
  }
  const int T = static_cast<int>(total);

  int base_w = 0;
  for (std::size_t j = 0; j < module.jobs.size(); ++j) {
    const int W = module.jobs[j].config.num_workers;
    // Single-job resource index -> combined-fabric index. Identity when
    // this is the only job (base_w == 0, T == W).
    const auto remap_resource = [&](int r) {
      if (r < W) return base_w + r;  // worker computation
      if (r < W + W * S) {           // downlink channel (s -> w)
        const int w = (r - W) / S;
        const int s = (r - W) % S;
        return T + (base_w + w) * S + s;
      }
      if (r < W + 2 * W * S) {  // uplink channel (w -> s)
        const int w = (r - W - W * S) / S;
        const int s = (r - W - W * S) % S;
        return T + T * S + (base_w + w) * S + s;
      }
      return T + 2 * T * S + (r - W - 2 * W * S);  // shared PS CPU
    };
    const JobRange& r = module.ranges[j];
    for (NodeId n = r.first; n < r.last; ++n) {
      module.resource(n) = remap_resource(module.resource(n));
      // Hand-off counters are per (job, worker): renumbering by global
      // worker keeps every group disjoint across jobs.
      if (module.gate_group(n) >= 0) module.gate_group(n) += base_w;
      if (module.worker(n) >= 0) module.worker(n) += base_w;
    }
    module.ranges[j].first_worker = base_w;
    base_w += W;
  }
  module.num_resources = T + 2 * T * S + S;
  module.total_workers = T;
  module.stage = Stage::kMerged;
}

// --- apply_arrival_offsets --------------------------------------------------

void ApplyArrivalOffsets(Module& module) {
  bool any = false;
  for (const JobInfo& job : module.jobs) {
    if (job.start_offset < 0.0) {
      throw std::invalid_argument("multijob: start_offset must be >= 0, "
                                  "got " +
                                  util::FormatDouble(job.start_offset));
    }
    any |= job.start_offset > 0.0;
  }
  if (!any) return;

  Module out;
  out.stage = Stage::kMerged;
  out.jobs = module.jobs;
  out.total_workers = module.total_workers;
  out.flow = module.flow;  // delay resources are appended past the
                           // fabric block, so the capacity graph holds
  // One delay node per job at most; a delayed job's sources gain it as
  // their one pred.
  out.Reserve(module.size() + module.jobs.size(),
              module.graph().pred_ids.size() + module.size());

  std::vector<NodeId> buf;
  int delay_resources = 0;
  for (std::size_t j = 0; j < module.jobs.size(); ++j) {
    const JobRange& r = module.ranges[j];
    JobRange moved{0, 0, kNoNode, r.first_worker};
    if (module.jobs[j].start_offset > 0.0) {
      // Arrival offset: a delay task on its own resource, gating every
      // source task of the job below. Added *before* the job's range
      // so the job slice stays contiguous.
      const NodeId delay = out.AddNode();
      out.duration(delay) = module.jobs[j].start_offset;
      out.resource(delay) = module.num_resources + delay_resources;
      out.job(delay) = static_cast<int>(j);
      out.set_is_delay(delay, true);
      ++delay_resources;
      moved.delay = delay;
    }
    moved.first = static_cast<NodeId>(out.size());
    const NodeId delta = moved.first - r.first;
    for (NodeId src = r.first; src < r.last; ++src) {
      const NodeId n = out.AddNode();
      out.CopyNode(n, module, src);
      buf.clear();
      for (const NodeId p : module.preds(src)) buf.push_back(p + delta);
      if (buf.empty() && moved.delay != kNoNode) buf.push_back(moved.delay);
      out.SetPreds(n, buf);
    }
    moved.last = static_cast<NodeId>(out.size());
    out.ranges.push_back(moved);
  }
  out.num_resources = module.num_resources + delay_resources;
  module = std::move(out);
}

// --- lower_flow_nics --------------------------------------------------------

void LowerFlowNics(Module& module) {
  // The PS order runs this pass unconditionally; jobs that never turn
  // flow fairness on get no network and the static-split lowering stays
  // byte-identical.
  bool enabled = false;
  for (const JobInfo& job : module.jobs) {
    enabled |= job.config.flow_fairness;
  }
  if (!enabled) return;
  const JobInfo& first = module.jobs.front();
  models::FatTreeOptions options;
  options.pods = first.config.fabric_pods;
  options.oversubscription = first.config.fabric_oversubscription;
  for (const JobInfo& job : module.jobs) {
    if (job.config.fabric_pods != options.pods ||
        job.config.fabric_oversubscription != options.oversubscription) {
      throw std::invalid_argument(
          "ir.lower_flow_nics: co-located jobs disagree on the fabric "
          "topology (pods=" +
          std::to_string(job.config.fabric_pods) + " vs " +
          std::to_string(options.pods) + ", over=" +
          util::FormatDouble(job.config.fabric_oversubscription) + " vs " +
          util::FormatDouble(options.oversubscription) +
          ") — one fabric, one topology");
    }
  }
  const int T = module.total_workers;
  // Undo the W_j/T contention prescale (runtime/multijob.h) to recover
  // the fabric's line rate; exact for single jobs (W == T).
  models::FabricShape shape;
  shape.num_workers = T;
  shape.num_ps = first.config.num_ps;
  shape.bandwidth_bps =
      first.config.platform.bandwidth_bps * T / first.config.num_workers;
  module.flow = std::make_shared<const sim::FlowNetwork>(
      models::BuildFatTreeFlowNetwork(shape, options));
}

// --- pipeline_iters ---------------------------------------------------------

void PipelineIters(Module& module, int iterations) {
  module.iterations = iterations;
  if (iterations == 1) return;

  const auto n0 = static_cast<NodeId>(module.size());
  const int Wt = module.total_workers;
  CheckTaskBudget(static_cast<std::int64_t>(iterations) * n0,
                  "iterations=" + std::to_string(iterations),
                  "x " + std::to_string(n0) + " tasks per iteration");
  CheckPredBudget(
      static_cast<std::int64_t>(iterations) *
          static_cast<std::int64_t>(module.graph().pred_ids.size()),
      "iterations=" + std::to_string(iterations),
      "x " + std::to_string(module.graph().pred_ids.size()) +
          " pred entries per iteration");
  // Each later iteration copies every node but the delays, and a recv
  // gains its stitch edge.
  module.Reserve(static_cast<std::size_t>(iterations - 1) * module.size(),
                 static_cast<std::size_t>(iterations - 1) *
                     (module.graph().pred_ids.size() + module.size()));

  // Iteration-0 stitches: per-(job, param) PS update and per-worker
  // final forward compute — the hooks consecutive iterations chain on.
  std::vector<std::vector<NodeId>> update_of(module.jobs.size());
  for (std::size_t j = 0; j < module.jobs.size(); ++j) {
    update_of[j].assign(module.jobs[j].ps_of_param.size(), kNoNode);
  }
  std::vector<NodeId> sink(static_cast<std::size_t>(Wt), kNoNode);
  for (NodeId t = 0; t < n0; ++t) {
    if (module.kind(t) == core::OpKind::kUpdate) {
      update_of[static_cast<std::size_t>(module.job(t))]
               [static_cast<std::size_t>(module.param(t))] = t;
    }
    if (module.kind(t) == core::OpKind::kCompute && module.worker(t) >= 0 &&
        !module.is_delay(t)) {
      sink[static_cast<std::size_t>(module.worker(t))] = t;  // last wins
    }
  }

  // ids_prev[t] / ids_cur[t]: the iteration-(k-1) / k copy of
  // iteration-0 node t. Delay nodes are not replicated — later
  // iterations share the iteration-0 delay, so a staggered job's
  // arrival gates only its first iteration.
  std::vector<NodeId> ids_prev(static_cast<std::size_t>(n0));
  std::vector<NodeId> ids_cur(static_cast<std::size_t>(n0));
  for (NodeId t = 0; t < n0; ++t) {
    ids_prev[static_cast<std::size_t>(t)] = t;
  }

  std::vector<NodeId> buf;
  for (int k = 1; k < iterations; ++k) {
    // Ids first (chain edges may point forward in emission order).
    NodeId next = static_cast<NodeId>(module.size());
    for (NodeId t = 0; t < n0; ++t) {
      ids_cur[static_cast<std::size_t>(t)] = module.is_delay(t) ? t : next++;
    }
    for (NodeId t = 0; t < n0; ++t) {
      if (module.is_delay(t)) continue;
      const NodeId n = module.AddNode();
      module.CopyNode(n, module, t);
      module.iteration(n) = k;
      // Enforcement counters reset each iteration (§5.1): distinct
      // gate group per (worker, iteration).
      if (module.gate_group(n) >= 0) module.gate_group(n) += k * Wt;

      // buf, not a span of t's preds, goes to SetPreds: the append may
      // reallocate the CSR.
      buf.clear();
      for (const NodeId p : module.preds(t)) {
        buf.push_back(ids_cur[static_cast<std::size_t>(p)]);
      }
      const int worker = module.worker(t);
      if (module.kind(t) == core::OpKind::kRecv && worker >= 0) {
        const int param = module.param(t);
        const auto& upd = update_of[static_cast<std::size_t>(module.job(t))];
        const NodeId stitched =
            static_cast<std::size_t>(param) < upd.size() &&
                    upd[static_cast<std::size_t>(param)] != kNoNode
                // Training: pull k waits for update k-1 of the same
                // parameter.
                ? upd[static_cast<std::size_t>(param)]
                // Inference serving loop: step k starts after forward
                // k-1.
                : sink[static_cast<std::size_t>(worker)];
        buf.push_back(ids_prev[static_cast<std::size_t>(stitched)]);
      }
      module.SetPreds(n, buf);
    }
    std::swap(ids_prev, ids_cur);
  }
}

}  // namespace

Module RunLoweringPasses(Module module, runtime::Topology topology,
                         int iterations, const PassHook& after_pass) {
  if (iterations < 1) throw std::invalid_argument("iterations must be >= 1");
  if (after_pass) module.Validate();
  const auto run = [&](const std::string& name, const auto& pass) {
    pass(module);
    if (!after_pass) return;
    try {
      module.Validate();
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument("ir: invariant violated after pass '" +
                                  name + "': " + e.what());
    }
    after_pass(name, module);
  };
  run("expand_replicas", ExpandReplicas);
  if (topology == runtime::Topology::kRing) {
    run("lower_allreduce_ring", LowerAllreduceRing);
  } else {
    run("lower_ps_fabric", LowerPsFabric);
    run("merge_jobs", MergeJobs);
    run("lower_flow_nics", LowerFlowNics);
  }
  run("apply_arrival_offsets", ApplyArrivalOffsets);
  run("pipeline_iters:" + std::to_string(iterations),
      [iterations](Module& m) { PipelineIters(m, iterations); });
  return module;
}

}  // namespace tictac::ir
