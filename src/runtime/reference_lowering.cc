// Verbatim copies of the pre-IR lowerings — see the header for why these
// must not change. The only edits from the originals are the namespace
// and the internal LowerCluster calls resolving to reference::.
#include "runtime/reference_lowering.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace tictac::runtime::reference {
namespace {

[[noreturn]] void Fail(const std::string& message) {
  throw std::invalid_argument("multijob: " + message);
}

}  // namespace

Lowering LowerCluster(const core::Graph& worker_graph,
                      const core::Schedule& schedule,
                      const std::vector<int>& ps_of_param,
                      const ClusterConfig& config) {
  const int W = config.num_workers;
  const int S = config.num_ps;
  if (W < 1 || S < 1) throw std::invalid_argument("need >=1 worker and PS");
  const core::PlatformModel& hw = config.platform;

  Lowering out;
  out.num_workers = W;
  out.num_resources = W + 2 * W * S + S;
  out.worker_tasks.resize(static_cast<std::size_t>(W));
  out.worker_recv_tasks.resize(static_cast<std::size_t>(W));
  out.transfer_param.resize(static_cast<std::size_t>(W));

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

  std::unordered_map<core::OpId, int> rank;
  const bool scheduled = schedule.size() == worker_graph.size() &&
                         schedule.CoversAllRecvs(worker_graph);
  if (scheduled) rank = schedule.NormalizedRecvRank(worker_graph);

  const int P = static_cast<int>(ps_of_param.size());
  std::vector<sim::TaskId> read_task(static_cast<std::size_t>(P));
  for (int p = 0; p < P; ++p) {
    sim::Task read;
    read.duration = hw.ps_op_time_s;
    read.resource = ps_cpu(ps_for(p));
    read.kind = core::OpKind::kRead;
    read_task[static_cast<std::size_t>(p)] =
        static_cast<sim::TaskId>(out.tasks.size());
    out.tasks.push_back(std::move(read));
  }

  std::vector<std::vector<sim::TaskId>> op_task(
      static_cast<std::size_t>(W),
      std::vector<sim::TaskId>(worker_graph.size(), -1));

  const std::vector<core::OpId> topo_order = worker_graph.TopologicalOrder();
  if (topo_order.size() != worker_graph.size()) {
    throw std::invalid_argument("worker graph has a cycle");
  }

  out.worker_sink.assign(static_cast<std::size_t>(W), -1);
  for (int w = 0; w < W; ++w) {
    for (const core::OpId op_id : topo_order) {
      const core::Op& op = worker_graph.op(op_id);
      sim::Task task;
      task.op = op.id;
      task.kind = op.kind;
      task.worker = w;
      switch (op.kind) {
        case core::OpKind::kRecv: {
          const int s = ps_for(op.param);
          task.resource = downlink(w, s);
          task.duration = transfer_time(op.bytes);
          task.preds.push_back(read_task[static_cast<std::size_t>(op.param)]);
          if (scheduled) {
            const int r = rank.at(op.id);
            task.priority = r;
            switch (config.enforcement) {
              case Enforcement::kPriorityOnly:
                break;
              case Enforcement::kHandoffGate:
                task.gate_group = w;
                task.gate_rank = r;
                break;
              case Enforcement::kDagChain:
                break;  // dependency edges added in a post-pass below
            }
          }
          break;
        }
        case core::OpKind::kSend: {
          const int s = ps_for(op.param);
          task.resource = uplink(w, s);
          task.duration = transfer_time(op.bytes);
          if (schedule.size() == worker_graph.size() &&
              schedule.HasPriority(op.id)) {
            task.priority = schedule.priority(op.id);
          }
          break;
        }
        case core::OpKind::kCompute: {
          task.resource = w;
          double speed = 1.0;
          if (static_cast<std::size_t>(w) <
              config.worker_speed_factors.size()) {
            speed = config.worker_speed_factors[static_cast<std::size_t>(w)];
            if (speed <= 0.0) {
              throw std::invalid_argument("worker speed factor must be > 0");
            }
          }
          task.duration = op.cost / (hw.compute_rate * speed);
          break;
        }
        default:
          throw std::invalid_argument(
              "worker partition may only hold compute/recv/send ops");
      }
      for (core::OpId pred : worker_graph.preds(op.id)) {
        task.preds.push_back(op_task[static_cast<std::size_t>(w)]
                                    [static_cast<std::size_t>(pred)]);
      }
      const auto id = static_cast<sim::TaskId>(out.tasks.size());
      op_task[static_cast<std::size_t>(w)][static_cast<std::size_t>(op.id)] =
          id;
      out.worker_tasks[static_cast<std::size_t>(w)].push_back(id);
      if (op.kind == core::OpKind::kRecv) {
        out.worker_recv_tasks[static_cast<std::size_t>(w)].push_back(id);
        out.transfer_param[static_cast<std::size_t>(w)].push_back(op.param);
      }
      if (op.kind == core::OpKind::kCompute) {
        out.worker_sink[static_cast<std::size_t>(w)] = id;  // last in topo
      }
      out.tasks.push_back(std::move(task));
    }
  }

  if (scheduled && config.enforcement == Enforcement::kDagChain) {
    for (int w = 0; w < W; ++w) {
      const auto& recv_tasks =
          out.worker_recv_tasks[static_cast<std::size_t>(w)];
      std::vector<sim::TaskId> by_rank(recv_tasks.size());
      for (sim::TaskId t : recv_tasks) {
        by_rank[static_cast<std::size_t>(
            out.tasks[static_cast<std::size_t>(t)].priority)] = t;
      }
      for (std::size_t r = 1; r < by_rank.size(); ++r) {
        out.tasks[static_cast<std::size_t>(by_rank[r])].preds.push_back(
            by_rank[r - 1]);
      }
    }
  }

  out.update_task.assign(static_cast<std::size_t>(P), -1);
  if (config.training) {
    std::vector<std::vector<sim::TaskId>> sends_of_param(
        static_cast<std::size_t>(P));
    for (int w = 0; w < W; ++w) {
      for (const core::Op& op : worker_graph.ops()) {
        if (op.kind == core::OpKind::kSend) {
          sends_of_param[static_cast<std::size_t>(op.param)].push_back(
              op_task[static_cast<std::size_t>(w)]
                     [static_cast<std::size_t>(op.id)]);
        }
      }
    }
    for (int p = 0; p < P; ++p) {
      auto& sends = sends_of_param[static_cast<std::size_t>(p)];
      if (sends.empty()) continue;  // parameter without gradient (frozen)
      sim::Task aggregate;
      aggregate.duration = hw.ps_op_time_s;
      aggregate.resource = ps_cpu(ps_for(p));
      aggregate.kind = core::OpKind::kAggregate;
      aggregate.preds = sends;
      const auto agg_id = static_cast<sim::TaskId>(out.tasks.size());
      out.tasks.push_back(std::move(aggregate));

      sim::Task update;
      update.duration = hw.ps_op_time_s;
      update.resource = ps_cpu(ps_for(p));
      update.kind = core::OpKind::kUpdate;
      update.preds.push_back(agg_id);
      out.update_task[static_cast<std::size_t>(p)] =
          static_cast<sim::TaskId>(out.tasks.size());
      out.tasks.push_back(std::move(update));
    }
  }

  return out;
}

PipelineLowering LowerPipeline(const core::Graph& worker_graph,
                               const core::Schedule& schedule,
                               const std::vector<int>& ps_of_param,
                               const ClusterConfig& config, int iterations) {
  if (iterations < 1) throw std::invalid_argument("iterations must be >= 1");
  const Lowering once =
      reference::LowerCluster(worker_graph, schedule, ps_of_param, config);
  const int W = once.num_workers;
  const auto tasks_per_iter = static_cast<sim::TaskId>(once.tasks.size());

  PipelineLowering out;
  out.iterations = iterations;
  Lowering& merged = out.lowering;
  merged.num_resources = once.num_resources;
  merged.num_workers = W;
  merged.worker_tasks.resize(static_cast<std::size_t>(W));
  merged.worker_recv_tasks.resize(static_cast<std::size_t>(W));
  merged.transfer_param = once.transfer_param;
  merged.update_task = once.update_task;
  merged.worker_sink = once.worker_sink;

  for (int k = 0; k < iterations; ++k) {
    const sim::TaskId offset = tasks_per_iter * k;
    const sim::TaskId prev_offset = tasks_per_iter * (k - 1);
    for (sim::TaskId t = 0; t < tasks_per_iter; ++t) {
      sim::Task task = once.tasks[static_cast<std::size_t>(t)];
      for (sim::TaskId& p : task.preds) p += offset;
      if (task.gate_group >= 0) task.gate_group += k * W;
      if (k > 0 && task.kind == core::OpKind::kRecv && task.worker >= 0) {
        const int param = worker_graph.op(task.op).param;
        const sim::TaskId upd =
            once.update_task.empty()
                ? -1
                : once.update_task[static_cast<std::size_t>(param)];
        if (upd >= 0) {
          task.preds.push_back(prev_offset + upd);
        } else {
          task.preds.push_back(
              prev_offset +
              once.worker_sink[static_cast<std::size_t>(task.worker)]);
        }
      }
      out.task_iteration.push_back(k);
      merged.tasks.push_back(std::move(task));
    }
    for (int w = 0; w < W; ++w) {
      for (sim::TaskId t : once.worker_tasks[static_cast<std::size_t>(w)]) {
        merged.worker_tasks[static_cast<std::size_t>(w)].push_back(t + offset);
      }
      for (sim::TaskId t :
           once.worker_recv_tasks[static_cast<std::size_t>(w)]) {
        merged.worker_recv_tasks[static_cast<std::size_t>(w)].push_back(
            t + offset);
      }
    }
  }
  return out;
}

Lowering LowerAllReduce(const core::Graph& worker_graph,
                        const ClusterConfig& config) {
  const int W = config.num_workers;
  if (W < 2) throw std::invalid_argument("all-reduce needs >= 2 workers");
  if (!config.training) {
    throw std::invalid_argument("all-reduce applies to training only");
  }
  const core::PlatformModel& hw = config.platform;

  Lowering out;
  out.num_workers = W;
  out.num_resources = 2 * W;
  out.worker_tasks.resize(static_cast<std::size_t>(W));
  out.worker_recv_tasks.resize(static_cast<std::size_t>(W));
  out.transfer_param.resize(static_cast<std::size_t>(W));

  const std::vector<core::OpId> topo = worker_graph.TopologicalOrder();
  if (topo.size() != worker_graph.size()) {
    throw std::invalid_argument("worker graph has a cycle");
  }

  std::vector<std::vector<sim::TaskId>> op_task(
      static_cast<std::size_t>(W),
      std::vector<sim::TaskId>(worker_graph.size(), -1));

  int max_param = -1;
  for (const core::Op& op : worker_graph.ops()) {
    max_param = std::max(max_param, op.param);
  }
  const int P = max_param + 1;
  std::vector<std::vector<sim::TaskId>> grad_ready(
      static_cast<std::size_t>(P));

  for (int w = 0; w < W; ++w) {
    for (const core::OpId op_id : topo) {
      const core::Op& op = worker_graph.op(op_id);
      sim::Task task;
      task.op = op.id;
      task.kind = op.kind;
      task.worker = w;
      switch (op.kind) {
        case core::OpKind::kRecv:
          task.resource = w;
          task.duration = 0.0;
          break;
        case core::OpKind::kSend:
          task.resource = w;
          task.duration = 0.0;
          break;
        case core::OpKind::kCompute: {
          task.resource = w;
          double speed = 1.0;
          if (static_cast<std::size_t>(w) <
              config.worker_speed_factors.size()) {
            speed = config.worker_speed_factors[static_cast<std::size_t>(w)];
          }
          task.duration = op.cost / (hw.compute_rate * speed);
          break;
        }
        default:
          throw std::invalid_argument(
              "worker partition may only hold compute/recv/send ops");
      }
      for (core::OpId pred : worker_graph.preds(op.id)) {
        task.preds.push_back(op_task[static_cast<std::size_t>(w)]
                                    [static_cast<std::size_t>(pred)]);
      }
      const auto id = static_cast<sim::TaskId>(out.tasks.size());
      op_task[static_cast<std::size_t>(w)][static_cast<std::size_t>(op.id)] =
          id;
      out.worker_tasks[static_cast<std::size_t>(w)].push_back(id);
      if (op.kind == core::OpKind::kRecv) {
        out.worker_recv_tasks[static_cast<std::size_t>(w)].push_back(id);
        out.transfer_param[static_cast<std::size_t>(w)].push_back(op.param);
      }
      if (op.kind == core::OpKind::kSend && op.param >= 0) {
        grad_ready[static_cast<std::size_t>(op.param)].push_back(id);
      }
      out.tasks.push_back(std::move(task));
    }
  }

  for (int p = 0; p < P; ++p) {
    const auto& ready = grad_ready[static_cast<std::size_t>(p)];
    if (ready.empty()) continue;
    std::int64_t bytes = 0;
    for (const core::Op& op : worker_graph.ops()) {
      if (op.kind == core::OpKind::kSend && op.param == p) {
        bytes = op.bytes;
        break;
      }
    }
    const double chunk_time =
        hw.latency_s + static_cast<double>(bytes) / W / hw.bandwidth_bps;

    std::vector<sim::TaskId> previous_round = ready;
    for (int round = 0; round < 2 * (W - 1); ++round) {
      std::vector<sim::TaskId> this_round;
      this_round.reserve(static_cast<std::size_t>(W));
      for (int link = 0; link < W; ++link) {
        sim::Task transfer;
        transfer.kind = core::OpKind::kSend;
        transfer.resource = W + link;
        transfer.duration = chunk_time;
        transfer.preds = previous_round;
        this_round.push_back(static_cast<sim::TaskId>(out.tasks.size()));
        out.tasks.push_back(std::move(transfer));
      }
      previous_round = std::move(this_round);
    }
  }
  return out;
}

MultiJobLowering LowerSharedCluster(
    const std::vector<JobLoweringInput>& jobs) {
  if (jobs.empty()) Fail("LowerSharedCluster needs >= 1 job");
  const int S = jobs.front().config.num_ps;
  long long total = 0;
  for (const JobLoweringInput& job : jobs) {
    if (job.config.num_ps != S) {
      Fail("all jobs must share the PS fleet: got num_ps=" +
           std::to_string(job.config.num_ps) + " vs " + std::to_string(S));
    }
    total += job.config.num_workers;
  }
  if (total > (1 << 20)) {
    Fail("total workers across jobs must be <= 1048576, got " +
         std::to_string(total));
  }
  const int T = static_cast<int>(total);

  MultiJobLowering out;
  out.total_workers = T;
  out.num_ps = S;
  Lowering& combined = out.combined;
  combined.num_workers = T;
  combined.num_resources = T + 2 * T * S + S;
  combined.worker_tasks.resize(static_cast<std::size_t>(T));
  combined.worker_recv_tasks.resize(static_cast<std::size_t>(T));
  combined.transfer_param.resize(static_cast<std::size_t>(T));

  int base_w = 0;
  int delay_resources = 0;
  for (const JobLoweringInput& job : jobs) {
    Lowering local = reference::LowerCluster(job.graph, job.schedule,
                                             job.ps_of_param, job.config);
    const int W = job.config.num_workers;

    MultiJobLowering::JobSlice slice;
    slice.first_worker = base_w;
    if (job.start_offset > 0.0) {
      sim::Task delay;
      delay.duration = job.start_offset;
      delay.resource = T + 2 * T * S + S + delay_resources;
      ++delay_resources;
      slice.delay_task = static_cast<sim::TaskId>(combined.tasks.size());
      combined.tasks.push_back(std::move(delay));
    } else if (job.start_offset < 0.0) {
      Fail("start_offset must be >= 0, got " +
           std::to_string(job.start_offset));
    }
    const auto offset = static_cast<sim::TaskId>(combined.tasks.size());
    slice.first_task = offset;

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

    for (const sim::Task& local_task : local.tasks) {
      sim::Task task = local_task;
      task.resource = remap_resource(task.resource);
      for (sim::TaskId& p : task.preds) p += offset;
      if (task.gate_group >= 0) task.gate_group += base_w;
      if (task.worker >= 0) task.worker += base_w;
      if (slice.delay_task >= 0 && task.preds.empty()) {
        task.preds.push_back(slice.delay_task);
      }
      combined.tasks.push_back(std::move(task));
    }
    for (int w = 0; w < W; ++w) {
      const auto local_w = static_cast<std::size_t>(w);
      const auto global_w = static_cast<std::size_t>(base_w + w);
      for (sim::TaskId t : local.worker_tasks[local_w]) {
        combined.worker_tasks[global_w].push_back(t + offset);
      }
      for (sim::TaskId t : local.worker_recv_tasks[local_w]) {
        combined.worker_recv_tasks[global_w].push_back(t + offset);
      }
      combined.transfer_param[global_w] = local.transfer_param[local_w];
    }
    slice.last_task = static_cast<sim::TaskId>(combined.tasks.size());
    slice.start_offset = job.start_offset;
    out.jobs.push_back(std::move(slice));
    base_w += W;
  }
  combined.num_resources += delay_resources;
  return out;
}

}  // namespace tictac::runtime::reference
