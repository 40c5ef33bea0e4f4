#include "ir/lower.h"

#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

namespace tictac::ir {
namespace {

// Imports `graph`'s ops (in op-id order, preds in graph edge order) as
// kLogical nodes tagged with job index `job`; returns their range.
JobRange AppendLogicalNodes(Module& module, const core::Graph& graph,
                            int job) {
  JobRange r;
  r.first = static_cast<NodeId>(module.size());
  std::vector<NodeId> buf;
  for (const core::Op& op : graph.ops()) {
    const NodeId n = module.AddNode();
    module.kind(n) = op.kind;
    module.op(n) = op.id;
    module.param(n) = op.param;
    module.bytes(n) = op.bytes;
    module.cost(n) = op.cost;
    module.job(n) = job;
    module.SetName(n, op.name);
    buf.clear();
    for (const core::OpId p : graph.preds(op.id)) {
      buf.push_back(r.first + p);
    }
    module.SetPreds(n, buf);
  }
  r.last = static_cast<NodeId>(module.size());
  return r;
}

// Attaches `schedule` as rank/priority attributes of job `job`'s nodes
// (gating documented at BuildLogicalModule).
void ApplyScheduleAttrs(Module& module, std::size_t job,
                        const core::Graph& graph,
                        const core::Schedule& schedule) {
  const JobRange& r = module.ranges[job];
  const bool size_match = schedule.size() == graph.size();
  if (size_match && schedule.CoversAllRecvs(graph)) {
    const std::unordered_map<core::OpId, int> rank =
        schedule.NormalizedRecvRank(graph);
    for (const auto& [op_id, recv_rank] : rank) {
      module.rank(r.first + op_id) = recv_rank;
    }
    module.jobs[job].scheduled = true;
  }
  if (size_match) {
    for (const core::Op& op : graph.ops()) {
      if (op.kind == core::OpKind::kSend && schedule.HasPriority(op.id)) {
        module.sched_priority(r.first + op.id) = schedule.priority(op.id);
      }
    }
  }
}

}  // namespace

int AddJob(Module& module, JobInfo info) {
  if (module.stage != Stage::kLogical) {
    throw std::invalid_argument("ir: AddJob requires a logical-stage module");
  }
  if (!info.graph) {
    throw std::invalid_argument("ir: AddJob needs info.graph set");
  }
  const int j = static_cast<int>(module.jobs.size());
  module.ranges.push_back(AppendLogicalNodes(module, *info.graph, j));
  module.jobs.push_back(std::move(info));
  return j;
}

Module BuildLogicalModule(
    const std::vector<runtime::JobLoweringInput>& jobs) {
  Module module;
  std::size_t nodes = 0;
  std::size_t edges = 0;
  for (const runtime::JobLoweringInput& job : jobs) {
    nodes += job.graph.size();
    edges += job.graph.num_edges();
  }
  module.Reserve(nodes, edges);
  for (const runtime::JobLoweringInput& job : jobs) {
    JobInfo info;
    info.config = job.config;
    info.start_offset = job.start_offset;
    info.ps_of_param = job.ps_of_param;
    // Borrowed: the caller's graph outlives the lowering call.
    info.graph = std::shared_ptr<const core::Graph>(&job.graph,
                                                    [](const core::Graph*) {});
    const int j = AddJob(module, std::move(info));
    ApplyScheduleAttrs(module, static_cast<std::size_t>(j), job.graph,
                       job.schedule);
  }
  return module;
}

runtime::Lowering ToLowering(Module module) {
  if (module.stage != Stage::kMerged) {
    throw std::invalid_argument(
        std::string("ir: ToLowering consumes a merged module, got ") +
        ToString(module.stage) + " (run the lowering passes first)");
  }
  const int T = module.total_workers;
  const auto n_all = static_cast<NodeId>(module.size());
  runtime::Lowering out;
  out.num_workers = T;
  out.num_resources = module.num_resources;
  out.num_ps = module.ring ? 0 : module.jobs.front().config.num_ps;
  out.flow = module.flow;
  for (std::size_t j = 0; j < module.jobs.size(); ++j) {
    const JobRange& r = module.ranges[j];
    out.jobs.push_back(runtime::JobSlice{
        .first_task = r.first,
        .last_task = r.last,
        .first_worker = r.first_worker,
        .num_workers = module.jobs[j].config.num_workers,
        .delay_task = r.delay == kNoNode ? -1 : r.delay,
        .start_offset = module.jobs[j].start_offset});
  }
  out.iterations = module.iterations;
  if (module.iterations > 1) {
    // Later iterations' copies are appended past iteration 0's ranges,
    // so only a lone job's slice can span them.
    if (module.jobs.size() > 1) {
      throw std::invalid_argument(
          "ir: ToLowering of a multi-job fabric consumes single-iteration "
          "modules (the multi-job runner re-simulates the one-iteration "
          "graph), got iterations=" + std::to_string(module.iterations));
    }
    out.jobs.back().last_task = n_all;
    out.task_iteration.reserve(module.size());
    for (NodeId n = 0; n < n_all; ++n) {
      out.task_iteration.push_back(module.iteration(n));
    }
  }
  out.worker_tasks.resize(static_cast<std::size_t>(T));
  out.worker_recv_tasks.resize(static_cast<std::size_t>(T));
  out.transfer_param.resize(static_cast<std::size_t>(T));

  for (NodeId n = 0; n < n_all; ++n) {
    if (module.worker(n) < 0) continue;
    const auto w = static_cast<std::size_t>(module.worker(n));
    out.worker_tasks[w].push_back(n);
    if (module.kind(n) == core::OpKind::kRecv) {
      out.worker_recv_tasks[w].push_back(n);
      // transfer_param is an iteration-0 table (pipelined lowerings keep
      // the first iteration's copy, runtime/lowering.h).
      if (module.iteration(n) == 0) {
        out.transfer_param[w].push_back(module.param(n));
      }
    }
  }

  // update_task/worker_sink are single-job PS tables (parameter indices
  // are per-job): ring and multi-job lowerings leave them empty.
  if (module.jobs.size() == 1 && !module.ring) {
    out.update_task.assign(module.jobs.front().ps_of_param.size(), -1);
    out.worker_sink.assign(static_cast<std::size_t>(T), -1);
    for (NodeId n = 0; n < n_all; ++n) {
      if (module.iteration(n) != 0) continue;
      if (module.kind(n) == core::OpKind::kUpdate) {
        out.update_task[static_cast<std::size_t>(module.param(n))] = n;
      }
      if (module.kind(n) == core::OpKind::kCompute && module.worker(n) >= 0) {
        out.worker_sink[static_cast<std::size_t>(module.worker(n))] = n;
      }
    }
  }
  out.tasks = module.TakeGraph();
  return out;
}

}  // namespace tictac::ir
