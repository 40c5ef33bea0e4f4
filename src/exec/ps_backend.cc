#include "exec/ps_backend.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "exec/transport.h"
#include "learn/data.h"
#include "learn/matrix.h"
#include "runtime/spec.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace tictac::exec {
namespace {

constexpr std::size_t kInvalidTask = std::numeric_limits<std::size_t>::max();

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Real-clock compute payload: spins actual arithmetic until `seconds` of
// wall clock elapsed. A deadline spin (rather than a calibrated iteration
// count) keeps the payload proportional to the modeled duration on any
// machine without a warm-up pass.
void SpinFor(double seconds) {
  if (seconds <= 0.0) return;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  volatile double x = 1.0000001;
  do {
    for (int i = 0; i < 256; ++i) x = x * 1.0000001 + 1e-12;
  } while (std::chrono::steady_clock::now() < deadline);
}

// Real-clock wire payload: copies `bytes` through bounded scratch buffers
// so transfer time grows with transfer size. Returns bytes copied.
std::uint64_t ChurnWire(std::uint64_t bytes) {
  constexpr std::size_t kChunk = 256 * 1024;
  thread_local std::vector<unsigned char> src(kChunk, 0xA5);
  thread_local std::vector<unsigned char> dst(kChunk);
  std::uint64_t copied = 0;
  while (copied < bytes) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(bytes - copied, kChunk));
    std::memcpy(dst.data(), src.data(), n);
    src.swap(dst);
    copied += n;
  }
  return copied;
}

// Per-(worker, iteration) lazy gradient computation. Any of the worker's
// send tasks may run first (they live on different uplink channels), so
// the first one computes; every send transitively depends on every recv
// of its worker, so the replica's parameters are complete by then.
struct WorkerCargo {
  std::mutex mu;
  bool computed = false;
  double loss = 0.0;
  learn::Gradients grads;
};

}  // namespace

double ExecutionTrace::MeanIterationTime() const {
  if (iteration_time_s.empty()) return 0.0;
  double sum = 0.0;
  for (double t : iteration_time_s) sum += t;
  return sum / static_cast<double>(iteration_time_s.size());
}

PsBackend::PsBackend(const runtime::Lowering& lowering,
                     const core::Graph& worker_graph, BackendOptions options)
    : lowering_(&lowering), graph_(&worker_graph),
      options_(std::move(options)) {
  if (options_.iterations < 1 ||
      options_.iterations > runtime::kMaxIterations) {
    throw std::invalid_argument("PsBackend: iterations must be in [1, " +
                                std::to_string(runtime::kMaxIterations) +
                                "], got " +
                                std::to_string(options_.iterations));
  }
  if (options_.work_scale <= 0.0 || options_.wire_scale <= 0.0) {
    throw std::invalid_argument("PsBackend: payload scales must be > 0");
  }
  if (options_.hidden_compute_factor <= 0.0 ||
      options_.hidden_bandwidth_factor <= 0.0 ||
      options_.hidden_latency_factor <= 0.0) {
    throw std::invalid_argument("PsBackend: hidden platform factors must be > 0");
  }
  if (options_.link_jitter_sigma < 0.0) {
    throw std::invalid_argument("PsBackend: link_jitter_sigma must be >= 0");
  }
  if (options_.queue_capacity < 0) {
    throw std::invalid_argument("PsBackend: queue_capacity must be >= 0");
  }
  // The replay reads one job's parameter tables (update_task) over one
  // iteration's graph; a multi-job fabric has no such tables, though its
  // resources fit the layout check below.
  if (lowering.jobs.size() != 1 || lowering.iterations != 1) {
    throw std::invalid_argument(
        "PsBackend: the backend runs one job's single-iteration lowering "
        "(jobs.size() == 1, iterations == 1), got " +
        std::to_string(lowering.jobs.size()) + " jobs and " +
        std::to_string(lowering.iterations) + " iterations");
  }
  if (lowering.num_resources > kMaxBackendThreads) {
    throw std::invalid_argument(
        "PsBackend: lowering has " + std::to_string(lowering.num_resources) +
        " resources, more than kMaxBackendThreads = " +
        std::to_string(kMaxBackendThreads) + " (one thread each)");
  }
  const int W = lowering.num_workers;
  if (static_cast<int>(options_.straggler_factors.size()) > W) {
    throw std::invalid_argument("PsBackend: straggler factor for worker beyond cluster");
  }
  for (double f : options_.straggler_factors) {
    if (f < 1.0) {
      throw std::invalid_argument("PsBackend: straggler factors must be >= 1");
    }
  }
  if (W < 1 || (lowering.num_resources - W) % (2 * W + 1) != 0 ||
      (lowering.num_resources - W) / (2 * W + 1) < 1) {
    throw std::invalid_argument("PsBackend: lowering has no worker/PS resource layout");
  }
  if (options_.workload.batch_per_worker < 1 ||
      options_.workload.dataset_examples < 1) {
    throw std::invalid_argument("PsBackend: workload needs examples and a batch size");
  }
}

ExecutionTrace PsBackend::Run() {
  const runtime::Lowering& L = *lowering_;
  const sim::TaskGraph& tasks = L.tasks;
  const core::Graph& G = *graph_;
  const BackendOptions& opt = options_;
  const int W = L.num_workers;
  const int R = L.num_resources;
  const int S = (R - W) / (2 * W + 1);
  const std::size_t N = tasks.size();
  const int P = static_cast<int>(L.update_task.size());

  const auto downlink = [&](int w, int s) { return W + w * S + s; };
  const auto uplink = [&](int w, int s) { return W + W * S + w * S + s; };

  // --- static task metadata (parameter / shard provenance) ------------------
  std::vector<std::int64_t> bytes_of_param(static_cast<std::size_t>(P), 0);
  for (const core::Op& op : G.ops()) {
    if (op.kind == core::OpKind::kRecv && op.param >= 0 && op.param < P) {
      bytes_of_param[static_cast<std::size_t>(op.param)] = op.bytes;
    }
  }
  std::vector<int> param_of(N, -1);
  std::vector<int> shard_of(N, -1);
  std::vector<int> ps_of_param(static_cast<std::size_t>(P), 0);
  for (int p = 0; p < P; ++p) {
    // Read tasks are lowered first, one per parameter, on their shard's CPU.
    const auto t = static_cast<std::size_t>(p);
    ps_of_param[t] = tasks.resource[t] - (W + 2 * W * S);
    param_of[t] = p;
    shard_of[t] = ps_of_param[t];
  }
  bool has_sends = false;
  bool has_updates = false;
  for (std::size_t t = static_cast<std::size_t>(P); t < N; ++t) {
    if (core::IsCommunication(tasks.kind[t])) {
      param_of[t] = G.op(tasks.op[t]).param;
      shard_of[t] = ps_of_param[static_cast<std::size_t>(param_of[t])];
      has_sends |= tasks.kind[t] == core::OpKind::kSend;
    }
  }
  for (int p = 0; p < P; ++p) {
    const sim::TaskId upd = L.update_task[static_cast<std::size_t>(p)];
    if (upd < 0) continue;
    has_updates = true;
    param_of[static_cast<std::size_t>(upd)] = p;
    shard_of[static_cast<std::size_t>(upd)] = ps_of_param[static_cast<std::size_t>(p)];
    const sim::TaskId agg = tasks.preds(static_cast<std::size_t>(upd)).front();
    param_of[static_cast<std::size_t>(agg)] = p;
    shard_of[static_cast<std::size_t>(agg)] = ps_of_param[static_cast<std::size_t>(p)];
  }

  std::vector<std::vector<std::size_t>> succs(N);
  std::vector<int> pred_count(N, 0);
  std::vector<int> total_on(static_cast<std::size_t>(R), 0);
  int num_groups = 0;
  for (std::size_t t = 0; t < N; ++t) {
    pred_count[t] = static_cast<int>(tasks.preds(t).size());
    for (sim::TaskId pred : tasks.preds(t)) {
      succs[static_cast<std::size_t>(pred)].push_back(t);
    }
    ++total_on[static_cast<std::size_t>(tasks.resource[t])];
    num_groups = std::max(num_groups, tasks.gate_group[t] + 1);
  }

  // Deterministic clock: fix each resource's execution order from one
  // reference simulation of the same lowering, then replay it with real
  // threads (readiness and gates still enforced by synchronization).
  std::vector<std::vector<std::size_t>> replay(static_cast<std::size_t>(R));
  if (opt.deterministic_clock) {
    const sim::SimResult ref = L.BuildSim().Run(sim::SimOptions{}, opt.seed);
    for (sim::TaskId t : ref.start_order) {
      const auto ti = static_cast<std::size_t>(t);
      replay[static_cast<std::size_t>(tasks.resource[ti])].push_back(ti);
    }
  }

  // --- training cargo -------------------------------------------------------
  learn::Mlp ps_model(opt.workload.shape, opt.seed);
  const int cargo_params = std::min(P, static_cast<int>(ps_model.num_params()));
  std::vector<learn::Mlp> worker_models(static_cast<std::size_t>(W), ps_model);
  learn::Dataset dataset = learn::MakeGaussianMixture(
      opt.workload.dataset_examples, opt.workload.shape.inputs,
      static_cast<int>(opt.workload.shape.classes), opt.workload.dataset_seed);
  if (opt.seed != 0) dataset = dataset.Shuffled(opt.seed);
  const bool trains = has_sends && has_updates && cargo_params > 0;

  // --- transport ------------------------------------------------------------
  int max_per_shard = 1;
  {
    std::vector<int> count(static_cast<std::size_t>(S), 0);
    for (int s : ps_of_param) ++count[static_cast<std::size_t>(s)];
    for (int c : count) max_per_shard = std::max(max_per_shard, c);
  }
  int capacity = opt.queue_capacity > 0 ? opt.queue_capacity : max_per_shard;
  if (has_sends && !has_updates) {
    // Pushed gradients are never aggregated (inference-style lowering with
    // sends): residue accumulates across iterations, so widen the bound.
    capacity = std::max(capacity, max_per_shard * opt.iterations);
  }
  InProcTransport transport(R, capacity);

  // Gradient tensors parked between a parameter's aggregate and update
  // tasks (dependency-ordered, same PS CPU).
  std::vector<std::vector<std::vector<double>>> agg(static_cast<std::size_t>(P));

  const auto straggler_factor = [&](int w) {
    return (w >= 0 && static_cast<std::size_t>(w) < opt.straggler_factors.size())
               ? opt.straggler_factors[static_cast<std::size_t>(w)]
               : 1.0;
  };

  // Virtual durations: the hidden platform the deterministic machine
  // "really" runs at — a pure function of (task, iteration, seed), so
  // timestamps are interleaving-free.
  const auto virtual_duration = [&](std::size_t t, int iter) {
    double d = tasks.duration[t];
    if (tasks.kind[t] == core::OpKind::kCompute) {
      d = d / opt.hidden_compute_factor * straggler_factor(tasks.worker[t]);
    } else if (core::IsCommunication(tasks.kind[t])) {
      const double wire = std::max(0.0, d - opt.assumed.latency_s);
      d = opt.hidden_latency_factor * opt.assumed.latency_s +
          wire / opt.hidden_bandwidth_factor;
      if (opt.link_jitter_sigma > 0.0) {
        d *= util::Rng::Stream(
                 opt.seed + 0x9e3779b97f4a7c15ULL *
                                (static_cast<std::uint64_t>(iter) + 1),
                 static_cast<std::uint64_t>(t))
                 .Lognormal(1.0, opt.link_jitter_sigma);
      }
    }
    return d;
  };

  ExecutionTrace trace;
  trace.handoff_order.assign(static_cast<std::size_t>(W), {});

  for (int iter = 0; iter < opt.iterations; ++iter) {
    sim::SimResult res;
    res.start.assign(N, 0.0);
    res.end.assign(N, 0.0);
    res.start_order.reserve(N);

    std::vector<int> remaining = pred_count;
    std::vector<char> ready(N, 0);
    std::vector<std::vector<std::size_t>> ready_q(static_cast<std::size_t>(R));
    std::vector<std::size_t> next_idx(static_cast<std::size_t>(R), 0);
    std::vector<int> done_on(static_cast<std::size_t>(R), 0);
    std::vector<int> gate_counter(static_cast<std::size_t>(num_groups), 0);
    std::vector<double> group_vlast(static_cast<std::size_t>(num_groups), 0.0);
    std::vector<double> vfree(static_cast<std::size_t>(R), 0.0);
    std::vector<std::unique_ptr<WorkerCargo>> cargo;
    cargo.reserve(static_cast<std::size_t>(W));
    for (int w = 0; w < W; ++w) cargo.push_back(std::make_unique<WorkerCargo>());

    std::mutex mu;
    std::condition_variable cv;
    bool go = false;
    std::chrono::steady_clock::time_point t0;
    std::uint64_t iter_bytes = 0;

    for (std::size_t t = 0; t < N; ++t) {
      if (remaining[t] == 0) {
        ready[t] = 1;
        if (!opt.deterministic_clock) {
          ready_q[static_cast<std::size_t>(tasks.resource[t])].push_back(t);
        }
      }
    }

    const auto gate_open = [&](std::size_t t) {
      return tasks.gate_group[t] < 0 ||
             gate_counter[static_cast<std::size_t>(tasks.gate_group[t])] ==
                 tasks.gate_rank[t];
    };

    // Next task this resource may start, or kInvalidTask. Deterministic
    // mode replays the reference order; real mode picks the min
    // (priority, task id) among ready, gate-eligible tasks — the
    // simulator's queue rule with a deterministic tie-break.
    const auto pick = [&](int r) -> std::size_t {
      const auto ri = static_cast<std::size_t>(r);
      if (opt.deterministic_clock) {
        if (next_idx[ri] < replay[ri].size()) {
          const std::size_t t = replay[ri][next_idx[ri]];
          if (ready[t] && gate_open(t)) {
            ++next_idx[ri];
            return t;
          }
        }
        return kInvalidTask;
      }
      std::size_t best = kInvalidTask;
      std::size_t best_pos = 0;
      for (std::size_t i = 0; i < ready_q[ri].size(); ++i) {
        const std::size_t t = ready_q[ri][i];
        if (!gate_open(t)) continue;
        if (best == kInvalidTask ||
            tasks.priority[t] < tasks.priority[best] ||
            (tasks.priority[t] == tasks.priority[best] && t < best)) {
          best = t;
          best_pos = i;
        }
      }
      if (best != kInvalidTask) {
        ready_q[ri].erase(ready_q[ri].begin() +
                          static_cast<std::ptrdiff_t>(best_pos));
      }
      return best;
    };

    const auto ensure_gradients = [&](int w) {
      WorkerCargo& c = *cargo[static_cast<std::size_t>(w)];
      std::lock_guard<std::mutex> g(c.mu);
      if (c.computed) return;
      const std::size_t offset =
          ((static_cast<std::size_t>(iter) * static_cast<std::size_t>(W) +
            static_cast<std::size_t>(w)) *
           opt.workload.batch_per_worker) %
          dataset.size();
      const learn::Dataset batch =
          dataset.Batch(offset, opt.workload.batch_per_worker);
      learn::Mlp& model = worker_models[static_cast<std::size_t>(w)];
      c.grads = model.ZeroGradients();
      c.loss = model.Loss(batch.features, batch.labels, &c.grads);
      c.computed = true;
    };

    // The data plane: real tensors through the transport. Runs outside
    // the scheduling lock. Returns payload bytes copied.
    const auto run_payload = [&](std::size_t t) -> std::uint64_t {
      std::uint64_t copied = 0;
      switch (tasks.kind[t]) {
        case core::OpKind::kRead: {
          const int p = param_of[t];
          const int s = shard_of[t];
          std::vector<double> tensor;
          if (p < cargo_params) {
            tensor = ps_model.param(static_cast<std::size_t>(p)).data();
          }
          for (int w = 0; w < W; ++w) {
            Message m;
            m.tag = p;
            m.sender = s;
            m.wire_bytes =
                static_cast<std::uint64_t>(bytes_of_param[static_cast<std::size_t>(p)]);
            m.tensor = tensor;
            copied += tensor.size() * sizeof(double);
            transport.Send(downlink(w, s), std::move(m));
          }
          break;
        }
        case core::OpKind::kRecv: {
          const int p = param_of[t];
          Message m = transport.Recv(tasks.resource[t], p);
          if (!opt.deterministic_clock) {
            copied += ChurnWire(static_cast<std::uint64_t>(
                static_cast<double>(m.wire_bytes) * opt.wire_scale));
          }
          if (!m.tensor.empty() && p < cargo_params) {
            copied += m.tensor.size() * sizeof(double);
            worker_models[static_cast<std::size_t>(tasks.worker[t])]
                .mutable_param(static_cast<std::size_t>(p))
                .data() = std::move(m.tensor);
          }
          break;
        }
        case core::OpKind::kCompute: {
          if (!opt.deterministic_clock) {
            SpinFor(tasks.duration[t] * opt.work_scale *
                    straggler_factor(tasks.worker[t]));
          }
          break;
        }
        case core::OpKind::kSend: {
          const int p = param_of[t];
          const int w = tasks.worker[t];
          if (trains) ensure_gradients(w);
          Message m;
          m.tag = p;
          m.sender = w;
          m.wire_bytes = static_cast<std::uint64_t>(G.op(tasks.op[t]).bytes);
          if (trains && p < cargo_params) {
            m.tensor =
                cargo[static_cast<std::size_t>(w)]->grads[static_cast<std::size_t>(p)]
                    .data();
            copied += m.tensor.size() * sizeof(double);
          }
          if (!opt.deterministic_clock) {
            copied += ChurnWire(static_cast<std::uint64_t>(
                static_cast<double>(m.wire_bytes) * opt.wire_scale));
          }
          transport.Send(tasks.resource[t], std::move(m));
          break;
        }
        case core::OpKind::kAggregate: {
          const int p = param_of[t];
          const int s = shard_of[t];
          auto& slot = agg[static_cast<std::size_t>(p)];
          slot.clear();
          for (int w = 0; w < W; ++w) {
            slot.push_back(transport.Recv(uplink(w, s), p).tensor);
          }
          break;
        }
        case core::OpKind::kUpdate: {
          const int p = param_of[t];
          if (p < cargo_params) {
            // Apply the W per-worker gradients in worker order with the
            // same scale PsTrainer uses — bit-identical aggregation, and
            // per-parameter updates commute, so thread interleaving
            // cannot perturb the weights.
            const double scale =
                -opt.workload.learning_rate / static_cast<double>(W);
            learn::Matrix& pm = ps_model.mutable_param(static_cast<std::size_t>(p));
            for (auto& tensor : agg[static_cast<std::size_t>(p)]) {
              learn::Matrix grad(pm.rows(), pm.cols());
              grad.data() = std::move(tensor);
              pm.Axpy(scale, grad);
            }
          }
          agg[static_cast<std::size_t>(p)].clear();
          break;
        }
      }
      return copied;
    };

    const auto resource_thread = [&](int r) {
      const auto ri = static_cast<std::size_t>(r);
      std::unique_lock<std::mutex> lk(mu);
      cv.wait(lk, [&] { return go; });
      while (done_on[ri] < total_on[ri]) {
        const std::size_t t = pick(r);
        if (t == kInvalidTask) {
          cv.wait(lk);
          continue;
        }
        ready[t] = 0;
        res.start_order.push_back(static_cast<sim::TaskId>(t));
        if (tasks.gate_group[t] >= 0) {
          if (iter == 0 && tasks.kind[t] == core::OpKind::kRecv) {
            trace.handoff_order[static_cast<std::size_t>(tasks.worker[t])]
                .push_back(param_of[t]);
          }
          ++gate_counter[static_cast<std::size_t>(tasks.gate_group[t])];
        }
        if (opt.deterministic_clock) {
          double vstart = vfree[ri];
          for (sim::TaskId pred : tasks.preds(t)) {
            vstart = std::max(vstart, res.end[static_cast<std::size_t>(pred)]);
          }
          if (tasks.gate_group[t] >= 0) {
            const auto g = static_cast<std::size_t>(tasks.gate_group[t]);
            vstart = std::max(vstart, group_vlast[g]);
            group_vlast[g] = vstart;
          }
          res.start[t] = vstart;
          res.end[t] = vstart + virtual_duration(t, iter);
          vfree[ri] = res.end[t];
        } else {
          res.start[t] = SecondsSince(t0);
        }
        cv.notify_all();  // gate counter may have advanced
        lk.unlock();
        const std::uint64_t copied = run_payload(t);
        lk.lock();
        if (!opt.deterministic_clock) res.end[t] = SecondsSince(t0);
        iter_bytes += copied;
        ++done_on[ri];
        for (std::size_t succ : succs[t]) {
          if (--remaining[succ] == 0) {
            ready[succ] = 1;
            if (!opt.deterministic_clock) {
              ready_q[static_cast<std::size_t>(tasks.resource[succ])].push_back(
                  succ);
            }
          }
        }
        cv.notify_all();
      }
    };

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(R));
    for (int r = 0; r < R; ++r) threads.emplace_back(resource_thread, r);
    {
      std::lock_guard<std::mutex> g(mu);
      t0 = std::chrono::steady_clock::now();
      go = true;
    }
    cv.notify_all();
    for (std::thread& th : threads) th.join();

    res.makespan = *std::max_element(res.end.begin(), res.end.end());
    if (opt.deterministic_clock) {
      // Canonical start order: the wall-clock interleaving of pushes into
      // start_order is nondeterministic, but the virtual timestamps are
      // not — re-derive the order from them so the whole trace is
      // interleaving-free.
      std::vector<sim::TaskId> order(N);
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(),
                       [&](sim::TaskId a, sim::TaskId b) {
                         const auto ai = static_cast<std::size_t>(a);
                         const auto bi = static_cast<std::size_t>(b);
                         return res.start[ai] != res.start[bi]
                                    ? res.start[ai] < res.start[bi]
                                    : a < b;
                       });
      res.start_order = std::move(order);
    }
    trace.iteration_time_s.push_back(res.makespan);
    trace.payload_bytes_copied += iter_bytes;
    if (trains) {
      double loss = 0.0;
      for (int w = 0; w < W; ++w) {
        loss += cargo[static_cast<std::size_t>(w)]->loss;
      }
      loss /= static_cast<double>(W);
      trace.loss.push_back(loss);
    }
    trace.iterations.push_back(std::move(res));
  }

  trace.messages = transport.messages_sent();
  if (trains) {
    const learn::Dataset eval = dataset.Batch(0, dataset.size());
    trace.final_accuracy = ps_model.Accuracy(eval.features, eval.labels);
    for (int p = 0; p < cargo_params; ++p) {
      const auto& data = ps_model.param(static_cast<std::size_t>(p)).data();
      trace.final_weight_checksums.push_back(
          std::accumulate(data.begin(), data.end(), 0.0));
    }
  }
  return trace;
}

}  // namespace tictac::exec
