// FNV-1a over everything a runtime::Lowering exports. The lowering/
// cells of sim_fingerprint_test.cc pin its values, and tests that claim
// two lowerings are the same export compare them through it.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "runtime/lowering.h"

namespace tictac {

// In task order: each task's duration bits, resource, priority, gate
// group and rank, pred count and ids, op, kind and worker; then the
// resource and worker counts, the worker tables and the update/sink
// hooks. AddPipeline then adds the per-task iteration tags and the
// iteration count, AddFabric the worker and PS counts and the job
// slices.
class LoweringHash {
 public:
  void Mix(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  void MixInt(int v) { Mix(static_cast<std::uint32_t>(v)); }
  void MixInts(const std::vector<int>& v) {
    Mix(v.size());
    for (const int x : v) MixInt(x);
  }
  void MixTables(const std::vector<std::vector<int>>& table) {
    Mix(table.size());
    for (const std::vector<int>& row : table) MixInts(row);
  }

  void Add(const runtime::Lowering& low) {
    Mix(low.tasks.size());
    for (std::size_t t = 0; t < low.tasks.size(); ++t) {
      const sim::TaskGraph& task = low.tasks;
      const std::span<const sim::TaskId> preds = task.preds(t);
      Mix(std::bit_cast<std::uint64_t>(task.duration[t]));
      MixInt(task.resource[t]);
      MixInt(task.priority[t]);
      MixInt(task.gate_group[t]);
      MixInt(task.gate_rank[t]);
      Mix(preds.size());
      for (const sim::TaskId p : preds) MixInt(p);
      MixInt(task.op[t]);
      MixInt(static_cast<int>(task.kind[t]));
      MixInt(task.worker[t]);
    }
    MixInt(low.num_resources);
    MixInt(low.num_workers);
    MixTables(low.worker_tasks);
    MixTables(low.worker_recv_tasks);
    MixTables(low.transfer_param);
    MixInts(low.update_task);
    MixInts(low.worker_sink);
  }
  // A one-iteration lowering leaves task_iteration empty; it hashes as
  // one 0 tag per task.
  void AddPipeline(const runtime::Lowering& low) {
    Add(low);
    if (low.task_iteration.empty()) {
      Mix(low.tasks.size());
      for (std::size_t t = 0; t < low.tasks.size(); ++t) MixInt(0);
    } else {
      MixInts(low.task_iteration);
    }
    MixInt(low.iterations);
  }
  void AddFabric(const runtime::Lowering& low) {
    Add(low);
    MixInt(low.num_workers);
    MixInt(low.num_ps);
    Mix(low.jobs.size());
    for (const runtime::JobSlice& slice : low.jobs) {
      MixInt(slice.first_task);
      MixInt(slice.last_task);
      MixInt(slice.first_worker);
      MixInt(slice.num_workers);
      MixInt(slice.delay_task);
      Mix(std::bit_cast<std::uint64_t>(slice.start_offset));
    }
  }

  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace tictac
