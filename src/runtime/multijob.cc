#include "runtime/multijob.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "util/parse.h"

namespace tictac::runtime {
namespace {

[[noreturn]] void Fail(const std::string& message) {
  throw std::invalid_argument("multijob: " + message);
}

// The group grammar is shared by multijob, clustersweep and the service,
// so its errors carry a prefix naming none of them.
[[noreturn]] void FailJobs(const std::string& message) {
  throw std::invalid_argument("jobs: " + message);
}

}  // namespace

std::string MultiJobSpec::ToString() const {
  std::string text = "jobs=";
  std::size_t i = 0;
  bool first = true;
  while (i < jobs.size()) {
    std::size_t run = 1;
    while (i + run < jobs.size() && jobs[i + run] == jobs[i]) ++run;
    if (!first) text += ' ';
    first = false;
    if (run > 1) text += std::to_string(run) + "x";
    text += '{' + jobs[i].spec.ToString() + '}';
    if (jobs[i].start_offset != 0.0) {
      text += '@' + FormatDouble(jobs[i].start_offset);
    }
    i += run;
  }
  return text;
}

std::vector<MultiJobEntry> ParseJobGroups(std::string_view text,
                                          long long max_count) {
  constexpr std::string_view kSpace = " \t\n\v\f\r";  // std::isspace
  std::vector<MultiJobEntry> jobs;
  std::size_t pos = 0;
  const auto skip_ws = [&] {
    pos = std::min(text.find_first_not_of(kSpace, pos), text.size());
  };
  skip_ws();
  if (text.substr(pos, 5) == "jobs=") pos += 5;
  while (true) {
    skip_ws();
    if (pos >= text.size()) break;
    const std::size_t group = pos;
    // Optional replication count: "2x{...}".
    long long count = 1;
    if (std::isdigit(static_cast<unsigned char>(text[pos]))) {
      const std::size_t digits = text.find_first_not_of("0123456789", pos);
      if (digits == std::string_view::npos || text[digits] != 'x') {
        FailJobs("expected COUNTx{...} at '" +
                 std::string(text.substr(pos)) + "'");
      }
      const std::string digits_text(text.substr(pos, digits - pos));
      // Past long long is out of any acceptable range: fail below, loudly.
      count = util::ParseInt<long long>(digits_text).value_or(-1);
      if (count < 1 || count > max_count) {
        FailJobs("job count must be in [1, " + std::to_string(max_count) +
                 "], got " + digits_text);
      }
      pos = digits + 1;
    }
    if (pos >= text.size() || text[pos] != '{') {
      FailJobs("expected '{' opening a job spec at '" +
               std::string(text.substr(pos)) + "'");
    }
    const std::size_t close = text.find('}', pos + 1);
    if (close == std::string_view::npos) {
      FailJobs("unterminated job spec (missing '}') in '" +
               std::string(text) + "'");
    }
    MultiJobEntry entry;
    entry.spec = ExperimentSpec::Parse(text.substr(pos + 1, close - pos - 1));
    pos = close + 1;
    if (pos < text.size() && text[pos] == '@') {
      const std::size_t end =
          std::min(text.find_first_of(kSpace, pos + 1), text.size());
      const std::string value(text.substr(pos + 1, end - pos - 1));
      const std::optional<double> offset = util::ParseDouble(value);
      if (!offset) {
        FailJobs("@offset expects a number of seconds, got '" + value + "'");
      }
      entry.start_offset = *offset;
      pos = end;
    }
    // The cap holds for the running total, checked before appending, so
    // no list of groups grows past max_count jobs in memory.
    const auto total = static_cast<long long>(jobs.size()) + count;
    if (total > max_count) {
      FailJobs("at most " + std::to_string(max_count) + " jobs in all, got " +
               std::to_string(total) + " at '" +
               std::string(text.substr(group, pos - group)) + "'");
    }
    jobs.insert(jobs.end(), static_cast<std::size_t>(count), entry);
  }
  if (jobs.empty()) {
    FailJobs(
        "no jobs found — expected at least one [COUNTx]{<experiment spec>} "
        "group");
  }
  return jobs;
}

MultiJobSpec MultiJobSpec::Parse(std::string_view text) {
  MultiJobSpec spec;
  spec.jobs = ParseJobGroups(text, kMaxJobsPerFabric);
  spec.Validate();
  return spec;
}

void MultiJobSpec::Validate() const {
  if (jobs.empty()) Fail("need >= 1 job");
  if (jobs.size() > static_cast<std::size_t>(kMaxJobsPerFabric)) {
    Fail("at most " + std::to_string(kMaxJobsPerFabric) +
         " jobs per fabric, got " + std::to_string(jobs.size()));
  }
  const ExperimentSpec& head = jobs.front().spec;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const ExperimentSpec& job = jobs[j].spec;
    const std::string where = "job " + std::to_string(j) + " ('" +
                              job.ToString() + "') ";
    CheckSharesFabric(job, head, "multijob: " + where);
    if (job.iterations != head.iterations || job.seed != head.seed) {
      Fail(where +
           "declares iterations/seed different from job 0 — the combined "
           "fabric is simulated as one unit, so iterations= and seed= must "
           "match across jobs");
    }
    if (!(jobs[j].start_offset >= 0.0) || std::isinf(jobs[j].start_offset)) {
      Fail(where + "has start offset " + FormatDouble(jobs[j].start_offset) +
           " — offsets must be finite and >= 0");
    }
  }
}

void CheckSharesFabric(const ExperimentSpec& job, const ExperimentSpec& head,
                       const std::string& where) {
  const auto fail = [&where](const std::string& reason) {
    throw std::invalid_argument(where + reason);
  };
  job.BuildCluster();  // per-job cluster validity, loud field names
  if (job.cluster.topology != Topology::kPsFabric) {
    fail("declares topology=" +
         std::string(TopologyToken(job.cluster.topology)) +
         " — the shared fabric is parameter-server only (a ring "
         "collective has no PS fleet to share; run it single-job)");
  }
  if (job.cluster.env != head.cluster.env) {
    fail("declares env " + job.cluster.env + " but the fabric is " +
         head.cluster.env + " — all jobs share one environment");
  }
  if (job.cluster.ps != head.cluster.ps) {
    fail("declares ps=" + std::to_string(job.cluster.ps) +
         " but the shared PS fleet has " + std::to_string(head.cluster.ps) +
         " servers — all jobs must declare the same ps=");
  }
  if (job.cluster.jitter_sigma != head.cluster.jitter_sigma ||
      job.cluster.out_of_order != head.cluster.out_of_order) {
    fail("overrides jitter=/ooo= differently from the first job — "
         "simulation options are global to a fabric");
  }
}

int MultiJobSpec::TotalWorkers() const {
  int total = 0;
  for (const MultiJobEntry& job : jobs) total += job.spec.cluster.workers;
  return total;
}

SharedFabric BuildSharedFabric(const std::vector<MultiJobEntry>& entries,
                               RunnerCache& cache,
                               const ir::PassHook& after_pass) {
  int total_workers = 0;
  for (const MultiJobEntry& entry : entries) {
    total_workers += entry.spec.cluster.workers;
  }
  SharedFabric fabric;
  std::vector<JobLoweringInput> inputs;
  inputs.reserve(entries.size());
  bool any_scheduled = false;
  for (const MultiJobEntry& entry : entries) {
    const Runner& runner = cache.runner(entry.spec, total_workers);
    const RunnerCache::CachedSchedule& schedule =
        cache.schedule(entry.spec, total_workers);
    any_scheduled |= schedule.covers_all_recvs;
    inputs.push_back(JobLoweringInput{
        runner.worker_graph(), schedule.schedule, runner.ps_of_param(),
        runner.config(), entry.start_offset});
    fabric.samples_per_iteration.push_back(
        SamplesPerIteration(runner.model(), runner.config()));
  }
  fabric.lowering = Lower(inputs, /*iterations=*/1, after_pass);
  fabric.options = inputs.front().config.sim;
  fabric.options.enforce_gates = any_scheduled;
  // Non-null exactly when a config enabled flow_fairness
  // (lower_flow_nics); the lowering owns it.
  fabric.options.network = fabric.lowering.flow.get();
  return fabric;
}

MultiJobRunner::MultiJobRunner(MultiJobSpec spec, RunnerCache* cache)
    : spec_(std::move(spec)) {
  spec_.Validate();
  RunnerCache own;  // nothing built from it outlives the lowering
  fabric_ = BuildSharedFabric(spec_.jobs, cache != nullptr ? *cache : own);
}

MultiJobResult MultiJobRunner::Run() const {
  return Run(spec_.jobs.front().spec.iterations,
             spec_.jobs.front().spec.seed);
}

MultiJobResult MultiJobRunner::Run(int iterations,
                                   std::uint64_t seed) const {
  return RunSharedFabric(fabric_, iterations, seed);
}

MultiJobResult RunSharedFabric(const SharedFabric& fabric, int iterations,
                               std::uint64_t seed) {
  MultiJobResult result = RunIterations(fabric.lowering, fabric.options,
                                        iterations, seed, /*whole=*/true);
  double combined_samples = 0.0;
  for (std::size_t j = 0; j < result.jobs.size(); ++j) {
    result.jobs[j].samples_per_iteration = fabric.samples_per_iteration[j];
    combined_samples += fabric.samples_per_iteration[j];
  }
  result.combined.samples_per_iteration = combined_samples;
  return result;
}

}  // namespace tictac::runtime
