// Self-calibrating sim-to-real validation (the paper's Fig. 12 loop,
// closed against our own backend):
//
//   schedule -> lower -> EXECUTE (exec::PsBackend, real threads) ->
//   trace -> trace::CalibratePlatform -> re-simulate with the fitted
//   constants -> predicted vs measured iteration time, per policy.
//
// The round-trip is honest in both clock modes: the deterministic clock
// runs on a *hidden* platform deliberately skewed from the assumed one
// (ps_backend.h), so calibration must genuinely recover constants the
// simulator never saw; the real clock measures actual thread execution.
// Each policy's row also reports the uncalibrated prediction (assumed
// constants, no perturbation tracking) as the contrast figure, and the
// calibration's residuals/R² gate `calibration_ok` so a poor fit is
// flagged instead of silently reported as a small error percentage.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/time_oracle.h"
#include "trace/calibrate.h"

namespace tictac::exec {

struct ExecSpec {
  std::string model = "Inception v2";
  std::vector<std::string> policies = {"baseline", "tic", "tac"};
  int num_workers = 2;
  int num_ps = 2;
  int iterations = 5;
  std::uint64_t seed = 1;
  bool training = true;
  // Virtual clock (reproducible, hidden-platform) vs wall clock.
  bool deterministic = true;
  core::PlatformModel platform;  // the assumed platform (lowering costs)
  // Perturbation knobs, mirrored into BackendOptions.
  std::vector<double> straggler_factors;
  double link_jitter_sigma = 0.0;
  // Real-clock payload scales (ps_backend.h).
  double work_scale = 1e-4;
  double wire_scale = 1e-2;
};

struct PolicyValidation {
  std::string policy;
  double measured_s = 0.0;       // backend mean iteration time
  double predicted_s = 0.0;      // sim with calibrated constants
  double uncalibrated_s = 0.0;   // sim with assumed constants, no knobs
  double error_pct = 0.0;        // 100 * |predicted - measured| / measured
  double uncalibrated_error_pct = 0.0;
  trace::Calibration calibration;
  bool calibration_ok = false;
  // Worker 0's measured hand-off order (parameter indices) and whether it
  // matches the policy schedule's normalized order exactly. True
  // (vacuously) for ungated policies such as the baseline.
  std::vector<int> handoff_order;
  bool order_matches_schedule = false;
  // Training cargo (0 when the run carries no cargo).
  double final_loss = 0.0;
  double final_accuracy = 0.0;
};

struct ExecReport {
  ExecSpec spec;
  std::vector<PolicyValidation> policies;

  // Mean of error_pct across policies (the headline acceptance figure).
  double MeanAbsErrorPct() const;
  // Aligned predicted-vs-measured table for the terminal.
  std::string ToTable() const;
  // Deterministic JSON (runtime::FormatDouble round-trip formatting):
  // byte-identical across same-seed deterministic runs.
  std::string ToJson() const;
};

// Runs the full round-trip for every policy in the spec. Throws
// std::invalid_argument / std::out_of_range on bad spec values (unknown
// model or policy, straggler factor < 1, worker index out of range, or
// more backend threads than kMaxBackendThreads).
ExecReport ValidateAgainstSim(const ExecSpec& spec);

}  // namespace tictac::exec
