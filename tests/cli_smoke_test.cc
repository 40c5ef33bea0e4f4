// Black-box CLI smoke tests: bad arguments must exit non-zero with usage
// on stderr, and a chaos-mode serve must replay deterministically. The
// binary path is injected by CMake as TICTAC_CLI_PATH; these tests shell
// out to the real executable, so they cover argv parsing end to end.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#ifndef _WIN32
#include <sys/wait.h>
#endif

namespace {

struct CliResult {
  int exit_code = -1;
  std::string stderr_text;
};

CliResult RunCli(const std::string& args) {
  const std::string err_path = ::testing::TempDir() + "/tictac_cli_err.txt";
  const std::string cmd = std::string(TICTAC_CLI_PATH) + " " + args +
                          " >/dev/null 2>" + err_path;
  CliResult result;
  int status = std::system(cmd.c_str());
#ifndef _WIN32
  if (WIFEXITED(status)) status = WEXITSTATUS(status);
#endif
  result.exit_code = status;
  std::ifstream in(err_path);
  std::ostringstream text;
  text << in.rdbuf();
  result.stderr_text = text.str();
  return result;
}

// Runs the CLI and returns its stdout; fails the test on a non-zero exit.
std::string CliStdout(const std::string& args) {
  const std::string out_path = ::testing::TempDir() + "/tictac_cli_out.txt";
  const std::string cmd = std::string(TICTAC_CLI_PATH) + " " + args + " >" +
                          out_path + " 2>/dev/null";
  int status = std::system(cmd.c_str());
#ifndef _WIN32
  if (WIFEXITED(status)) status = WEXITSTATUS(status);
#endif
  EXPECT_EQ(status, 0) << args;
  std::ifstream in(out_path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// Every `"mean_iteration_s": <number>` value of a JSON report, in order.
std::vector<std::string> MeanIterationValues(const std::string& json) {
  const std::string key = "\"mean_iteration_s\": ";
  std::vector<std::string> values;
  for (std::size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at)) {
    at += key.size();
    values.push_back(json.substr(at, json.find_first_of(",}", at) - at));
  }
  return values;
}

TEST(CliSmoke, KnownSubcommandSucceeds) {
  const CliResult result = RunCli("models");
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
}

TEST(CliSmoke, NoArgumentsPrintsUsageAndFails) {
  const CliResult result = RunCli("");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.stderr_text.find("usage:"), std::string::npos)
      << result.stderr_text;
}

TEST(CliSmoke, UnknownSubcommandPrintsUsageAndFails) {
  const CliResult result = RunCli("frobnicate");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.stderr_text.find("unknown command: frobnicate"),
            std::string::npos)
      << result.stderr_text;
  EXPECT_NE(result.stderr_text.find("usage:"), std::string::npos);
}

TEST(CliSmoke, UnknownFlagPrintsUsageAndFails) {
  const CliResult result = RunCli("run --bogus-flag 3");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.stderr_text.find("unknown flag: --bogus-flag"),
            std::string::npos)
      << result.stderr_text;
  EXPECT_NE(result.stderr_text.find("usage:"), std::string::npos);
}

TEST(CliSmoke, MalformedFaultSpecIsRejected) {
  const CliResult result = RunCli(
      "serve --arrivals poisson:rate=5 --duration 0.1 --faults meteor:at=1");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.stderr_text.find("fault"), std::string::npos)
      << result.stderr_text;
}

TEST(CliSmoke, ChaosServeRuns) {
  const CliResult result = RunCli(
      "serve --arrivals poisson:rate=10 --duration 0.2 --fabrics 2 "
      "--faults crash:fabric=0:at=0.1 --json");
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
}

TEST(CliSmoke, ExecRuns) {
  const CliResult result = RunCli(
      "exec --model \"AlexNet v2\" --policy tic --workers 2 --ps 1 "
      "--iters 2 --straggler 1=2 --deterministic");
  EXPECT_EQ(result.exit_code, 0) << result.stderr_text;
}

TEST(CliSmoke, ExecJsonCarriesPredictionError) {
  // Route stdout to the captured file instead of stderr: the JSON body
  // is the contract under test.
  const std::string out_path = ::testing::TempDir() + "/tictac_exec.json";
  const std::string cmd =
      std::string(TICTAC_CLI_PATH) +
      " exec --model \"AlexNet v2\" --workers 2 --ps 2 --iters 2 --seed 5"
      " --deterministic --json >" +
      out_path + " 2>/dev/null";
  int status = std::system(cmd.c_str());
#ifndef _WIN32
  if (WIFEXITED(status)) status = WEXITSTATUS(status);
#endif
  ASSERT_EQ(status, 0);
  std::ifstream in(out_path);
  std::ostringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  EXPECT_NE(json.find("\"prediction_error_pct\":"), std::string::npos);
  EXPECT_NE(json.find("\"order_matches_schedule\":true"), std::string::npos);
  EXPECT_NE(json.find("\"mean_abs_prediction_error_pct\":"),
            std::string::npos);
}

TEST(CliSmoke, ExecUnknownFlagPrintsUsageAndFails) {
  const CliResult result = RunCli("exec --bogus-flag 3");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.stderr_text.find("unknown flag: --bogus-flag"),
            std::string::npos)
      << result.stderr_text;
  EXPECT_NE(result.stderr_text.find("usage:"), std::string::npos);
}

TEST(CliSmoke, ExecFlagsAreRejectedElsewhere) {
  const CliResult result = RunCli("sweep --sweep x --straggler 1=2");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.stderr_text.find("belong to exec"), std::string::npos)
      << result.stderr_text;
}

TEST(CliSmoke, LowerRunsComposedScenarioThroughOnePipeline) {
  // The DESIGN.md §10 quickstart: chunked + sharded + multi-job, one
  // ir::RunLoweringPasses call. stdout carries the pass list and the
  // combined result; --dump adds per-pass module summaries on stderr.
  const std::string out_path = ::testing::TempDir() + "/tictac_lower.json";
  const std::string cmd =
      std::string(TICTAC_CLI_PATH) +
      " lower --jobs \"2x{envG:workers=2:ps=2:training:chunk=4194304"
      ":shard=even model=Inception v1 policy=tic iterations=2}"
      " {envG:workers=2:ps=2:training model=AlexNet v2 policy=baseline"
      " iterations=2}@0.05\" --dump --json >" +
      out_path + " 2>/dev/null";
  int status = std::system(cmd.c_str());
#ifndef _WIN32
  if (WIFEXITED(status)) status = WEXITSTATUS(status);
#endif
  ASSERT_EQ(status, 0);
  std::ifstream in(out_path);
  std::ostringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  EXPECT_NE(json.find("\"passes\":"), std::string::npos) << json;
  EXPECT_NE(json.find("expand_replicas"), std::string::npos) << json;
  EXPECT_NE(json.find("merge_jobs"), std::string::npos) << json;
  EXPECT_NE(json.find("\"mean_iteration_s\":"), std::string::npos) << json;
}

TEST(CliSmoke, LowerMatchesMultiJobWithFlowOffAndOn) {
  // `lower` (the ir lowering passes) and `multijob` (BuildSharedFabric)
  // simulate the same fabric with the same options, flow network
  // included, so their combined and per-job iteration times agree. The
  // last input is the CI lower smoke's chunked + sharded spec.
  std::vector<std::string> inputs;
  for (const std::string env :
       {"envG:workers=2:ps=1:training",
        "envG:workers=2:ps=1:training:flow:pods=2:oversub=4"}) {
    inputs.push_back("{" + env +
                     " model=AlexNet v2 policy=tac iterations=2 seed=5} {" +
                     env + " model=VGG-16 policy=tic iterations=2 seed=5}@0.05");
  }
  inputs.push_back(
      "2x{envG:workers=2:ps=2:training:chunk=4194304:shard=even "
      "model=Inception v2 policy=tac iterations=3} "
      "{envG:workers=2:ps=2:training model=VGG-16 policy=baseline "
      "iterations=3}@0.05");
  for (const std::string& jobs : inputs) {
    const std::vector<std::string> lowered = MeanIterationValues(
        CliStdout("lower --json --jobs \"" + jobs + "\""));
    const std::vector<std::string> multijob = MeanIterationValues(
        CliStdout("multijob --no-isolated --json --jobs \"" + jobs + "\""));
    ASSERT_GE(lowered.size(), 3u) << jobs;
    EXPECT_EQ(lowered, multijob) << jobs;
  }
}

TEST(CliSmoke, LowerWithoutJobsPrintsUsageAndFails) {
  const CliResult result = RunCli("lower");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.stderr_text.find("--jobs"), std::string::npos)
      << result.stderr_text;
}

// Each command that runs spec text names the flag it is missing, in one
// wording built from the flag table, and exits 2.
TEST(CliSmoke, MissingSpecNamesTheRequiredFlag) {
  const std::pair<const char*, const char*> cases[] = {
      {"run", "run: missing --spec \"<spec>\""},
      {"sweep --parallel 2", "sweep: missing --sweep \"<sweep>\""},
      {"multijob", "multijob: missing --jobs \"<job groups>\""},
      {"lower --dump", "lower: missing --jobs \"<job groups>\""},
      {"clustersweep", "clustersweep: missing --jobs \"<job groups>\""},
      {"serve --duration 1", "serve: missing --arrivals \"<arrival>\""},
      {"run --spec \"\"", "run: missing --spec \"<spec>\""},
      {"serve --arrivals \"\"", "serve: missing --arrivals \"<arrival>\""},
  };
  for (const auto& [args, message] : cases) {
    const CliResult result = RunCli(args);
    EXPECT_EQ(result.exit_code, 2) << args;
    EXPECT_NE(result.stderr_text.find(message), std::string::npos)
        << args << "\n" << result.stderr_text;
  }
}

// A repeated key in any key=value grammar exits 1 naming it.
TEST(CliSmoke, RepeatedKeysAreNamed) {
  const std::pair<const char*, const char*> cases[] = {
      {"run --spec \"envG:workers=4:workers=2:ps=1 model=VGG-16\"",
       "duplicate cluster setting 'workers'"},
      {"run --spec \"envG:workers=4:ps=1:training:inference model=VGG-16\"",
       "duplicate cluster setting 'inference'"},
      {"serve --arrivals poisson:rate=1e308:rate=2 --duration 1",
       "duplicate field 'rate='"},
      {"serve --arrivals poisson:rate=20 --duration 1 "
       "--faults straggler:worker=0:factor=3:factor=1:at=0",
       "duplicate field 'factor='"},
  };
  for (const auto& [args, message] : cases) {
    const CliResult result = RunCli(args);
    EXPECT_EQ(result.exit_code, 1) << args;
    EXPECT_NE(result.stderr_text.find(message), std::string::npos)
        << args << "\n" << result.stderr_text;
  }
}

TEST(CliSmoke, LowerRejectsNonPositiveChunkAtParseTime) {
  const CliResult result = RunCli(
      "lower --jobs \"{envG:workers=2:ps=1:training:chunk=-4 "
      "model=AlexNet v2 policy=tic iterations=1}\"");
  EXPECT_NE(result.exit_code, 0);
  EXPECT_NE(result.stderr_text.find("chunk"), std::string::npos)
      << result.stderr_text;
}

TEST(CliSmoke, LowerFlagsAreRejectedElsewhere) {
  const CliResult result = RunCli("run --model \"AlexNet v2\" --dump");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.stderr_text.find("--dump"), std::string::npos)
      << result.stderr_text;
}

TEST(CliSmoke, ClusterSweepRunsAndEmitsJson) {
  const std::string out_path = ::testing::TempDir() + "/tictac_sweep.json";
  const std::string cmd =
      std::string(TICTAC_CLI_PATH) +
      " clustersweep --jobs \"6x{envG:workers=2:ps=1:training"
      " model=AlexNet v2 policy=tac iterations=2 seed=1}\""
      " --fabrics 2 --threads 2 --json >" +
      out_path + " 2>/dev/null";
  int status = std::system(cmd.c_str());
#ifndef _WIN32
  if (WIFEXITED(status)) status = WEXITSTATUS(status);
#endif
  ASSERT_EQ(status, 0);
  std::ifstream in(out_path);
  std::ostringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  EXPECT_NE(json.find("\"jobs\": 6"), std::string::npos) << json;
  EXPECT_NE(json.find("\"fabrics\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99_job_iteration_s\":"), std::string::npos) << json;
}

TEST(CliSmoke, ClusterSweepWithoutJobsPrintsUsageAndFails) {
  const CliResult result = RunCli("clustersweep");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.stderr_text.find("--jobs"), std::string::npos)
      << result.stderr_text;
}

TEST(CliSmoke, ClusterSweepFlagsAreRejectedElsewhere) {
  const CliResult result = RunCli("run --model \"AlexNet v2\" --threads 4");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.stderr_text.find("--threads"), std::string::npos)
      << result.stderr_text;
}

TEST(CliSmoke, ClusterSweepRejectsNegativeThreads) {
  const CliResult result = RunCli(
      "clustersweep --jobs \"{envG:workers=2:ps=1:training model=AlexNet v2 "
      "policy=tic iterations=1 seed=1}\" --threads -2");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.stderr_text.find("--threads must be >= 0"),
            std::string::npos)
      << result.stderr_text;
}

TEST(CliSmoke, ExecMalformedStragglerIsRejected) {
  const CliResult result = RunCli("exec --straggler fast");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.stderr_text.find("--straggler expects worker=factor"),
            std::string::npos)
      << result.stderr_text;
}

// Every command rejects a flag it does not read, and every number is read
// whole; each line exits non-zero naming the flag in its own error line
// (not only in the usage text that follows it).
TEST(CliSmoke, RejectedInputsNameTheFlag) {
  const std::pair<const char*, const char*> cases[] = {
      {"compare \"AlexNet v2\" --policy tac", "compare: --policy"},
      {"export-dot VGG-16 --workers 9", "export-dot: --workers"},
      {"models --training", "models: --training"},
      {"policies --env envC", "policies: --env"},
      {"exec --training", "exec: --training"},
      {"exec --iterations 3", "exec: --iterations"},
      {"sweep --sweep x --list-policies", "unknown flag: --list-policies"},
      {"serve --arrivals poisson:rate=5 --seed -1", "serve: --seed"},
      {"serve --arrivals poisson:rate=5 --seed +5", "serve: --seed"},
      {"simulate VGG-16 --workers \" 2\"", "simulate: --workers"},
      {"simulate VGG-16 --workers abc", "simulate: --workers"},
      {"clustersweep --jobs \"{envG:workers=2:ps=1:training model=AlexNet v2 "
       "policy=tic iterations=1 seed=1}\" --fabrics -1",
       "fabrics must be >= 0"},
      // 64 + 2·64·64 + 64 = 8,320 backend threads: refused up front.
      {"exec --workers 64 --ps 64 --deterministic", "kMaxBackendThreads"},
  };
  for (const auto& [args, named] : cases) {
    const CliResult result = RunCli(args);
    EXPECT_NE(result.exit_code, 0) << args;
    EXPECT_NE(result.stderr_text.find(named), std::string::npos)
        << args << "\n" << result.stderr_text;
  }
}

// Sizes that used to end in a bare `error: std::bad_alloc` naming no
// token: each exits non-zero naming the knob that asked for too much.
TEST(CliSmoke, HostileSizesNameTheirKnob) {
  const std::pair<const char*, const char*> cases[] = {
      {"run --spec \"envG:workers=2:ps=1 model=AlexNet v2 policy=tac "
       "iterations=2000000000\"",
       "iterations must be in [1, 1000000], got 2000000000"},
      {"run --spec \"envG:workers=1048576:ps=1 model=AlexNet v2 policy=tac "
       "iterations=1\"",
       "lowering: workers=1048576 x "},
      {"run --spec \"envG:workers=512:ps=1:training:topology=ring "
       "model=AlexNet v2 policy=tac iterations=1\"",
       "(ir::kMaxLoweredPredEntries); lower workers="},
      {"simulate \"AlexNet v2\" --iterations 2000000000",
       "simulate: --iterations must be <= 1000000"},
      {"exec --iters 2000000000", "exec: --iters must be <= 1000000"},
      // The job caps bound the total over all groups, not each group.
      {"clustersweep --jobs \"4096x{envG:workers=2:ps=1 model=AlexNet v2 "
       "iterations=1 seed=1} 4096x{envG:workers=2:ps=1 model=AlexNet v2 "
       "iterations=1 seed=1}\"",
       "at most 4096 jobs in all, got 8192"},
      {"multijob --jobs \"64x{envG:workers=2:ps=1 model=AlexNet v2 "
       "iterations=1 seed=1} {envG:workers=2:ps=1 model=AlexNet v2 "
       "iterations=1 seed=1}\"",
       "at most 64 jobs in all, got 65"},
      // Both used to grow until std::bad_alloc: the arrival stream was
      // materialized uncapped, and 1-byte chunks rewrote VGG-16 into
      // ~1.1e9 ops before any lowering budget was checked.
      {"serve --arrivals poisson:rate=1e308 --duration 1",
       "lower rate= or --duration"},
      // A horizon of 1e308 s used to let jobs iterate until memory ran
      // out; the arrival cap now rejects it before the loop starts.
      {"serve --arrivals poisson:rate=40 --duration 1e308 --max-jobs 3",
       "over --duration 1e+308 gives ~inf; lower rate= or --duration"},
      {"run --spec \"envG:workers=2:ps=1:training:chunk=1 model=VGG-16\"",
       "lowering: chunk=1 splits VGG-16's worker graph"},
      // Under the lowered-task cap, but PropertyIndex and TAC over 15.8M
      // ops used to grind for minutes.
      {"run --spec \"envG:workers=1:ps=1:training:chunk=70 model=VGG-16\"",
       "lowering: chunk=70 splits VGG-16's worker graph into 15813014 ops, "
       "over the scheduling budget"},
  };
  for (const auto& [args, named] : cases) {
    const CliResult result = RunCli(args);
    EXPECT_NE(result.exit_code, 0) << args;
    EXPECT_NE(result.stderr_text.find(named), std::string::npos)
        << args << "\n" << result.stderr_text;
    EXPECT_EQ(result.stderr_text.find("bad_alloc"), std::string::npos)
        << args << "\n" << result.stderr_text;
  }
}

// The group grammar is shared, so a clustersweep error must not speak of
// multijob: `error: multijob: at most 4096 jobs…` named the wrong command.
TEST(CliSmoke, ClusterSweepJobCapErrorDoesNotNameMultijob) {
  const CliResult result = RunCli(
      "clustersweep --jobs \"4096x{envG:workers=2:ps=1 model=AlexNet v2 "
      "iterations=1 seed=1} {envG:workers=2:ps=1 model=AlexNet v2 "
      "iterations=1 seed=1}\"");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.stderr_text.find("jobs: at most 4096 jobs in all, got 4097"),
            std::string::npos)
      << result.stderr_text;
  EXPECT_EQ(result.stderr_text.find("multijob:"), std::string::npos)
      << result.stderr_text;
}

// A refused offset prints exactly: six fixed digits read -1e-7 as
// "-0.000000", an offset that looks valid.
TEST(CliSmoke, MultiJobNegativeOffsetPrintsExactly) {
  const CliResult result = RunCli(
      "multijob --jobs \"{envG:workers=2:ps=1 model=AlexNet v2 "
      "policy=tac}@-1e-7\"");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.stderr_text.find(
                "has start offset -1e-07 — offsets must be finite and >= 0"),
            std::string::npos)
      << result.stderr_text;
}

// Noise shapes past kMaxNoiseSigma overflow exp(sigma·z) to inf or 0;
// uncapped, jitter=1e308 ran and printed a 0.00 ms mean iteration time.
TEST(CliSmoke, RunRejectsOverflowingJitterNamingTheToken) {
  const CliResult result = RunCli(
      "run --spec \"envG:workers=2:ps=1:jitter=1e308 model=VGG-16\"");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.stderr_text.find("'jitter=1e308'"), std::string::npos)
      << result.stderr_text;
}

TEST(CliSmoke, RunRejectsOverflowingSigmaNamingTheToken) {
  const CliResult result = RunCli(
      "run --spec \"envG:workers=2:ps=1:sigma=1e308 model=VGG-16 "
      "policy=tac\"");
  EXPECT_EQ(result.exit_code, 1);
  EXPECT_NE(result.stderr_text.find("'sigma=1e308'"), std::string::npos)
      << result.stderr_text;
}

}  // namespace
