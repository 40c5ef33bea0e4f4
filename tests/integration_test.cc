// End-to-end behavioural tests mirroring the paper's headline claims,
// expressed through the declarative ExperimentSpec / Session API, and
// every declared figure's claim (harness/figures.h) checked across seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <set>
#include <stdexcept>

#include "harness/figures.h"
#include "harness/session.h"
#include "models/zoo.h"
#include "util/stats.h"

namespace tictac {
namespace {

using runtime::ExperimentSpec;

ExperimentSpec Spec(const std::string& model, const std::string& env,
                    int workers, int ps, bool training,
                    const std::string& policy, std::uint64_t seed,
                    int iterations) {
  ExperimentSpec spec;
  spec.model = model;
  spec.cluster.env = env;
  spec.cluster.workers = workers;
  spec.cluster.ps = ps;
  spec.cluster.training = training;
  spec.policy = policy;
  spec.seed = seed;
  spec.iterations = iterations;
  return spec;
}

double Speedup(harness::Session& session, const ExperimentSpec& spec) {
  ExperimentSpec baseline = spec;
  baseline.policy = "baseline";
  const double base = session.Run(baseline).Throughput();
  return session.Run(spec).Throughput() / base - 1.0;
}

TEST(Integration, FigureModelListMatchesFigures) {
  const auto names = harness::FigureModels();
  EXPECT_EQ(names.size(), 9u);
  for (const auto& name : names) {
    EXPECT_NO_THROW(models::FindModel(name));
  }
}

TEST(Integration, TicImprovesMostModelsInference) {
  // Figure 7's qualitative claim: scheduling helps, and large branchy
  // models gain more than small chain models.
  harness::Session session;
  const double inception_gain = Speedup(
      session, Spec("Inception v2", "envG", 4, 1, false, "tic", 42, 6));
  const double alexnet_gain = Speedup(
      session, Spec("AlexNet v2", "envG", 4, 1, false, "tic", 42, 6));
  EXPECT_GT(inception_gain, 0.15);
  EXPECT_GT(inception_gain, alexnet_gain);
}

TEST(Integration, InferenceGainsExceedTrainingGains) {
  // §6.1: "we obtain higher gains in the inference phase than training."
  harness::Session session;
  const double inference = Speedup(
      session, Spec("Inception v2", "envG", 4, 1, false, "tic", 11, 6));
  const double training = Speedup(
      session, Spec("Inception v2", "envG", 4, 1, true, "tic", 11, 6));
  EXPECT_GT(inference, training);
}

TEST(Integration, TacMatchesOrBeatsTicOnEnvC) {
  // Appendix B: TIC is comparable to TAC; neither should collapse.
  harness::Session session;
  const double tic = Speedup(
      session, Spec("Inception v2", "envC", 4, 1, false, "tic", 23, 6));
  const double tac = Speedup(
      session, Spec("Inception v2", "envC", 4, 1, false, "tac", 23, 6));
  EXPECT_GT(tic, 0.0);
  EXPECT_GT(tac, 0.0);
  EXPECT_NEAR(tic, tac, 0.10);
}

TEST(Integration, EfficiencyPredictsStepTime) {
  // Figure 12a: scheduling efficiency regresses strongly against
  // normalized step time across runs with and without scheduling.
  harness::Session session;
  std::vector<double> efficiency;
  std::vector<double> step_time;
  for (const char* policy : {"baseline", "tac"}) {
    const auto result = session.Run(
        Spec("Inception v2", "envC", 2, 1, true, policy, 5, 30));
    for (const auto& it : result.iterations) {
      efficiency.push_back(it.mean_efficiency);
      step_time.push_back(it.makespan);
    }
  }
  const auto fit = util::FitLine(efficiency, step_time);
  EXPECT_LT(fit.slope, 0.0);  // higher efficiency => lower step time
  EXPECT_GT(fit.r2, 0.85);
}

TEST(Integration, BaselineStepTimeSpreadExceedsTac) {
  // Figure 12b: the baseline CDF is wide, TAC's is sharp.
  harness::Session session;
  std::vector<double> base_times;
  std::vector<double> tac_times;
  const auto base = session.Run(
      Spec("Inception v2", "envC", 2, 1, false, "baseline", 7, 30));
  const auto tac = session.Run(
      Spec("Inception v2", "envC", 2, 1, false, "tac", 7, 30));
  for (const auto& it : base.iterations) base_times.push_back(it.makespan);
  for (const auto& it : tac.iterations) tac_times.push_back(it.makespan);
  EXPECT_GT(util::Stddev(base_times) / util::Mean(base_times),
            2.0 * util::Stddev(tac_times) / util::Mean(tac_times));
}

TEST(Integration, MoreWorkersIncreaseAggregateThroughput) {
  harness::Session session;
  const double t2 =
      session.Run(Spec("ResNet-50 v1", "envG", 2, 1, false, "tic", 3, 5))
          .Throughput();
  const double t8 =
      session.Run(Spec("ResNet-50 v1", "envG", 8, 2, false, "tic", 3, 5))
          .Throughput();
  EXPECT_GT(t8, t2);
}

TEST(Integration, MorePsImprovesCommBoundThroughput) {
  // Figure 9: spreading parameters over more PS parallelizes transfers.
  harness::Session session;
  const double ps1 =
      session.Run(Spec("VGG-16", "envG", 8, 1, false, "tic", 3, 5))
          .Throughput();
  const double ps4 =
      session.Run(Spec("VGG-16", "envG", 8, 4, false, "tic", 3, 5))
          .Throughput();
  EXPECT_GT(ps4, ps1 * 1.5);
}

// --- The declared figures (harness/figures.h) --------------------------------

TEST(Figures, IdsAreUniqueAndEverySweepParses) {
  std::set<std::string> ids;
  for (const auto& figure : harness::Figures()) {
    EXPECT_TRUE(ids.insert(figure.id).second) << "repeated id " << figure.id;
    EXPECT_NE(figure.tables.empty(), !figure.report) << figure.id;
    EXPECT_NO_THROW(harness::FigureSpecs(figure)) << figure.id;
  }
}

TEST(Figures, SelectTakesFlagsInOrderAndRejectsBadOnesListingIds) {
  const auto all = harness::Figures();
  EXPECT_EQ(harness::SelectFigures({}).size(), all.size());
  const auto two =
      harness::SelectFigures({"--figure", "fig13", "--figure", "fig7"});
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].id + two[1].id, "fig13fig7");
  for (const auto& [args, error] :
       std::vector<std::pair<std::vector<std::string>, std::string>>{
           {{"--figure", "fig8"}, "unknown figure 'fig8'"},
           {{"--figure", "fig7", "--figure", "fig7"}, "'fig7' given twice"},
           {{"--figure"}, "--figure needs an id"},
           {{"--figure", "fig7", "--figure"}, "--figure needs an id"},
           {{"--figure=fig7"}, "unknown argument '--figure=fig7'"}}) {
    try {
      harness::SelectFigures(args);
      ADD_FAILURE() << "accepted " << ::testing::PrintToString(args);
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(error), std::string::npos) << what;
      EXPECT_NE(what.find("(known figures: fig7, fig9, fig10, fig11"),
                std::string::npos)
          << what;
    }
  }
}

// Each figure's claim over seed shifts k = 0..9 (every sweep's seed plus
// k; k = 0 is the printed table). The rule, fixed before any outcome was
// seen: the claim holds on the cell-wise median of the ten shifts and at
// no fewer than 8 of them. A declared known failure must still fail it.
// fig7, fig9, fig12 and unique-orders run k = 0 only: their ten shifts
// would take this test past 30 s in Release.
class FigureClaim : public ::testing::TestWithParam<harness::Figure> {};

TEST_P(FigureClaim, HoldsAcrossSeedShifts) {
  const harness::Figure& figure = GetParam();
  const std::set<std::string> unshifted = {"fig7", "fig9", "fig12",
                                           "unique-orders"};
  const int shifts = unshifted.count(figure.id) ? 1 : 10;
  harness::Session session;
  std::vector<harness::Values> runs;
  int holding = 0;
  for (int k = 0; k < shifts; ++k) {
    runs.push_back(harness::MeasureFigure(figure, session, k).values);
    holding += figure.check(runs.back()).holds;
  }
  harness::Values median = runs.front();  // cell-wise over the shifts
  for (std::size_t t = 0; t < median.size(); ++t) {
    for (std::size_t r = 0; r < median[t].size(); ++r) {
      for (std::size_t c = 0; c < median[t][r].size(); ++c) {
        std::vector<double> cell;
        for (const auto& run : runs) cell.push_back(run[t][r][c]);
        median[t][r][c] = util::Percentile(cell, 0.5);
      }
    }
  }
  const bool passes = figure.check(median).holds &&
                      holding >= (shifts == 1 ? 1 : 8);
  std::cout << figure.id << ": holds at " << holding << "/" << shifts
            << " shifts and " << (figure.check(median).holds ? "" : "not ")
            << "at the median\n";
  EXPECT_EQ(passes, figure.known_failure.empty())
      << figure.claim << "\nknown failure: " << figure.known_failure;
}

INSTANTIATE_TEST_SUITE_P(
    Figures, FigureClaim, ::testing::ValuesIn(harness::Figures()),
    [](const ::testing::TestParamInfo<harness::Figure>& info) {
      std::string name = info.param.id;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace tictac
