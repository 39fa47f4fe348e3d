// Tests for core/imm.h — the IMM extension (martingale-based successor of
// TIM+ by the same authors).
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/imm.h"
#include "core/tim.h"
#include "diffusion/exact_spread.h"
#include "diffusion/spread_estimator.h"
#include "gen/dataset_proxies.h"
#include "tests/test_util.h"

namespace timpp {
namespace {

using testing::MakeOutStar;
using testing::MakeTwoCommunities;

ImmOptions SmallOptions(int k, DiffusionModel model = DiffusionModel::kIC) {
  ImmOptions options;
  options.k = k;
  options.epsilon = 0.3;
  options.model = model;
  options.seed = 31;
  return options;
}

TEST(ImmValidationTest, RejectsBadInputs) {
  Graph g = MakeTwoCommunities(0.3f);
  ImmResult result;
  EXPECT_TRUE(RunImm(g, SmallOptions(0), &result).IsInvalidArgument());
  EXPECT_TRUE(RunImm(g, SmallOptions(100), &result).IsInvalidArgument());
  ImmOptions options = SmallOptions(1);
  options.epsilon = 0.0;
  EXPECT_TRUE(RunImm(g, options, &result).IsInvalidArgument());
  options = SmallOptions(1);
  options.model = DiffusionModel::kTriggering;
  EXPECT_TRUE(RunImm(g, options, &result).IsInvalidArgument());
}

TEST(ImmTest, FindsTheHubOnAStar) {
  Graph g = MakeOutStar(16, 0.7f);
  ImmResult result;
  ASSERT_TRUE(RunImm(g, SmallOptions(1), &result).ok());
  EXPECT_EQ(result.seeds[0], 0u);
}

TEST(ImmTest, MeetsApproximationGuaranteeIC) {
  Graph g = MakeTwoCommunities(0.35f);
  for (int k : {1, 2, 3}) {
    double opt = 0;
    std::vector<NodeId> opt_seeds;
    ASSERT_TRUE(BruteForceOptimalIC(g, k, &opt_seeds, &opt).ok());

    ImmResult result;
    ASSERT_TRUE(RunImm(g, SmallOptions(k), &result).ok());
    double spread = 0;
    ASSERT_TRUE(ExactSpreadIC(g, result.seeds, &spread).ok());
    EXPECT_GE(spread, (1.0 - 1.0 / std::exp(1.0) - 0.3) * opt)
        << "k=" << k << " spread=" << spread << " opt=" << opt;
  }
}

TEST(ImmTest, MeetsApproximationGuaranteeLT) {
  Graph g = testing::MakeGraph(6, {{0, 1, 0.8f},
                                   {1, 2, 0.8f},
                                   {0, 3, 0.4f},
                                   {3, 4, 0.9f},
                                   {4, 5, 0.9f},
                                   {2, 5, 0.1f}});
  double opt = 0;
  std::vector<NodeId> opt_seeds;
  ASSERT_TRUE(BruteForceOptimalLT(g, 2, &opt_seeds, &opt).ok());
  ImmResult result;
  ASSERT_TRUE(RunImm(g, SmallOptions(2, DiffusionModel::kLT), &result).ok());
  double spread = 0;
  ASSERT_TRUE(ExactSpreadLT(g, result.seeds, &spread).ok());
  EXPECT_GE(spread, (1.0 - 1.0 / std::exp(1.0) - 0.3) * opt);
}

TEST(ImmTest, DeterministicGivenSeed) {
  Graph g = MakeTwoCommunities(0.35f);
  ImmResult a, b;
  ASSERT_TRUE(RunImm(g, SmallOptions(3), &a).ok());
  ASSERT_TRUE(RunImm(g, SmallOptions(3), &b).ok());
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.stats.theta, b.stats.theta);
  EXPECT_DOUBLE_EQ(a.stats.lb, b.stats.lb);
}

TEST(ImmTest, StatsAreInternallyConsistent) {
  Graph g = MakeTwoCommunities(0.35f);
  ImmResult result;
  ASSERT_TRUE(RunImm(g, SmallOptions(2), &result).ok());
  const ImmStats& s = result.stats;
  EXPECT_GE(s.lb, 1.0);
  EXPECT_LE(s.lb, g.num_nodes());
  EXPECT_GT(s.lambda_prime, 0.0);
  EXPECT_GT(s.lambda_star, 0.0);
  EXPECT_EQ(s.theta, static_cast<uint64_t>(std::ceil(s.lambda_star / s.lb)));
  EXPECT_GE(s.sampling_iterations, 1);
  EXPECT_GT(s.rr_sets_sampling, 0u);
  EXPECT_GT(s.estimated_spread, 0.0);
  EXPECT_GT(s.rr_memory_bytes, 0u);
  std::set<NodeId> distinct(result.seeds.begin(), result.seeds.end());
  EXPECT_EQ(distinct.size(), result.seeds.size());
}

TEST(ImmTest, LowerBoundIsBelowOpt) {
  Graph g = MakeTwoCommunities(0.35f);
  double opt = 0;
  std::vector<NodeId> opt_seeds;
  ASSERT_TRUE(BruteForceOptimalIC(g, 2, &opt_seeds, &opt).ok());
  int ok_count = 0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    ImmOptions options = SmallOptions(2);
    options.seed = 500 + t;
    ImmResult result;
    ASSERT_TRUE(RunImm(g, options, &result).ok());
    if (result.stats.lb <= opt * 1.05) ++ok_count;
  }
  EXPECT_GE(ok_count, trials - 1);
}

TEST(ImmTest, QualityMatchesTimPlusOnProxy) {
  Graph g;
  ASSERT_TRUE(BuildDatasetProxy(Dataset::kNetHept, 0.02,
                                WeightScheme::kWeightedCascadeIC, 3, &g)
                  .ok());
  const int k = 10;

  ImmResult imm;
  ASSERT_TRUE(RunImm(g, SmallOptions(k), &imm).ok());

  TimOptions tim_options;
  tim_options.k = k;
  tim_options.epsilon = 0.3;
  tim_options.seed = 31;
  TimSolver solver(g);
  TimResult tim;
  ASSERT_TRUE(solver.Run(tim_options, &tim).ok());

  SpreadEstimatorOptions est;
  est.num_samples = 4000;
  SpreadEstimator estimator(g, est);
  const double s_imm = estimator.Estimate(imm.seeds, 9);
  const double s_tim = estimator.Estimate(tim.seeds, 9);
  EXPECT_NEAR(s_imm, s_tim, 0.1 * std::max(s_imm, s_tim));
}

TEST(ImmTest, TimeCriticalVariantRespectsHorizon) {
  // Same structure as the TIM horizon test: hub must win under a 1-round
  // deadline.
  std::vector<RawEdge> edges;
  for (NodeId v = 0; v + 1 < 8; ++v) edges.push_back({v, v + 1, 1.0f});
  for (NodeId s = 9; s <= 13; ++s) edges.push_back({8, s, 1.0f});
  Graph g = testing::MakeGraph(14, edges);

  ImmOptions options = SmallOptions(1);
  options.max_hops = 1;
  ImmResult result;
  ASSERT_TRUE(RunImm(g, options, &result).ok());
  EXPECT_EQ(result.seeds[0], 8u);
}

}  // namespace
}  // namespace timpp
