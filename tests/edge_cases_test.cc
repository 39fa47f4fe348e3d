// Edge-case and robustness tests across the whole stack: degenerate
// graphs, boundary parameter values, and cross-component agreement on
// realistic proxies.
#include <gtest/gtest.h>

#include <set>

#include "baselines/heuristics.h"
#include "baselines/ris.h"
#include "core/imm.h"
#include "core/kpt_estimator.h"
#include "core/tim.h"
#include "diffusion/spread_estimator.h"
#include "engine/sample_source.h"
#include "gen/dataset_proxies.h"
#include "gen/generators.h"
#include "graph/weight_models.h"
#include "rrset/rr_sampler.h"
#include "tests/test_util.h"

namespace timpp {
namespace {

using testing::MakeChain;
using testing::MakeGraph;

// ------------------------------------------------------ degenerate graphs --

TEST(EdgeCaseTest, SingleNodeGraph) {
  GraphBuilder builder;
  builder.ReserveNodes(1);
  Graph g;
  ASSERT_TRUE(builder.Build(&g).ok());

  TimOptions options;
  options.k = 1;
  options.epsilon = 0.5;
  TimSolver solver(g);
  TimResult result;
  ASSERT_TRUE(solver.Run(options, &result).ok());
  EXPECT_EQ(result.seeds, (std::vector<NodeId>{0}));
  EXPECT_NEAR(result.stats.estimated_spread, 1.0, 1e-9);
}

TEST(EdgeCaseTest, EdgelessGraphAnySeedWorks) {
  GraphBuilder builder;
  builder.ReserveNodes(10);
  Graph g;
  ASSERT_TRUE(builder.Build(&g).ok());

  TimOptions options;
  options.k = 3;
  options.epsilon = 0.5;
  TimSolver solver(g);
  TimResult result;
  ASSERT_TRUE(solver.Run(options, &result).ok());
  EXPECT_EQ(result.seeds.size(), 3u);
  // Every size-3 set has spread exactly 3 on an edgeless graph.
  EXPECT_NEAR(result.stats.estimated_spread, 3.0, 0.2);
}

TEST(EdgeCaseTest, KEqualsNSelectsEveryNode) {
  Graph g = MakeChain(5, 0.5f);
  TimOptions options;
  options.k = 5;
  options.epsilon = 0.5;
  TimSolver solver(g);
  TimResult result;
  ASSERT_TRUE(solver.Run(options, &result).ok());
  std::set<NodeId> all(result.seeds.begin(), result.seeds.end());
  EXPECT_EQ(all.size(), 5u);
}

TEST(EdgeCaseTest, GraphWithIsolatedNodesStillRuns) {
  GraphBuilder builder;
  builder.ReserveNodes(20);  // nodes 10..19 isolated
  for (NodeId v = 0; v + 1 < 10; ++v) builder.AddEdge(v, v + 1, 0.8f);
  Graph g;
  ASSERT_TRUE(builder.Build(&g).ok());

  TimOptions options;
  options.k = 1;
  options.epsilon = 0.3;
  TimSolver solver(g);
  TimResult result;
  ASSERT_TRUE(solver.Run(options, &result).ok());
  EXPECT_EQ(result.seeds[0], 0u) << "the chain head dominates any isolate";
}

TEST(EdgeCaseTest, SelfLoopsAreHarmless) {
  // Self-loops change nothing: a seed is already active, a non-seed can't
  // trigger itself.
  GraphBuilder with_loops, without;
  for (NodeId v = 0; v + 1 < 5; ++v) {
    with_loops.AddEdge(v, v + 1, 1.0f);
    without.AddEdge(v, v + 1, 1.0f);
    with_loops.AddEdge(v, v, 0.9f);
  }
  Graph g_with, g_without;
  ASSERT_TRUE(with_loops.Build(&g_with).ok());
  ASSERT_TRUE(without.Build(&g_without).ok());

  SpreadEstimatorOptions est;
  est.num_samples = 20000;
  const double a =
      SpreadEstimator(g_with, est).Estimate(std::vector<NodeId>{0}, 1);
  const double b =
      SpreadEstimator(g_without, est).Estimate(std::vector<NodeId>{0}, 1);
  EXPECT_NEAR(a, b, 1e-9) << "deterministic chain: exactly 5 either way";
}

TEST(EdgeCaseTest, ParallelEdgesGiveIndependentChances) {
  // Two parallel 0.5-edges are one effective 0.75 chance under IC.
  Graph g = MakeGraph(2, {{0, 1, 0.5f}, {0, 1, 0.5f}});
  SpreadEstimatorOptions est;
  est.num_samples = 400000;
  const double spread =
      SpreadEstimator(g, est).Estimate(std::vector<NodeId>{0}, 2);
  EXPECT_NEAR(spread, 1.75, 0.01);
}

// --------------------------------------------------- boundary parameters --

TEST(EdgeCaseTest, EpsilonOneIsAccepted) {
  Graph g = testing::MakeTwoCommunities(0.35f);
  TimOptions options;
  options.k = 2;
  options.epsilon = 1.0;  // the weakest guarantee the paper uses (§7.3)
  TimSolver solver(g);
  TimResult result;
  ASSERT_TRUE(solver.Run(options, &result).ok());
  EXPECT_EQ(result.seeds.size(), 2u);
}

TEST(EdgeCaseTest, FractionalEllWorks) {
  Graph g = testing::MakeTwoCommunities(0.35f);
  TimOptions options;
  options.k = 2;
  options.epsilon = 0.4;
  options.ell = 0.5;  // Theorem 2 needs ell >= 1/2
  TimSolver solver(g);
  TimResult result;
  ASSERT_TRUE(solver.Run(options, &result).ok());
  EXPECT_EQ(result.seeds.size(), 2u);
}

// A sample size past 2^32 - 1 would wrap the 32-bit RRSetId. Every RR-set
// solver must refuse it with OutOfRange before sampling a single set.
TEST(EdgeCaseTest, SampleSizesPastTheRRSetIdSpaceFailBeforeSampling) {
  Graph g = testing::MakeTwoCommunities(0.35f);
  const double tiny_epsilon = 1e-5;  // θ ~ 1e11 on 10 nodes
  const auto expect_refused = [&](const char* algo, const auto& run) {
    SamplingEngine engine(g, testing::IcSampling(5));
    EngineSampleSource source(engine);
    SolveContext context;
    context.source = &source;
    const Status status = run(context);
    EXPECT_TRUE(status.IsOutOfRange()) << algo << ": " << status.ToString();
    EXPECT_EQ(engine.sets_sampled(), 0u) << algo;
  };

  for (const bool refine : {false, true}) {
    TimOptions options;
    options.k = 2;
    options.epsilon = tiny_epsilon;
    options.use_refinement = refine;
    TimSolver solver(g);
    TimResult result;
    expect_refused(refine ? "tim+" : "tim", [&](const SolveContext& c) {
      return solver.Run(options, c, &result);
    });
  }
  ImmOptions imm;
  imm.k = 2;
  imm.epsilon = tiny_epsilon;
  ImmResult imm_result;
  expect_refused("imm", [&](const SolveContext& c) {
    return RunImm(g, imm, c, &imm_result);
  });
  RisOptions ris;
  ris.epsilon = tiny_epsilon;
  std::vector<NodeId> seeds;
  RisStats ris_stats;
  expect_refused("ris", [&](const SolveContext& c) {
    return RunRis(g, ris, 2, c, &seeds, &ris_stats);
  });

  // A set cap inside the id space keeps RIS runnable at any ε.
  ris.max_rr_sets = 1000;
  ASSERT_TRUE(RunRis(g, ris, 2, &seeds, &ris_stats).ok());
  EXPECT_EQ(ris_stats.rr_sets_generated, 1000u);
  EXPECT_TRUE(ris_stats.hit_set_cap);
}

// A memory budget caps one run's resident bytes, and its streaming greedy
// drives the source's engine alone; a context source may be shared by
// concurrent requests. Every RR solver must refuse the two together with
// InvalidArgument before sampling a single set.
TEST(EdgeCaseTest, BudgetWithAContextSourceIsRefusedBeforeSampling) {
  Graph g = testing::MakeTwoCommunities(0.35f);
  constexpr size_t kBudget = 16 * 1024;
  const auto expect_refused = [&](const char* algo, const auto& run) {
    SamplingEngine engine(g, testing::IcSampling(5));
    EngineSampleSource source(engine);
    SolveContext context;
    context.source = &source;
    const Status status = run(context);
    EXPECT_TRUE(status.IsInvalidArgument()) << algo << ": "
                                            << status.ToString();
    EXPECT_EQ(engine.sets_sampled(), 0u) << algo;
  };

  for (const bool refine : {false, true}) {
    TimOptions options;
    options.k = 2;
    options.epsilon = 0.4;
    options.use_refinement = refine;
    options.memory_budget_bytes = kBudget;
    TimSolver solver(g);
    TimResult result;
    expect_refused(refine ? "tim+" : "tim", [&](const SolveContext& c) {
      return solver.Run(options, c, &result);
    });
  }
  ImmOptions imm;
  imm.k = 2;
  imm.epsilon = 0.4;
  imm.memory_budget_bytes = kBudget;
  ImmResult imm_result;
  expect_refused("imm", [&](const SolveContext& c) {
    return RunImm(g, imm, c, &imm_result);
  });
  RisOptions ris;
  ris.epsilon = 0.4;
  ris.memory_budget_bytes = kBudget;
  std::vector<NodeId> seeds;
  RisStats ris_stats;
  expect_refused("ris", [&](const SolveContext& c) {
    return RunRis(g, ris, 2, c, &seeds, &ris_stats);
  });
}

TEST(EdgeCaseTest, ZeroProbabilityEdgesNeverTraversed) {
  Graph g = MakeChain(6, 0.0f);
  RRSampler sampler(g, DiffusionModel::kIC);
  Rng rng(3);
  std::vector<NodeId> rr;
  for (int i = 0; i < 100; ++i) {
    sampler.SampleRandomRoot(rng, &rr);
    EXPECT_EQ(rr.size(), 1u);
  }
}

TEST(EdgeCaseTest, ProbabilityOneCascadeSaturates) {
  GraphBuilder builder;
  GenDirectedCycle(8, &builder);
  AssignUniform(&builder, 1.0f);
  Graph g;
  ASSERT_TRUE(builder.Build(&g).ok());
  SpreadEstimatorOptions est;
  est.num_samples = 100;
  const double spread =
      SpreadEstimator(g, est).Estimate(std::vector<NodeId>{0}, 4);
  EXPECT_DOUBLE_EQ(spread, 8.0);
}

// --------------------------------------------- cross-component agreement --

TEST(EdgeCaseTest, RREstimateMatchesForwardMCOnProxy) {
  // End-to-end consistency on a realistic graph: the RR-based estimator
  // n·F_R(S) and the forward Monte-Carlo estimator must agree for an
  // arbitrary (degree-heuristic) seed set.
  Graph g;
  ASSERT_TRUE(BuildDatasetProxy(Dataset::kNetHept, 0.02,
                                WeightScheme::kWeightedCascadeIC, 8, &g)
                  .ok());
  std::vector<NodeId> seeds;
  ASSERT_TRUE(SelectByDegree(g, 5, &seeds).ok());

  RRSampler sampler(g, DiffusionModel::kIC);
  Rng rng(9);
  RRCollection rr(g.num_nodes());
  std::vector<NodeId> scratch;
  for (int i = 0; i < 150000; ++i) {
    RRSampleInfo info = sampler.SampleRandomRoot(rng, &scratch);
    rr.Add(scratch, info.width);
  }
  rr.BuildIndex();
  const double rr_estimate = rr.CoveredFraction(seeds) * g.num_nodes();

  SpreadEstimatorOptions est;
  est.num_samples = 100000;
  const double mc_estimate = SpreadEstimator(g, est).Estimate(seeds, 10);
  EXPECT_NEAR(rr_estimate, mc_estimate, 0.05 * mc_estimate + 0.3);
}

TEST(EdgeCaseTest, AllSolversAgreeOnTheObviousInstance) {
  // One dominant hub: every algorithm in the library must find it.
  std::vector<RawEdge> edges;
  for (NodeId v = 1; v <= 20; ++v) edges.push_back({0, v, 0.9f});
  edges.push_back({21, 22, 0.1f});
  Graph g = MakeGraph(23, edges);

  std::vector<NodeId> seeds;

  TimOptions tim_options;
  tim_options.k = 1;
  tim_options.epsilon = 0.3;
  TimSolver solver(g);
  TimResult tim;
  ASSERT_TRUE(solver.Run(tim_options, &tim).ok());
  EXPECT_EQ(tim.seeds[0], 0u);

  ImmOptions imm_options;
  imm_options.k = 1;
  imm_options.epsilon = 0.3;
  ImmResult imm;
  ASSERT_TRUE(RunImm(g, imm_options, &imm).ok());
  EXPECT_EQ(imm.seeds[0], 0u);

  ASSERT_TRUE(SelectByDegree(g, 1, &seeds).ok());
  EXPECT_EQ(seeds[0], 0u);
  ASSERT_TRUE(SelectSingleDiscount(g, 1, &seeds).ok());
  EXPECT_EQ(seeds[0], 0u);
  ASSERT_TRUE(SelectDegreeDiscount(g, 1, 0.9, &seeds).ok());
  EXPECT_EQ(seeds[0], 0u);
  ASSERT_TRUE(SelectByPageRank(g, 1, 0.85, 30, &seeds).ok());
  EXPECT_EQ(seeds[0], 0u);
}

TEST(EdgeCaseTest, KptEstimatorTerminatesEarlierOnHighSpreadGraphs) {
  // Lemmas 6-7 mechanism: larger KPT/n ⇒ the average κ crosses 2^-i in an
  // earlier iteration.
  GraphBuilder hot_builder;
  GenCompleteDirected(64, &hot_builder);
  AssignUniform(&hot_builder, 0.5f);
  Graph hot;
  ASSERT_TRUE(hot_builder.Build(&hot).ok());

  GraphBuilder cold_builder;
  GenDirectedCycle(64, &cold_builder);
  AssignUniform(&cold_builder, 0.01f);
  Graph cold;
  ASSERT_TRUE(cold_builder.Build(&cold).ok());

  SamplingEngine hot_engine(hot, testing::IcSampling(6));
  SamplingEngine cold_engine(cold, testing::IcSampling(6));
  KptEstimate hot_estimate = EstimateKpt(hot_engine, 2, 1.0);
  KptEstimate cold_estimate = EstimateKpt(cold_engine, 2, 1.0);
  ASSERT_GT(hot_estimate.terminated_iteration, 0);
  EXPECT_GT(hot_estimate.kpt_star, cold_estimate.kpt_star);
  if (cold_estimate.terminated_iteration > 0) {
    EXPECT_LE(hot_estimate.terminated_iteration,
              cold_estimate.terminated_iteration);
  }
}

}  // namespace
}  // namespace timpp
