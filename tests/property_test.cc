// Parameterized property sweeps across graph shapes × diffusion models —
// the statistical identities the whole method rests on, checked broadly:
//   * Corollary 1: n·F_R(S) is an unbiased estimator of E[I(S)]
//   * Equation 7 sandwich: (n/m)·EPT <= KPT <= OPT
//   * parallel node selection ≡ sequential in distribution & determinism
//   * end-to-end TIM+, IMM and RIS quality across shapes, k and ε
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "baselines/ris.h"
#include "core/imm.h"
#include "core/node_selector.h"
#include "core/tim.h"
#include "diffusion/exact_spread.h"
#include "diffusion/spread_estimator.h"
#include "gen/generators.h"
#include "graph/weight_models.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace timpp {
namespace {

using testing::ExpectClose;

enum class Shape { kChain, kStar, kCycle, kTwoCommunities, kDiamond, kTree };

struct PropertyCase {
  Shape shape;
  DiffusionModel model;
  float p;

  // Pretty-printer so failures and --gtest_list_tests are readable.
  friend void PrintTo(const PropertyCase& c, std::ostream* os) {
    const char* names[] = {"Chain", "Star", "Cycle", "TwoComm", "Diamond",
                           "Tree"};
    *os << names[static_cast<int>(c.shape)] << "_"
        << DiffusionModelName(c.model) << "_p" << c.p;
  }
};

Graph BuildShape(Shape shape, float p) {
  switch (shape) {
    case Shape::kChain:
      return testing::MakeChain(6, p);
    case Shape::kStar:
      return testing::MakeOutStar(8, p);
    case Shape::kCycle: {
      GraphBuilder b;
      GenDirectedCycle(6, &b);
      AssignUniform(&b, p);
      Graph g;
      EXPECT_TRUE(b.Build(&g).ok());
      return g;
    }
    case Shape::kTwoCommunities:
      return testing::MakeTwoCommunities(p);
    case Shape::kDiamond:
      return testing::MakeGraph(
          4, {{0, 1, p}, {0, 2, p}, {1, 3, p}, {2, 3, p}});
    case Shape::kTree: {
      GraphBuilder b;
      GenBinaryTreeOut(2, &b);  // 7 nodes — inside the brute-force limit
      AssignUniform(&b, p);
      Graph g;
      EXPECT_TRUE(b.Build(&g).ok());
      return g;
    }
  }
  return Graph();
}

// LT needs in-weight sums <= 1; all shapes above have max in-degree <= 2
// except TwoCommunities (3), so cap p for LT cases at construction time.
float CapForLT(Shape shape, DiffusionModel model, float p) {
  if (model != DiffusionModel::kLT) return p;
  if (shape == Shape::kTwoCommunities) return std::min(p, 0.33f);
  return std::min(p, 0.5f);
}

double ExactSpread(const Graph& g, DiffusionModel model,
                   const std::vector<NodeId>& seeds) {
  double spread = 0;
  Status status = model == DiffusionModel::kLT
                      ? ExactSpreadLT(g, seeds, &spread)
                      : ExactSpreadIC(g, seeds, &spread);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return spread;
}

class DiffusionPropertyTest : public ::testing::TestWithParam<PropertyCase> {
 protected:
  Graph graph_;
  void SetUp() override {
    const PropertyCase& c = GetParam();
    graph_ = BuildShape(c.shape, CapForLT(c.shape, c.model, c.p));
  }
};

TEST_P(DiffusionPropertyTest, Corollary1UnbiasedSpreadEstimator) {
  const PropertyCase& c = GetParam();
  // S = two spaced nodes (or one if the graph is tiny).
  std::vector<NodeId> seeds = {0};
  if (graph_.num_nodes() > 4) seeds.push_back(graph_.num_nodes() / 2);

  const double exact = ExactSpread(graph_, c.model, seeds);

  RRSampler sampler(graph_, c.model);
  Rng rng(0xc0ffee ^ static_cast<uint64_t>(c.p * 1000));
  RRCollection rr(graph_.num_nodes());
  std::vector<NodeId> scratch;
  const int theta = 120000;
  for (int i = 0; i < theta; ++i) {
    RRSampleInfo info = sampler.SampleRandomRoot(rng, &scratch);
    rr.Add(scratch, info.width);
  }
  rr.BuildIndex();
  ExpectClose(exact, rr.CoveredFraction(seeds) * graph_.num_nodes(), 0.03);
}

TEST_P(DiffusionPropertyTest, ForwardSimulationMatchesExactOracle) {
  const PropertyCase& c = GetParam();
  std::vector<NodeId> seeds = {0};
  const double exact = ExactSpread(graph_, c.model, seeds);

  SpreadEstimatorOptions options;
  options.num_samples = 120000;
  options.model = c.model;
  SpreadEstimator estimator(graph_, options);
  ExpectClose(exact, estimator.Estimate(seeds, 77), 0.03);
}

TEST_P(DiffusionPropertyTest, Equation7Sandwich) {
  // (n/m)·EPT <= KPT(k) <= OPT for k = 2, all measured quantities.
  const PropertyCase& c = GetParam();
  if (graph_.num_edges() == 0) GTEST_SKIP();
  const double n = graph_.num_nodes(), m = graph_.num_edges();

  RRSampler sampler(graph_, c.model);
  Rng rng(123);
  std::vector<NodeId> scratch;
  const int r = 60000;
  double width_sum = 0, kappa_sum = 0;
  const int k = 2;
  for (int i = 0; i < r; ++i) {
    RRSampleInfo info = sampler.SampleRandomRoot(rng, &scratch);
    width_sum += static_cast<double>(info.width);
    kappa_sum += 1.0 - std::pow(1.0 - info.width / m, k);
  }
  const double ept_bound = (n / m) * (width_sum / r);  // (n/m)·EPT
  const double kpt = n * kappa_sum / r;                // Lemma 5

  std::vector<NodeId> opt_seeds;
  double opt = 0;
  Status status = c.model == DiffusionModel::kLT
                      ? BruteForceOptimalLT(graph_, k, &opt_seeds, &opt)
                      : BruteForceOptimalIC(graph_, k, &opt_seeds, &opt);
  ASSERT_TRUE(status.ok()) << status.ToString();

  EXPECT_LE(ept_bound, kpt * 1.03 + 0.02) << "(n/m)EPT <= KPT violated";
  EXPECT_LE(kpt, opt * 1.03 + 0.02) << "KPT <= OPT violated";
}

TEST_P(DiffusionPropertyTest, RrSolversMeetApproximationGuarantee) {
  // spread(S) >= (1 - 1/e - ε)·OPT for TIM+, IMM and RIS (Borgs et al.'s
  // algorithm is IC-only) at k = 1, 2, 3 and ε = 0.1, 0.3, 0.5, with OPT
  // from the brute-force oracle and spread(S) exact. Brute force on the
  // 15-arc TwoCommunities IC graph walks C(10, k)·2^15 worlds, about 2.5 s
  // at k = 3, so that case stops at k = 2.
  const PropertyCase& c = GetParam();
  const int max_k =
      c.shape == Shape::kTwoCommunities && c.model == DiffusionModel::kIC
          ? 2
          : 3;
  std::map<std::vector<NodeId>, double> exact;  // sorted seeds -> spread
  const auto spread_of = [&](std::vector<NodeId> seeds) {
    std::sort(seeds.begin(), seeds.end());
    const auto [it, inserted] = exact.try_emplace(seeds, 0.0);
    if (inserted) it->second = ExactSpread(graph_, c.model, seeds);
    return it->second;
  };
  for (int k = 1; k <= max_k; ++k) {
    std::vector<NodeId> opt_seeds;
    double opt = 0;
    Status status = c.model == DiffusionModel::kLT
                        ? BruteForceOptimalLT(graph_, k, &opt_seeds, &opt)
                        : BruteForceOptimalIC(graph_, k, &opt_seeds, &opt);
    ASSERT_TRUE(status.ok()) << status.ToString();
    for (double epsilon : {0.1, 0.3, 0.5}) {
      const double floor = (1.0 - 1.0 / std::exp(1.0) - epsilon) * opt - 1e-9;
      const std::string where = "k=" + std::to_string(k) +
                                " eps=" + std::to_string(epsilon) +
                                " opt=" + std::to_string(opt);

      TimOptions tim;
      tim.k = k;
      tim.epsilon = epsilon;
      tim.model = c.model;
      tim.seed = 4242;
      TimResult tim_result;
      ASSERT_TRUE(TimSolver(graph_).Run(tim, &tim_result).ok());
      EXPECT_GE(spread_of(tim_result.seeds), floor) << "TIM+ " << where;

      ImmOptions imm;
      imm.k = k;
      imm.epsilon = epsilon;
      imm.model = c.model;
      imm.seed = 4243;
      ImmResult imm_result;
      ASSERT_TRUE(RunImm(graph_, imm, &imm_result).ok());
      EXPECT_GE(spread_of(imm_result.seeds), floor) << "IMM " << where;

      if (c.model != DiffusionModel::kIC) continue;
      RisOptions ris;
      ris.epsilon = epsilon;
      ris.seed = 4244;
      std::vector<NodeId> ris_seeds;
      RisStats ris_stats;
      ASSERT_TRUE(RunRis(graph_, ris, k, &ris_seeds, &ris_stats).ok());
      EXPECT_GE(spread_of(ris_seeds), floor) << "RIS " << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndModels, DiffusionPropertyTest,
    ::testing::Values(
        PropertyCase{Shape::kChain, DiffusionModel::kIC, 0.5f},
        PropertyCase{Shape::kChain, DiffusionModel::kLT, 0.5f},
        PropertyCase{Shape::kChain, DiffusionModel::kIC, 0.9f},
        PropertyCase{Shape::kStar, DiffusionModel::kIC, 0.3f},
        PropertyCase{Shape::kStar, DiffusionModel::kLT, 0.3f},
        PropertyCase{Shape::kCycle, DiffusionModel::kIC, 0.6f},
        PropertyCase{Shape::kCycle, DiffusionModel::kLT, 0.6f},
        PropertyCase{Shape::kTwoCommunities, DiffusionModel::kIC, 0.35f},
        PropertyCase{Shape::kTwoCommunities, DiffusionModel::kLT, 0.3f},
        PropertyCase{Shape::kDiamond, DiffusionModel::kIC, 0.5f},
        PropertyCase{Shape::kDiamond, DiffusionModel::kLT, 0.4f},
        PropertyCase{Shape::kTree, DiffusionModel::kIC, 0.7f},
        PropertyCase{Shape::kTree, DiffusionModel::kLT, 0.5f}));

// ------------------------------------------------- parallel node selection --

TEST(ParallelSelectionTest, DeterministicGivenSeedAndThreads) {
  Graph g = testing::MakeTwoCommunities(0.35f);
  SamplingEngine e1(g, testing::IcSampling(9, 4));
  SamplingEngine e2(g, testing::IcSampling(9, 4));
  NodeSelection a = SelectNodes(e1, 3, 20000);
  NodeSelection b = SelectNodes(e2, 3, 20000);
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_DOUBLE_EQ(a.covered_fraction, b.covered_fraction);
  EXPECT_EQ(a.edges_examined, b.edges_examined);
}

TEST(ParallelSelectionTest, ThreadCountDoesNotChangeResults) {
  // The engine's deterministic merge contract: thread count must not
  // change a single byte of the output — seeds, coverage and cost all
  // match the sequential run exactly.
  Graph g = testing::MakeTwoCommunities(0.35f);
  SamplingEngine sequential(g, testing::IcSampling(10, 1));
  NodeSelection reference = SelectNodes(sequential, 3, 10000);
  for (unsigned threads : {2u, 3u, 8u}) {
    SamplingEngine parallel(g, testing::IcSampling(10, threads));
    NodeSelection result = SelectNodes(parallel, 3, 10000);
    EXPECT_EQ(reference.seeds, result.seeds) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(reference.covered_fraction, result.covered_fraction)
        << "threads=" << threads;
    EXPECT_EQ(reference.edges_examined, result.edges_examined)
        << "threads=" << threads;
  }
}

TEST(ParallelSelectionTest, TimSolverWithThreadsStaysCorrect) {
  Graph g = testing::MakeTwoCommunities(0.35f);
  double opt = 0;
  std::vector<NodeId> opt_seeds;
  ASSERT_TRUE(BruteForceOptimalIC(g, 2, &opt_seeds, &opt).ok());

  TimOptions options;
  options.k = 2;
  options.epsilon = 0.3;
  options.num_threads = 4;
  options.seed = 12;
  TimSolver solver(g);
  TimResult result;
  ASSERT_TRUE(solver.Run(options, &result).ok());
  double spread = 0;
  ASSERT_TRUE(ExactSpreadIC(g, result.seeds, &spread).ok());
  EXPECT_GE(spread, 0.9 * opt);

  TimResult again;
  ASSERT_TRUE(solver.Run(options, &again).ok());
  EXPECT_EQ(result.seeds, again.seeds) << "threaded runs must reproduce";
}

TEST(ParallelSelectionTest, ThetaSplitCoversRemainder) {
  Graph g = testing::MakeChain(5, 0.5f);
  SamplingEngine engine(g, testing::IcSampling(13, 4));
  // 10007 sets across 4 workers — the contiguous index split must cover
  // the remainder exactly.
  NodeSelection result = SelectNodes(engine, 1, 10007);
  EXPECT_EQ(result.theta, 10007u);
  EXPECT_EQ(engine.sets_sampled(), 10007u);
}

}  // namespace
}  // namespace timpp
