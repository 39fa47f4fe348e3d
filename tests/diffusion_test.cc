// Tests for diffusion/: forward simulators, the Monte-Carlo estimator and
// the exact-spread oracles, cross-validated against hand-computed values.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <ios>
#include <span>
#include <utility>
#include <vector>

#include "diffusion/exact_spread.h"
#include "diffusion/ic_simulator.h"
#include "diffusion/lt_simulator.h"
#include "diffusion/spread_estimator.h"
#include "diffusion/triggering.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "graph/run_sampling.h"
#include "graph/weight_models.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "util/visit_marker.h"

namespace timpp {
namespace {

using testing::ExpectClose;
using testing::MakeChain;
using testing::MakeGraph;
using testing::MakeOutStar;
using testing::MakeTwoCommunities;
using testing::MakeWcPowerLaw;

// ------------------------------------------------------------ IC forward --

TEST(IcSimulatorTest, DeterministicChainActivatesEverything) {
  Graph g = MakeChain(6, 1.0f);
  IcSimulator sim(g);
  Rng rng(1);
  std::vector<NodeId> seeds = {0};
  EXPECT_EQ(sim.Simulate(seeds, rng), 6u);
}

TEST(IcSimulatorTest, ZeroProbabilityActivatesOnlySeeds) {
  Graph g = MakeChain(6, 0.0f);
  IcSimulator sim(g);
  Rng rng(1);
  std::vector<NodeId> seeds = {0, 3};
  EXPECT_EQ(sim.Simulate(seeds, rng), 2u);
}

TEST(IcSimulatorTest, DuplicateSeedsCountOnce) {
  Graph g = MakeChain(4, 0.0f);
  IcSimulator sim(g);
  Rng rng(1);
  std::vector<NodeId> seeds = {2, 2, 2};
  EXPECT_EQ(sim.Simulate(seeds, rng), 1u);
}

TEST(IcSimulatorTest, MidChainSeedActivatesOnlyDownstream) {
  Graph g = MakeChain(6, 1.0f);
  IcSimulator sim(g);
  Rng rng(1);
  std::vector<NodeId> seeds = {3};
  EXPECT_EQ(sim.Simulate(seeds, rng), 3u);  // 3, 4, 5
}

TEST(IcSimulatorTest, CollectReturnsActivatedNodes) {
  Graph g = MakeChain(4, 1.0f);
  IcSimulator sim(g);
  Rng rng(1);
  std::vector<NodeId> activated;
  std::vector<NodeId> seeds = {1};
  EXPECT_EQ(sim.SimulateCollect(seeds, rng, &activated), 3u);
  EXPECT_EQ(activated, (std::vector<NodeId>{1, 2, 3}));
}

TEST(IcSimulatorTest, MeanMatchesClosedFormOnChain) {
  // E[I({0})] on a p-chain of length 4 = 1 + p + p² + p³.
  const float p = 0.5f;
  Graph g = MakeChain(4, p);
  IcSimulator sim(g);
  Rng rng(42);
  const int r = 200000;
  double total = 0;
  std::vector<NodeId> seeds = {0};
  for (int i = 0; i < r; ++i) total += sim.Simulate(seeds, rng);
  ExpectClose(1 + 0.5 + 0.25 + 0.125, total / r, 0.01);
}

TEST(IcSimulatorTest, MeanMatchesClosedFormOnStar) {
  // E[I({hub})] on an out-star = 1 + (n-1)p.
  Graph g = MakeOutStar(11, 0.3f);
  IcSimulator sim(g);
  Rng rng(43);
  const int r = 100000;
  double total = 0;
  std::vector<NodeId> seeds = {0};
  for (int i = 0; i < r; ++i) total += sim.Simulate(seeds, rng);
  ExpectClose(1 + 10 * 0.3, total / r, 0.01);
}

// ------------------------------------------------ IC kernel equivalence --

// IcSimulator as it stood with a one-pass per-arc loop, kept verbatim as
// the reference the kernel must match coin for coin: the same counts, the
// same activation order and the same RNG state after every cascade.
class OnePassIcSimulator {
 public:
  OnePassIcSimulator(const Graph& graph, SamplerMode mode)
      : graph_(graph),
        use_skip_(mode == SamplerMode::kSkip ||
                  (mode == SamplerMode::kAuto &&
                   graph.AvgOutRunLength() >= kSkipRunLengthThreshold)),
        visited_(graph.num_nodes()) {}

  uint64_t SimulateCollect(std::span<const NodeId> seeds, Rng& rng,
                           std::vector<NodeId>* activated,
                           uint32_t max_hops = 0) {
    visited_.NewEpoch();
    queue_.clear();
    if (activated != nullptr) activated->clear();

    uint64_t count = 0;
    for (NodeId s : seeds) {
      if (visited_.VisitIfNew(s)) {
        queue_.push_back(s);
        ++count;
        if (activated != nullptr) activated->push_back(s);
      }
    }

    size_t level_end = queue_.size();
    uint32_t hops = 0;
    for (size_t head = 0; head < queue_.size(); ++head) {
      if (head == level_end) {
        ++hops;
        level_end = queue_.size();
      }
      if (max_hops != 0 && hops >= max_hops) break;
      NodeId u = queue_[head];
      const auto arcs = graph_.OutArcs(u);
      const auto try_activate = [&](NodeId w) {
        if (visited_.VisitIfNew(w)) {
          queue_.push_back(w);
          ++count;
          if (activated != nullptr) activated->push_back(w);
        }
      };
      if (use_skip_) {
        SampleLiveArcsInRuns(arcs, graph_.OutRunEnds(u),
                             graph_.OutRunInvLog1mp(u), rng,
                             [&](const Arc& a) { try_activate(a.node); });
      } else {
        for (const Arc& a : arcs) {
          if (visited_.Visited(a.node)) continue;
          if (rng.NextBernoulli(a.prob)) try_activate(a.node);
        }
      }
    }
    return count;
  }

 private:
  const Graph& graph_;
  bool use_skip_;
  VisitMarker visited_;
  std::vector<NodeId> queue_;
};

// A random multigraph on 1-12 nodes with self-loops and repeated arcs
// u->v (adjacent and scattered). Probabilities are 0, 1 or a random float,
// and stay equal over stretches of arcs so skip mode meets multi-arc runs.
Graph RandomMultigraph(Rng& rng) {
  const NodeId n = 1 + static_cast<NodeId>(rng.NextBounded(12));
  const uint64_t m = rng.NextBounded(4 * n + 1);
  GraphBuilder builder;
  builder.ReserveNodes(n);
  float p = 0.5f;
  for (uint64_t e = 0; e < m; ++e) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(n));
    const NodeId v = rng.NextBounded(8) == 0
                         ? u
                         : static_cast<NodeId>(rng.NextBounded(n));
    if (rng.NextBounded(3) == 0) {
      const uint64_t kind = rng.NextBounded(3);
      p = kind == 0   ? 0.0f
          : kind == 1 ? 1.0f
                      : static_cast<float>(rng.NextDouble());
    }
    builder.AddEdge(u, v, p);
    if (rng.NextBounded(6) == 0) builder.AddEdge(u, v, p);
  }
  Graph g;
  EXPECT_TRUE(builder.Build(&g).ok());
  return g;
}

TEST(IcSimulatorTest, KernelDrawsTheOnePassLoopsCoins) {
  Rng graph_rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const Graph g = RandomMultigraph(graph_rng);
    // 1-4 seeds drawn with replacement: duplicates are common.
    std::vector<NodeId> seeds(1 + graph_rng.NextBounded(4));
    for (NodeId& s : seeds) {
      s = static_cast<NodeId>(graph_rng.NextBounded(g.num_nodes()));
    }
    for (SamplerMode mode : {SamplerMode::kPerArc, SamplerMode::kSkip}) {
      IcSimulator kernel(g, mode);
      OnePassIcSimulator reference(g, mode);
      for (uint32_t max_hops : {0u, 1u, 2u}) {
        Rng a(trial * 3 + max_hops);
        Rng b(trial * 3 + max_hops);
        std::vector<NodeId> got, want;
        for (int cascade = 0; cascade < 16; ++cascade) {
          const bool collect = cascade % 2 == 0;
          const uint64_t count =
              collect ? kernel.SimulateCollect(seeds, a, &got, max_hops)
                      : kernel.Simulate(seeds, a, max_hops);
          ASSERT_EQ(count, reference.SimulateCollect(
                               seeds, b, collect ? &want : nullptr,
                               max_hops))
              << "trial=" << trial << " skip=" << kernel.skip_mode()
              << " max_hops=" << max_hops << " cascade=" << cascade;
          if (collect) {
            ASSERT_EQ(got, want) << "trial=" << trial;
          }
          ASSERT_EQ(a.Next(), b.Next()) << "trial=" << trial;
        }
      }
    }
  }
}

// ------------------------------------------------------------ LT forward --

TEST(LtSimulatorTest, WeightOneChainActivatesEverything) {
  Graph g = MakeChain(5, 1.0f);
  LtSimulator sim(g);
  Rng rng(1);
  std::vector<NodeId> seeds = {0};
  EXPECT_EQ(sim.Simulate(seeds, rng), 5u);
}

TEST(LtSimulatorTest, ZeroWeightActivatesOnlySeeds) {
  Graph g = MakeChain(5, 0.0f);
  LtSimulator sim(g);
  Rng rng(1);
  std::vector<NodeId> seeds = {0};
  EXPECT_EQ(sim.Simulate(seeds, rng), 1u);
}

TEST(LtSimulatorTest, MeanMatchesChainClosedForm) {
  // On a weight-w chain each node activates iff its threshold <= w, so
  // E[I({0})] = 1 + w + w² + w³ exactly as in IC.
  const float w = 0.6f;
  Graph g = MakeChain(4, w);
  LtSimulator sim(g);
  Rng rng(44);
  const int r = 200000;
  double total = 0;
  std::vector<NodeId> seeds = {0};
  for (int i = 0; i < r; ++i) total += sim.Simulate(seeds, rng);
  ExpectClose(1 + 0.6 + 0.36 + 0.216, total / r, 0.01);
}

TEST(LtSimulatorTest, TwoInfluencersAddWeights) {
  // 0 -> 2 (0.4), 1 -> 2 (0.4). With both seeds active node 2 activates
  // with probability 0.8 (threshold <= 0.8).
  Graph g = MakeGraph(3, {{0, 2, 0.4f}, {1, 2, 0.4f}});
  LtSimulator sim(g);
  Rng rng(45);
  const int r = 200000;
  double total = 0;
  std::vector<NodeId> seeds = {0, 1};
  for (int i = 0; i < r; ++i) total += sim.Simulate(seeds, rng);
  ExpectClose(2 + 0.8, total / r, 0.01);
}

// ----------------------------------------------------- triggering models --

TEST(TriggeringTest, ModelNames) {
  EXPECT_STREQ(DiffusionModelName(DiffusionModel::kIC), "IC");
  EXPECT_STREQ(DiffusionModelName(DiffusionModel::kLT), "LT");
  EXPECT_STREQ(DiffusionModelName(DiffusionModel::kTriggering), "triggering");
}

TEST(TriggeringTest, IcTriggeringSampleRespectsProbabilities) {
  Graph g = MakeGraph(3, {{0, 2, 1.0f}, {1, 2, 0.0f}});
  IcTriggeringModel model;
  Rng rng(1);
  std::vector<NodeId> out;
  for (int i = 0; i < 100; ++i) {
    out.clear();
    model.SampleTriggeringSet(g, 2, rng, &out);
    ASSERT_EQ(out.size(), 1u);  // p=1 edge always in, p=0 edge never
    EXPECT_EQ(out[0], 0u);
  }
}

TEST(TriggeringTest, LtTriggeringPicksAtMostOne) {
  Graph g = MakeGraph(4, {{0, 3, 0.3f}, {1, 3, 0.3f}, {2, 3, 0.3f}});
  LtTriggeringModel model;
  Rng rng(2);
  std::vector<NodeId> out;
  int empty = 0;
  const int r = 100000;
  std::vector<int> picks(3, 0);
  for (int i = 0; i < r; ++i) {
    out.clear();
    model.SampleTriggeringSet(g, 3, rng, &out);
    ASSERT_LE(out.size(), 1u);
    if (out.empty()) {
      ++empty;
    } else {
      ++picks[out[0]];
    }
  }
  ExpectClose(0.1, empty / static_cast<double>(r), 0.05, 0.01);
  for (int v = 0; v < 3; ++v) {
    ExpectClose(0.3, picks[v] / static_cast<double>(r), 0.05, 0.01);
  }
}

TEST(TriggeringSimulatorTest, IcTriggeringMatchesNativeIcMean) {
  Graph g = MakeTwoCommunities(0.4f);
  IcTriggeringModel model;
  TriggeringSimulator trig_sim(g, model);
  IcSimulator ic_sim(g);
  Rng rng_a(46), rng_b(47);
  const int r = 100000;
  double trig_total = 0, ic_total = 0;
  std::vector<NodeId> seeds = {0, 7};
  for (int i = 0; i < r; ++i) {
    trig_total += trig_sim.Simulate(seeds, rng_a);
    ic_total += ic_sim.Simulate(seeds, rng_b);
  }
  ExpectClose(ic_total / r, trig_total / r, 0.02);
}

TEST(TriggeringSimulatorTest, LtTriggeringMatchesNativeLtMean) {
  // LT triggering-set semantics vs the threshold simulator: Kempe et al.'s
  // equivalence, checked numerically.
  Graph g = MakeGraph(5, {{0, 2, 0.5f},
                          {1, 2, 0.5f},
                          {2, 3, 0.7f},
                          {0, 3, 0.3f},
                          {3, 4, 1.0f}});
  LtTriggeringModel model;
  TriggeringSimulator trig_sim(g, model);
  LtSimulator lt_sim(g);
  Rng rng_a(48), rng_b(49);
  const int r = 200000;
  double trig_total = 0, lt_total = 0;
  std::vector<NodeId> seeds = {0};
  for (int i = 0; i < r; ++i) {
    trig_total += trig_sim.Simulate(seeds, rng_a);
    lt_total += lt_sim.Simulate(seeds, rng_b);
  }
  ExpectClose(lt_total / r, trig_total / r, 0.02);
}

// ------------------------------------------------------- exact IC oracle --

TEST(ExactSpreadICTest, ChainClosedForm) {
  Graph g = MakeChain(4, 0.5f);
  double spread = 0;
  ASSERT_TRUE(ExactSpreadIC(g, std::vector<NodeId>{0}, &spread).ok());
  EXPECT_NEAR(spread, 1 + 0.5 + 0.25 + 0.125, 1e-9);
}

TEST(ExactSpreadICTest, StarClosedForm) {
  Graph g = MakeOutStar(6, 0.2f);
  double spread = 0;
  ASSERT_TRUE(ExactSpreadIC(g, std::vector<NodeId>{0}, &spread).ok());
  EXPECT_NEAR(spread, 1 + 5 * 0.2, 1e-6);  // p stored as float32
}

TEST(ExactSpreadICTest, LeafSeedHasUnitSpread) {
  Graph g = MakeOutStar(6, 0.9f);
  double spread = 0;
  ASSERT_TRUE(ExactSpreadIC(g, std::vector<NodeId>{3}, &spread).ok());
  EXPECT_NEAR(spread, 1.0, 1e-9);
}

TEST(ExactSpreadICTest, DiamondWithDependentPaths) {
  // 0->1 (p), 0->2 (p), 1->3 (p), 2->3 (p): P[3 activated] = 1-(1-p²)².
  const double p = 0.5;
  Graph g = MakeGraph(4, {{0, 1, 0.5f}, {0, 2, 0.5f}, {1, 3, 0.5f},
                          {2, 3, 0.5f}});
  double spread = 0;
  ASSERT_TRUE(ExactSpreadIC(g, std::vector<NodeId>{0}, &spread).ok());
  const double p3 = 1 - std::pow(1 - p * p, 2);
  EXPECT_NEAR(spread, 1 + 2 * p + p3, 1e-9);
}

TEST(ExactSpreadICTest, RejectsTooManyEdges) {
  Graph g = testing::MakeChain(30, 0.5f);  // 29 edges > limit
  double spread = 0;
  EXPECT_TRUE(
      ExactSpreadIC(g, std::vector<NodeId>{0}, &spread).IsInvalidArgument());
}

TEST(ExactSpreadICTest, MatchesMonteCarloOnTwoCommunities) {
  Graph g = MakeTwoCommunities(0.35f);
  double exact = 0;
  ASSERT_TRUE(ExactSpreadIC(g, std::vector<NodeId>{0, 5}, &exact).ok());

  SpreadEstimatorOptions options;
  options.num_samples = 300000;
  options.model = DiffusionModel::kIC;
  SpreadEstimator estimator(g, options);
  double mc = estimator.Estimate(std::vector<NodeId>{0, 5}, 50);
  ExpectClose(exact, mc, 0.01);
}

// ------------------------------------------------------- exact LT oracle --

TEST(ExactSpreadLTTest, ChainClosedForm) {
  Graph g = MakeChain(4, 0.6f);
  double spread = 0;
  ASSERT_TRUE(ExactSpreadLT(g, std::vector<NodeId>{0}, &spread).ok());
  EXPECT_NEAR(spread, 1 + 0.6 + 0.36 + 0.216, 1e-6);  // float32 p
}

TEST(ExactSpreadLTTest, MatchesMonteCarloOnSmallGraph) {
  Graph g = MakeGraph(5, {{0, 2, 0.5f},
                          {1, 2, 0.5f},
                          {2, 3, 0.7f},
                          {0, 3, 0.3f},
                          {3, 4, 1.0f}});
  double exact = 0;
  ASSERT_TRUE(ExactSpreadLT(g, std::vector<NodeId>{0}, &exact).ok());

  SpreadEstimatorOptions options;
  options.num_samples = 300000;
  options.model = DiffusionModel::kLT;
  SpreadEstimator estimator(g, options);
  double mc = estimator.Estimate(std::vector<NodeId>{0}, 51);
  ExpectClose(exact, mc, 0.01);
}

TEST(ExactSpreadLTTest, RejectsHugeWorldCount) {
  // Complete digraph on 12 nodes: world count 12^12 >> the guard.
  GraphBuilder builder;
  GenCompleteDirected(12, &builder);
  AssignUniform(&builder, 0.05f);
  Graph g;
  ASSERT_TRUE(builder.Build(&g).ok());
  double spread = 0;
  EXPECT_TRUE(
      ExactSpreadLT(g, std::vector<NodeId>{0}, &spread).IsInvalidArgument());
}

// ------------------------------------------------------- brute force OPT --

TEST(BruteForceTest, FindsObviousOptimumIC) {
  // Hub 0 with p=0.9 spokes dominates; OPT for k=1 must be the hub.
  Graph g = MakeOutStar(8, 0.9f);
  std::vector<NodeId> best;
  double best_spread = 0;
  ASSERT_TRUE(BruteForceOptimalIC(g, 1, &best, &best_spread).ok());
  ASSERT_EQ(best.size(), 1u);
  EXPECT_EQ(best[0], 0u);
  EXPECT_NEAR(best_spread, 1 + 7 * 0.9, 1e-5);  // float32 p
}

TEST(BruteForceTest, KEqualsTwoPicksHubPlusLeaf) {
  Graph g = MakeOutStar(6, 0.5f);
  std::vector<NodeId> best;
  double best_spread = 0;
  ASSERT_TRUE(BruteForceOptimalIC(g, 2, &best, &best_spread).ok());
  // Hub + any leaf: 2 + 4*0.5 = 4. (Hub spread 1+5*.5=3.5, leaf adds 1 but
  // removes its own 0.5 contribution -> 3.5 + 1 - 0.5 = 4.)
  EXPECT_NEAR(best_spread, 4.0, 1e-9);
  EXPECT_EQ(best[0], 0u);
}

TEST(BruteForceTest, RejectsBadK) {
  Graph g = MakeChain(4, 0.5f);
  std::vector<NodeId> best;
  double spread = 0;
  EXPECT_TRUE(BruteForceOptimalIC(g, 0, &best, &spread).IsInvalidArgument());
  EXPECT_TRUE(BruteForceOptimalIC(g, 5, &best, &spread).IsInvalidArgument());
}

TEST(BruteForceTest, LtOptimumOnChain) {
  Graph g = MakeChain(5, 0.9f);
  std::vector<NodeId> best;
  double spread = 0;
  ASSERT_TRUE(BruteForceOptimalLT(g, 1, &best, &spread).ok());
  EXPECT_EQ(best[0], 0u);  // head of the chain reaches everyone
}

// ------------------------------------------------------ spread estimator --

TEST(SpreadEstimatorTest, DeterministicGivenSeed) {
  Graph g = MakeTwoCommunities(0.4f);
  SpreadEstimatorOptions options;
  options.num_samples = 5000;
  SpreadEstimator estimator(g, options);
  double a = estimator.Estimate(std::vector<NodeId>{0}, 99);
  double b = estimator.Estimate(std::vector<NodeId>{0}, 99);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(SpreadEstimatorTest, MultiThreadedIsDeterministicAndAccurate) {
  Graph g = MakeTwoCommunities(0.4f);
  double exact = 0;
  ASSERT_TRUE(ExactSpreadIC(g, std::vector<NodeId>{0}, &exact).ok());

  SpreadEstimatorOptions options;
  options.num_samples = 200000;
  options.num_threads = 4;
  SpreadEstimator estimator(g, options);
  double a = estimator.Estimate(std::vector<NodeId>{0}, 7);
  double b = estimator.Estimate(std::vector<NodeId>{0}, 7);
  EXPECT_DOUBLE_EQ(a, b);
  ExpectClose(exact, a, 0.02);
}

TEST(VerifySpreadTest, MatchesExactOracleOnWeightedCascadeGraph) {
  // Weighted cascade (p = 1/indeg) on 10 nodes and 18 arcs: in-degrees
  // 1-3 mix probabilities within out-lists, so IcSimulator takes its
  // per-arc path, and the oracle still enumerates every world.
  GraphBuilder builder;
  for (const auto& [u, v] : std::vector<std::pair<NodeId, NodeId>>{
           {0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 4}, {2, 4},
           {2, 5}, {3, 5}, {3, 6}, {4, 7}, {5, 7}, {6, 7},
           {4, 8}, {7, 8}, {6, 9}, {8, 9}, {7, 9}, {9, 3}}) {
    builder.AddEdge(u, v);
  }
  AssignWeightedCascade(&builder);
  Graph g;
  ASSERT_TRUE(builder.Build(&g).ok());
  ASSERT_FALSE(IcSimulator(g).skip_mode());

  const std::vector<NodeId> seeds = {0};
  double exact = 0;
  ASSERT_TRUE(ExactSpreadIC(g, seeds, &exact).ok());
  // 4 standard errors, bounding the variance of a spread in [|S|, n] by
  // Bhatia-Davis: Var <= (n - mu)(mu - |S|).
  const uint64_t r = 20000;
  const double se = std::sqrt((g.num_nodes() - exact) *
                              (exact - seeds.size()) / r);
  for (unsigned threads : {1u, 4u}) {
    VerifySpreadOptions options;
    options.num_samples = r;
    options.num_threads = threads;
    EXPECT_NEAR(VerifySpread(g, seeds, options), exact, 4 * se)
        << "threads=" << threads;
  }
}

TEST(SpreadEstimatorTest, CustomTriggeringModelPath) {
  Graph g = MakeChain(4, 1.0f);
  IcTriggeringModel model;
  SpreadEstimatorOptions options;
  options.num_samples = 100;
  options.model = DiffusionModel::kTriggering;
  options.custom_model = &model;
  SpreadEstimator estimator(g, options);
  EXPECT_DOUBLE_EQ(estimator.Estimate(std::vector<NodeId>{0}, 1), 4.0);
}

TEST(SpreadEstimatorTest, DeterministicInSeedAndThreadCount) {
  Graph g = MakeWcPowerLaw(300, 2, 31);
  const std::vector<NodeId> seeds = {0, 5};
  for (uint64_t samples : {1ull, 64ull, 1000ull}) {
    for (unsigned threads : {1u, 2u, 4u}) {
      SpreadEstimatorOptions options;
      options.num_samples = samples;
      options.num_threads = threads;
      SpreadEstimator estimator(g, options);
      const double first = estimator.Estimate(seeds, 0x9d);
      EXPECT_DOUBLE_EQ(first, estimator.Estimate(seeds, 0x9d))
          << "samples=" << samples << " threads=" << threads;
    }
  }
}

TEST(SpreadEstimatorTest, VerifySpreadMatchesEquivalentEstimate) {
  // VerifySpread is the estimator with the same samples, threads and
  // seed, bit for bit.
  Graph g = MakeWcPowerLaw(300, 2, 31);
  const std::vector<NodeId> seeds = {0, 1};
  for (unsigned threads : {1u, 4u}) {
    VerifySpreadOptions verify;
    verify.num_samples = 5000;
    verify.num_threads = threads;
    verify.seed = 0xabc;
    SpreadEstimatorOptions est;
    est.num_samples = 5000;
    est.num_threads = threads;
    EXPECT_DOUBLE_EQ(VerifySpread(g, seeds, verify),
                     SpreadEstimator(g, est).Estimate(seeds, 0xabc))
        << "threads=" << threads;
  }
}

// ----------------------------------- thread-split sample accounting --

TEST(ThreadSplitTest, NoSampleLostWhenSamplesNotDivisibleByThreads) {
  // On a p = 1 chain every cascade returns exactly n, so the weighted
  // partial-sum merge returns exactly n iff Σ per-thread counts equals
  // num_samples — a lost or double-counted sample shifts the mean off n.
  Graph g = MakeChain(7, 1.0f);
  const std::vector<NodeId> seeds = {0};
  for (uint64_t samples : {5ull, 7ull, 64ull, 97ull, 997ull}) {
    for (unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
      SpreadEstimatorOptions options;
      options.num_samples = samples;
      options.num_threads = threads;
      EXPECT_DOUBLE_EQ(SpreadEstimator(g, options).Estimate(seeds, 3), 7.0)
          << "samples=" << samples << " threads=" << threads;
    }
  }
}

TEST(ThreadSplitTest, WeightedPathLosesNoSamplesEither) {
  Graph g = MakeChain(5, 1.0f);
  const std::vector<NodeId> seeds = {0};
  const std::vector<double> weights(5, 2.0);  // weighted spread = 10 exactly
  for (uint64_t samples : {9ull, 130ull}) {
    for (unsigned threads : {3u, 4u}) {
      SpreadEstimatorOptions options;
      options.num_samples = samples;
      options.num_threads = threads;
      options.node_weights = &weights;
      EXPECT_DOUBLE_EQ(SpreadEstimator(g, options).Estimate(seeds, 3), 10.0)
          << "samples=" << samples << " threads=" << threads;
    }
  }
}

// ------------------------------------------ pinned Monte-Carlo estimates --

// Exact bits of VerifySpread and of SpreadEstimator::Estimate at the same
// options, at threads 1 and 4. Any change to the coins a diffusion kernel
// draws, or to the order it activates nodes, moves them; a kernel rewrite
// that keeps every coin passes them unedited.
void ExpectPinned(const Graph& g, std::span<const NodeId> seeds,
                  VerifySpreadOptions options, const double (&golden)[2]) {
  for (int i = 0; i < 2; ++i) {
    options.num_threads = i == 0 ? 1 : 4;
    SpreadEstimatorOptions est;
    est.num_samples = options.num_samples;
    est.num_threads = options.num_threads;
    est.model = options.model;
    est.custom_model = options.custom_model;
    est.max_hops = options.max_hops;
    est.node_weights = options.node_weights;
    const double verified = VerifySpread(g, seeds, options);
    const double estimated =
        SpreadEstimator(g, est).Estimate(seeds, options.seed);
    EXPECT_EQ(std::bit_cast<uint64_t>(verified),
              std::bit_cast<uint64_t>(golden[i]))
        << "VerifySpread threads=" << options.num_threads << " got "
        << std::hexfloat << verified;
    EXPECT_EQ(std::bit_cast<uint64_t>(estimated),
              std::bit_cast<uint64_t>(golden[i]))
        << "Estimate threads=" << options.num_threads << " got "
        << std::hexfloat << estimated;
  }
}

VerifySpreadOptions PinnedOptions() {
  VerifySpreadOptions options;
  options.num_samples = 2000;
  options.seed = 0x901d;
  return options;
}

constexpr NodeId kPinnedSeeds[] = {0, 1, 2, 3, 4};

TEST(SpreadEstimatorTest, PinnedIcPerArc) {
  Graph g = MakeWcPowerLaw(300, 3, 11);
  ASSERT_FALSE(IcSimulator(g).skip_mode());
  // 79.5095 at 1 thread, 79.4395 at 4.
  ExpectPinned(g, kPinnedSeeds, PinnedOptions(),
               {0x1.3e09ba5e353f8p+6, 0x1.3dc20c49ba5e3p+6});
}

TEST(SpreadEstimatorTest, PinnedIcSkip) {
  GraphBuilder builder;
  GenBarabasiAlbert(300, 5, 12, &builder);
  AssignUniform(&builder, 0.1f);
  Graph g;
  ASSERT_TRUE(builder.Build(&g).ok());
  ASSERT_TRUE(IcSimulator(g).skip_mode());
  // 98.089 at 1 thread, 98.3215 at 4.
  ExpectPinned(g, kPinnedSeeds, PinnedOptions(),
               {0x1.885b22d0e5604p+6, 0x1.8949374bc6a7fp+6});
}

TEST(SpreadEstimatorTest, PinnedIcHopBounded) {
  Graph g = MakeWcPowerLaw(300, 3, 13);
  VerifySpreadOptions options = PinnedOptions();
  options.max_hops = 2;
  // 51.484 at 1 thread, 51.771 at 4.
  ExpectPinned(g, kPinnedSeeds, options,
               {0x1.9bdf3b645a1cbp+5, 0x1.9e2b020c49ba6p+5});
}

TEST(SpreadEstimatorTest, PinnedIcWeighted) {
  // Summing non-integral weights in activation order: the bits pin that
  // order, not only the activated sets.
  Graph g = MakeWcPowerLaw(300, 3, 14);
  std::vector<double> weights(g.num_nodes());
  Rng rng(15);
  for (double& w : weights) w = rng.NextDouble();
  VerifySpreadOptions options = PinnedOptions();
  options.node_weights = &weights;
  // 46.9511 at 1 thread, 47.2129 at 4.
  ExpectPinned(g, kPinnedSeeds, options,
               {0x1.779bcd633a8ddp+5, 0x1.79b417ddcd265p+5});
}

TEST(SpreadEstimatorTest, PinnedLt) {
  GraphBuilder builder;
  GenBarabasiAlbert(300, 3, 16, &builder);
  AssignRandomLT(&builder, 17);
  Graph g;
  ASSERT_TRUE(builder.Build(&g).ok());
  VerifySpreadOptions options = PinnedOptions();
  options.model = DiffusionModel::kLT;
  // 133.246 at 1 thread, 132.975 at 4.
  ExpectPinned(g, kPinnedSeeds, options,
               {0x1.0a7df3b645a1dp+7, 0x1.09f3333333333p+7});
}

TEST(SpreadEstimatorTest, PinnedCustomTriggering) {
  Graph g = MakeWcPowerLaw(300, 3, 18);
  IcTriggeringModel model;
  VerifySpreadOptions options = PinnedOptions();
  options.model = DiffusionModel::kTriggering;
  options.custom_model = &model;
  // 70.077 at 1 thread, 69.7135 at 4.
  ExpectPinned(g, kPinnedSeeds, options,
               {0x1.184ed916872bp+6, 0x1.16da9fbe76c8bp+6});
}

}  // namespace
}  // namespace timpp
