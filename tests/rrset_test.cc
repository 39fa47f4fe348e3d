// Tests for rrset/: samplers (IC, LT, triggering) and RRCollection,
// including the statistical lemmas that make RR sampling sound:
// Lemma 2 / Corollary 1 (coverage fraction is an unbiased spread
// estimator) and Lemma 4 ((n/m)·EPT = E[I({v*})]).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "diffusion/exact_spread.h"
#include "diffusion/spread_estimator.h"
#include "diffusion/triggering.h"
#include "gen/generators.h"
#include "graph/weight_models.h"
#include "rrset/lt_pick.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace timpp {
namespace {

using testing::ExpectClose;
using testing::MakeChain;
using testing::MakeGraph;
using testing::MakeOutStar;
using testing::MakeTwoCommunities;

// ----------------------------------------------------------- IC sampling --

TEST(RRSamplerICTest, DeterministicChainCollectsAllAncestors) {
  Graph g = MakeChain(5, 1.0f);
  RRSampler sampler(g, DiffusionModel::kIC);
  Rng rng(1);
  std::vector<NodeId> rr;
  RRSampleInfo info = sampler.SampleForRoot(4, rng, &rr);
  std::set<NodeId> members(rr.begin(), rr.end());
  EXPECT_EQ(members, (std::set<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(info.root, 4u);
}

TEST(RRSamplerICTest, ZeroProbabilityYieldsSingletonRoot) {
  Graph g = MakeChain(5, 0.0f);
  RRSampler sampler(g, DiffusionModel::kIC);
  Rng rng(1);
  std::vector<NodeId> rr;
  RRSampleInfo info = sampler.SampleForRoot(3, rng, &rr);
  EXPECT_EQ(rr, (std::vector<NodeId>{3}));
  EXPECT_EQ(info.edges_examined, 1u);  // 3's single in-edge was examined
}

TEST(RRSamplerICTest, SourceNodeHasEmptyInNeighborhood) {
  Graph g = MakeChain(5, 1.0f);
  RRSampler sampler(g, DiffusionModel::kIC);
  Rng rng(1);
  std::vector<NodeId> rr;
  RRSampleInfo info = sampler.SampleForRoot(0, rng, &rr);
  EXPECT_EQ(rr, (std::vector<NodeId>{0}));
  EXPECT_EQ(info.edges_examined, 0u);
}

TEST(RRSamplerICTest, WidthIsInDegreeSumOfMembers) {
  Graph g = MakeTwoCommunities(1.0f);
  RRSampler sampler(g, DiffusionModel::kIC);
  Rng rng(2);
  std::vector<NodeId> rr;
  for (int trial = 0; trial < 50; ++trial) {
    RRSampleInfo info = sampler.SampleRandomRoot(rng, &rr);
    uint64_t expected_width = 0;
    for (NodeId v : rr) expected_width += g.InDegree(v);
    EXPECT_EQ(info.width, expected_width);
  }
}

TEST(RRSamplerICTest, MembersAreDistinct) {
  Graph g = MakeTwoCommunities(0.8f);
  RRSampler sampler(g, DiffusionModel::kIC);
  Rng rng(3);
  std::vector<NodeId> rr;
  for (int trial = 0; trial < 200; ++trial) {
    sampler.SampleRandomRoot(rng, &rr);
    std::set<NodeId> members(rr.begin(), rr.end());
    EXPECT_EQ(members.size(), rr.size());
  }
}

TEST(RRSamplerICTest, MembershipProbabilityMatchesActivationProbability) {
  // Lemma 2 on a chain: P[0 ∈ RR(3)] must equal P[seed {0} activates 3]
  // = p³.
  const float p = 0.6f;
  Graph g = MakeChain(4, p);
  RRSampler sampler(g, DiffusionModel::kIC);
  Rng rng(4);
  std::vector<NodeId> rr;
  const int r = 200000;
  int hits = 0;
  for (int i = 0; i < r; ++i) {
    sampler.SampleForRoot(3, rng, &rr);
    if (std::find(rr.begin(), rr.end(), 0u) != rr.end()) ++hits;
  }
  ExpectClose(std::pow(p, 3), hits / static_cast<double>(r), 0.03, 0.01);
}

// ------------------------------------------- skip vs per-arc equivalence --

using testing::MakeWcPowerLaw;

TEST(RRSamplerSkipTest, AutoResolvesPerGraphRunStructure) {
  Graph wc = MakeWcPowerLaw(500, 6, 11);
  EXPECT_TRUE(RRSampler(wc, DiffusionModel::kIC).skip_mode())
      << "weighted cascade has whole-list runs; auto must pick skip";
  Graph chain = MakeChain(10, 0.5f);
  EXPECT_FALSE(RRSampler(chain, DiffusionModel::kIC).skip_mode())
      << "length-1 runs cannot amortize geometric draws";
  EXPECT_TRUE(RRSampler(chain, DiffusionModel::kIC, nullptr, 0,
                        SamplerMode::kSkip)
                  .skip_mode());
  EXPECT_FALSE(RRSampler(wc, DiffusionModel::kIC, nullptr, 0,
                         SamplerMode::kPerArc)
                   .skip_mode());
}

TEST(RRSamplerSkipTest, ExactEqualityOnUnitProbabilityEdges) {
  // With p = 1 every arc decision is forced, so skip and per-arc modes
  // must return the identical set — not just the same distribution.
  Graph g = MakeTwoCommunities(1.0f);
  RRSampler per_arc(g, DiffusionModel::kIC, nullptr, 0, SamplerMode::kPerArc);
  RRSampler skip(g, DiffusionModel::kIC, nullptr, 0, SamplerMode::kSkip);
  std::vector<NodeId> a, b;
  for (NodeId root = 0; root < g.num_nodes(); ++root) {
    Rng rng_a(7), rng_b(7);
    RRSampleInfo ia = per_arc.SampleForRoot(root, rng_a, &a);
    RRSampleInfo ib = skip.SampleForRoot(root, rng_b, &b);
    EXPECT_EQ(a, b) << "root " << root;
    EXPECT_EQ(ia.width, ib.width);
    EXPECT_EQ(ia.edges_examined, ib.edges_examined)
        << "decided-arc accounting must be mode-independent";
  }
}

TEST(RRSamplerSkipTest, MembershipProbabilityMatchesPerArcOnChain) {
  // Lemma 2 holds in skip mode too: P[0 ∈ RR(3)] = p³ on a p-chain, even
  // though each in-list is a length-1 run (the degenerate worst case).
  const float p = 0.6f;
  Graph g = MakeChain(4, p);
  RRSampler sampler(g, DiffusionModel::kIC, nullptr, 0, SamplerMode::kSkip);
  Rng rng(4);
  std::vector<NodeId> rr;
  const int r = 200000;
  int hits = 0;
  for (int i = 0; i < r; ++i) {
    sampler.SampleForRoot(3, rng, &rr);
    if (std::find(rr.begin(), rr.end(), 0u) != rr.end()) ++hits;
  }
  ExpectClose(std::pow(p, 3), hits / static_cast<double>(r), 0.03, 0.01);
}

TEST(RRSamplerSkipTest, SizeAndWidthDistributionsMatchPerArcIC) {
  // Mode equivalence on the real workload: mean RR-set size and mean
  // width over many samples must agree between modes on a
  // weighted-cascade scale-free graph (independent streams, so the bands
  // absorb two-sided MC error).
  Graph g = MakeWcPowerLaw(400, 5, 13);
  RRSampler per_arc(g, DiffusionModel::kIC, nullptr, 0, SamplerMode::kPerArc);
  RRSampler skip(g, DiffusionModel::kIC, nullptr, 0, SamplerMode::kSkip);
  const int r = 30000;
  double size_a = 0, size_b = 0, width_a = 0, width_b = 0;
  std::vector<NodeId> rr;
  Rng rng_a(17), rng_b(18);
  for (int i = 0; i < r; ++i) {
    RRSampleInfo ia = per_arc.SampleRandomRoot(rng_a, &rr);
    size_a += rr.size();
    width_a += ia.width;
    RRSampleInfo ib = skip.SampleRandomRoot(rng_b, &rr);
    size_b += rr.size();
    width_b += ib.width;
  }
  ExpectClose(size_a / r, size_b / r, 0.05);
  ExpectClose(width_a / r, width_b / r, 0.05, 0.5);
}

TEST(RRSamplerSkipTest, LtRunScanMatchesPerArcStatistically) {
  // LT skip mode resolves the categorical in-neighbor pick by runs; on a
  // uniform-LT graph (single whole-list runs of weight 1/indeg) the walk
  // statistics must match the per-arc linear scan.
  GraphBuilder builder;
  GenBarabasiAlbert(300, 5, 19, &builder);
  AssignUniformLT(&builder);
  Graph g;
  ASSERT_TRUE(builder.Build(&g).ok());
  RRSampler per_arc(g, DiffusionModel::kLT, nullptr, 0, SamplerMode::kPerArc);
  RRSampler skip(g, DiffusionModel::kLT, nullptr, 0, SamplerMode::kSkip);
  ASSERT_TRUE(skip.skip_mode());
  const int r = 30000;
  double size_a = 0, size_b = 0;
  std::vector<NodeId> rr;
  Rng rng_a(21), rng_b(22);
  for (int i = 0; i < r; ++i) {
    per_arc.SampleRandomRoot(rng_a, &rr);
    size_a += rr.size();
    skip.SampleRandomRoot(rng_b, &rr);
    size_b += rr.size();
  }
  ExpectClose(size_a / r, size_b / r, 0.05);
}

TEST(RRSamplerSkipTest, LtCostCountsOnlyScannedArcs) {
  // Satellite regression: the LT scan breaks at the picked arc, so
  // edges_examined must charge the scanned prefix, not the whole list.
  // Node 2's in-list is (0 -> 2, w=1.0), (1 -> 2, w=0.0): the scan always
  // picks the first arc, so exactly 1 of 2 arcs is examined per step.
  Graph g = MakeGraph(3, {{0, 2, 1.0f}, {1, 2, 0.0f}});
  RRSampler sampler(g, DiffusionModel::kLT, nullptr, 0, SamplerMode::kPerArc);
  Rng rng(23);
  std::vector<NodeId> rr;
  RRSampleInfo info = sampler.SampleForRoot(2, rng, &rr);
  EXPECT_EQ(info.edges_examined, 1u)
      << "walk picks arc 0 and stops scanning; arc 1 was never examined";
  std::set<NodeId> members(rr.begin(), rr.end());
  EXPECT_EQ(members, (std::set<NodeId>{0, 2}));
}

// Builds a single-sink graph whose sink in-arc list carries the given
// weight layout (one in-arc per weight, arc i from node i), so lt_pick's
// two resolutions can be driven directly against Graph::InRunEnds.
Graph MakeSinkWithInWeights(const std::vector<float>& weights) {
  std::vector<RawEdge> edges;
  const NodeId sink = static_cast<NodeId>(weights.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    edges.push_back({static_cast<NodeId>(i), sink, weights[i]});
  }
  return MakeGraph(sink + 1, edges);
}

TEST(LtPickEquivalenceTest, AdversarialWeightsAgreeAtRoundingBoundaries) {
  // The pick-equivalence contract: both resolutions map every draw r to
  // the same arc. The adversarial part is float weights whose sums drift
  // (0.1f is not 0.1; nine sequential additions round differently than one
  // 9·p product), so r values a few ulps around every slice boundary are
  // exactly where the pre-fix code let the modes diverge.
  const std::vector<std::vector<float>> layouts = {
      // One long drifting run: 9 × 0.1f (mass ≈ 0.9000000134).
      std::vector<float>(9, 0.1f),
      // Several runs of awkward constants.
      {0.1f, 0.1f, 0.1f, 0.07f, 0.07f, 0.07f, 0.07f, 0.05f, 0.05f, 0.3f},
      // Zero-probability runs interleaved (scanned but never picked).
      {0.0f, 0.0f, 0.2f, 0.2f, 0.0f, 0.1f, 0.1f, 0.1f, 0.0f},
      // Length-1 runs only (the per-arc degenerate case).
      {0.11f, 0.13f, 0.17f, 0.19f, 0.23f},
      // Tiny probabilities: many multiples of p land on shared doubles.
      std::vector<float>(64, 0.001f),
  };
  for (size_t layout = 0; layout < layouts.size(); ++layout) {
    const std::vector<float>& weights = layouts[layout];
    Graph g = MakeSinkWithInWeights(weights);
    const NodeId sink = static_cast<NodeId>(weights.size());
    const auto arcs = g.InArcs(sink);
    const auto run_ends = g.InRunEnds(sink);

    // Candidate draws: every cumulative per-arc boundary under both
    // accumulation orders, bracketed by a few ulps on each side, plus a
    // uniform sweep.
    std::vector<double> draws;
    double seq = 0.0, by_run = 0.0;
    size_t start = 0;
    for (const EdgeIndex end : run_ends) {
      const double p = arcs[start].prob;
      for (size_t j = start; j < end; ++j) {
        seq += arcs[j].prob;
        draws.push_back(seq);
        draws.push_back(by_run + p * static_cast<double>(j - start + 1));
      }
      by_run += p * static_cast<double>(end - start);
      start = end;
    }
    for (int i = 0; i <= 1000; ++i) draws.push_back(i / 1000.0);

    for (double center : draws) {
      double lo = center, hi = center;
      for (int ulps = 0; ulps < 3; ++ulps) {
        lo = std::nextafter(lo, -1.0);
        hi = std::nextafter(hi, 2.0);
      }
      for (double r = lo; r <= hi; r = std::nextafter(r, 2.0)) {
        if (r < 0.0 || r >= 1.0) continue;
        const LtPick by_runs = PickLtArcByRuns(arcs, run_ends, r);
        const LtPick per_arc = PickLtArcPerArc(arcs, r);
        ASSERT_EQ(by_runs.index, per_arc.index)
            << "layout " << layout << " r=" << std::hexfloat << r;
        ASSERT_EQ(by_runs.scanned, per_arc.scanned)
            << "layout " << layout << " r=" << std::hexfloat << r;
        if (by_runs.index != LtPick::kNoArc) {
          EXPECT_EQ(by_runs.scanned, by_runs.index + 1);
        } else {
          EXPECT_EQ(by_runs.scanned, arcs.size());
        }
      }
    }
  }
}

TEST(LtPickEquivalenceTest, SkipWalkBitIdenticalToPerArcOnDriftingRuns) {
  // End-to-end half of the contract: the LT reverse walk draws one
  // uniform per step in both modes, so pick equivalence makes whole RR
  // sets — and the scanned-arc cost — bit-identical across modes. Ring
  // graph whose in-lists are runs of 0.1f/0.09f (sums ≈ 0.99, so walks go
  // long and cross many rounding-sensitive picks).
  const NodeId n = 50;
  std::vector<RawEdge> edges;
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId d = 1; d <= 10; ++d) {
      edges.push_back({static_cast<NodeId>((v + d) % n), v,
                       d <= 9 ? 0.1f : 0.09f});
    }
  }
  Graph g = MakeGraph(n, edges);
  RRSampler per_arc(g, DiffusionModel::kLT, nullptr, 0, SamplerMode::kPerArc);
  RRSampler skip(g, DiffusionModel::kLT, nullptr, 0, SamplerMode::kSkip);
  ASSERT_TRUE(skip.skip_mode());
  std::vector<NodeId> a, b;
  for (uint64_t seed = 0; seed < 5000; ++seed) {
    Rng rng_a(seed), rng_b(seed);
    const RRSampleInfo ia = per_arc.SampleRandomRoot(rng_a, &a);
    const RRSampleInfo ib = skip.SampleRandomRoot(rng_b, &b);
    ASSERT_EQ(a, b) << "seed " << seed;
    ASSERT_EQ(ia.edges_examined, ib.edges_examined) << "seed " << seed;
    EXPECT_EQ(ia.width, ib.width);
  }
}

// ----------------------------------------------------------- LT sampling --

TEST(RRSamplerLTTest, WalkIsAPath) {
  Graph g = MakeTwoCommunities(0.2f);
  RRSampler sampler(g, DiffusionModel::kLT);
  Rng rng(5);
  std::vector<NodeId> rr;
  for (int trial = 0; trial < 200; ++trial) {
    sampler.SampleRandomRoot(rng, &rr);
    std::set<NodeId> members(rr.begin(), rr.end());
    EXPECT_EQ(members.size(), rr.size()) << "LT RR set must be a simple walk";
  }
}

TEST(RRSamplerLTTest, WeightOneChainWalksToSource) {
  Graph g = MakeChain(5, 1.0f);
  RRSampler sampler(g, DiffusionModel::kLT);
  Rng rng(6);
  std::vector<NodeId> rr;
  sampler.SampleForRoot(4, rng, &rr);
  EXPECT_EQ(rr, (std::vector<NodeId>{4, 3, 2, 1, 0}));
}

TEST(RRSamplerLTTest, MembershipMatchesLtActivationProbability) {
  // Lemma 2 under LT: P[0 ∈ RR(2)] = P[{0} activates 2]. On the diamond
  // 0->1 (.5), 0->2 (.3), 1->2 (.5): exact LT spread gives the target.
  Graph g = MakeGraph(3, {{0, 1, 0.5f}, {0, 2, 0.3f}, {1, 2, 0.5f}});
  double exact = 0;
  ASSERT_TRUE(ExactSpreadLT(g, std::vector<NodeId>{0}, &exact).ok());
  const double p_activate_2 = exact - 1.0 - 0.5;  // E[I] = 1 + P[1] + P[2]

  RRSampler sampler(g, DiffusionModel::kLT);
  Rng rng(7);
  std::vector<NodeId> rr;
  const int r = 300000;
  int hits = 0;
  for (int i = 0; i < r; ++i) {
    sampler.SampleForRoot(2, rng, &rr);
    if (std::find(rr.begin(), rr.end(), 0u) != rr.end()) ++hits;
  }
  ExpectClose(p_activate_2, hits / static_cast<double>(r), 0.03, 0.01);
}

// --------------------------------------------------- triggering sampling --

TEST(RRSamplerTriggeringTest, IcTriggeringMatchesNativeIcStatistically) {
  Graph g = MakeTwoCommunities(0.4f);
  IcTriggeringModel model;
  RRSampler native(g, DiffusionModel::kIC);
  RRSampler generic(g, DiffusionModel::kTriggering, &model);
  Rng rng_a(8), rng_b(9);
  std::vector<NodeId> rr;
  const int r = 100000;
  double native_size = 0, generic_size = 0;
  for (int i = 0; i < r; ++i) {
    native.SampleRandomRoot(rng_a, &rr);
    native_size += rr.size();
    generic.SampleRandomRoot(rng_b, &rr);
    generic_size += rr.size();
  }
  ExpectClose(native_size / r, generic_size / r, 0.02);
}

TEST(RRSamplerTriggeringTest, LtTriggeringMatchesNativeLtStatistically) {
  Graph g = MakeGraph(5, {{0, 2, 0.5f},
                          {1, 2, 0.5f},
                          {2, 3, 0.7f},
                          {0, 3, 0.3f},
                          {3, 4, 1.0f}});
  LtTriggeringModel model;
  RRSampler native(g, DiffusionModel::kLT);
  RRSampler generic(g, DiffusionModel::kTriggering, &model);
  Rng rng_a(10), rng_b(11);
  std::vector<NodeId> rr;
  const int r = 200000;
  double native_size = 0, generic_size = 0;
  for (int i = 0; i < r; ++i) {
    native.SampleRandomRoot(rng_a, &rr);
    native_size += rr.size();
    generic.SampleRandomRoot(rng_b, &rr);
    generic_size += rr.size();
  }
  ExpectClose(native_size / r, generic_size / r, 0.02);
}

// ----------------------------------------------------------- Corollary 1 --

TEST(RRStatisticalTest, CoverageFractionIsUnbiasedSpreadEstimatorIC) {
  Graph g = MakeTwoCommunities(0.35f);
  const std::vector<NodeId> seeds = {1, 6};
  double exact = 0;
  ASSERT_TRUE(ExactSpreadIC(g, seeds, &exact).ok());

  RRSampler sampler(g, DiffusionModel::kIC);
  Rng rng(12);
  RRCollection rr(g.num_nodes());
  std::vector<NodeId> scratch;
  const int theta = 200000;
  for (int i = 0; i < theta; ++i) {
    RRSampleInfo info = sampler.SampleRandomRoot(rng, &scratch);
    rr.Add(scratch, info.width);
  }
  rr.BuildIndex();
  const double estimate = rr.CoveredFraction(seeds) * g.num_nodes();
  ExpectClose(exact, estimate, 0.02);
}

TEST(RRStatisticalTest, CoverageFractionIsUnbiasedSpreadEstimatorLT) {
  Graph g = MakeGraph(5, {{0, 2, 0.5f},
                          {1, 2, 0.5f},
                          {2, 3, 0.7f},
                          {0, 3, 0.3f},
                          {3, 4, 1.0f}});
  const std::vector<NodeId> seeds = {0};
  double exact = 0;
  ASSERT_TRUE(ExactSpreadLT(g, seeds, &exact).ok());

  RRSampler sampler(g, DiffusionModel::kLT);
  Rng rng(13);
  RRCollection rr(g.num_nodes());
  std::vector<NodeId> scratch;
  const int theta = 200000;
  for (int i = 0; i < theta; ++i) {
    RRSampleInfo info = sampler.SampleRandomRoot(rng, &scratch);
    rr.Add(scratch, info.width);
  }
  rr.BuildIndex();
  const double estimate = rr.CoveredFraction(seeds) * g.num_nodes();
  ExpectClose(exact, estimate, 0.02);
}

// --------------------------------------------------------------- Lemma 4 --

TEST(RRStatisticalTest, Lemma4EptIdentity) {
  // (n/m)·EPT = E[I({v*})] with v* drawn ∝ in-degree.
  Graph g = MakeTwoCommunities(0.35f);
  const double n = g.num_nodes(), m = g.num_edges();

  // LHS: average RR width over many samples.
  RRSampler sampler(g, DiffusionModel::kIC);
  Rng rng(14);
  std::vector<NodeId> scratch;
  const int r = 200000;
  double width_sum = 0;
  for (int i = 0; i < r; ++i) {
    width_sum += sampler.SampleRandomRoot(rng, &scratch).width;
  }
  const double lhs = (n / m) * (width_sum / r);

  // RHS: exact spread of v*, averaged over the in-degree distribution.
  double rhs = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (g.InDegree(v) == 0) continue;
    double spread = 0;
    ASSERT_TRUE(ExactSpreadIC(g, std::vector<NodeId>{v}, &spread).ok());
    rhs += (static_cast<double>(g.InDegree(v)) / m) * spread;
  }
  ExpectClose(rhs, lhs, 0.02);
}

// ------------------------------------------------------------ collection --

TEST(RRCollectionTest, AddAndRetrieve) {
  RRCollection rr(5);
  std::vector<NodeId> s1 = {0, 2};
  std::vector<NodeId> s2 = {1};
  EXPECT_EQ(rr.Add(s1, 7), 0u);
  EXPECT_EQ(rr.Add(s2, 3), 1u);
  EXPECT_EQ(rr.num_sets(), 2u);
  EXPECT_EQ(rr.total_nodes(), 3u);
  EXPECT_EQ(rr.Width(0), 7u);
  EXPECT_EQ(rr.Width(1), 3u);
  EXPECT_EQ(rr.TotalWidth(), 10u);
  EXPECT_EQ(std::vector<NodeId>(rr.Set(0).begin(), rr.Set(0).end()), s1);
}

TEST(RRCollectionTest, InvertedIndex) {
  RRCollection rr(4);
  rr.Add(std::vector<NodeId>{0, 1}, 0);
  rr.Add(std::vector<NodeId>{1, 2}, 0);
  rr.Add(std::vector<NodeId>{1}, 0);
  rr.BuildIndex();
  EXPECT_TRUE(rr.index_built());
  EXPECT_EQ(rr.CoverageCount(0), 1u);
  EXPECT_EQ(rr.CoverageCount(1), 3u);
  EXPECT_EQ(rr.CoverageCount(2), 1u);
  EXPECT_EQ(rr.CoverageCount(3), 0u);
  auto sets = rr.SetsContaining(1);
  EXPECT_EQ(std::vector<RRSetId>(sets.begin(), sets.end()),
            (std::vector<RRSetId>{0, 1, 2}));
}

TEST(RRCollectionTest, AddAfterIndexInvalidates) {
  RRCollection rr(3);
  rr.Add(std::vector<NodeId>{0}, 0);
  rr.BuildIndex();
  rr.Add(std::vector<NodeId>{1}, 0);
  EXPECT_FALSE(rr.index_built());
}

TEST(RRCollectionTest, CoveredFractionCountsDistinctSets) {
  RRCollection rr(4);
  rr.Add(std::vector<NodeId>{0, 1}, 0);
  rr.Add(std::vector<NodeId>{1, 2}, 0);
  rr.Add(std::vector<NodeId>{3}, 0);
  rr.Add(std::vector<NodeId>{0, 2}, 0);
  rr.BuildIndex();
  // {0, 1} covers sets 0, 1, 3 — set 0 must not double-count.
  EXPECT_DOUBLE_EQ(rr.CoveredFraction(std::vector<NodeId>{0, 1}), 0.75);
  EXPECT_DOUBLE_EQ(rr.CoveredFraction(std::vector<NodeId>{3}), 0.25);
  EXPECT_DOUBLE_EQ(rr.CoveredFraction(std::vector<NodeId>{}), 0.0);
}

TEST(RRCollectionTest, ClearResetsEverything) {
  RRCollection rr(3);
  rr.Add(std::vector<NodeId>{0, 1, 2}, 9);
  rr.BuildIndex();
  rr.Clear();
  EXPECT_EQ(rr.num_sets(), 0u);
  EXPECT_EQ(rr.total_nodes(), 0u);
  EXPECT_EQ(rr.TotalWidth(), 0u);
  EXPECT_FALSE(rr.index_built());
  // Reusable after Clear.
  rr.Add(std::vector<NodeId>{1}, 2);
  rr.BuildIndex();
  EXPECT_EQ(rr.CoverageCount(1), 1u);
}

TEST(RRCollectionTest, MemoryBytesGrows) {
  RRCollection rr(100);
  const size_t before = rr.MemoryBytes();
  std::vector<NodeId> big(50);
  for (int i = 0; i < 100; ++i) rr.Add(big, 0);
  rr.BuildIndex();
  EXPECT_GT(rr.MemoryBytes(), before);
  EXPECT_GE(rr.MemoryBytes(), 100 * 50 * sizeof(NodeId));
}

TEST(RRCollectionTest, EmptyCollectionEdgeCases) {
  RRCollection rr(3);
  rr.BuildIndex();
  EXPECT_EQ(rr.num_sets(), 0u);
  EXPECT_DOUBLE_EQ(rr.CoveredFraction(std::vector<NodeId>{0, 1, 2}), 0.0);
  EXPECT_EQ(rr.CoverageCount(0), 0u);
}

// ------------------------------------------------- parallel index build --

// Builds `rr`'s index serially and on a pool of `tasks` tasks (the pool's
// workers plus the calling thread) and expects the same arrays: every
// node's list, hence its offsets too, and the index's byte count.
void ExpectPoolIndexMatchesSerial(const RRCollection& rr, unsigned tasks) {
  RRCollection serial = rr;
  serial.BuildIndex();
  RRCollection pooled = rr;
  ThreadPool pool(tasks - 1);
  // The second build runs over the first one's arrays.
  for (int build = 0; build < 2; ++build) {
    pooled.BuildIndex(&pool);
    ASSERT_TRUE(pooled.index_built());
    EXPECT_EQ(serial.DataBytes(), pooled.DataBytes()) << "tasks=" << tasks;
    for (NodeId v = 0; v < rr.num_graph_nodes(); ++v) {
      const auto a = serial.SetsContaining(v);
      const auto b = pooled.SetsContaining(v);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "tasks=" << tasks << " node " << v;
    }
  }
}

// `sets` sets of 0-24 distinct random members out of `n` nodes.
RRCollection RandomCollection(NodeId n, size_t sets, uint64_t seed) {
  RRCollection rr(n);
  Rng rng(seed);
  std::vector<NodeId> nodes(n);
  for (NodeId v = 0; v < n; ++v) nodes[v] = v;
  for (size_t id = 0; id < sets; ++id) {
    const size_t size = rng.NextBounded(25);
    for (size_t j = 0; j < size; ++j) {
      std::swap(nodes[j], nodes[j + rng.NextBounded(n - j)]);
    }
    rr.Add(std::span<const NodeId>(nodes.data(), size), size);
  }
  return rr;
}

TEST(BuildIndexPoolTest, EmptyCollection) {
  ExpectPoolIndexMatchesSerial(RRCollection(50), 8);
}

TEST(BuildIndexPoolTest, FewerSetsThanTasks) {
  // Three sets on an 8-task pool: the member guard (6 members, 3 words
  // of cursors a task) leaves two tasks, one of them with a single set.
  RRCollection rr(2);
  for (int i = 0; i < 3; ++i) rr.Add(std::vector<NodeId>{1, 0}, 2);
  ExpectPoolIndexMatchesSerial(rr, 8);
}

TEST(BuildIndexPoolTest, MemberGuardFallsBackToSerial) {
  // n far above the member count: per-task cursors would outweigh the
  // index itself, so the pool goes unused and the build is serial.
  ExpectPoolIndexMatchesSerial(RandomCollection(100000, 40, 3), 8);
}

TEST(BuildIndexPoolTest, RandomCollectionsMatchSerial) {
  for (unsigned tasks : {2u, 3u, 8u}) {
    ExpectPoolIndexMatchesSerial(RandomCollection(500, 3000, 11 + tasks),
                                 tasks);
  }
}

}  // namespace
}  // namespace timpp
