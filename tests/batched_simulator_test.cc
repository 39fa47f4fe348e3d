// Tests for diffusion/batched_simulator.h — the 64-lane bitmap-parallel
// IC cascade engine — and its SpreadEstimator/CELF/IRIE integration
// (SpreadEstimatorOptions::mc_batch, VerifySpread).
//
// Strategy: at p = 1 every cascade is deterministic, so lane-vs-scalar
// equivalence is exact and asserted bit-for-bit (counts, per-lane
// activation readout, max_hops truncation, duplicate seeds, partial
// batches). At p < 1 the batched estimator must agree with the exact
// oracle / the scalar estimator within Monte-Carlo tolerance — for plain
// IC, weighted spread and hop-bounded cascades.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <vector>

#include "baselines/celf_greedy.h"
#include "baselines/irie.h"
#include "diffusion/batched_simulator.h"
#include "diffusion/exact_spread.h"
#include "diffusion/ic_simulator.h"
#include "diffusion/spread_estimator.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace timpp {
namespace {

using testing::ExpectClose;
using testing::MakeChain;
using testing::MakeOutStar;
using testing::MakeTwoCommunities;
using testing::MakeWcPowerLaw;

// ---- exact equivalence at p = 1 -------------------------------------

TEST(BatchedSimulatorTest, FullLanesOnCertainChain) {
  Graph g = MakeChain(10, 1.0f);
  BatchedIcSimulator sim(g);
  Rng rng(7);
  const std::vector<NodeId> seeds = {0};
  EXPECT_EQ(sim.SimulateBatch(seeds, rng), 64u * 10u);
}

TEST(BatchedSimulatorTest, PartialLanesCountOnlyRequestedLanes) {
  Graph g = MakeChain(10, 1.0f);
  BatchedIcSimulator sim(g);
  Rng rng(7);
  const std::vector<NodeId> seeds = {0};
  for (int lanes : {1, 2, 5, 63}) {
    EXPECT_EQ(sim.SimulateBatch(seeds, rng, lanes),
              static_cast<uint64_t>(lanes) * 10u)
        << "lanes=" << lanes;
  }
}

TEST(BatchedSimulatorTest, MaxHopsMatchesScalarTruncation) {
  Graph g = MakeChain(10, 1.0f);
  BatchedIcSimulator batched(g);
  IcSimulator scalar(g);
  const std::vector<NodeId> seeds = {0};
  for (uint32_t hops : {1u, 3u, 9u, 20u}) {
    Rng rng_b(11), rng_s(11);
    const uint64_t per_lane = scalar.Simulate(seeds, rng_s, hops);
    EXPECT_EQ(batched.SimulateBatch(seeds, rng_b, 64, hops), 64u * per_lane)
        << "hops=" << hops;
  }
}

TEST(BatchedSimulatorTest, DuplicateSeedsCountOncePerLane) {
  Graph g = MakeChain(6, 1.0f);
  BatchedIcSimulator sim(g);
  Rng rng(3);
  const std::vector<NodeId> seeds = {0, 0, 2, 0};
  EXPECT_EQ(sim.SimulateBatch(seeds, rng), 64u * 6u);
}

TEST(BatchedSimulatorTest, CollectReadoutMatchesScalarPerLane) {
  Graph g = MakeOutStar(8, 1.0f);
  BatchedIcSimulator sim(g);
  Rng rng(5);
  const std::vector<NodeId> seeds = {0};
  std::vector<LaneActivation> events;
  const uint64_t total = sim.SimulateBatchCollect(seeds, rng, &events);
  EXPECT_EQ(total, 64u * 8u);

  // Per node: masks of its events are pairwise disjoint and union to the
  // full lane set; every lane's activation list is the scalar cascade's.
  std::map<NodeId, uint64_t> mask_union;
  uint64_t popcount_sum = 0;
  for (const LaneActivation& e : events) {
    EXPECT_EQ(mask_union[e.node] & e.lanes, 0u)
        << "overlapping masks for node " << e.node;
    mask_union[e.node] |= e.lanes;
    popcount_sum += static_cast<uint64_t>(std::popcount(e.lanes));
  }
  EXPECT_EQ(popcount_sum, total);
  ASSERT_EQ(mask_union.size(), 8u);
  for (const auto& [node, mask] : mask_union) {
    EXPECT_EQ(mask, ~0ULL) << "node " << node;
  }
}

TEST(BatchedSimulatorTest, ScratchStateResetsBetweenBatches) {
  // Back-to-back batches from different seed sets must not leak lane bits
  // (epoch stamping) or frontier bits (pending arrays) across runs.
  Graph g = MakeChain(8, 1.0f);
  BatchedIcSimulator sim(g);
  Rng rng(9);
  const std::vector<NodeId> head = {0}, tail = {7};
  EXPECT_EQ(sim.SimulateBatch(head, rng), 64u * 8u);
  EXPECT_EQ(sim.SimulateBatch(tail, rng), 64u * 1u);
  // A hop-truncated run leaves staged frontier bits; they must be cleared.
  EXPECT_EQ(sim.SimulateBatch(head, rng, 64, 2), 64u * 3u);
  EXPECT_EQ(sim.SimulateBatch(head, rng), 64u * 8u);
}

// ---- statistical equivalence at p < 1 -------------------------------

/// Mean per-lane spread over `batches` full batches.
double BatchedMean(BatchedIcSimulator& sim, std::span<const NodeId> seeds,
                   Rng& rng, int batches, uint32_t max_hops = 0) {
  uint64_t total = 0;
  for (int b = 0; b < batches; ++b) {
    total += sim.SimulateBatch(seeds, rng, BatchedIcSimulator::kMaxLanes,
                               max_hops);
  }
  return static_cast<double>(total) / (64.0 * batches);
}

TEST(BatchedSimulatorTest, IndependentLanesMatchExactOracle) {
  Graph g = MakeTwoCommunities(0.3f);
  const std::vector<NodeId> seeds = {0};
  double exact = 0;
  ASSERT_TRUE(ExactSpreadIC(g, seeds, &exact).ok());
  BatchedIcSimulator sim(g);
  Rng rng(0xabcde);
  ExpectClose(exact, BatchedMean(sim, seeds, rng, 400), 0.05);
}

TEST(BatchedSimulatorTest, SmallProbabilityExpansionBeyond32Bits) {
  // p = 0.001f decomposes to m·2^-33 (k = 33 > 32): the dense bitwise
  // sampler must treat expansion bits past the 24-bit mantissa as literal
  // zeros instead of shifting a 32-bit value by >= 32 (UB; on x86 the
  // wrapped shift count turned those AND steps into OR steps, firing
  // coins at ~1/2 instead of p). A full-lane star keeps all 64 lanes
  // pending at hop 1, so every spoke takes the bitwise path; the buggy
  // mask would inflate the mean to ~n/2. E[I({hub})] = 1 + (n-1)p.
  Graph star = MakeOutStar(600, 0.001f);
  const std::vector<NodeId> hub = {0};
  BatchedIcSimulator sim(star);
  Rng rng(0x5ca1e);
  ExpectClose(1.0 + 599 * 0.001, BatchedMean(sim, hub, rng, 400), 0.05);
}

TEST(BatchedSimulatorTest, MaxHopsStatisticalEquivalence) {
  // Hop-bounded cascades: batched mean vs the scalar estimator's mean at
  // the same hop budget (no exact oracle supports truncation).
  Graph g = MakeWcPowerLaw(400, 3, 17);
  const std::vector<NodeId> seeds = {0, 1, 2};
  SpreadEstimatorOptions scalar;
  scalar.num_samples = 30000;
  scalar.max_hops = 2;
  const double reference =
      SpreadEstimator(g, scalar).Estimate(seeds, 0xfeed);

  BatchedIcSimulator sim(g);
  Rng rng(0xbeef);
  ExpectClose(reference, BatchedMean(sim, seeds, rng, 500, 2), 0.05);
}

TEST(BatchedSimulatorTest, WeightedSpreadMatchesScalarCollect) {
  Graph g = MakeTwoCommunities(0.3f);
  const std::vector<NodeId> seeds = {1};
  std::vector<double> weights(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) weights[v] = 1.0 + 0.5 * v;

  // Exact weighted spread via per-node activation probabilities is not
  // exposed; use a large scalar-collect estimate as the reference.
  SpreadEstimatorOptions scalar;
  scalar.num_samples = 60000;
  scalar.node_weights = &weights;
  const double reference =
      SpreadEstimator(g, scalar).Estimate(seeds, 0x77);

  BatchedIcSimulator sim(g);
  Rng rng(0x42);
  double total = 0;
  const int batches = 500;
  for (int b = 0; b < batches; ++b) {
    total += sim.SimulateBatchWeighted(seeds, rng, weights);
  }
  ExpectClose(reference, total / (64.0 * batches), 0.05);
}

// ---- SpreadEstimator integration ------------------------------------

TEST(BatchedEstimatorTest, Bitmap64AgreesWithScalarEstimate) {
  Graph g = MakeWcPowerLaw(500, 3, 23);
  const std::vector<NodeId> seeds = {0, 1, 2, 3, 4};
  SpreadEstimatorOptions scalar, bitmap;
  scalar.num_samples = bitmap.num_samples = 40000;
  bitmap.mc_batch = McBatchMode::kBitmap64;
  const double s = SpreadEstimator(g, scalar).Estimate(seeds, 0x123);
  const double b = SpreadEstimator(g, bitmap).Estimate(seeds, 0x123);
  ExpectClose(s, b, 0.03);
}

TEST(BatchedEstimatorTest, ScalarTailHandlesSubBatchSampleCounts) {
  // num_samples < 64 must fall through to the scalar tail untouched; at
  // p = 1 both paths are exact, so the estimate is exactly n.
  Graph g = MakeChain(9, 1.0f);
  const std::vector<NodeId> seeds = {0};
  for (uint64_t samples : {1ull, 63ull, 64ull, 65ull, 130ull}) {
    SpreadEstimatorOptions options;
    options.num_samples = samples;
    options.mc_batch = McBatchMode::kBitmap64;
    EXPECT_DOUBLE_EQ(SpreadEstimator(g, options).Estimate(seeds, 1), 9.0)
        << "samples=" << samples;
  }
}

TEST(BatchedEstimatorTest, DeterministicInSeedAndThreadCount) {
  Graph g = MakeWcPowerLaw(300, 2, 31);
  const std::vector<NodeId> seeds = {0, 5};
  for (McBatchMode mode : {McBatchMode::kScalar, McBatchMode::kBitmap64}) {
    for (uint64_t samples : {1ull, 64ull, 1000ull}) {
      for (unsigned threads : {1u, 2u, 4u}) {
        SpreadEstimatorOptions options;
        options.num_samples = samples;
        options.num_threads = threads;
        options.mc_batch = mode;
        SpreadEstimator estimator(g, options);
        const double first = estimator.Estimate(seeds, 0x9d);
        EXPECT_DOUBLE_EQ(first, estimator.Estimate(seeds, 0x9d))
            << "mode=" << McBatchModeName(mode) << " samples=" << samples
            << " threads=" << threads;
      }
    }
  }
}

TEST(BatchedEstimatorTest, VerifySpreadMatchesEquivalentEstimate) {
  // VerifySpread runs scalar cascades: it is the scalar estimator with
  // the same samples, threads and seed, bit for bit.
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
    est.mc_batch = McBatchMode::kScalar;
    EXPECT_DOUBLE_EQ(VerifySpread(g, seeds, verify),
                     SpreadEstimator(g, est).Estimate(seeds, 0xabc))
        << "threads=" << threads;
  }
}

// ---- thread-split sample accounting (regression) --------------------

TEST(ThreadSplitTest, NoSampleLostWhenSamplesNotDivisibleByThreads) {
  // On a p = 1 chain every cascade returns exactly n, so the weighted
  // partial-sum merge returns exactly n iff Σ per-thread counts equals
  // num_samples — a lost or double-counted sample shifts the mean off n.
  Graph g = MakeChain(7, 1.0f);
  const std::vector<NodeId> seeds = {0};
  for (McBatchMode mode : {McBatchMode::kScalar, McBatchMode::kBitmap64}) {
    for (uint64_t samples : {5ull, 7ull, 64ull, 97ull, 997ull}) {
      for (unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
        SpreadEstimatorOptions options;
        options.num_samples = samples;
        options.num_threads = threads;
        options.mc_batch = mode;
        EXPECT_DOUBLE_EQ(SpreadEstimator(g, options).Estimate(seeds, 3), 7.0)
            << "mode=" << McBatchModeName(mode) << " samples=" << samples
            << " threads=" << threads;
      }
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
      options.mc_batch = McBatchMode::kBitmap64;
      options.node_weights = &weights;
      EXPECT_DOUBLE_EQ(SpreadEstimator(g, options).Estimate(seeds, 3), 10.0)
          << "samples=" << samples << " threads=" << threads;
    }
  }
}

// ---- CELF / IRIE parity ---------------------------------------------

TEST(BatchedSolverTest, CelfSeedQualityMatchesScalar) {
  Graph g = MakeWcPowerLaw(400, 3, 47);
  const int k = 3;
  CelfOptions scalar, bitmap;
  scalar.num_mc_samples = bitmap.num_mc_samples = 2000;
  scalar.seed = bitmap.seed = 4242;
  bitmap.mc_batch = McBatchMode::kBitmap64;

  std::vector<NodeId> seeds_scalar, seeds_bitmap;
  ASSERT_TRUE(RunCelfGreedy(g, scalar, k, &seeds_scalar, nullptr).ok());
  ASSERT_TRUE(RunCelfGreedy(g, bitmap, k, &seeds_bitmap, nullptr).ok());
  ASSERT_EQ(seeds_scalar.size(), static_cast<size_t>(k));
  ASSERT_EQ(seeds_bitmap.size(), static_cast<size_t>(k));

  // The seed sets may differ (the modes consume randomness differently);
  // their quality must not: both spreads within MC noise of each other,
  // measured by one common instrument.
  VerifySpreadOptions verify;
  verify.num_samples = 20000;
  const double spread_scalar = VerifySpread(g, seeds_scalar, verify);
  const double spread_bitmap = VerifySpread(g, seeds_bitmap, verify);
  ExpectClose(spread_scalar, spread_bitmap, 0.05);
}

TEST(BatchedSolverTest, IrieSeedQualityMatchesScalar) {
  Graph g = MakeWcPowerLaw(400, 3, 53);
  const int k = 5;
  IrieOptions scalar, bitmap;
  bitmap.mc_batch = McBatchMode::kBitmap64;
  std::vector<NodeId> seeds_scalar, seeds_bitmap;
  ASSERT_TRUE(RunIrie(g, scalar, k, &seeds_scalar, nullptr).ok());
  ASSERT_TRUE(RunIrie(g, bitmap, k, &seeds_bitmap, nullptr).ok());
  ASSERT_EQ(seeds_bitmap.size(), static_cast<size_t>(k));

  VerifySpreadOptions verify;
  verify.num_samples = 20000;
  ExpectClose(VerifySpread(g, seeds_scalar, verify),
              VerifySpread(g, seeds_bitmap, verify), 0.08);
}

}  // namespace
}  // namespace timpp
