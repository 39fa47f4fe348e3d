// Tests of the engine layer: the SamplingEngine's deterministic merge
// contract (bit-identical output for any thread count), its batch and
// cost-threshold primitives, the ThreadPool underneath, and the
// InfluenceSolver registry round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baselines/ris.h"
#include "core/imm.h"
#include "core/tim.h"
#include "engine/sampling_engine.h"
#include "engine/solver_registry.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "graph/weight_models.h"
#include "tests/test_util.h"
#include "util/thread_pool.h"

namespace timpp {
namespace {

using testing::IcSampling;
using testing::MakeTwoCommunities;

// ------------------------------------------------------------ ThreadPool --

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  for (auto& h : hits) h.store(0);
  pool.ParallelRun(100, [&](unsigned i) { hits[i].fetch_add(1); });
  for (unsigned i = 0; i < 100; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ReusableAcrossRounds) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.ParallelRun(8, [&](unsigned i) { sum.fetch_add(static_cast<int>(i)); });
    EXPECT_EQ(sum.load(), 28);
  }
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  int calls = 0;
  pool.ParallelRun(5, [&](unsigned) { ++calls; });
  EXPECT_EQ(calls, 5);
}

// -------------------------------------------------- SamplingEngine basics --

void ExpectSameCollections(const RRCollection& a, const RRCollection& b) {
  ASSERT_EQ(a.num_sets(), b.num_sets());
  ASSERT_EQ(a.total_nodes(), b.total_nodes());
  EXPECT_EQ(a.TotalWidth(), b.TotalWidth());
  for (size_t id = 0; id < a.num_sets(); ++id) {
    const auto sa = a.Set(static_cast<RRSetId>(id));
    const auto sb = b.Set(static_cast<RRSetId>(id));
    ASSERT_EQ(sa.size(), sb.size()) << "set " << id;
    for (size_t j = 0; j < sa.size(); ++j) {
      EXPECT_EQ(sa[j], sb[j]) << "set " << id << " pos " << j;
    }
    EXPECT_EQ(a.Width(static_cast<RRSetId>(id)),
              b.Width(static_cast<RRSetId>(id)))
        << "set " << id;
  }
}

TEST(SamplingEngineTest, SampleIntoIsThreadCountInvariant) {
  Graph g = MakeTwoCommunities(0.35f);
  RRCollection reference(g.num_nodes());
  SamplingEngine sequential(g, IcSampling(42, 1));
  const SampleBatch ref_batch = sequential.SampleInto(&reference, 5000);
  EXPECT_EQ(ref_batch.sets_added, 5000u);

  for (unsigned threads : {2u, 8u}) {
    RRCollection rr(g.num_nodes());
    SamplingEngine engine(g, IcSampling(42, threads));
    const SampleBatch batch = engine.SampleInto(&rr, 5000);
    EXPECT_EQ(batch.sets_added, 5000u);
    EXPECT_EQ(batch.edges_examined, ref_batch.edges_examined)
        << "threads=" << threads;
    EXPECT_EQ(batch.traversal_cost, ref_batch.traversal_cost)
        << "threads=" << threads;
    ExpectSameCollections(reference, rr);
  }
}

TEST(SamplingEngineTest, SkipModeIsThreadCountInvariant) {
  // The determinism contract is mode-independent: skip-mode traversal
  // draws a different RNG stream per set, but a set is still a pure
  // function of (seed, index), so shard merges stay bit-identical across
  // thread counts. Weighted-cascade graph so skip sampling really
  // engages (whole-list runs).
  Graph g = testing::MakeWcPowerLaw(300, 5, 3);

  SamplingConfig config = IcSampling(42, 1);
  config.sampler_mode = SamplerMode::kSkip;
  RRCollection reference(g.num_nodes());
  SamplingEngine sequential(g, config);
  sequential.SampleInto(&reference, 5000);

  for (unsigned threads : {2u, 8u}) {
    config.num_threads = threads;
    RRCollection rr(g.num_nodes());
    SamplingEngine engine(g, config);
    engine.SampleInto(&rr, 5000);
    ExpectSameCollections(reference, rr);
  }
}

TEST(SamplingEngineTest, SkipAndPerArcAgreeStatistically) {
  // Same engine seed, different modes: individual sets differ (different
  // RNG consumption) but the mean set size — an unbiased estimator of
  // E[I(v)]·n/… — must agree within MC error.
  Graph g = testing::MakeWcPowerLaw(300, 5, 3);

  double mean[2] = {0, 0};
  const SamplerMode modes[2] = {SamplerMode::kPerArc, SamplerMode::kSkip};
  const uint64_t count = 20000;
  for (int m = 0; m < 2; ++m) {
    SamplingConfig config = IcSampling(99, 1);
    config.sampler_mode = modes[m];
    RRCollection rr(g.num_nodes());
    SamplingEngine engine(g, config);
    engine.SampleInto(&rr, count);
    mean[m] = static_cast<double>(rr.total_nodes()) /
              static_cast<double>(rr.num_sets());
  }
  testing::ExpectClose(mean[0], mean[1], 0.05);
}

TEST(SamplingEngineTest, BatchSplitDoesNotChangeTheStream) {
  // Sampling 400 then 600 sets must produce the same collection as one
  // call of 1000: batches are windows onto one global index stream.
  Graph g = MakeTwoCommunities(0.35f);
  RRCollection one_call(g.num_nodes());
  SamplingEngine e1(g, IcSampling(7, 2));
  e1.SampleInto(&one_call, 1000);

  RRCollection two_calls(g.num_nodes());
  SamplingEngine e2(g, IcSampling(7, 2));
  e2.SampleInto(&two_calls, 400);
  e2.SampleInto(&two_calls, 600);

  ExpectSameCollections(one_call, two_calls);
  EXPECT_EQ(e1.sets_sampled(), e2.sets_sampled());
}

TEST(SamplingEngineTest, SampleUntilCostIsThreadCountInvariant) {
  Graph g = MakeTwoCommunities(0.35f);
  RRCollection reference(g.num_nodes());
  SamplingEngine sequential(g, IcSampling(11, 1));
  const SampleBatch ref_batch =
      sequential.SampleUntilCost(&reference, /*cost_threshold=*/20000.0);
  EXPECT_GE(ref_batch.traversal_cost, 20000u);

  for (unsigned threads : {2u, 8u}) {
    RRCollection rr(g.num_nodes());
    SamplingEngine engine(g, IcSampling(11, threads));
    const SampleBatch batch = engine.SampleUntilCost(&rr, 20000.0);
    EXPECT_EQ(batch.sets_added, ref_batch.sets_added)
        << "threads=" << threads;
    EXPECT_EQ(batch.traversal_cost, ref_batch.traversal_cost)
        << "threads=" << threads;
    ExpectSameCollections(reference, rr);
  }
}

TEST(SamplingEngineTest, SampleUntilCostHonorsSetCap) {
  Graph g = MakeTwoCommunities(0.35f);
  RRCollection rr(g.num_nodes());
  SamplingEngine engine(g, IcSampling(3, 2));
  const SampleBatch batch =
      engine.SampleUntilCost(&rr, /*cost_threshold=*/1e12, /*max_sets=*/123);
  EXPECT_TRUE(batch.hit_set_cap);
  EXPECT_EQ(batch.sets_added, 123u);
  EXPECT_EQ(rr.num_sets(), 123u);
}

TEST(SamplingEngineTest, MemoryBudgetStopsSampling) {
  Graph g = MakeTwoCommunities(0.35f);
  RRCollection rr(g.num_nodes());
  // Fits the first fixed-size batch but nowhere near the full request, so
  // sampling stops at a batch boundary with the flag set.
  rr.set_memory_budget(64 * 1024);
  SamplingEngine engine(g, IcSampling(5, 2));
  const SampleBatch batch = engine.SampleInto(&rr, 1 << 20);
  EXPECT_TRUE(batch.hit_memory_budget);
  EXPECT_LT(batch.sets_added, 1u << 20);
  EXPECT_GT(rr.num_sets(), 0u);
}

TEST(SamplingEngineTest, MemoryBudgetStopIsThreadCountInvariant) {
  // The budget check is content-based (DataBytes) and runs at fixed batch
  // boundaries, so the stop point must not depend on thread count even
  // though the sequential and parallel paths allocate differently.
  Graph g = MakeTwoCommunities(0.35f);
  RRCollection reference(g.num_nodes());
  reference.set_memory_budget(200 * 1024);
  SamplingEngine sequential(g, IcSampling(21, 1));
  const SampleBatch ref_batch = sequential.SampleInto(&reference, 1 << 20);
  ASSERT_TRUE(ref_batch.hit_memory_budget);

  for (unsigned threads : {2u, 8u}) {
    RRCollection rr(g.num_nodes());
    rr.set_memory_budget(200 * 1024);
    SamplingEngine engine(g, IcSampling(21, threads));
    const SampleBatch batch = engine.SampleInto(&rr, 1 << 20);
    EXPECT_TRUE(batch.hit_memory_budget) << "threads=" << threads;
    EXPECT_EQ(ref_batch.sets_added, batch.sets_added)
        << "threads=" << threads;
    ExpectSameCollections(reference, rr);
  }
}

TEST(SamplingEngineTest, PerSetEdgesMatchAggregateAcrossThreads) {
  // The per-set edge counts (consumed by the serving layer's shared cache
  // for replay-exact accounting) must sum to the aggregate and be
  // identical however many workers chunked the fill.
  Graph g = MakeTwoCommunities(0.35f);
  std::vector<uint64_t> reference_edges;
  RRCollection reference(g.num_nodes());
  SamplingEngine sequential(g, IcSampling(42, 1));
  const SampleBatch ref_batch =
      sequential.SampleInto(&reference, 5000, &reference_edges);
  ASSERT_EQ(reference_edges.size(), 5000u);
  uint64_t sum = 0;
  for (uint64_t e : reference_edges) sum += e;
  EXPECT_EQ(sum, ref_batch.edges_examined);

  for (unsigned threads : {2u, 8u}) {
    std::vector<uint64_t> edges;
    RRCollection rr(g.num_nodes());
    SamplingEngine engine(g, IcSampling(42, threads));
    engine.SampleInto(&rr, 5000, &edges);
    EXPECT_EQ(reference_edges, edges) << "threads=" << threads;
  }
}

TEST(SamplingEngineTest, ChunkedFillHandlesAwkwardCounts) {
  // Counts around the chunk-claim granularity (1, chunk-1, chunk,
  // chunk+1, several chunks + remainder) must all merge back in index
  // order. Guards the dynamic work-splitting bookkeeping.
  Graph g = MakeTwoCommunities(0.35f);
  for (uint64_t count : {1u, 63u, 64u, 65u, 1000u}) {
    RRCollection reference(g.num_nodes());
    SamplingEngine sequential(g, IcSampling(17, 1));
    sequential.SampleInto(&reference, count);

    RRCollection rr(g.num_nodes());
    SamplingEngine engine(g, IcSampling(17, 8));
    engine.SampleInto(&rr, count);
    ExpectSameCollections(reference, rr);
  }
}

TEST(RRCollectionTest, AppendRangeMatchesPerSetAdd) {
  Graph g = MakeTwoCommunities(0.35f);
  RRCollection source(g.num_nodes());
  SamplingEngine engine(g, IcSampling(23, 1));
  engine.SampleInto(&source, 100);

  const auto add_each = [&](RRCollection* rr, size_t first, size_t end) {
    for (size_t id = first; id < end; ++id) {
      rr->Add(source.Set(static_cast<RRSetId>(id)),
              source.Width(static_cast<RRSetId>(id)));
    }
  };

  RRCollection ranged(g.num_nodes());
  ranged.AppendRange(source, 10, 40);
  RRCollection manual(g.num_nodes());
  add_each(&manual, 10, 50);
  ExpectSameCollections(manual, ranged);

  // The full range onto a non-empty target: every appended offset is
  // rebased past the members already stored.
  ranged.AppendRange(source, 0, source.num_sets());
  add_each(&manual, 0, source.num_sets());
  ExpectSameCollections(manual, ranged);

  // Clamped past the end and empty ranges are no-ops past the data.
  RRCollection clamped(g.num_nodes());
  clamped.AppendRange(source, 95, 100);
  EXPECT_EQ(clamped.num_sets(), 5u);
  clamped.AppendRange(source, 500, 10);
  EXPECT_EQ(clamped.num_sets(), 5u);
}

// Storing R must cost time linear in its size: every reallocation at
// least doubles an array, so the bytes growth has copied stay under twice
// the final set arrays, however finely the appends are batched.

TEST(RRCollectionTest, SampleIntoGrowthCopiesStayLinear) {
  // Tiny sets (p = 0.05) keep 65 engine batches of 8192 sets cheap; the
  // 1-thread run appends per set (AppendDirect), the 4-thread run per
  // 64-set chunk of the shard merge.
  Graph g = MakeTwoCommunities(0.05f);
  const uint64_t count = 64 * 8192 + 100;
  for (unsigned threads : {1u, 4u}) {
    RRCollection rr(g.num_nodes());
    SamplingEngine engine(g, IcSampling(31, threads));
    engine.SampleInto(&rr, count);
    ASSERT_EQ(rr.num_sets(), count);
    EXPECT_GT(rr.realloc_bytes_copied(), 0u) << "threads=" << threads;
    EXPECT_LE(rr.realloc_bytes_copied(), 2 * rr.DataBytes())
        << "threads=" << threads;
  }
}

TEST(RRCollectionTest, SmallAppendRangeGrowthCopiesStayLinear) {
  // The serving read pattern: a request's collection assembled from many
  // short ranges (256 appends of 16 sets).
  Graph g = MakeTwoCommunities(0.35f);
  RRCollection source(g.num_nodes());
  SamplingEngine engine(g, IcSampling(37, 1));
  engine.SampleInto(&source, 4096);

  RRCollection rr(g.num_nodes());
  for (size_t first = 0; first < source.num_sets(); first += 16) {
    rr.AppendRange(source, first, 16);
  }
  ExpectSameCollections(source, rr);
  EXPECT_GT(rr.realloc_bytes_copied(), 0u);
  EXPECT_LE(rr.realloc_bytes_copied(), 2 * rr.DataBytes());
}

// ---------------------------------------------------- SampleInto windows --

// A directed scale-free graph with random LT weights, the imm-lt shape:
// its RR sets cost a few traversal units each, so after the engine's
// first one-batch window SampleInto fills up to eight 8192-set batches
// per fork-join, and merges and budget-checks them one batch at a time.
Graph MakeCheapLtGraph() {
  GraphBuilder builder;
  GenDirectedScaleFree(3000, 4.0, 5, &builder);
  AssignRandomLT(&builder, 6);
  Graph g;
  const Status s = builder.Build(&g);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return g;
}

SamplingConfig LtSampling(uint64_t seed, unsigned num_threads) {
  SamplingConfig config;
  config.model = DiffusionModel::kLT;
  config.seed = seed;
  config.num_threads = num_threads;
  return config;
}

void ExpectSameBatch(const SampleBatch& a, const SampleBatch& b) {
  EXPECT_EQ(a.sets_added, b.sets_added);
  EXPECT_EQ(a.edges_examined, b.edges_examined);
  EXPECT_EQ(a.traversal_cost, b.traversal_cost);
  EXPECT_EQ(a.hit_set_cap, b.hit_set_cap);
  EXPECT_EQ(a.hit_memory_budget, b.hit_memory_budget);
  EXPECT_EQ(a.sets_reused, b.sets_reused);
}

constexpr uint64_t kBatch = 8192;  // SampleInto's budget-check granularity
// realloc_bytes_copied() of GrowthCopiesEqualOneBatchPerFill's collection.
constexpr uint64_t kGrowthCopiesOneThread = 5898260;
constexpr uint64_t kGrowthCopiesPooled = 5547392;

TEST(SampleIntoWindowTest, WindowedFillsAreThreadCountInvariant) {
  Graph g = MakeCheapLtGraph();
  // Two calls on one engine: the window state carries across them, and
  // each call ends on a part batch.
  const uint64_t counts[2] = {20 * kBatch + 777, 11 * kBatch + 5};
  RRCollection reference(g.num_nodes());
  std::vector<uint64_t> reference_edges;
  SamplingEngine sequential(g, LtSampling(41, 1));
  SampleBatch reference_batches[2];
  for (int call = 0; call < 2; ++call) {
    reference_batches[call] =
        sequential.SampleInto(&reference, counts[call], &reference_edges);
    ASSERT_EQ(reference_batches[call].sets_added, counts[call]);
  }
  // Cheap sets: under 64 units a set, so a batch costs under 2^19 units
  // and windows widen.
  ASSERT_LT(reference_batches[0].traversal_cost, 64 * counts[0]);

  for (unsigned threads : {2u, 3u, 8u}) {
    RRCollection rr(g.num_nodes());
    std::vector<uint64_t> edges;
    SamplingEngine engine(g, LtSampling(41, threads));
    for (int call = 0; call < 2; ++call) {
      const SampleBatch batch = engine.SampleInto(&rr, counts[call], &edges);
      ExpectSameBatch(reference_batches[call], batch);
    }
    EXPECT_EQ(engine.sets_sampled(), sequential.sets_sampled())
        << "threads=" << threads;
    EXPECT_EQ(reference_edges, edges) << "threads=" << threads;
    ExpectSameCollections(reference, rr);
  }
}

TEST(SampleIntoWindowTest, GrowthCopiesEqualOneBatchPerFill) {
  // The merge still reserves and appends one batch at a time, so storing
  // R copies exactly the bytes a one-batch-per-fill loop copies: one
  // SampleInto of 20 batches against 20 calls of one batch each (a call
  // never fills past its own count). The pinned figures are that loop's,
  // from before fills were windowed: the 1-thread path appends per set,
  // the others per 64-set chunk.
  Graph g = MakeCheapLtGraph();
  const uint64_t count = 20 * kBatch + 777;
  for (unsigned threads : {1u, 2u, 3u, 8u}) {
    RRCollection windowed(g.num_nodes());
    SamplingEngine engine(g, LtSampling(43, threads));
    engine.SampleInto(&windowed, count);

    RRCollection batched(g.num_nodes());
    SamplingEngine one_batch(g, LtSampling(43, threads));
    for (uint64_t done = 0; done < count; done += kBatch) {
      one_batch.SampleInto(&batched, std::min(kBatch, count - done));
    }
    ExpectSameCollections(batched, windowed);
    EXPECT_EQ(windowed.realloc_bytes_copied(), batched.realloc_bytes_copied())
        << "threads=" << threads;
    EXPECT_EQ(windowed.realloc_bytes_copied(),
              threads == 1 ? kGrowthCopiesOneThread : kGrowthCopiesPooled)
        << "threads=" << threads;
  }
}

TEST(SampleIntoWindowTest, BudgetStopInsideAWindowMatchesOneThread) {
  // The budget fits 4.5 batches of sets, so the check after batch 5
  // stops the fill. With threads the first window is batch 1 and the
  // second batches 2-9: the stop lands inside it, the window's remaining
  // sets are dropped, and the stream cursor stays at the stop.
  Graph g = MakeCheapLtGraph();
  RRCollection full(g.num_nodes());
  SamplingEngine unbudgeted(g, LtSampling(47, 1));
  unbudgeted.SampleInto(&full, 20 * kBatch);
  RRCollection prefix(g.num_nodes());
  prefix.AppendRange(full, 0, 4 * kBatch + kBatch / 2);
  const size_t budget = prefix.DataBytes();

  RRCollection reference(g.num_nodes());
  reference.set_memory_budget(budget);
  std::vector<uint64_t> reference_edges;
  SamplingEngine sequential(g, LtSampling(47, 1));
  const SampleBatch reference_stop =
      sequential.SampleInto(&reference, 20 * kBatch, &reference_edges);
  ASSERT_TRUE(reference_stop.hit_memory_budget);
  ASSERT_EQ(reference_stop.sets_added, 5 * kBatch);
  ASSERT_EQ(sequential.sets_sampled(), 5 * kBatch);
  // Lifting the budget, a follow-up call continues the stream at the stop.
  reference.set_memory_budget(0);
  const SampleBatch reference_follow =
      sequential.SampleInto(&reference, 3 * kBatch + 11, &reference_edges);

  for (unsigned threads : {2u, 3u, 8u}) {
    RRCollection rr(g.num_nodes());
    rr.set_memory_budget(budget);
    std::vector<uint64_t> edges;
    SamplingEngine engine(g, LtSampling(47, threads));
    ExpectSameBatch(reference_stop,
                    engine.SampleInto(&rr, 20 * kBatch, &edges));
    EXPECT_EQ(engine.sets_sampled(), 5 * kBatch) << "threads=" << threads;
    rr.set_memory_budget(0);
    ExpectSameBatch(reference_follow,
                    engine.SampleInto(&rr, 3 * kBatch + 11, &edges));
    EXPECT_EQ(engine.sets_sampled(), sequential.sets_sampled())
        << "threads=" << threads;
    EXPECT_EQ(reference_edges, edges) << "threads=" << threads;
    ExpectSameCollections(reference, rr);
  }
}

// --------------------------------------- solver thread-count determinism --

TEST(SolverDeterminismTest, TimAndTimPlusInvariantAcrossThreads) {
  Graph g = MakeTwoCommunities(0.35f);
  for (bool refine : {false, true}) {
    TimOptions options;
    options.k = 3;
    options.epsilon = 0.3;
    options.seed = 99;
    options.use_refinement = refine;

    TimSolver solver(g);
    options.num_threads = 1;
    TimResult reference;
    ASSERT_TRUE(solver.Run(options, &reference).ok());

    for (unsigned threads : {2u, 8u}) {
      options.num_threads = threads;
      TimResult result;
      ASSERT_TRUE(solver.Run(options, &result).ok());
      EXPECT_EQ(reference.seeds, result.seeds)
          << (refine ? "tim+" : "tim") << " threads=" << threads;
      EXPECT_DOUBLE_EQ(reference.stats.kpt_star, result.stats.kpt_star);
      EXPECT_DOUBLE_EQ(reference.stats.kpt_plus, result.stats.kpt_plus);
      EXPECT_EQ(reference.stats.theta, result.stats.theta);
      EXPECT_DOUBLE_EQ(reference.stats.estimated_spread,
                       result.stats.estimated_spread);
      EXPECT_EQ(reference.stats.edges_examined, result.stats.edges_examined);
    }
  }
}

TEST(SolverDeterminismTest, ImmInvariantAcrossThreads) {
  Graph g = MakeTwoCommunities(0.35f);
  ImmOptions options;
  options.k = 3;
  options.epsilon = 0.3;
  options.seed = 77;

  options.num_threads = 1;
  ImmResult reference;
  ASSERT_TRUE(RunImm(g, options, &reference).ok());

  for (unsigned threads : {2u, 8u}) {
    options.num_threads = threads;
    ImmResult result;
    ASSERT_TRUE(RunImm(g, options, &result).ok());
    EXPECT_EQ(reference.seeds, result.seeds) << "threads=" << threads;
    EXPECT_EQ(reference.stats.theta, result.stats.theta);
    EXPECT_DOUBLE_EQ(reference.stats.lb, result.stats.lb);
    EXPECT_EQ(reference.stats.rr_sets_sampling,
              result.stats.rr_sets_sampling);
    EXPECT_DOUBLE_EQ(reference.stats.estimated_spread,
                     result.stats.estimated_spread);
  }
}

TEST(SolverDeterminismTest, ImmLtInvariantAcrossThreads) {
  // LT IMM on cheap sets: its fills run in wide windows and, with
  // threads, its index builds run on the engine's pool. θ is about ten
  // batches, so the final fill holds windows of several batches.
  Graph g = MakeCheapLtGraph();
  ImmOptions options;
  options.k = 5;
  options.epsilon = 0.2;
  options.model = DiffusionModel::kLT;
  options.seed = 53;

  options.num_threads = 1;
  ImmResult reference;
  ASSERT_TRUE(RunImm(g, options, &reference).ok());
  EXPECT_GT(reference.stats.theta, 8 * kBatch);

  for (unsigned threads : {2u, 3u, 8u}) {
    options.num_threads = threads;
    ImmResult result;
    ASSERT_TRUE(RunImm(g, options, &result).ok());
    EXPECT_EQ(reference.seeds, result.seeds) << "threads=" << threads;
    EXPECT_EQ(reference.stats.theta, result.stats.theta);
    EXPECT_EQ(reference.stats.lb, result.stats.lb);
    EXPECT_EQ(reference.stats.rr_sets_sampling,
              result.stats.rr_sets_sampling);
    EXPECT_EQ(reference.stats.estimated_spread,
              result.stats.estimated_spread);
  }
}

TEST(SolverDeterminismTest, RisInvariantAcrossThreads) {
  Graph g = MakeTwoCommunities(0.35f);
  RisOptions options;
  options.epsilon = 0.3;
  options.tau_scale = 0.05;
  options.seed = 55;

  options.num_threads = 1;
  std::vector<NodeId> reference;
  RisStats ref_stats;
  ASSERT_TRUE(RunRis(g, options, 3, &reference, &ref_stats).ok());

  for (unsigned threads : {2u, 8u}) {
    options.num_threads = threads;
    std::vector<NodeId> seeds;
    RisStats stats;
    ASSERT_TRUE(RunRis(g, options, 3, &seeds, &stats).ok());
    EXPECT_EQ(reference, seeds) << "threads=" << threads;
    EXPECT_EQ(ref_stats.rr_sets_generated, stats.rr_sets_generated);
    EXPECT_EQ(ref_stats.cost_examined, stats.cost_examined);
    EXPECT_DOUBLE_EQ(ref_stats.covered_fraction, stats.covered_fraction);
  }
}

TEST(SolverDeterminismTest, SkipModeSeedQualityMatchesPerArc) {
  // Acceptance check for geometric skip sampling: on a weighted-cascade
  // scale-free graph the covered fraction (the solver's own quality
  // estimate of its seeds, Corollary 1) must be statistically
  // indistinguishable between modes, for both TIM+ and IMM. Modes draw
  // different RNG streams, so seeds may differ — quality must not.
  Graph g = testing::MakeWcPowerLaw(400, 6, 123);
  const double n = static_cast<double>(g.num_nodes());

  double tim_spread[2] = {0, 0};
  double imm_spread[2] = {0, 0};
  const SamplerMode modes[2] = {SamplerMode::kPerArc, SamplerMode::kSkip};
  for (int m = 0; m < 2; ++m) {
    TimOptions tim;
    tim.k = 10;
    tim.epsilon = 0.3;
    tim.seed = 2024;
    tim.sampler_mode = modes[m];
    TimResult tim_result;
    ASSERT_TRUE(TimSolver(g).Run(tim, &tim_result).ok());
    tim_spread[m] = tim_result.stats.estimated_spread;

    ImmOptions imm;
    imm.k = 10;
    imm.epsilon = 0.3;
    imm.seed = 2024;
    imm.sampler_mode = modes[m];
    ImmResult imm_result;
    ASSERT_TRUE(RunImm(g, imm, &imm_result).ok());
    imm_spread[m] = imm_result.stats.estimated_spread;
  }
  // Both modes find near-equivalent seed sets; 5% of n absorbs the MC
  // spread-estimation noise at these θ values with margin.
  EXPECT_NEAR(tim_spread[0], tim_spread[1], 0.05 * n)
      << "per-arc=" << tim_spread[0] << " skip=" << tim_spread[1];
  EXPECT_NEAR(imm_spread[0], imm_spread[1], 0.05 * n)
      << "per-arc=" << imm_spread[0] << " skip=" << imm_spread[1];
}

// ---------------------------------------------------------- registry ----

TEST(SolverRegistryTest, UnknownNameIsNotFound) {
  Graph g = MakeTwoCommunities(0.3f);
  std::unique_ptr<InfluenceSolver> solver;
  Status s = SolverRegistry::Global().Create("no-such-algo", g, &solver);
  EXPECT_TRUE(s.IsNotFound());
}

TEST(SolverRegistryTest, DuplicateRegistrationRejected) {
  SolverRegistry registry;
  auto factory = [](const Graph& graph) {
    std::unique_ptr<InfluenceSolver> solver;
    Status s = SolverRegistry::Global().Create("degree", graph, &solver);
    EXPECT_TRUE(s.ok());
    return solver;
  };
  EXPECT_TRUE(registry.Register("x", factory).ok());
  EXPECT_TRUE(registry.Register("x", factory).IsInvalidArgument());
}

TEST(SolverRegistryTest, BuiltinsArePresent) {
  const std::vector<std::string> names = SolverRegistry::Global().Names();
  for (const char* expected :
       {"tim", "tim+", "imm", "ris", "greedy", "celf", "celf++", "irie",
        "simpath", "degree", "single-discount", "degree-discount",
        "pagerank", "kcore", "random"}) {
    EXPECT_TRUE(SolverRegistry::Global().Contains(expected)) << expected;
  }
  EXPECT_GE(names.size(), 15u);
}

TEST(SolverRegistryTest, EveryRegisteredSolverRoundTrips) {
  // Each registered algorithm must run on a small graph through the
  // uniform interface and return k distinct in-range seeds.
  Graph g = MakeTwoCommunities(0.3f);
  SolverOptions options;
  options.k = 2;
  options.epsilon = 0.4;
  options.seed = 13;
  options.num_threads = 2;
  options.mc_samples = 100;      // keep the greedy family fast
  options.ris_tau_scale = 0.05;  // keep RIS small
  options.ris_max_sets = 20000;

  for (const std::string& name : SolverRegistry::Global().Names()) {
    std::unique_ptr<InfluenceSolver> solver;
    ASSERT_TRUE(SolverRegistry::Global().Create(name, g, &solver).ok())
        << name;
    EXPECT_EQ(solver->name(), name);

    SolverResult result;
    Status s = solver->Run(options, &result);
    ASSERT_TRUE(s.ok()) << name << ": " << s.ToString();
    EXPECT_EQ(result.seeds.size(), 2u) << name;
    std::set<NodeId> distinct(result.seeds.begin(), result.seeds.end());
    EXPECT_EQ(distinct.size(), 2u) << name;
    for (NodeId seed : result.seeds) EXPECT_LT(seed, g.num_nodes()) << name;
    EXPECT_GE(result.seconds_total, 0.0) << name;
  }
}

TEST(SolverRegistryTest, RegistryRunMatchesNativeRun) {
  // The wrapper must be a faithful adapter: same options ⇒ same seeds as
  // calling the native API directly.
  Graph g = MakeTwoCommunities(0.35f);
  SolverOptions options;
  options.k = 2;
  options.epsilon = 0.3;
  options.seed = 21;
  options.num_threads = 2;

  std::unique_ptr<InfluenceSolver> solver;
  ASSERT_TRUE(SolverRegistry::Global().Create("tim+", g, &solver).ok());
  SolverResult via_registry;
  ASSERT_TRUE(solver->Run(options, &via_registry).ok());

  TimOptions tim;
  tim.k = 2;
  tim.epsilon = 0.3;
  tim.seed = 21;
  tim.num_threads = 2;
  TimResult native;
  ASSERT_TRUE(TimSolver(g).Run(tim, &native).ok());

  EXPECT_EQ(native.seeds, via_registry.seeds);
  EXPECT_DOUBLE_EQ(native.stats.estimated_spread,
                   via_registry.estimated_spread);
  EXPECT_EQ(static_cast<double>(native.stats.theta),
            via_registry.Metric("theta"));
}

}  // namespace
}  // namespace timpp
