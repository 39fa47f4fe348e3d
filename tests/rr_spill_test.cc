// Tests of the out-of-core RR spill tier (rrset/rr_spill.h) and its
// integration everywhere RR prefixes live:
//   - RRSpillStore unit behaviour: chunk round-trips, append-only index
//     discipline, coverage gaps, visit/read semantics, the cached chunk
//     of sequential reads;
//   - a mutated chunk file on disk, through all three read paths: each
//     fails cleanly at the chunk or visits exactly its sets;
//   - the solver sweep: TIM/TIM+/IMM/RIS at budgets {tiny, mid, ∞} must
//     produce bit-identical seeds and stats to the unbudgeted run, with
//     regeneration_passes == 0 (disk replay, not resampling) whenever the
//     spill tier is on and the budget actually trips;
//   - the metric contract: every RR solver's metric names and order,
//     plain, budgeted and spilled;
//   - serving: a budget-evicted shared stream spills its prefix and the
//     re-created stream preloads it from disk instead of resampling.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "engine/sampling_engine.h"
#include "engine/solver_registry.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_spill.h"
#include "serving/graph_context.h"
#include "serving/serving_engine.h"
#include "tests/test_util.h"

namespace timpp {
namespace {

using testing::MakeWcPowerLaw;
using testing::TempSpillDir;

RRSpillOptions SpillOpts(const TempSpillDir& dir,
                         uint64_t sets_per_chunk = 4096) {
  RRSpillOptions options;
  options.dir = dir.path();
  options.sets_per_chunk = sets_per_chunk;
  return options;
}

/// `count` deterministic RR sets (plus per-set edge counts) of the given
/// stream, starting at the engine's cursor.
void Sample(const Graph& graph, uint64_t seed, uint64_t count,
            RRCollection* rr, std::vector<uint64_t>* edges) {
  SamplingEngine engine(graph, testing::IcSampling(seed));
  engine.SampleInto(rr, count, edges);
  ASSERT_EQ(rr->num_sets(), count);
}

void ExpectEqualSets(const RRCollection& a, const RRCollection& b,
                     size_t a_first, size_t b_first, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    const auto sa = a.Set(static_cast<RRSetId>(a_first + i));
    const auto sb = b.Set(static_cast<RRSetId>(b_first + i));
    ASSERT_EQ(sa.size(), sb.size()) << "set " << i;
    EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin())) << "set " << i;
    EXPECT_EQ(a.Width(static_cast<RRSetId>(a_first + i)),
              b.Width(static_cast<RRSetId>(b_first + i)))
        << "set " << i;
  }
}

/// Full VisitRange pass asserting every delivered set is bit-identical to
/// the in-memory original (the spill tier's core contract).
void ExpectReplayMatches(RRSpillStore* store, const RRCollection& rr,
                         uint64_t count) {
  uint64_t stopped = 0, visited = 0;
  const Status status = store->VisitRange(
      0, count, nullptr,
      [&](uint64_t index, std::span<const NodeId> set) {
        const auto expect = rr.Set(static_cast<RRSetId>(index));
        ASSERT_EQ(expect.size(), set.size()) << "set " << index;
        EXPECT_TRUE(std::equal(expect.begin(), expect.end(), set.begin()))
            << "set " << index;
      },
      &stopped, &visited);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(stopped, count);
  EXPECT_EQ(visited, count);
}

// ---- RRSpillStore unit behaviour --------------------------------------

TEST(RRSpillStoreTest, SpillAndReadRangeRoundTrip) {
  const Graph g = MakeWcPowerLaw(120, 3, 7);
  RRCollection rr(g.num_nodes());
  std::vector<uint64_t> edges;
  Sample(g, 11, 100, &rr, &edges);

  TempSpillDir dir;
  RRSpillStore store(g.num_nodes(), SpillOpts(dir, 32));
  ASSERT_TRUE(store.SpillRange(rr, edges, 0, 100, 0).ok());
  EXPECT_TRUE(store.Covers(0, 100));
  EXPECT_EQ(store.end_index(), 100u);
  EXPECT_EQ(store.stats().sets_written, 100u);
  EXPECT_GE(store.stats().chunks_written, 4u);  // 100 sets / 32 per chunk
  EXPECT_GT(store.stats().bytes_written, 0u);

  RRCollection loaded(g.num_nodes());
  std::vector<uint64_t> loaded_edges;
  ASSERT_TRUE(store.ReadRange(0, 100, &loaded, &loaded_edges).ok());
  ASSERT_EQ(loaded.num_sets(), 100u);
  EXPECT_EQ(loaded_edges, edges);
  ExpectEqualSets(rr, loaded, 0, 0, 100);
}

TEST(RRSpillStoreTest, AppendOnlyIndexDiscipline) {
  const Graph g = MakeWcPowerLaw(60, 3, 3);
  RRCollection rr(g.num_nodes());
  std::vector<uint64_t> edges;
  Sample(g, 5, 40, &rr, &edges);

  TempSpillDir dir;
  RRSpillStore store(g.num_nodes(), SpillOpts(dir));
  ASSERT_TRUE(store.SpillRange(rr, edges, 0, 20, 50).ok());
  EXPECT_EQ(store.end_index(), 70u);
  // Appending below the current end violates the index discipline.
  EXPECT_FALSE(store.SpillRange(rr, edges, 20, 10, 30).ok());
  EXPECT_EQ(store.end_index(), 70u) << "failed append must not extend";
  // Appending past the end — with a gap — is fine.
  ASSERT_TRUE(store.SpillRange(rr, edges, 20, 10, 100).ok());
  EXPECT_EQ(store.end_index(), 110u);
}

TEST(RRSpillStoreTest, CoverageGapsAreReported) {
  const Graph g = MakeWcPowerLaw(60, 3, 13);
  RRCollection rr(g.num_nodes());
  std::vector<uint64_t> edges;
  Sample(g, 5, 80, &rr, &edges);

  TempSpillDir dir;
  RRSpillStore store(g.num_nodes(), SpillOpts(dir, 16));
  ASSERT_TRUE(store.SpillRange(rr, edges, 0, 50, 0).ok());     // [0, 50)
  ASSERT_TRUE(store.SpillRange(rr, edges, 50, 30, 100).ok());  // [100, 130)

  EXPECT_TRUE(store.Covers(0, 50));
  EXPECT_TRUE(store.Covers(100, 30));
  EXPECT_FALSE(store.Covers(0, 60));
  EXPECT_FALSE(store.Covers(90, 20));
  EXPECT_EQ(store.CoveredEnd(0, 200), 50u);
  EXPECT_EQ(store.CoveredEnd(100, 30), 130u);
  EXPECT_EQ(store.CoveredEnd(60, 100), 60u) << "nothing stored at 60";

  // ReadRange over a gap fails named and appends nothing.
  RRCollection out(g.num_nodes());
  std::vector<uint64_t> out_edges;
  const Status status = store.ReadRange(40, 20, &out, &out_edges);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(out.num_sets(), 0u) << "failed read must not half-append";
  EXPECT_TRUE(out_edges.empty());
}

TEST(RRSpillStoreTest, VisitRangeStopsAtGapAndHonorsFilter) {
  const Graph g = MakeWcPowerLaw(60, 3, 19);
  RRCollection rr(g.num_nodes());
  std::vector<uint64_t> edges;
  Sample(g, 5, 60, &rr, &edges);

  TempSpillDir dir;
  RRSpillStore store(g.num_nodes(), SpillOpts(dir, 16));
  ASSERT_TRUE(store.SpillRange(rr, edges, 0, 40, 0).ok());

  // Covered prefix with a filter dropping every odd index.
  uint64_t visited = 0, delivered = 0, stopped = 0;
  Status status = store.VisitRange(
      0, 60, [](uint64_t index) { return index % 2 == 0; },
      [&](uint64_t index, std::span<const NodeId> set) {
        EXPECT_EQ(index % 2, 0u);
        const auto expect = rr.Set(static_cast<RRSetId>(index));
        ASSERT_EQ(expect.size(), set.size());
        EXPECT_TRUE(std::equal(expect.begin(), expect.end(), set.begin()));
        ++delivered;
      },
      &stopped, &visited);
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(stopped, 40u) << "stops at the first uncovered index";
  EXPECT_EQ(delivered, 20u);
  EXPECT_EQ(visited, 20u);
}

TEST(RRSpillStoreTest, ChunksOverlappingAndVisitChunk) {
  const Graph g = MakeWcPowerLaw(60, 3, 29);
  RRCollection rr(g.num_nodes());
  std::vector<uint64_t> edges;
  Sample(g, 5, 80, &rr, &edges);

  TempSpillDir dir;
  RRSpillStore store(g.num_nodes(), SpillOpts(dir, 16));
  ASSERT_TRUE(store.SpillRange(rr, edges, 0, 40, 0).ok());     // [0, 40)
  ASSERT_TRUE(store.SpillRange(rr, edges, 40, 20, 60).ok());  // [60, 80)

  // Unclipped chunks in index order; the gap [40, 60) lists nothing.
  const auto chunks = store.ChunksOverlapping(20, 45);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].first, 16u);
  EXPECT_EQ(chunks[0].count, 16u);
  EXPECT_EQ(chunks[1].first, 32u);
  EXPECT_EQ(chunks[1].count, 8u);
  EXPECT_EQ(chunks[2].first, 60u);
  EXPECT_TRUE(store.ChunksOverlapping(40, 20).empty());

  // A sub-range of one chunk, filtered: odd indices only.
  RRSpillStore::ChunkScratch scratch;
  uint64_t visited = 0;
  std::vector<uint64_t> seen;
  const Status status = store.VisitChunk(
      19, 10, [](uint64_t index) { return index % 2 == 1; },
      [&](uint64_t index, std::span<const NodeId> set) {
        const auto expect = rr.Set(static_cast<RRSetId>(index));
        ASSERT_EQ(expect.size(), set.size());
        EXPECT_TRUE(std::equal(expect.begin(), expect.end(), set.begin()));
        seen.push_back(index);
      },
      &scratch, &visited);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(seen, (std::vector<uint64_t>{19, 21, 23, 25, 27}));
  EXPECT_EQ(visited, 5u);
  RRSpillStats stats = store.stats();
  EXPECT_EQ(stats.chunk_loads, 1u);
  EXPECT_EQ(stats.sets_read, 5u);
  EXPECT_EQ(stats.chunk_hits, 0u) << "VisitChunk bypasses the cached chunk";
  EXPECT_EQ(stats.prefetch_issued, 0u);

  // Ranges that straddle chunks or fall in a gap are refused untouched.
  const auto never = [](uint64_t, std::span<const NodeId>) {
    ADD_FAILURE() << "nothing may be visited";
  };
  EXPECT_TRUE(store.VisitChunk(10, 10, nullptr, never, &scratch, &visited)
                  .IsNotFound());
  EXPECT_TRUE(store.VisitChunk(45, 2, nullptr, never, &scratch, &visited)
                  .IsNotFound());
  EXPECT_EQ(visited, 0u);
  stats = store.stats();
  EXPECT_EQ(stats.chunk_loads, 1u);
  EXPECT_EQ(stats.sets_read, 5u);
}

TEST(RRSpillStoreTest, PinnedChunkLruCountsHitsAndLoads) {
  const Graph g = MakeWcPowerLaw(60, 3, 23);
  RRCollection rr(g.num_nodes());
  std::vector<uint64_t> edges;
  Sample(g, 5, 64, &rr, &edges);

  TempSpillDir dir;
  RRSpillOptions options = SpillOpts(dir, 16);  // 4 chunks
  RRSpillStore store(g.num_nodes(), options);
  ASSERT_TRUE(store.SpillRange(rr, edges, 0, 64, 0).ok());

  uint64_t stopped = 0;
  // First full pass: every chunk is a load.
  ASSERT_TRUE(
      store.VisitRange(0, 64, nullptr,
                       [](uint64_t, std::span<const NodeId>) {}, &stopped)
          .ok());
  const uint64_t loads_after_first = store.stats().chunk_loads;
  EXPECT_GE(loads_after_first, 4u);
  // Re-visiting only the last pinned window hits the LRU.
  ASSERT_TRUE(
      store.VisitRange(48, 16, nullptr,
                       [](uint64_t, std::span<const NodeId>) {}, &stopped)
          .ok());
  EXPECT_EQ(store.stats().chunk_loads, loads_after_first);
  EXPECT_GT(store.stats().chunk_hits, 0u);
  EXPECT_EQ(store.stats().sets_read, 64u + 16u);
}

TEST(RRSpillStoreTest, SequentialReadsMatchSampledSets) {
  const Graph g = MakeWcPowerLaw(80, 3, 47);
  RRCollection rr(g.num_nodes());
  std::vector<uint64_t> edges;
  Sample(g, 5, 64, &rr, &edges);

  TempSpillDir dir;
  RRSpillStore store(g.num_nodes(), SpillOpts(dir, 8));  // 8 chunks
  ASSERT_TRUE(store.SpillRange(rr, edges, 0, 64, 0).ok());

  ExpectReplayMatches(&store, rr, 64);
  RRCollection loaded(g.num_nodes());
  std::vector<uint64_t> loaded_edges;
  ASSERT_TRUE(store.ReadRange(0, 64, &loaded, &loaded_edges).ok());
  EXPECT_EQ(loaded_edges, edges);
  ExpectEqualSets(rr, loaded, 0, 0, 64);
}

TEST(RRSpillStoreTest, EmptyEdgeSpanRecordsZeros) {
  const Graph g = MakeWcPowerLaw(60, 3, 29);
  RRCollection rr(g.num_nodes());
  std::vector<uint64_t> edges;
  Sample(g, 5, 10, &rr, &edges);

  TempSpillDir dir;
  RRSpillStore store(g.num_nodes(), SpillOpts(dir));
  ASSERT_TRUE(store.SpillRange(rr, {}, 0, 10, 0).ok());

  RRCollection out(g.num_nodes());
  std::vector<uint64_t> out_edges;
  ASSERT_TRUE(store.ReadRange(0, 10, &out, &out_edges).ok());
  ExpectEqualSets(rr, out, 0, 0, 10);
  EXPECT_EQ(out_edges, std::vector<uint64_t>(10, 0));
}

// ---- a mutated chunk file through every read path ---------------------

TEST(RRSpillStoreTest, MutatedChunkFileFailsCleanlyOnEveryReadPath) {
  const Graph g = MakeWcPowerLaw(80, 3, 61);
  const NodeId n = g.num_nodes();
  RRCollection rr(n);
  std::vector<uint64_t> edges;
  Sample(g, 5, 48, &rr, &edges);

  TempSpillDir dir;
  RRSpillStore store(n, SpillOpts(dir, 16));  // chunks at 0, 16 and 32
  ASSERT_TRUE(store.SpillRange(rr, edges, 0, 48, 0).ok());
  const std::string path = store.directory() + "/chunk-16-16.rrsh";
  std::string good;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << path;
    good.assign(std::istreambuf_iterator<char>(in), {});
  }

  constexpr uint64_t kFirst = 16, kCount = 16;
  std::mt19937_64 rng(0xc4a2);
  int clean = 0;
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE(round);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << testing::MutateBytes(good, &rng);
    }
    // Every pass starts in chunk 0, so the cached chunk never answers
    // for the mutated one: each path reads the mutant from disk.
    uint64_t in_chunk = 0, stopped = 0;
    const auto visit = [&](uint64_t index, std::span<const NodeId> set) {
      if (index < kFirst || index >= kFirst + kCount) return;
      ++in_chunk;
      for (NodeId v : set) ASSERT_LT(v, n);
    };
    const Status visited = store.VisitRange(0, 48, nullptr, visit, &stopped);
    if (visited.ok()) {
      ++clean;
      EXPECT_EQ(stopped, 48u);
      EXPECT_EQ(in_chunk, kCount);
    } else {
      EXPECT_EQ(stopped, kFirst);
      EXPECT_EQ(in_chunk, 0u);
    }

    RRCollection read(n);
    std::vector<uint64_t> read_edges;
    const Status read_status = store.ReadRange(0, 48, &read, &read_edges);
    EXPECT_EQ(read_status.ok(), visited.ok()) << read_status.ToString();
    if (read_status.ok()) {
      ASSERT_EQ(read.num_sets(), 48u);
      for (size_t i = kFirst; i < kFirst + kCount; ++i) {
        for (NodeId v : read.Set(static_cast<RRSetId>(i))) ASSERT_LT(v, n);
      }
    } else {
      EXPECT_EQ(read.num_sets(), 0u) << "failed read must not half-append";
      EXPECT_TRUE(read_edges.empty());
    }

    RRSpillStore::ChunkScratch scratch;
    in_chunk = 0;
    const Status chunk_status =
        store.VisitChunk(kFirst, kCount, nullptr, visit, &scratch);
    EXPECT_EQ(chunk_status.ok(), visited.ok()) << chunk_status.ToString();
    EXPECT_EQ(in_chunk, chunk_status.ok() ? kCount : 0u);
  }
  // Both outcomes must occur, or the mutator tests nothing.
  EXPECT_GT(clean, 0);
  EXPECT_LT(clean, 300);
}

// ---- solver sweep: budgets, spill on -----------------------------------

SolverResult RunRegistry(const Graph& graph, const std::string& algo,
                         size_t memory_budget, const std::string& spill_dir) {
  std::unique_ptr<InfluenceSolver> solver;
  Status s = SolverRegistry::Global().Create(algo, graph, &solver);
  EXPECT_TRUE(s.ok()) << s.ToString();
  SolverOptions options;
  options.k = 4;
  options.epsilon = 0.3;
  options.seed = 1234;
  options.memory_budget_bytes = memory_budget;
  options.spill_dir = spill_dir;
  options.ris_tau_scale = 0.05;
  options.ris_max_sets = 200000;
  SolverResult result;
  s = solver->Run(options, &result);
  EXPECT_TRUE(s.ok()) << algo << ": " << s.ToString();
  return result;
}

TEST(SpillSolverSweepTest, BudgetedSpilledRunsAreBitIdenticalEverywhere) {
  const Graph graph = MakeWcPowerLaw(250, 3, 17);
  TempSpillDir dir;

  for (const char* algo : {"tim", "tim+", "imm", "ris"}) {
    SCOPED_TRACE(algo);
    // Ground truth: unbudgeted, no spill.
    const SolverResult baseline = RunRegistry(graph, algo, 0, "");
    // RIS reports no rr_data_bytes (its collection is transient under the
    // cost loop); a fixed basis still trips its budget at /8 and /2.
    const auto data_bytes = static_cast<size_t>(
        baseline.Metric("rr_data_bytes", 512.0 * 1024.0));
    ASSERT_GT(data_bytes, 0u);

    // tiny and mid budgets trip; ∞ (0) must leave the spill tier idle.
    for (size_t budget : {data_bytes / 8, data_bytes / 2, size_t{0}}) {
      SCOPED_TRACE(budget);
      const SolverResult run = RunRegistry(graph, algo, budget, dir.path());
      EXPECT_EQ(run.seeds, baseline.seeds);
      EXPECT_EQ(run.estimated_spread, baseline.estimated_spread);
      for (const auto& [name, value] : baseline.metrics) {
        if (name == "rr_memory_bytes" || name.rfind("seconds", 0) == 0 ||
            name == "hit_memory_budget" || name == "rr_sets_retained" ||
            name == "rr_data_bytes" || name == "regeneration_passes") {
          continue;  // legitimately budget-dependent
        }
        EXPECT_EQ(value, run.Metric(name, -1.0)) << name;
      }
      if (budget != 0 && run.Metric("hit_memory_budget") != 0.0) {
        // The whole point of the spill tier: replay beats regeneration.
        EXPECT_EQ(run.Metric("regeneration_passes"), 0.0);
        EXPECT_GT(run.Metric("rr_sets_spilled"), 0.0);
        EXPECT_GT(run.Metric("sets_spill_read"), 0.0);
        EXPECT_GT(run.Metric("spill_bytes_written"), 0.0);
      }
      if (budget == 0) {
        EXPECT_EQ(run.Metric("hit_memory_budget"), 0.0);
        EXPECT_EQ(run.Metric("rr_sets_spilled"), 0.0);
      }
    }
  }
}

// ---- metric contract ---------------------------------------------------

// The registry's metric names AND their order are a contract: im_cli prints
// them in emission order, and the budget / spill sweeps compare runs stat
// for stat. Spill counters appear only when the spill tier ran, so a plain
// run keeps the exact list it always had.
TEST(SolverMetricContractTest, NamesAndOrderArePinnedPerAlgorithm) {
  const Graph graph = MakeWcPowerLaw(250, 3, 17);
  TempSpillDir dir;

  const std::vector<std::string> budget = {
      "hit_memory_budget", "rr_sets_retained", "regeneration_passes"};
  const std::vector<std::string> spill = {
      "rr_sets_spilled", "sets_spill_read", "spill_bytes_written"};
  const auto concat = [](std::vector<std::vector<std::string>> parts) {
    std::vector<std::string> out;
    for (const auto& part : parts) {
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  };
  const std::vector<std::string> tim_head = {
      "theta",       "theta_prime",    "kpt_star",        "kpt_plus",
      "rr_sets_kpt", "edges_examined", "rr_memory_bytes", "rr_data_bytes"};
  const std::vector<std::string> tim_tail = {"seconds_node_selection",
                                             "kpt_cache_hit"};
  const std::vector<std::string> imm_head = {
      "theta",           "lb",           "rr_sets_sampling",
      "sampling_iterations", "rr_memory_bytes", "rr_data_bytes"};
  const std::vector<std::string> imm_tail = {"lb_cache_hit"};
  const std::vector<std::string> ris_head = {"tau", "rr_sets_generated",
                                             "cost_examined", "hit_set_cap"};
  struct AlgoNames {
    const char* algo;
    std::vector<std::string> plain;
  };
  const AlgoNames algos[] = {
      {"tim", concat({tim_head, budget, tim_tail})},
      {"tim+", concat({tim_head, budget, tim_tail})},
      {"imm", concat({imm_head, budget, imm_tail})},
      {"ris", concat({ris_head, budget})},
  };

  const auto names_of = [](const SolverResult& result) {
    std::vector<std::string> names;
    for (const auto& [name, value] : result.metrics) names.push_back(name);
    return names;
  };
  for (const AlgoNames& expected : algos) {
    SCOPED_TRACE(expected.algo);
    std::unique_ptr<InfluenceSolver> solver;
    ASSERT_TRUE(
        SolverRegistry::Global().Create(expected.algo, graph, &solver).ok());
    SolverOptions options;
    options.k = 4;
    options.epsilon = 0.3;
    options.seed = 1234;
    options.ris_tau_scale = 0.05;
    options.ris_max_sets = 200000;

    SolverResult plain;
    ASSERT_TRUE(solver->Run(options, &plain).ok());
    EXPECT_EQ(names_of(plain), expected.plain);

    // A 1 KiB budget trips every RR solver on this graph: regeneration
    // without a spill dir, disk replay with one.
    options.memory_budget_bytes = 1024;
    SolverResult regenerated;
    ASSERT_TRUE(solver->Run(options, &regenerated).ok());
    EXPECT_EQ(regenerated.Metric("hit_memory_budget"), 1.0);
    EXPECT_GT(regenerated.Metric("regeneration_passes"), 0.0);
    EXPECT_EQ(names_of(regenerated), expected.plain);

    options.spill_dir = dir.path();
    SolverResult spilled;
    ASSERT_TRUE(solver->Run(options, &spilled).ok());
    EXPECT_GT(spilled.Metric("rr_sets_spilled"), 0.0);
    EXPECT_EQ(names_of(spilled), concat({expected.plain, spill}));
  }
}

// ---- serving: evict-spill-preload -------------------------------------

TEST(ServingSpillTest, EvictedStreamPreloadsFromDiskBitIdentically) {
  const Graph graph = MakeWcPowerLaw(150, 3, 31);
  TempSpillDir dir;

  GraphContext context{Graph(graph)};
  context.set_spill_dir(dir.path());
  StreamKey key;
  key.seed = 99;

  // Materialize a prefix, snapshot its bytes, evict it through a budget
  // far below its footprint (spilling on the way out).
  RRCollection first_read(graph.num_nodes());
  {
    std::shared_ptr<SharedRRCache> cache = context.AcquireStream(key);
    cache->Read(0, 600, &first_read);
    EXPECT_EQ(cache->total_sets_spill_loaded(), 0u);
    context.set_cache_budget_bytes(1);
    EXPECT_EQ(context.EnforceCacheBudget(), 1u);
  }
  EXPECT_EQ(context.NumStreams(), 0u);

  // Reacquiring the key rebuilds the stream FROM DISK: the preload
  // counter moves and the bytes match the first materialization.
  std::shared_ptr<SharedRRCache> reborn = context.AcquireStream(key);
  RRCollection second_read(graph.num_nodes());
  reborn->Read(0, 600, &second_read);
  EXPECT_EQ(reborn->total_sets_spill_loaded(), 600u)
      << "the evicted prefix should come back from the spill store";
  EXPECT_EQ(reborn->total_sets_sampled(), 0u);
  EXPECT_EQ(context.TotalSetsSpillLoaded(), 600u);
  ASSERT_EQ(second_read.num_sets(), first_read.num_sets());
  ExpectEqualSets(first_read, second_read, 0, 0, 600);

  // And growth past the spilled prefix continues seamlessly: fresh
  // samples start exactly where the disk image ends.
  RRCollection longer(graph.num_nodes());
  reborn->Read(0, 700, &longer);
  SamplingEngine reference(graph, testing::IcSampling(99));
  RRCollection expect(graph.num_nodes());
  reference.SampleInto(&expect, 700);
  ExpectEqualSets(expect, longer, 0, 0, 700);
}

TEST(ServingSpillTest, EngineWithSpillServesIdenticalResponses) {
  const Graph graph = MakeWcPowerLaw(150, 3, 37);

  ImRequest request;
  request.graph = "g";
  request.algo = "tim+";
  request.k = 4;
  request.epsilon = 0.3;
  request.seed = 7;

  // Reference: unconstrained engine, no spill.
  ServingOptions plain;
  ServingEngine reference(plain);
  ASSERT_TRUE(reference.RegisterGraph("g", Graph(graph)).ok());
  const ImResponse expected = reference.Solve(request);
  ASSERT_TRUE(expected.status.ok()) << expected.status.ToString();

  // Spill engine: a cache budget of one byte evicts (and spills) the
  // stream after every request, so the second request preloads from disk.
  TempSpillDir dir;
  ServingOptions options;
  options.shared_cache_budget_bytes = 1;
  options.spill_dir = dir.path();
  ServingEngine serving(options);
  ASSERT_TRUE(serving.RegisterGraph("g", Graph(graph)).ok());

  const ImResponse cold = serving.Solve(request);
  ASSERT_TRUE(cold.status.ok()) << cold.status.ToString();
  EXPECT_EQ(cold.result.seeds, expected.result.seeds);

  const ImResponse warm = serving.Solve(request);
  ASSERT_TRUE(warm.status.ok()) << warm.status.ToString();
  EXPECT_EQ(warm.result.seeds, expected.result.seeds);
  EXPECT_EQ(warm.result.estimated_spread, expected.result.estimated_spread);

  GraphContext* context = serving.Context("g");
  ASSERT_NE(context, nullptr);
  EXPECT_GT(context->TotalSetsSpillLoaded(), 0u)
      << "the warm request should restore the stream from disk";
}

}  // namespace
}  // namespace timpp
