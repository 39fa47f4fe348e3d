// Tests of the out-of-core RR spill tier (rrset/rr_spill.h) and its
// integration everywhere RR prefixes live:
//   - RRSpillStore unit behaviour: chunk round-trips, append-only index
//     discipline, coverage gaps, visit semantics, one chunk load per
//     chunk a sequential visit touches;
//   - the one spill file: every chunk of a store lands in it back to
//     back; a mutated chunk inside it, or a file cut inside its last
//     chunk, fails cleanly at that chunk on both read paths (or, for a
//     mutant, visits exactly its sets);
//   - the solver sweep: TIM/TIM+/IMM/RIS at budgets {tiny, mid, ∞} must
//     produce bit-identical seeds and stats to the unbudgeted run, with
//     regeneration_passes == 0 (disk replay, not resampling) whenever the
//     spill tier is on and the budget actually trips;
//   - the metric contract: every RR solver's metric names and order,
//     plain, budgeted and spilled;
//   - serving: the engine's spill dir serves budgeted requests only; an
//     evicted shared stream is resampled and never written to disk.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/node_selector.h"
#include "engine/sampling_engine.h"
#include "engine/solver_registry.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_serialization.h"
#include "rrset/rr_spill.h"
#include "serving/graph_context.h"
#include "serving/serving_engine.h"
#include "tests/test_util.h"

namespace timpp {
namespace {

using testing::ByteRange;
using testing::ChunkBytes;
using testing::MakeWcPowerLaw;
using testing::ReadFile;
using testing::SpillFile;
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

TEST(RRSpillStoreTest, SpillAndVisitRoundTrip) {
  const Graph g = MakeWcPowerLaw(120, 3, 7);
  RRCollection rr(g.num_nodes());
  std::vector<uint64_t> edges;
  Sample(g, 11, 100, &rr, &edges);

  TempSpillDir dir;
  RRSpillStore store(g.num_nodes(), SpillOpts(dir, 32));
  ASSERT_TRUE(store.SpillRange(rr, edges, 0, 100, 0).ok());
  EXPECT_EQ(store.CoveredEnd(0, 100), 100u);
  EXPECT_EQ(store.end_index(), 100u);
  EXPECT_EQ(store.stats().sets_written, 100u);
  EXPECT_GE(store.stats().chunks_written, 4u);  // 100 sets / 32 per chunk
  EXPECT_GT(store.stats().bytes_written, 0u);

  ExpectReplayMatches(&store, rr, 100);
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

  EXPECT_EQ(store.CoveredEnd(0, 50), 50u);
  EXPECT_EQ(store.CoveredEnd(0, 60), 50u) << "the gap starts at 50";
  EXPECT_EQ(store.CoveredEnd(90, 20), 90u) << "nothing stored at 90";
  EXPECT_EQ(store.CoveredEnd(0, 200), 50u);
  EXPECT_EQ(store.CoveredEnd(100, 30), 130u);
  EXPECT_EQ(store.CoveredEnd(60, 100), 60u) << "nothing stored at 60";
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

  // A sub-range of one chunk: the visitor gets the whole decoded chunk
  // once, reads the odd indices of the range and reports them read.
  RRSpillStore::ChunkScratch scratch;
  std::vector<uint64_t> seen;
  const Status status = store.VisitChunk(
      19, 10,
      [&](uint64_t chunk_first, const RRCollection& sets) {
        EXPECT_EQ(chunk_first, 16u);
        EXPECT_EQ(sets.num_sets(), 16u);
        for (uint64_t index = 19; index < 29; index += 2) {
          const auto expect = rr.Set(static_cast<RRSetId>(index));
          const auto set = sets.Set(static_cast<RRSetId>(index - chunk_first));
          EXPECT_TRUE(std::equal(expect.begin(), expect.end(), set.begin(),
                                 set.end()));
          seen.push_back(index);
        }
        return uint64_t{seen.size()};
      },
      &scratch);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(seen, (std::vector<uint64_t>{19, 21, 23, 25, 27}));
  RRSpillStats stats = store.stats();
  EXPECT_EQ(stats.chunk_loads, 1u);
  EXPECT_EQ(stats.sets_read, 5u);
  EXPECT_EQ(stats.prefetch_issued, 0u);

  // Ranges that straddle chunks or fall in a gap are refused untouched.
  const auto never = [](uint64_t, const RRCollection&) {
    ADD_FAILURE() << "nothing may be visited";
    return uint64_t{0};
  };
  EXPECT_TRUE(store.VisitChunk(10, 10, never, &scratch).IsNotFound());
  EXPECT_TRUE(store.VisitChunk(45, 2, never, &scratch).IsNotFound());
  stats = store.stats();
  EXPECT_EQ(stats.chunk_loads, 1u);
  EXPECT_EQ(stats.sets_read, 5u);
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
  const RRSpillStats stats = store.stats();
  EXPECT_EQ(stats.chunk_loads, 8u) << "one read per chunk";
  EXPECT_EQ(stats.sets_read, 64u);
}

TEST(RRSpillStoreTest, EmptyEdgeSpanRecordsZeros) {
  const Graph g = MakeWcPowerLaw(60, 3, 29);
  RRCollection rr(g.num_nodes());
  std::vector<uint64_t> edges;
  Sample(g, 5, 10, &rr, &edges);

  TempSpillDir dir;
  RRSpillStore store(g.num_nodes(), SpillOpts(dir));
  ASSERT_TRUE(store.SpillRange(rr, {}, 0, 10, 0).ok());

  std::string expect;
  SerializeRRShard(rr, std::vector<uint64_t>(10, 0), 0, 10, &expect);
  EXPECT_TRUE(ReadFile(SpillFile(store)) == expect);
  ExpectReplayMatches(&store, rr, 10);
}

// ---- the one spill file ------------------------------------------------

TEST(RRSpillStoreTest, EveryChunkGoesToOneFile) {
  const Graph g = MakeWcPowerLaw(80, 3, 53);
  RRCollection rr(g.num_nodes());
  std::vector<uint64_t> edges;
  Sample(g, 5, 60, &rr, &edges);

  TempSpillDir dir;
  std::string directory;
  {
    RRSpillStore store(g.num_nodes(), SpillOpts(dir, 8));
    ASSERT_TRUE(store.SpillRange(rr, edges, 0, 20, 0).ok());
    ASSERT_TRUE(store.SpillRange(rr, edges, 20, 12, 20).ok());
    ASSERT_TRUE(store.SpillRange(rr, edges, 32, 28, 100).ok());  // a gap
    const RRSpillStats stats = store.stats();
    EXPECT_EQ(stats.chunks_written, 3u + 2u + 4u);
    directory = store.directory();
    const std::string file = SpillFile(store);
    EXPECT_EQ(std::filesystem::file_size(file), stats.bytes_written);

    // The chunks lie back to back in spill order: the file is the
    // concatenation of their shards.
    std::string expect;
    for (const auto& [first, count] :
         {std::pair<size_t, size_t>{0, 20}, {20, 12}, {32, 28}}) {
      for (size_t at = first; at < first + count; at += 8) {
        SerializeRRShard(rr, edges, at, std::min<size_t>(8, first + count - at),
                         &expect);
      }
    }
    EXPECT_TRUE(ReadFile(file) == expect);

    // The range past the gap reads back from its place in the file.
    uint64_t stopped = 0, visited = 0;
    const Status status = store.VisitRange(
        100, 28, nullptr,
        [&](uint64_t index, std::span<const NodeId> set) {
          const auto want = rr.Set(static_cast<RRSetId>(index - 100 + 32));
          EXPECT_TRUE(
              std::equal(want.begin(), want.end(), set.begin(), set.end()))
              << "set " << index;
        },
        &stopped, &visited);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(stopped, 128u);
    EXPECT_EQ(visited, 28u);
  }
  EXPECT_FALSE(std::filesystem::exists(directory))
      << "the destructor removes the store's directory";
}

// ---- a mutated chunk through every read path ---------------------------

TEST(RRSpillStoreTest, MutatedChunkFileFailsCleanlyOnEveryReadPath) {
  const Graph g = MakeWcPowerLaw(80, 3, 61);
  const NodeId n = g.num_nodes();
  RRCollection rr(n);
  std::vector<uint64_t> edges;
  Sample(g, 5, 48, &rr, &edges);

  TempSpillDir dir;
  RRSpillStore store(n, SpillOpts(dir, 16));  // chunks at 0, 16 and 32
  ASSERT_TRUE(store.SpillRange(rr, edges, 0, 48, 0).ok());
  const std::string path = SpillFile(store);
  constexpr uint64_t kFirst = 16, kCount = 16;
  const ByteRange range = ChunkBytes(rr, edges, kFirst, kCount);
  const std::string good = ReadFile(path).substr(range.offset, range.bytes);
  ASSERT_EQ(good.size(), range.bytes);

  std::mt19937_64 rng(0xc4a2);
  int clean = 0;
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE(round);
    {
      // The reader always reads the manifest's byte count, so a mutant
      // that changed length is cut or zero-padded back to the range.
      std::string mutant = testing::MutateBytes(good, &rng);
      mutant.resize(range.bytes, '\0');
      testing::OverwriteFile(path, range.offset, mutant);
    }
    // Nothing is cached between reads: each path reads the mutant from
    // disk.
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

    RRSpillStore::ChunkScratch scratch;
    in_chunk = 0;
    const Status chunk_status = store.VisitChunk(
        kFirst, kCount,
        [&](uint64_t chunk_first, const RRCollection& sets) {
          for (size_t i = 0; i < sets.num_sets(); ++i) {
            visit(chunk_first + i, sets.Set(static_cast<RRSetId>(i)));
          }
          return uint64_t{sets.num_sets()};
        },
        &scratch);
    EXPECT_EQ(chunk_status.ok(), visited.ok()) << chunk_status.ToString();
    EXPECT_EQ(in_chunk, chunk_status.ok() ? kCount : 0u);
  }
  // Both outcomes must occur, or the mutator tests nothing.
  EXPECT_GT(clean, 0);
  EXPECT_LT(clean, 300);
}

// A file cut inside its last chunk: the earlier chunks still read, the
// cut one fails on both paths with an IOError naming the file and the
// chunk's index range, and nothing of it is visited.
TEST(RRSpillStoreTest, FileCutInsideLastChunkFailsCleanly) {
  const Graph g = MakeWcPowerLaw(80, 3, 67);
  const NodeId n = g.num_nodes();
  RRCollection rr(n);
  std::vector<uint64_t> edges;
  Sample(g, 5, 48, &rr, &edges);

  TempSpillDir dir;
  RRSpillStore store(n, SpillOpts(dir, 16));  // chunks at 0, 16 and 32
  ASSERT_TRUE(store.SpillRange(rr, edges, 0, 48, 0).ok());
  const std::string path = SpillFile(store);
  const ByteRange last = ChunkBytes(rr, edges, 32, 16);
  ASSERT_EQ(last.offset + last.bytes, std::filesystem::file_size(path));
  std::filesystem::resize_file(path, last.offset + last.bytes / 2);

  uint64_t stopped = 0, visited = 0, in_last = 0;
  const Status range_status = store.VisitRange(
      0, 48, nullptr,
      [&](uint64_t index, std::span<const NodeId>) { in_last += index >= 32; },
      &stopped, &visited);
  EXPECT_TRUE(range_status.IsIOError()) << range_status.ToString();
  EXPECT_NE(range_status.ToString().find(path), std::string::npos);
  EXPECT_NE(range_status.ToString().find("[32, 48)"), std::string::npos)
      << range_status.ToString();
  EXPECT_EQ(stopped, 32u);
  EXPECT_EQ(visited, 32u);
  EXPECT_EQ(in_last, 0u);

  ExpectReplayMatches(&store, rr, 32);

  RRSpillStore::ChunkScratch scratch;
  const Status chunk_status = store.VisitChunk(
      32, 16,
      [](uint64_t, const RRCollection&) {
        ADD_FAILURE() << "nothing may be visited";
        return uint64_t{0};
      },
      &scratch);
  EXPECT_TRUE(chunk_status.IsIOError()) << chunk_status.ToString();
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
    // RIS reports no rr_data_bytes; its 1,157 sets hold 42,488 data bytes,
    // so a 64 KiB basis cuts them at both /8 and /2 (8,192 and 32,768).
    const auto data_bytes = static_cast<size_t>(
        baseline.Metric("rr_data_bytes", 64.0 * 1024.0));
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

// ---- exact spill counters ----------------------------------------------

// The spill tier's exact work counters at fixed seeds. Chunk boundaries,
// the shard format, the pass plan and dead-set skipping all feed these
// numbers, so a change to how chunks are stored or replayed must leave
// every one of them where it is.
TEST(SpillCounterGoldenTest, BudgetedStreamingPassCountersArePinned) {
  const Graph graph = MakeWcPowerLaw(400, 4, 71);
  const std::vector<NodeId> seeds = {0, 2, 1, 4, 3, 9};
  for (const unsigned threads : {1u, 3u}) {
    SCOPED_TRACE(threads);
    TempSpillDir dir;
    RRSpillStore store(graph.num_nodes(), SpillOpts(dir));
    SamplingEngine engine(graph, testing::IcSampling(4242, threads));
    const NodeSelection selection =
        SelectNodes(engine, 6, 20000, 32 * 1024, &store);
    ASSERT_TRUE(selection.hit_memory_budget);
    EXPECT_EQ(selection.regeneration_passes, 0u);
    EXPECT_EQ(selection.seeds, seeds);
    const RRSpillStats stats = store.stats();
    EXPECT_EQ(stats.chunks_written, 14u);
    EXPECT_EQ(stats.sets_written, 19223u);
    EXPECT_EQ(stats.bytes_written, 972424u);
    EXPECT_EQ(stats.chunk_loads, 84u);
    EXPECT_EQ(stats.sets_read, 99902u);
    EXPECT_EQ(selection.rr_sets_spilled, stats.sets_written);
    EXPECT_EQ(selection.sets_spill_read, stats.sets_read);
    EXPECT_EQ(selection.spill_bytes_written, stats.bytes_written);
  }
}

TEST(SpillCounterGoldenTest, RegistrySpillMetricsArePinned) {
  const Graph graph = MakeWcPowerLaw(250, 3, 17);
  struct Expected {
    const char* algo;
    double rr_sets_spilled;
    double sets_spill_read;
    double spill_bytes_written;
  };
  const Expected expected[] = {
      {"tim+", 23331, 82796, 1073852},
      {"imm", 5996, 28432, 276552},
      {"ris", 1252, 4028, 56340},
  };
  for (const unsigned threads : {1u, 3u}) {
    for (const Expected& want : expected) {
      SCOPED_TRACE(::testing::Message() << want.algo << " threads " << threads);
      TempSpillDir dir;
      std::unique_ptr<InfluenceSolver> solver;
      ASSERT_TRUE(
          SolverRegistry::Global().Create(want.algo, graph, &solver).ok());
      SolverOptions options;
      options.k = 4;
      options.epsilon = 0.3;
      options.seed = 1234;
      options.num_threads = threads;
      options.ris_tau_scale = 0.05;
      options.ris_max_sets = 200000;
      options.memory_budget_bytes = 1024;
      options.spill_dir = dir.path();
      SolverResult result;
      ASSERT_TRUE(solver->Run(options, &result).ok());
      EXPECT_EQ(result.Metric("regeneration_passes", -1.0), 0.0);
      EXPECT_EQ(result.Metric("rr_sets_spilled", -1.0), want.rr_sets_spilled);
      EXPECT_EQ(result.Metric("sets_spill_read", -1.0), want.sets_spill_read);
      EXPECT_EQ(result.Metric("spill_bytes_written", -1.0),
                want.spill_bytes_written);
    }
  }
}

// The budget counters the sweep above skips as budget-dependent, pinned
// at two budgets below every solver's data, spill off and on, at threads 1
// and 3: where each solver cuts, what it keeps resident and what it
// spills or regenerates.
TEST(BudgetCounterGoldenTest, RegistryBudgetMetricsArePinned) {
  const Graph graph = MakeWcPowerLaw(250, 3, 17);
  struct Expected {
    const char* algo;
    size_t budget;
    bool spill;
    double rr_sets_retained;
    double regeneration_passes;
    double rr_data_bytes;  // -1: not reported (RIS)
    double rr_sets_spilled;
    double sets_spill_read;
    double spill_bytes_written;
  };
  const Expected expected[] = {
      {"tim", 2048, false, 63, 4, 2028, 0, 0, 0},
      {"tim", 2048, true, 63, 0, 2028, 34527, 122454, 1595240},
      {"tim", 16384, false, 470, 4, 16368, 0, 0, 0},
      {"tim", 16384, true, 470, 0, 16368, 34120, 120988, 1577644},
      {"tim+", 2048, false, 60, 4, 2032, 0, 0, 0},
      {"tim+", 2048, true, 60, 0, 2032, 23298, 82674, 1072556},
      {"tim+", 16384, false, 460, 4, 16376, 0, 0, 0},
      {"tim+", 16384, true, 460, 0, 16376, 22898, 81257, 1055012},
      {"imm", 2048, false, 49, 16, 2040, 0, 0, 0},
      {"imm", 2048, true, 49, 0, 2040, 5942, 28062, 274008},
      {"imm", 16384, false, 412, 16, 16308, 0, 0, 0},
      {"imm", 16384, true, 412, 0, 16308, 5198, 22723, 239460},
      {"ris", 2048, false, 53, 4, -1, 0, 0, 0},
      {"ris", 2048, true, 53, 0, -1, 1227, 3935, 55112},
      {"ris", 16384, false, 434, 4, -1, 0, 0, 0},
      {"ris", 16384, true, 434, 0, -1, 846, 2584, 37704},
  };
  const std::vector<NodeId> tim_seeds = {1, 4, 15, 8};
  const std::vector<NodeId> ris_seeds = {1, 4, 8, 15};
  for (const unsigned threads : {1u, 3u}) {
    for (const Expected& want : expected) {
      SCOPED_TRACE(::testing::Message()
                   << want.algo << " budget " << want.budget << " spill "
                   << want.spill << " threads " << threads);
      TempSpillDir dir;
      std::unique_ptr<InfluenceSolver> solver;
      ASSERT_TRUE(
          SolverRegistry::Global().Create(want.algo, graph, &solver).ok());
      SolverOptions options;
      options.k = 4;
      options.epsilon = 0.3;
      options.seed = 1234;
      options.num_threads = threads;
      options.ris_tau_scale = 0.05;
      options.ris_max_sets = 200000;
      options.memory_budget_bytes = want.budget;
      if (want.spill) options.spill_dir = dir.path();
      SolverResult result;
      ASSERT_TRUE(solver->Run(options, &result).ok());
      EXPECT_EQ(result.seeds,
                std::string(want.algo) == "ris" ? ris_seeds : tim_seeds);
      EXPECT_EQ(result.Metric("hit_memory_budget", -1.0), 1.0);
      EXPECT_EQ(result.Metric("rr_sets_retained", -1.0),
                want.rr_sets_retained);
      EXPECT_EQ(result.Metric("regeneration_passes", -1.0),
                want.regeneration_passes);
      EXPECT_EQ(result.Metric("rr_data_bytes", -1.0), want.rr_data_bytes);
      EXPECT_EQ(result.Metric("rr_sets_spilled"), want.rr_sets_spilled);
      EXPECT_EQ(result.Metric("sets_spill_read"), want.sets_spill_read);
      EXPECT_EQ(result.Metric("spill_bytes_written"),
                want.spill_bytes_written);
    }
  }
}

// ---- serving: the spill dir is for budgeted requests ------------------

TEST(ServingSpillTest, SpillDirServesBudgetedRequestsOnly) {
  const Graph graph = MakeWcPowerLaw(250, 3, 17);

  ImRequest request;
  request.graph = "g";
  request.algo = "tim+";
  request.k = 4;
  request.epsilon = 0.3;
  request.seed = 1234;
  const SolverResult standalone = RunRegistry(graph, "tim+", 0, "");

  // A cache budget of one byte evicts the shared stream after every
  // request, so the second request re-creates and resamples it.
  TempSpillDir dir;
  ServingOptions options;
  options.shared_cache_budget_bytes = 1;
  options.spill_dir = dir.path();
  ServingEngine serving(options);
  ASSERT_TRUE(serving.RegisterGraph("g", Graph(graph)).ok());
  const auto spill_dir_is_empty = [&] {
    return !std::filesystem::exists(dir.path()) ||
           std::filesystem::is_empty(dir.path());
  };

  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    const ImResponse response = serving.Solve(request);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(response.result.seeds, standalone.seeds);
    EXPECT_EQ(response.result.estimated_spread, standalone.estimated_spread);
    EXPECT_EQ(response.result.Metric("theta"), standalone.Metric("theta"));
    EXPECT_GT(response.rr_sets_sampled, 0u) << "evicted, so resampled";
  }
  GraphContext* context = serving.Context("g");
  ASSERT_NE(context, nullptr);
  EXPECT_EQ(context->StreamsEvicted(), 2u);
  EXPECT_TRUE(spill_dir_is_empty()) << "an evicted stream writes nothing";

  // A budgeted request runs standalone and spills to the engine's dir.
  request.memory_budget_bytes = 1024;
  const ImResponse budgeted = serving.Solve(request);
  ASSERT_TRUE(budgeted.status.ok()) << budgeted.status.ToString();
  EXPECT_EQ(budgeted.result.seeds, standalone.seeds);
  EXPECT_EQ(budgeted.result.Metric("hit_memory_budget"), 1.0);
  EXPECT_GT(budgeted.result.Metric("rr_sets_spilled"), 0.0);
  EXPECT_EQ(budgeted.result.Metric("regeneration_passes", -1.0), 0.0);
  EXPECT_TRUE(spill_dir_is_empty()) << "the store deletes its file";
}

}  // namespace
}  // namespace timpp
