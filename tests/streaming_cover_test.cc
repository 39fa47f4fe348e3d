// Tests of the memory-budgeted selection pipeline: the engine's
// sample-and-discard streaming (VisitSamples/SkipTo), RRCollection
// truncation, StreamingGreedyMaxCover's bit-equivalence to the indexed
// greedy (at any worker count, replaying spill chunks, regenerating only
// a chunk that fails to read), and the end-to-end guarantee that budgeted
// TIM/IMM return the exact seeds of a budget-off run while keeping
// resident DataBytes under the cap.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "baselines/ris.h"
#include "core/imm.h"
#include "core/node_selector.h"
#include "core/tim.h"
#include "coverage/greedy_cover.h"
#include "coverage/streaming_cover.h"
#include "engine/sample_source.h"
#include "engine/sampling_engine.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_serialization.h"
#include "rrset/rr_spill.h"
#include "tests/test_util.h"

namespace timpp {
namespace {

using testing::IcSampling;
using testing::MakeTwoCommunities;
using testing::MakeWcPowerLaw;
using testing::TempSpillDir;

void ExpectSameCollections(const RRCollection& a, const RRCollection& b) {
  ASSERT_EQ(a.num_sets(), b.num_sets());
  ASSERT_EQ(a.total_nodes(), b.total_nodes());
  EXPECT_EQ(a.TotalWidth(), b.TotalWidth());
  for (size_t id = 0; id < a.num_sets(); ++id) {
    const auto sa = a.Set(static_cast<RRSetId>(id));
    const auto sb = b.Set(static_cast<RRSetId>(id));
    ASSERT_EQ(sa.size(), sb.size()) << "set " << id;
    for (size_t j = 0; j < sa.size(); ++j) {
      ASSERT_EQ(sa[j], sb[j]) << "set " << id << " pos " << j;
    }
    EXPECT_EQ(a.Width(static_cast<RRSetId>(id)),
              b.Width(static_cast<RRSetId>(id)));
  }
}

void ExpectSameCover(const CoverResult& a, const CoverResult& b) {
  EXPECT_EQ(a.seeds, b.seeds);
  EXPECT_EQ(a.marginal_coverage, b.marginal_coverage);
  EXPECT_EQ(a.covered_sets, b.covered_sets);
  EXPECT_DOUBLE_EQ(a.covered_fraction, b.covered_fraction);
}

// ----------------------------------------------------- RRCollection bits --

TEST(RRCollectionTruncateTest, TruncateToKeepsThePrefixExactly) {
  Graph g = MakeTwoCommunities(0.4f);
  RRCollection full(g.num_nodes()), prefix(g.num_nodes());
  SamplingEngine engine_a(g, IcSampling(9)), engine_b(g, IcSampling(9));
  engine_a.SampleInto(&full, 500);
  engine_b.SampleInto(&prefix, 200);

  RRCollection truncated(g.num_nodes());
  SamplingEngine engine_c(g, IcSampling(9));
  engine_c.SampleInto(&truncated, 500);
  truncated.TruncateTo(200);
  ExpectSameCollections(prefix, truncated);

  truncated.TruncateTo(9999);  // no-op past the end
  EXPECT_EQ(truncated.num_sets(), 200u);
  truncated.TruncateTo(0);
  EXPECT_EQ(truncated.num_sets(), 0u);
  EXPECT_EQ(truncated.total_nodes(), 0u);
  EXPECT_EQ(truncated.TotalWidth(), 0u);
}

TEST(RRCollectionTruncateTest, DropIndexReleasesOnlyIndexBytes) {
  Graph g = MakeTwoCommunities(0.4f);
  RRCollection rr(g.num_nodes());
  SamplingEngine engine(g, IcSampling(12));
  engine.SampleInto(&rr, 200);
  const size_t data_only = rr.DataBytes();
  rr.BuildIndex();
  ASSERT_GT(rr.DataBytes(), data_only) << "index must be charged";
  rr.DropIndex();
  EXPECT_EQ(rr.DataBytes(), data_only)
      << "a dropped index must not linger in budget accounting";
  EXPECT_FALSE(rr.index_built());
  rr.BuildIndex();  // still rebuildable
  EXPECT_TRUE(rr.index_built());
}

TEST(RRCollectionTruncateTest, MaxPrefixUnderDataBudgetIsTight) {
  Graph g = MakeTwoCommunities(0.4f);
  RRCollection rr(g.num_nodes());
  SamplingEngine engine(g, IcSampling(10));
  engine.SampleInto(&rr, 300);

  // For every prefix the helper reports, actually materializing it must
  // sit under the budget (an empty collection's 8-byte offset sentinel is
  // the irreducible floor) while one more set must exceed it.
  for (size_t budget : {size_t{1}, size_t{100}, size_t{1000}, rr.DataBytes(),
                        rr.DataBytes() / 2}) {
    const size_t prefix = MaxPrefixUnderDataBudget(rr, budget);
    RRCollection check(g.num_nodes());
    SamplingEngine regen(g, IcSampling(10));
    regen.SampleInto(&check, 300);
    check.TruncateTo(prefix);
    if (prefix > 0) {
      EXPECT_LE(check.DataBytes(), budget) << "budget " << budget;
    }
    if (prefix < rr.num_sets()) {
      RRCollection over(g.num_nodes());
      SamplingEngine regen2(g, IcSampling(10));
      regen2.SampleInto(&over, 300);
      over.TruncateTo(prefix + 1);
      EXPECT_GT(over.DataBytes(), budget) << "budget " << budget;
    }
  }
}

// ------------------------------------------- engine streaming primitives --

TEST(SamplingEngineStreamTest, BudgetStopIsThreadCountInvariantMidRequest) {
  // Satellite regression: the sequential fast path must land the same
  // collection as the sharded path when a memory budget stops the request
  // mid-way (both stop at the same fixed batch boundary, and the
  // sequential path now pre-sizes per-set arrays the same way).
  Graph g = MakeWcPowerLaw(300, 5, 7);

  RRCollection reference(g.num_nodes());
  SamplingEngine sequential(g, IcSampling(42, 1));
  SampleBatch probe = sequential.SampleInto(&reference, 10000);
  ASSERT_EQ(probe.sets_added, 10000u);
  // A budget crossed well inside the request: ~ half the full data bytes.
  const size_t budget = reference.DataBytes() / 2;

  RRCollection seq_rr(g.num_nodes());
  seq_rr.set_memory_budget(budget);
  SamplingEngine seq_engine(g, IcSampling(42, 1));
  const SampleBatch seq_batch = seq_engine.SampleInto(&seq_rr, 30000);
  EXPECT_TRUE(seq_batch.hit_memory_budget);
  EXPECT_LT(seq_batch.sets_added, 30000u);

  for (unsigned threads : {2u, 8u}) {
    RRCollection rr(g.num_nodes());
    rr.set_memory_budget(budget);
    SamplingEngine engine(g, IcSampling(42, threads));
    const SampleBatch batch = engine.SampleInto(&rr, 30000);
    EXPECT_TRUE(batch.hit_memory_budget) << "threads=" << threads;
    EXPECT_EQ(batch.sets_added, seq_batch.sets_added)
        << "budget stop moved with the thread count";
    EXPECT_EQ(batch.edges_examined, seq_batch.edges_examined);
    ExpectSameCollections(seq_rr, rr);
  }
}

TEST(SamplingEngineStreamTest, SampleUntilCostRewindIsDeterministic) {
  // The cost-threshold loop samples whole batches but keeps only the
  // index-ordered prefix up to the stop, rewinding the rest. The stop
  // point and the kept prefix must be identical across thread counts, and
  // the rewound indices must regenerate identically in a later request
  // (batch boundaries never leak into content).
  Graph g = MakeTwoCommunities(0.35f);

  RRCollection reference(g.num_nodes());
  SamplingEngine ref_engine(g, IcSampling(11, 1));
  const SampleBatch ref_batch = ref_engine.SampleUntilCost(&reference, 4000.0);
  ASSERT_GT(ref_batch.sets_added, 0u);

  for (unsigned threads : {2u, 8u}) {
    RRCollection rr(g.num_nodes());
    SamplingEngine engine(g, IcSampling(11, threads));
    const SampleBatch batch = engine.SampleUntilCost(&rr, 4000.0);
    EXPECT_EQ(batch.sets_added, ref_batch.sets_added)
        << "threads=" << threads;
    EXPECT_EQ(batch.traversal_cost, ref_batch.traversal_cost);
    EXPECT_EQ(batch.edges_examined, ref_batch.edges_examined);
    ExpectSameCollections(reference, rr);
  }

  // Rewind determinism across batch boundaries: stop early (mid-batch),
  // then top the collection up with SampleInto — the result must equal a
  // straight SampleInto of the same total, set for set.
  for (unsigned threads : {1u, 2u, 8u}) {
    RRCollection straight(g.num_nodes());
    SamplingEngine engine_a(g, IcSampling(11, threads));
    engine_a.SampleInto(&straight, ref_batch.sets_added + 777);

    RRCollection resumed(g.num_nodes());
    SamplingEngine engine_b(g, IcSampling(11, threads));
    const SampleBatch stop = engine_b.SampleUntilCost(&resumed, 4000.0);
    EXPECT_EQ(engine_b.sets_sampled(), stop.sets_added)
        << "rewound indices must not count as consumed";
    engine_b.SampleInto(&resumed,
                        ref_batch.sets_added + 777 - stop.sets_added);
    ExpectSameCollections(straight, resumed);
  }

  // And with a set cap that lands inside a cost batch.
  for (unsigned threads : {1u, 8u}) {
    RRCollection capped(g.num_nodes());
    SamplingEngine engine(g, IcSampling(11, threads));
    const SampleBatch batch = engine.SampleUntilCost(&capped, 1e18, 1234);
    EXPECT_TRUE(batch.hit_set_cap);
    EXPECT_EQ(batch.sets_added, 1234u);
    RRCollection straight(g.num_nodes());
    SamplingEngine engine_c(g, IcSampling(11, threads));
    engine_c.SampleInto(&straight, 1234);
    ExpectSameCollections(straight, capped);
  }
}

TEST(SamplingEngineStreamTest, VisitSamplesReplaysTheSampleStreamExactly) {
  Graph g = MakeWcPowerLaw(200, 4, 3);
  RRCollection retained(g.num_nodes());
  SamplingEngine engine_a(g, IcSampling(5, 4));
  engine_a.SampleInto(&retained, 3000);

  for (unsigned threads : {1u, 4u}) {
    SamplingEngine engine_b(g, IcSampling(5, threads));
    uint64_t expected_index = 500;
    uint64_t visited = 0;
    const SampleBatch batch = engine_b.VisitSamples(
        500, 2000, nullptr,
        [&](uint64_t index, std::span<const NodeId> nodes) {
          ASSERT_EQ(index, expected_index++);
          const auto want = retained.Set(static_cast<RRSetId>(index));
          ASSERT_EQ(nodes.size(), want.size()) << "index " << index;
          for (size_t j = 0; j < nodes.size(); ++j) {
            ASSERT_EQ(nodes[j], want[j]) << "index " << index;
          }
          ++visited;
        });
    EXPECT_EQ(visited, 2000u);
    EXPECT_EQ(batch.sets_added, 2000u);
    EXPECT_EQ(engine_b.sets_sampled(), 0u)
        << "VisitSamples must not consume stream position";
  }

  // Filtered replay visits exactly the accepted indices, in order, each
  // with the members the unfiltered stream gives it, at any thread count.
  for (unsigned threads : {1u, 2u, 3u, 8u}) {
    SCOPED_TRACE(threads);
    SamplingEngine engine_c(g, IcSampling(5, threads));
    std::vector<uint64_t> seen;
    engine_c.VisitSamples(
        0, 1000, [](uint64_t index) { return index % 3 == 0; },
        [&](uint64_t index, std::span<const NodeId> nodes) {
          seen.push_back(index);
          const auto want = retained.Set(static_cast<RRSetId>(index));
          ASSERT_EQ(std::vector<NodeId>(nodes.begin(), nodes.end()),
                    std::vector<NodeId>(want.begin(), want.end()))
              << "index " << index;
        });
    ASSERT_EQ(seen.size(), 334u);
    for (size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], 3 * i);
  }

  // SkipTo fast-forwards the stream: the next SampleInto produces the
  // same sets a longer straight run would have at those indices.
  SamplingEngine engine_d(g, IcSampling(5, 2));
  engine_d.SkipTo(1000);
  RRCollection tail(g.num_nodes());
  engine_d.SampleInto(&tail, 500);
  for (size_t id = 0; id < 500; ++id) {
    const auto want = retained.Set(static_cast<RRSetId>(1000 + id));
    const auto got = tail.Set(static_cast<RRSetId>(id));
    ASSERT_EQ(std::vector<NodeId>(got.begin(), got.end()),
              std::vector<NodeId>(want.begin(), want.end()));
  }
}

// ------------------------------------------------- streaming greedy cover --

TEST(StreamingCoverTest, MatchesIndexedGreedyForAnyCachePrefix) {
  Graph g = MakeWcPowerLaw(250, 5, 21);
  const uint64_t theta = 4000;
  const int k = 8;

  RRCollection full(g.num_nodes());
  SamplingEngine sampler(g, IcSampling(33, 2));
  sampler.SampleInto(&full, theta);
  full.BuildIndex();
  const CoverResult reference = GreedyMaxCover(full, k);

  for (size_t cached : {theta, theta / 2, uint64_t{1}, uint64_t{0}}) {
    RRCollection cache(g.num_nodes());
    SamplingEngine regen(g, IcSampling(33, 2));
    regen.SampleInto(&cache, cached);
    SamplingEngine streamer(g, IcSampling(33, 2));
    const StreamingCoverResult streamed =
        StreamingGreedyMaxCover(streamer, cache, 0, theta, k);
    ExpectSameCover(reference, streamed.cover);
    if (cached < theta) {
      EXPECT_GE(streamed.regeneration_passes, 1u) << "cached " << cached;
      EXPECT_LE(streamed.regeneration_passes, static_cast<uint64_t>(k));
      EXPECT_GT(streamed.sets_regenerated, 0u);
      EXPECT_GT(streamed.edges_examined, 0u);
    } else {
      EXPECT_EQ(streamed.regeneration_passes, 0u);
      EXPECT_EQ(streamed.sets_regenerated, 0u);
    }
  }
}

// The parallel pass over a prefix cache plus spill chunks, at several
// worker counts. Chunk boundaries (every 500 sets) and resident prefixes
// that are not multiples of 64 put two workers' sets in one dead-bit
// word; the prefixes also split a chunk between cache and spill.
TEST(StreamingCoverTest, ParallelPassMatchesIndexedGreedyAtAnyThreadCount) {
  Graph g = MakeWcPowerLaw(250, 5, 21);
  const uint64_t theta = 6000;
  const int k = 8;

  RRCollection full(g.num_nodes());
  std::vector<uint64_t> edges;
  SamplingEngine sampler(g, IcSampling(33, 2));
  sampler.SampleInto(&full, theta, &edges);
  TempSpillDir dir;
  RRSpillOptions spill_options;
  spill_options.dir = dir.path();
  spill_options.sets_per_chunk = 500;
  RRSpillStore store(g.num_nodes(), spill_options);
  ASSERT_TRUE(store.SpillRange(full, edges, 0, theta, 0).ok());
  full.BuildIndex();
  const CoverResult reference = GreedyMaxCover(full, k);

  for (const bool spilled : {false, true}) {
    for (const uint64_t cached : {uint64_t{0}, uint64_t{1}, uint64_t{2083},
                                  uint64_t{4500}, theta}) {
      SCOPED_TRACE(::testing::Message()
                   << (spilled ? "spill" : "regenerate") << " cached "
                   << cached);
      RRCollection cache(g.num_nodes());
      cache.AppendRange(full, 0, cached);
      StreamingCoverResult first;
      RRSpillStats first_io;
      for (const unsigned threads : {1u, 2u, 3u, 8u}) {
        SCOPED_TRACE(threads);
        SamplingEngine streamer(g, IcSampling(33, threads));
        const RRSpillStats before = store.stats();
        const StreamingCoverResult streamed = StreamingGreedyMaxCover(
            streamer, cache, 0, theta, k, spilled ? &store : nullptr);
        const RRSpillStats after = store.stats();
        ExpectSameCover(reference, streamed.cover);
        if (spilled) {
          EXPECT_EQ(streamed.regeneration_passes, 0u);
          EXPECT_EQ(after.sets_read - before.sets_read,
                    streamed.sets_spill_read);
        } else if (cached < theta) {
          EXPECT_GT(streamed.sets_regenerated, 0u);
        }
        RRSpillStats io;
        io.chunk_loads = after.chunk_loads - before.chunk_loads;
        io.sets_read = after.sets_read - before.sets_read;
        if (threads == 1) {
          first = streamed;
          first_io = io;
          continue;
        }
        // Exact counters: the work is the same at every worker count.
        EXPECT_EQ(streamed.regeneration_passes, first.regeneration_passes);
        EXPECT_EQ(streamed.sets_regenerated, first.sets_regenerated);
        EXPECT_EQ(streamed.edges_examined, first.edges_examined);
        EXPECT_EQ(streamed.spill_read_passes, first.spill_read_passes);
        EXPECT_EQ(streamed.sets_spill_read, first.sets_spill_read);
        EXPECT_EQ(io.chunk_loads, first_io.chunk_loads);
        EXPECT_EQ(io.sets_read, first_io.sets_read);
      }
    }
  }
}

// A chunk that fails to read is regenerated for that round on its own;
// every other chunk still replays from disk. `damage` breaks the chunk of
// 500 sets at `victim` inside the store's one file, given the file and
// the chunk's byte range in it.
void ExpectOnlyDamagedChunkRegenerates(
    uint64_t victim,
    const std::function<void(const std::string&, testing::ByteRange)>&
        damage) {
  Graph g = MakeWcPowerLaw(250, 5, 21);
  const uint64_t theta = 6000;
  const uint64_t per_chunk = 500;
  const int k = 8;

  RRCollection full(g.num_nodes());
  std::vector<uint64_t> edges;
  SamplingEngine sampler(g, IcSampling(33, 2));
  sampler.SampleInto(&full, theta, &edges);
  TempSpillDir dir;
  RRSpillOptions spill_options;
  spill_options.dir = dir.path();
  spill_options.sets_per_chunk = per_chunk;
  RRSpillStore store(g.num_nodes(), spill_options);
  ASSERT_TRUE(store.SpillRange(full, edges, 0, theta, 0).ok());
  damage(testing::SpillFile(store),
         testing::ChunkBytes(full, edges, victim, per_chunk));
  full.BuildIndex();
  const CoverResult reference = GreedyMaxCover(full, k);

  const RRCollection none(g.num_nodes());
  for (const unsigned threads : {1u, 3u, 8u}) {
    SCOPED_TRACE(threads);
    SamplingEngine streamer(g, IcSampling(33, threads));
    const StreamingCoverResult streamed =
        StreamingGreedyMaxCover(streamer, none, 0, theta, k, &store);
    ExpectSameCover(reference, streamed.cover);
    EXPECT_GE(streamed.regeneration_passes, 1u);
    EXPECT_GT(streamed.sets_regenerated, 0u);
    EXPECT_LE(streamed.sets_regenerated, k * per_chunk)
        << "only the failed chunk may be regenerated";
    EXPECT_EQ(streamed.spill_read_passes, static_cast<uint64_t>(k));
  }
}

TEST(StreamingCoverTest, CorruptChunkRegeneratesOnlyThatChunk) {
  // Zero the bytes of the chunk holding [3000, 3500): its magic no longer
  // matches, so its reads fail.
  ExpectOnlyDamagedChunkRegenerates(
      3000, [](const std::string& path, testing::ByteRange range) {
        testing::OverwriteFile(path, range.offset,
                               std::string(range.bytes, '\0'));
      });
}

TEST(StreamingCoverTest, FileCutInsideLastChunkRegeneratesOnlyThatChunk) {
  // Cut the file halfway through the chunk holding [5500, 6000).
  ExpectOnlyDamagedChunkRegenerates(
      5500, [](const std::string& path, testing::ByteRange range) {
        ASSERT_EQ(range.offset + range.bytes, std::filesystem::file_size(path));
        std::filesystem::resize_file(path, range.offset + range.bytes / 2);
      });
}

// ---------------------------------------------------------- spill fill --

// The sets [start, target) of stream seed 57 on a fixed graph, with their
// edge counts and sampling accounting: what a fill of that range spills.
struct FillReference {
  Graph graph = MakeWcPowerLaw(300, 4, 5);
  uint64_t start = 700;            // a fill resumes mid-stream
  uint64_t target = start + 20000;  // 2.4 engine batches, a partial chunk
  RRCollection sets{graph.num_nodes()};
  std::vector<uint64_t> edges;
  SampleBatch batch;

  FillReference() {
    SamplingEngine sampler(graph, IcSampling(57));
    sampler.SkipTo(start);
    batch = sampler.SampleInto(&sets, target - start, &edges);
  }

  // Shard bytes of the 1024-set chunk starting `at` sets past `start`.
  std::string Chunk(uint64_t at) const {
    std::string bytes;
    SerializeRRShard(sets, edges, at, 1024, &bytes);
    return bytes;
  }
};

// A fill samples whole engine batches but spills them 1024 sets at a
// time: the store's file holds those chunks back to back, and the fill
// reports the sampling accounting of the range.
TEST(SpillFillTest, SpillsKiloSetChunksOfEngineBatches) {
  const FillReference ref;
  std::string file;
  for (uint64_t at = 0; at < ref.target - ref.start; at += 1024) {
    file += ref.Chunk(at);
  }
  for (const unsigned threads : {1u, 3u}) {
    SCOPED_TRACE(threads);
    TempSpillDir dir;
    RRSpillOptions options;
    options.dir = dir.path();
    RRSpillStore store(ref.graph.num_nodes(), options);
    SamplingEngine engine(ref.graph, IcSampling(57, threads));
    engine.SkipTo(ref.start);
    EngineSampleSource source(engine);
    const SpillFillResult fill = SpillFillTo(source, store, ref.target);
    EXPECT_TRUE(fill.spill_ok);
    EXPECT_EQ(fill.sets_spilled, ref.target - ref.start);
    EXPECT_EQ(fill.batch.sets_added, ref.batch.sets_added);
    EXPECT_EQ(fill.batch.edges_examined, ref.batch.edges_examined);
    EXPECT_EQ(fill.batch.traversal_cost, ref.batch.traversal_cost);
    EXPECT_EQ(source.position(), ref.target);
    const std::vector<RRSpillStore::ChunkRange> chunks =
        store.ChunksOverlapping(ref.start, ref.target - ref.start);
    ASSERT_EQ(chunks.size(), 20u);
    for (size_t c = 0; c < chunks.size(); ++c) {
      EXPECT_EQ(chunks[c].first, ref.start + 1024 * c);
      EXPECT_EQ(chunks[c].count,
                std::min<uint64_t>(1024, ref.target - chunks[c].first));
    }
    EXPECT_EQ(testing::ReadFile(testing::SpillFile(store)), file);
  }
}

// Caps the size of any file the process writes; a write past the cap
// fails with EFBIG instead of raising SIGXFSZ.
class FileSizeCap {
 public:
  explicit FileSizeCap(rlim_t bytes) {
    previous_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    ok_ = ::getrlimit(RLIMIT_FSIZE, &previous_) == 0;
    rlimit cap = previous_;
    cap.rlim_cur = bytes;
    ok_ = ok_ && ::setrlimit(RLIMIT_FSIZE, &cap) == 0;
  }
  ~FileSizeCap() {
    ::setrlimit(RLIMIT_FSIZE, &previous_);
    std::signal(SIGXFSZ, previous_handler_);
  }
  bool ok() const { return ok_; }

 private:
  rlimit previous_{};
  void (*previous_handler_)(int) = SIG_DFL;
  bool ok_ = false;
};

// A write that fails mid-batch stops the fill: the chunks before it stay
// listed, and the fill accounts the sampling of the sets up to the end of
// the failed chunk only; the rest of its batch regenerates at cover time
// and is accounted there.
TEST(SpillFillTest, WriteFailureStopsAfterTheChunksWritten) {
  const FillReference ref;
  // Room for five chunks and half of the sixth, inside the first batch.
  size_t room = 0;
  for (uint64_t at = 0; at < 5 * 1024; at += 1024) room += ref.Chunk(at).size();
  room += ref.Chunk(5 * 1024).size() / 2;
  uint64_t edges = 0;
  for (size_t j = 0; j < 6 * 1024; ++j) edges += ref.edges[j];

  TempSpillDir dir;
  RRSpillOptions options;
  options.dir = dir.path();
  RRSpillStore store(ref.graph.num_nodes(), options);
  SamplingEngine engine(ref.graph, IcSampling(57, 3));
  engine.SkipTo(ref.start);
  EngineSampleSource source(engine);
  SpillFillResult fill;
  {
    FileSizeCap cap(room);
    ASSERT_TRUE(cap.ok());
    fill = SpillFillTo(source, store, ref.target);
  }
  EXPECT_FALSE(fill.spill_ok);
  EXPECT_EQ(fill.sets_spilled, 5u * 1024);
  EXPECT_EQ(store.stats().chunks_written, 5u);
  EXPECT_EQ(store.CoveredEnd(ref.start, ref.target - ref.start),
            ref.start + 5 * 1024);
  EXPECT_EQ(fill.batch.sets_added, 6u * 1024);
  EXPECT_EQ(fill.batch.edges_examined, edges);
  EXPECT_EQ(source.position(), ref.target);
}

TEST(StreamingCoverTest, SelectNodesBudgetedMatchesUnbudgetedBitwise) {
  Graph g = MakeWcPowerLaw(250, 5, 23);
  const uint64_t theta = 5000;
  const int k = 6;

  SamplingEngine plain(g, IcSampling(77, 2));
  const NodeSelection unbudgeted = SelectNodes(plain, k, theta);
  EXPECT_FALSE(unbudgeted.hit_memory_budget);
  EXPECT_EQ(unbudgeted.rr_sets_retained, theta);
  EXPECT_EQ(unbudgeted.regeneration_passes, 0u);
  ASSERT_GT(unbudgeted.rr_data_bytes, 0u);

  // Budgets from "index does not fit" down to "almost nothing fits".
  for (size_t budget :
       {unbudgeted.rr_data_bytes * 3 / 4, unbudgeted.rr_data_bytes / 4,
        unbudgeted.rr_data_bytes / 50, size_t{64}}) {
    SamplingEngine engine(g, IcSampling(77, 2));
    const NodeSelection budgeted = SelectNodes(engine, k, theta, budget);
    EXPECT_EQ(budgeted.seeds, unbudgeted.seeds) << "budget " << budget;
    EXPECT_DOUBLE_EQ(budgeted.covered_fraction, unbudgeted.covered_fraction);
    EXPECT_TRUE(budgeted.hit_memory_budget);
    EXPECT_LE(budgeted.rr_data_bytes, budget)
        << "resident DataBytes must respect the cap";
    EXPECT_LE(budgeted.rr_sets_retained, theta);
    EXPECT_EQ(engine.sets_sampled(), plain.sets_sampled())
        << "budgeted run must consume the same index range";
  }

  // Generous budget: everything fits, the classic path runs, zero cost.
  SamplingEngine roomy(g, IcSampling(77, 2));
  const NodeSelection easy =
      SelectNodes(roomy, k, theta, unbudgeted.rr_data_bytes * 10);
  EXPECT_EQ(easy.seeds, unbudgeted.seeds);
  EXPECT_FALSE(easy.hit_memory_budget);
  EXPECT_EQ(easy.regeneration_passes, 0u);
}

// --------------------------------------------------- end-to-end solvers --

TEST(StreamingCoverTest, TimPlusBudgetedMatchesUnbudgeted) {
  Graph g = MakeWcPowerLaw(200, 5, 31);
  TimOptions options;
  options.k = 5;
  options.epsilon = 0.35;
  options.num_threads = 2;
  options.seed = 99;

  TimSolver solver(g);
  TimResult unbudgeted;
  ASSERT_TRUE(solver.Run(options, &unbudgeted).ok());
  EXPECT_FALSE(unbudgeted.stats.hit_memory_budget);
  ASSERT_GT(unbudgeted.stats.rr_data_bytes, 0u);

  // A budget the full node-selection collection clearly exceeds.
  options.memory_budget_bytes = unbudgeted.stats.rr_data_bytes / 8;
  TimResult budgeted;
  ASSERT_TRUE(solver.Run(options, &budgeted).ok());
  EXPECT_EQ(budgeted.seeds, unbudgeted.seeds)
      << "graceful degradation must not change the answer";
  EXPECT_DOUBLE_EQ(budgeted.stats.estimated_spread,
                   unbudgeted.stats.estimated_spread);
  EXPECT_EQ(budgeted.stats.theta, unbudgeted.stats.theta);
  EXPECT_TRUE(budgeted.stats.hit_memory_budget);
  EXPECT_GE(budgeted.stats.regeneration_passes, 1u);
  EXPECT_LE(budgeted.stats.rr_data_bytes, options.memory_budget_bytes);
  EXPECT_LT(budgeted.stats.rr_sets_retained, budgeted.stats.theta);
}

TEST(StreamingCoverTest, ImmBudgetedMatchesUnbudgeted) {
  Graph g = MakeWcPowerLaw(200, 5, 37);
  ImmOptions options;
  options.k = 5;
  options.epsilon = 0.4;
  options.num_threads = 2;
  options.seed = 123;

  ImmResult unbudgeted;
  ASSERT_TRUE(RunImm(g, options, &unbudgeted).ok());
  EXPECT_FALSE(unbudgeted.stats.hit_memory_budget);
  ASSERT_GT(unbudgeted.stats.rr_data_bytes, 0u);

  options.memory_budget_bytes = unbudgeted.stats.rr_data_bytes / 8;
  ImmResult budgeted;
  ASSERT_TRUE(RunImm(g, options, &budgeted).ok());
  EXPECT_EQ(budgeted.seeds, unbudgeted.seeds);
  EXPECT_DOUBLE_EQ(budgeted.stats.lb, unbudgeted.stats.lb)
      << "streaming greedy must reproduce the sampling-phase LB";
  EXPECT_EQ(budgeted.stats.theta, unbudgeted.stats.theta);
  EXPECT_DOUBLE_EQ(budgeted.stats.estimated_spread,
                   unbudgeted.stats.estimated_spread);
  EXPECT_TRUE(budgeted.stats.hit_memory_budget);
  EXPECT_GE(budgeted.stats.regeneration_passes, 1u);
  EXPECT_LE(budgeted.stats.rr_data_bytes, options.memory_budget_bytes);

  // A budget with ample headroom must never engage (in particular, the
  // progressive iterations must not double-charge a stale inverted
  // index and latch the budget spuriously).
  options.memory_budget_bytes = unbudgeted.stats.rr_data_bytes * 4;
  ImmResult roomy;
  ASSERT_TRUE(RunImm(g, options, &roomy).ok());
  EXPECT_EQ(roomy.seeds, unbudgeted.seeds);
  EXPECT_FALSE(roomy.stats.hit_memory_budget);
  EXPECT_EQ(roomy.stats.regeneration_passes, 0u);
}

TEST(StreamingCoverTest, BudgetedRisMatchesUnbudgetedBitwise) {
  // τ big enough that sampling spans several engine cost batches, so the
  // tiny budget is guaranteed to fire at a batch boundary before τ. The
  // collection then freezes as a stream-prefix cache and RIS must finish
  // the cost rule and the greedy over the full θ regardless — same seeds,
  // same θ, same cost accounting as the unbudgeted run.
  Graph g = MakeWcPowerLaw(300, 5, 41);
  RisOptions options;
  options.epsilon = 0.5;
  options.tau_scale = 0.5;
  options.seed = 7;

  std::vector<NodeId> unbudgeted_seeds;
  RisStats unbudgeted;
  ASSERT_TRUE(RunRis(g, options, 3, &unbudgeted_seeds, &unbudgeted).ok());
  EXPECT_FALSE(unbudgeted.hit_memory_budget);
  EXPECT_EQ(unbudgeted.regeneration_passes, 0u);

  options.memory_budget_bytes = 2048;  // absurdly small: must fire early
  std::vector<NodeId> budgeted_seeds;
  RisStats budgeted;
  ASSERT_TRUE(RunRis(g, options, 3, &budgeted_seeds, &budgeted).ok());
  EXPECT_TRUE(budgeted.hit_memory_budget);
  EXPECT_EQ(budgeted_seeds, unbudgeted_seeds)
      << "budgeted RIS must degrade to streaming selection, not truncate";
  EXPECT_EQ(budgeted.rr_sets_generated, unbudgeted.rr_sets_generated);
  EXPECT_EQ(budgeted.cost_examined, unbudgeted.cost_examined);
  EXPECT_DOUBLE_EQ(budgeted.covered_fraction, unbudgeted.covered_fraction);
  EXPECT_LT(budgeted.rr_sets_retained, budgeted.rr_sets_generated);
  EXPECT_GE(budgeted.regeneration_passes, 1u);

  // Thread-count invariance holds through the budgeted path too.
  options.num_threads = 8;
  std::vector<NodeId> parallel_seeds;
  RisStats parallel;
  ASSERT_TRUE(RunRis(g, options, 3, &parallel_seeds, &parallel).ok());
  EXPECT_EQ(parallel_seeds, unbudgeted_seeds);
  EXPECT_EQ(parallel.rr_sets_generated, unbudgeted.rr_sets_generated);
}

}  // namespace
}  // namespace timpp
