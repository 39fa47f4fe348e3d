#include "engine/local_thread_backend.h"

#include <algorithm>
#include <atomic>

#include "engine/sampling_engine.h"

namespace timpp {

namespace {

// Work-claim granularity of a parallel fill: workers pull chunks of this
// many consecutive indices off an atomic counter. Small enough that one
// giant RR set (heavy-tailed graphs) strands at most 63 neighbours on the
// same worker, large enough that the claim and per-chunk merge overheads
// stay invisible next to the traversals.
constexpr uint64_t kFillChunkSets = 64;

}  // namespace

struct LocalThreadBackend::Shard {
  Shard(const Graph& graph, const SamplingConfig& config,
        const AliasTable* root_distribution)
      : sampler(graph, config.model, config.custom_model, config.max_hops,
                config.sampler_mode),
        sets(graph.num_nodes()) {
    sampler.SetRootDistribution(root_distribution);
    scratch.reserve(256);
  }

  RRSampler sampler;
  RRCollection sets;
  std::vector<uint64_t> edges;    // per-set edges_examined
  std::vector<uint64_t> indices;  // per-set global index; filtered fills
                                  // only (contiguous fills reconstruct
                                  // indices positionally)
  // Chunks this worker claimed during the current fill, in claim order:
  // (global chunk id, first set the chunk produced into this shard).
  std::vector<std::pair<uint64_t, size_t>> chunks;
  std::vector<NodeId> scratch;
};

LocalThreadBackend::LocalThreadBackend(const Graph& graph,
                                       const SamplingConfig& config,
                                       const AliasTable* root_distribution)
    : graph_(graph), seed_(config.seed) {
  const unsigned num_threads = std::max(1u, config.num_threads);
  shards_.reserve(num_threads);
  for (unsigned w = 0; w < num_threads; ++w) {
    shards_.push_back(
        std::make_unique<Shard>(graph_, config, root_distribution));
  }
  if (num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(num_threads - 1, config.pin_threads);
  }
}

LocalThreadBackend::~LocalThreadBackend() = default;

void LocalThreadBackend::SampleRange(unsigned w, uint64_t begin, uint64_t end,
                                     const SampleFilter* filter) {
  Shard& shard = *shards_[w];
  for (uint64_t i = begin; i < end; ++i) {
    if (filter != nullptr && !(*filter)(i)) continue;
    Rng rng = SampleIndexRng(seed_, i);
    const RRSampleInfo info =
        shard.sampler.SampleRandomRoot(rng, &shard.scratch);
    shard.sets.Add(shard.scratch, info.width);
    shard.edges.push_back(info.edges_examined);
    // Index recording is only needed when a filter punches holes in the
    // range; unfiltered consumers reconstruct indices positionally, and
    // the hot contiguous paths skip the extra store.
    if (filter != nullptr) shard.indices.push_back(i);
  }
}

void LocalThreadBackend::SampleList(unsigned w,
                                    std::span<const uint64_t> indices) {
  Shard& shard = *shards_[w];
  for (uint64_t i : indices) {
    Rng rng = SampleIndexRng(seed_, i);
    const RRSampleInfo info =
        shard.sampler.SampleRandomRoot(rng, &shard.scratch);
    shard.sets.Add(shard.scratch, info.width);
    shard.edges.push_back(info.edges_examined);
    shard.indices.push_back(i);
  }
}

void LocalThreadBackend::ResetShards() {
  for (auto& shard : shards_) {
    shard->sets.Clear();
    shard->edges.clear();
    shard->indices.clear();
    shard->chunks.clear();
  }
  chunk_views_.clear();
}

SampleBackend::Chunk LocalThreadBackend::MakeChunk(unsigned w, size_t begin,
                                                   size_t end) const {
  const Shard& shard = *shards_[w];
  Chunk chunk;
  chunk.sets = &shard.sets;
  chunk.edges = &shard.edges;
  chunk.indices = shard.indices.empty() ? nullptr : &shard.indices;
  chunk.begin = begin;
  chunk.end = end;
  return chunk;
}

void LocalThreadBackend::BuildChunkTable(uint64_t num_chunks) {
  // Ordered by global chunk id == index order, whoever produced each
  // chunk.
  chunk_views_.resize(num_chunks);
  for (unsigned w = 0; w < static_cast<unsigned>(shards_.size()); ++w) {
    const Shard& shard = *shards_[w];
    for (size_t i = 0; i < shard.chunks.size(); ++i) {
      const size_t set_end = i + 1 < shard.chunks.size()
                                 ? shard.chunks[i + 1].second
                                 : shard.sets.num_sets();
      chunk_views_[shard.chunks[i].first] =
          MakeChunk(w, shard.chunks[i].second, set_end);
    }
  }
}

Status LocalThreadBackend::Fill(uint64_t base, uint64_t count,
                                const SampleFilter* filter) {
  ResetShards();
  const unsigned nw = static_cast<unsigned>(shards_.size());
  if (nw == 1 || count < 2 * nw) {
    SampleRange(0, base, base + count, filter);
    chunk_views_.push_back(MakeChunk(0, 0, shards_[0]->sets.num_sets()));
    return Status::OK();
  }
  // Dynamic split: workers claim fixed-size index chunks off an atomic
  // counter, so a worker that lands a run of heavy RR sets simply claims
  // fewer chunks instead of stalling the batch (a fixed contiguous split
  // load-imbalances on heavy-tailed set sizes). Content stays
  // thread-count invariant because a chunk's sets depend only on its
  // indices, and the merge below reassembles chunks in index order.
  const uint64_t num_chunks = (count + kFillChunkSets - 1) / kFillChunkSets;
  std::atomic<uint64_t> next_chunk{0};
  pool_->ParallelRun(nw, [&](unsigned w) {
    Shard& shard = *shards_[w];
    uint64_t c;
    while ((c = next_chunk.fetch_add(1, std::memory_order_relaxed)) <
           num_chunks) {
      const uint64_t begin = base + c * kFillChunkSets;
      const uint64_t end = std::min(base + count, begin + kFillChunkSets);
      shard.chunks.emplace_back(c, shard.sets.num_sets());
      SampleRange(w, begin, end, filter);
    }
  });
  BuildChunkTable(num_chunks);
  return Status::OK();
}

Status LocalThreadBackend::FillList(std::span<const uint64_t> indices) {
  ResetShards();
  const unsigned nw = static_cast<unsigned>(shards_.size());
  const uint64_t count = indices.size();
  if (nw == 1 || count < 2 * nw) {
    SampleList(0, indices);
    chunk_views_.push_back(MakeChunk(0, 0, shards_[0]->sets.num_sets()));
    return Status::OK();
  }
  // Same dynamic-claim merge as Fill, over slices of the list instead of
  // index ranges: O(listed) work regardless of how sparse the listed
  // indices sit in the global stream.
  const uint64_t num_chunks = (count + kFillChunkSets - 1) / kFillChunkSets;
  std::atomic<uint64_t> next_chunk{0};
  pool_->ParallelRun(nw, [&](unsigned w) {
    Shard& shard = *shards_[w];
    uint64_t c;
    while ((c = next_chunk.fetch_add(1, std::memory_order_relaxed)) <
           num_chunks) {
      const uint64_t begin = c * kFillChunkSets;
      const uint64_t end = std::min(count, begin + kFillChunkSets);
      shard.chunks.emplace_back(c, shard.sets.num_sets());
      SampleList(w, indices.subspan(begin, end - begin));
    }
  });
  BuildChunkTable(num_chunks);
  return Status::OK();
}

bool LocalThreadBackend::AppendDirect(uint64_t base, uint64_t count,
                                      RRCollection* out,
                                      uint64_t* edges_examined,
                                      uint64_t* traversal_cost,
                                      std::vector<uint64_t>* per_set_edges) {
  if (shards_.size() != 1) return false;
  // Sequential fast path: append straight into the output, no shard copy.
  // Identical output by the per-index seeding argument. Member counts are
  // unknown until sampled, so only the per-set arrays are pre-sized (the
  // chunked path also reserves the node array, from its shard totals).
  out->Reserve(count, 0);
  Shard& shard = *shards_[0];
  for (uint64_t i = base; i < base + count; ++i) {
    Rng rng = SampleIndexRng(seed_, i);
    const RRSampleInfo info =
        shard.sampler.SampleRandomRoot(rng, &shard.scratch);
    out->Add(shard.scratch, info.width);
    *edges_examined += info.edges_examined;
    *traversal_cost += info.edges_examined + shard.scratch.size();
    if (per_set_edges != nullptr) {
      per_set_edges->push_back(info.edges_examined);
    }
  }
  return true;
}

}  // namespace timpp
