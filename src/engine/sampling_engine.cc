#include "engine/sampling_engine.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "util/thread_pool.h"

namespace timpp {

namespace {

// Fixed batch granularities. These are part of the determinism contract:
// early-stop checks (memory budget, cost threshold, set cap) run at batch
// boundaries, and keeping the boundaries independent of num_threads keeps
// the stop points independent of it too.
constexpr uint64_t kSetsPerBatch = 8192;
// Cost-threshold sampling uses small batches so the overshoot past the
// threshold (sampled but discarded sets) stays negligible.
constexpr uint64_t kSetsPerCostBatch = 256;
// Sample-and-discard streaming regenerates in small chunks so the
// transient shard buffers stay a rounding error next to any realistic
// memory budget (only one chunk of sets is resident at a time).
constexpr uint64_t kSetsPerVisitBatch = 1024;
// Work-claim granularity of a parallel fill: threads pull chunks of this
// many consecutive indices off an atomic counter. Small enough that one
// giant RR set (heavy-tailed graphs) strands at most 63 neighbours on the
// same thread, large enough that the claim and per-chunk merge overheads
// stay invisible next to the traversals.
constexpr uint64_t kFillChunkSets = 64;
static_assert(kSetsPerBatch % kFillChunkSets == 0,
              "a batch must be a run of whole fill chunks");
constexpr uint64_t kChunksPerBatch = kSetsPerBatch / kFillChunkSets;
// SampleInto's fill windows: one fork-join samples the fewest whole
// batches whose expected traversal cost (edges examined + nodes appended)
// reaches kWindowCost, at most kMaxWindowBatches. A batch of LT sets (~6
// units a set) is too little work to amortize a pool wake-up and gets the
// full window; sparse and dense IC batches (~80 and ~870 units a set) pass
// the target alone and keep one batch per fork-join, and with it their
// shard buffers' size.
constexpr uint64_t kWindowCost = uint64_t{1} << 19;
constexpr uint64_t kMaxWindowBatches = 8;

}  // namespace

struct SamplingEngine::Shard {
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
  // Chunks this thread claimed during the current fill, in claim order:
  // (global chunk id, first set the chunk produced into this shard).
  std::vector<std::pair<uint64_t, size_t>> claims;
  std::vector<NodeId> scratch;
};

SamplingEngine::SamplingEngine(const Graph& graph,
                               const SamplingConfig& config,
                               const AliasTable* root_distribution)
    : graph_(graph), config_(config) {
  config_.num_threads = std::max(1u, config_.num_threads);
  shards_.reserve(config_.num_threads);
  for (unsigned w = 0; w < config_.num_threads; ++w) {
    shards_.push_back(
        std::make_unique<Shard>(graph_, config_, root_distribution));
  }
  if (config_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(config_.num_threads - 1);
  }
}

SamplingEngine::~SamplingEngine() = default;

void SamplingEngine::SampleRange(unsigned w, uint64_t begin, uint64_t end,
                                 const SampleFilter* filter) {
  Shard& shard = *shards_[w];
  for (uint64_t i = begin; i < end; ++i) {
    if (filter != nullptr && !(*filter)(i)) continue;
    Rng rng = SampleIndexRng(config_.seed, i);
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

void SamplingEngine::Fill(uint64_t base, uint64_t count,
                          const SampleFilter* filter) {
  for (auto& shard : shards_) {
    shard->sets.Clear();
    shard->edges.clear();
    shard->indices.clear();
    shard->claims.clear();
  }
  chunks_.clear();
  const unsigned nw = static_cast<unsigned>(shards_.size());
  if (nw == 1 || count < 2 * nw) {
    SampleRange(0, base, base + count, filter);
    const size_t sets = shards_[0]->sets.num_sets();
    for (size_t begin = 0; begin < sets; begin += kFillChunkSets) {
      chunks_.push_back(
          {0, begin, std::min<size_t>(sets, begin + kFillChunkSets)});
    }
    return;
  }
  // Dynamic split: threads claim fixed-size index chunks off an atomic
  // counter, so a thread that lands a run of heavy RR sets simply claims
  // fewer chunks instead of stalling the batch (a fixed contiguous split
  // load-imbalances on heavy-tailed set sizes). Content stays
  // thread-count invariant because a chunk's sets depend only on its
  // indices, and the chunk table below restores index order.
  const uint64_t num_chunks = (count + kFillChunkSets - 1) / kFillChunkSets;
  std::atomic<uint64_t> next_chunk{0};
  pool_->ParallelRun(nw, [&](unsigned w) {
    Shard& shard = *shards_[w];
    uint64_t c;
    while ((c = next_chunk.fetch_add(1, std::memory_order_relaxed)) <
           num_chunks) {
      const uint64_t begin = base + c * kFillChunkSets;
      const uint64_t end = std::min(base + count, begin + kFillChunkSets);
      shard.claims.emplace_back(c, shard.sets.num_sets());
      SampleRange(w, begin, end, filter);
    }
  });
  // Ordered by global chunk id == index order, whoever produced each
  // chunk.
  chunks_.resize(num_chunks);
  for (unsigned w = 0; w < nw; ++w) {
    const Shard& shard = *shards_[w];
    for (size_t i = 0; i < shard.claims.size(); ++i) {
      const size_t set_end = i + 1 < shard.claims.size()
                                 ? shard.claims[i + 1].second
                                 : shard.sets.num_sets();
      chunks_[shard.claims[i].first] = {w, shard.claims[i].second, set_end};
    }
  }
}

void SamplingEngine::AppendDirect(uint64_t base, uint64_t count,
                                  RRCollection* out, SampleBatch* total,
                                  std::vector<uint64_t>* per_set_edges) {
  // Identical output to the chunked path by the per-index seeding
  // argument. Member counts are unknown until sampled, so only the
  // per-set arrays are pre-sized (the chunked path also reserves the node
  // array, from its shard totals).
  out->Reserve(count, 0);
  Shard& shard = *shards_[0];
  for (uint64_t i = base; i < base + count; ++i) {
    Rng rng = SampleIndexRng(config_.seed, i);
    const RRSampleInfo info =
        shard.sampler.SampleRandomRoot(rng, &shard.scratch);
    out->Add(shard.scratch, info.width);
    total->edges_examined += info.edges_examined;
    total->traversal_cost += info.edges_examined + shard.scratch.size();
    if (per_set_edges != nullptr) {
      per_set_edges->push_back(info.edges_examined);
    }
  }
}

uint64_t SamplingEngine::WindowBatches() const {
  if (window_sets_ == 0) return 1;  // the engine's first window
  if (window_cost_ == 0) return kMaxWindowBatches;
  // ceil(kWindowCost / expected batch cost), in exact integers: the
  // window sequence is a pure function of the stream's counters.
  const uint64_t batch_cost = window_cost_ * kSetsPerBatch;
  const uint64_t batches =
      (kWindowCost * window_sets_ + batch_cost - 1) / batch_cost;
  return std::clamp<uint64_t>(batches, 1, kMaxWindowBatches);
}

SampleBatch SamplingEngine::SampleInto(RRCollection* out, uint64_t count,
                                       std::vector<uint64_t>* per_set_edges) {
  SampleBatch total;
  uint64_t remaining = count;
  // First chunk of the current window not merged yet; a call starts with
  // no window (chunks_ may hold another primitive's fill).
  size_t next_chunk = chunks_.size();
  while (remaining > 0) {
    if (out->OverMemoryBudget()) {
      total.hit_memory_budget = true;
      break;
    }
    const uint64_t batch = std::min(remaining, kSetsPerBatch);
    if (shards_.size() == 1) {
      AppendDirect(next_index_, batch, out, &total, per_set_edges);
    } else {
      if (next_chunk == chunks_.size()) {
        Fill(next_index_,
             std::min(remaining, WindowBatches() * kSetsPerBatch), nullptr);
        next_chunk = 0;
        window_sets_ = 0;
        window_cost_ = 0;
      }
      // The window's next batch: a run of whole chunks, merged in index
      // order exactly as a one-batch fill would be.
      const size_t end_chunk =
          std::min<size_t>(chunks_.size(), next_chunk + kChunksPerBatch);
      uint64_t batch_nodes = 0;
      for (size_t c = next_chunk; c < end_chunk; ++c) {
        const Chunk& chunk = chunks_[c];
        const RRCollection& sets = shards_[chunk.shard]->sets;
        batch_nodes += sets.Offset(chunk.end) - sets.Offset(chunk.begin);
      }
      out->Reserve(batch, batch_nodes);
      uint64_t batch_edges = 0;
      for (size_t c = next_chunk; c < end_chunk; ++c) {
        const Chunk& chunk = chunks_[c];
        const Shard& shard = *shards_[chunk.shard];
        out->AppendRange(shard.sets, chunk.begin, chunk.end - chunk.begin);
        for (size_t j = chunk.begin; j < chunk.end; ++j) {
          batch_edges += shard.edges[j];
          if (per_set_edges != nullptr) {
            per_set_edges->push_back(shard.edges[j]);
          }
        }
      }
      next_chunk = end_chunk;
      total.edges_examined += batch_edges;
      total.traversal_cost += batch_edges + batch_nodes;
      window_sets_ += batch;
      window_cost_ += batch_edges + batch_nodes;
    }
    total.sets_added += batch;
    next_index_ += batch;
    remaining -= batch;
  }
  return total;
}

SampleBatch SamplingEngine::SampleUntilCost(RRCollection* out,
                                            double cost_threshold,
                                            uint64_t max_sets) {
  SampleBatch total;
  CostAdmission rule;
  rule.cost_threshold = cost_threshold;
  rule.max_sets = max_sets;
  bool stop = false;
  while (!stop) {
    if (!rule.WantsMore()) break;
    if (out->OverMemoryBudget()) {
      total.hit_memory_budget = true;
      break;
    }
    uint64_t batch = kSetsPerCostBatch;
    if (max_sets != 0) batch = std::min(batch, max_sets - rule.sets_admitted);
    Fill(next_index_, batch, nullptr);
    // Append in index order while the admission rule allows it; the set
    // that crosses the threshold is kept, the rest of the batch is
    // discarded and its indices rewound (a later batch would regenerate
    // them identically, so the stop point is batch-size independent).
    uint64_t kept = 0;
    for (const Chunk& chunk : chunks_) {
      const Shard& shard = *shards_[chunk.shard];
      for (size_t j = chunk.begin; j < chunk.end && !stop; ++j) {
        if (!rule.WantsMore()) {
          stop = true;
          break;
        }
        const auto set = shard.sets.Set(static_cast<RRSetId>(j));
        out->Add(set, shard.sets.Width(static_cast<RRSetId>(j)));
        total.edges_examined += shard.edges[j];
        rule.Admit(shard.edges[j] + set.size());
        ++kept;
      }
      if (stop) break;
    }
    next_index_ += kept;
  }
  total.sets_added = rule.sets_admitted;
  total.traversal_cost = rule.traversal_cost;
  total.hit_set_cap = rule.hit_set_cap;
  return total;
}

SampleBatch SamplingEngine::VisitSamples(uint64_t first, uint64_t count,
                                         const SampleFilter& filter,
                                         const SampleVisitor& visit) {
  SampleBatch total;
  const SampleFilter* filter_ptr = filter ? &filter : nullptr;
  for (uint64_t done = 0; done < count;) {
    const uint64_t chunk_size = std::min(count - done, kSetsPerVisitBatch);
    Fill(first + done, chunk_size, filter_ptr);
    // Chunk order == index order, so the visitor sees the filtered index
    // sequence exactly as a sequential loop would produce it. Without a
    // filter the sequence is contiguous and indices are reconstructed
    // positionally (shards record them only for filtered fills).
    uint64_t running = first + done;
    for (const Chunk& chunk : chunks_) {
      const Shard& shard = *shards_[chunk.shard];
      for (size_t j = chunk.begin; j < chunk.end; ++j) {
        const auto set = shard.sets.Set(static_cast<RRSetId>(j));
        visit(filter_ptr != nullptr ? shard.indices[j] : running++, set);
        ++total.sets_added;
        total.edges_examined += shard.edges[j];
        total.traversal_cost += shard.edges[j] + set.size();
      }
    }
    done += chunk_size;
  }
  return total;
}

void SamplingEngine::SkipTo(uint64_t index) {
  next_index_ = std::max(next_index_, index);
}

}  // namespace timpp
