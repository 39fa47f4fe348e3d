#include "serving/rr_cache.h"

#include <algorithm>
#include <utility>

namespace timpp {

namespace {

// Growth granularity of the cost-threshold read: mirrors the engine's
// kSetsPerCostBatch so the overshoot past the threshold (cached but not
// yet served sets) matches what a standalone SampleUntilCost would have
// sampled and rewound — overshoot here is not waste, the sets stay cached
// for the next request.
constexpr uint64_t kCostGrowBatch = 256;

// First chunk directory capacity; doubled on exhaustion, so a stream of C
// chunks retires O(log C) directories totalling under 2C pointers.
constexpr size_t kInitialDirCapacity = 16;

}  // namespace

SharedRRCache::SharedRRCache(const Graph& graph, const SamplingConfig& config)
    : engine_(graph, config) {}

SharedRRCache::~SharedRRCache() = default;

void SharedRRCache::EnsurePrefix(uint64_t count) {
  if (count <= cached_sets()) return;
  std::lock_guard<std::mutex> lock(grow_mu_);
  // Recheck: another writer may have grown past `count` while this one
  // waited on the lock. committed_ only advances under grow_mu_, so a
  // relaxed load is exact here.
  const uint64_t have = committed_.load(std::memory_order_relaxed);
  if (count <= have) return;
  auto chunk = std::make_unique<Chunk>(graph().num_nodes());
  chunk->first = have;
  const SampleBatch batch =
      engine_.SampleInto(&chunk->sets, count - have, &chunk->edges);
  total_sets_sampled_.fetch_add(batch.sets_added, std::memory_order_relaxed);
  // A published chunk never grows again: drop its growth slack so the
  // context's byte budget, which evicts by MemoryBytes, prices data and
  // not allocator headroom.
  chunk->sets.ShrinkToFit();
  chunk->edges.shrink_to_fit();

  // Publish: slot write first, then the counters in release order. A
  // reader that acquires the new committed_ value is guaranteed to see
  // the directory state these stores are sequenced after.
  Directory* dir = dir_.load(std::memory_order_relaxed);
  const size_t nc = num_chunks_.load(std::memory_order_relaxed);
  if (dir == nullptr || nc == dir->capacity) {
    auto fresh = std::make_unique<Directory>(
        dir == nullptr ? kInitialDirCapacity : dir->capacity * 2);
    for (size_t i = 0; i < nc; ++i) fresh->slots[i] = dir->slots[i];
    dir = fresh.get();
    // The outgrown directory is retired, not freed: a reader between its
    // dir_ load and its slot reads may still be walking it.
    owned_dirs_.push_back(std::move(fresh));
    dir_.store(dir, std::memory_order_release);
  }
  dir->slots[nc] = chunk.get();
  owned_chunks_.push_back(std::move(chunk));
  num_chunks_.store(nc + 1, std::memory_order_release);
  committed_.store(have + batch.sets_added, std::memory_order_release);
}

const SharedRRCache::Chunk* SharedRRCache::FindChunk(uint64_t index) const {
  // Caller already acquire-loaded a committed_ value above `index`; these
  // loads are sequenced after it, so they see at least the directory
  // state published with that prefix.
  const size_t nc = num_chunks_.load(std::memory_order_acquire);
  const Directory* dir = dir_.load(std::memory_order_acquire);
  // Largest chunk whose first index is <= index.
  size_t lo = 0;
  size_t hi = nc;
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    if (dir->slots[mid]->first <= index) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return dir->slots[lo];
}

SampleBatch SharedRRCache::Read(uint64_t first, uint64_t count,
                                RRCollection* out,
                                std::vector<uint64_t>* per_set_edges) {
  SampleBatch batch;
  const uint64_t cached_before = cached_sets();
  if (first + count > cached_before) EnsurePrefix(first + count);
  const uint64_t end = first + count;
  uint64_t nodes_appended = 0;
  for (uint64_t i = first; i < end;) {
    const Chunk* chunk = FindChunk(i);
    const uint64_t local_first = i - chunk->first;
    const uint64_t local_end =
        std::min<uint64_t>(chunk->sets.num_sets(), end - chunk->first);
    out->AppendRange(chunk->sets, local_first, local_end - local_first);
    for (uint64_t j = local_first; j < local_end; ++j) {
      batch.edges_examined += chunk->edges[j];
      if (per_set_edges != nullptr) per_set_edges->push_back(chunk->edges[j]);
    }
    nodes_appended +=
        chunk->sets.Offset(local_end) - chunk->sets.Offset(local_first);
    i = chunk->first + local_end;
  }
  batch.sets_added = count;
  batch.traversal_cost = batch.edges_examined + nodes_appended;
  batch.sets_reused =
      first >= cached_before
          ? 0
          : std::min<uint64_t>(count, cached_before - first);
  total_sets_served_.fetch_add(batch.sets_added, std::memory_order_relaxed);
  total_sets_reused_.fetch_add(batch.sets_reused, std::memory_order_relaxed);
  return batch;
}

SampleBatch SharedRRCache::ReadUntilCost(uint64_t first, double cost_threshold,
                                         uint64_t max_sets,
                                         RRCollection* out) {
  SampleBatch batch;
  CostAdmission rule;
  rule.cost_threshold = cost_threshold;
  rule.max_sets = max_sets;
  const uint64_t cached_before = cached_sets();
  const Chunk* chunk = nullptr;
  uint64_t i = first;
  while (rule.WantsMore()) {
    if (i >= cached_sets()) EnsurePrefix(i + kCostGrowBatch);
    // Chunks are immutable, so a cached chunk pointer stays valid and its
    // set count final — advance to the next chunk only when walking off
    // this one's end.
    if (chunk == nullptr || i >= chunk->first + chunk->sets.num_sets()) {
      chunk = FindChunk(i);
    }
    const uint64_t j = i - chunk->first;
    const auto set = chunk->sets.Set(static_cast<RRSetId>(j));
    out->Add(set, chunk->sets.Width(static_cast<RRSetId>(j)));
    batch.edges_examined += chunk->edges[j];
    rule.Admit(chunk->edges[j] + set.size());
    if (i < cached_before) ++batch.sets_reused;
    ++i;
  }
  batch.sets_added = rule.sets_admitted;
  batch.traversal_cost = rule.traversal_cost;
  batch.hit_set_cap = rule.hit_set_cap;
  total_sets_served_.fetch_add(batch.sets_added, std::memory_order_relaxed);
  total_sets_reused_.fetch_add(batch.sets_reused, std::memory_order_relaxed);
  return batch;
}

size_t SharedRRCache::MemoryBytes() const {
  // Acquire the published prefix first so the directory walk below is
  // ordered after a publish we synchronized with.
  (void)committed_.load(std::memory_order_acquire);
  const size_t nc = num_chunks_.load(std::memory_order_acquire);
  const Directory* dir = dir_.load(std::memory_order_acquire);
  size_t total = 0;
  for (size_t i = 0; i < nc; ++i) {
    const Chunk* chunk = dir->slots[i];
    total += chunk->sets.MemoryBytes() +
             chunk->edges.capacity() * sizeof(uint64_t);
  }
  if (dir != nullptr) total += dir->capacity * sizeof(Chunk*);
  return total;
}

SampleBatch CachedSampleSource::Fetch(RRCollection* out, uint64_t count,
                                      std::vector<uint64_t>* per_set_edges) {
  SampleBatch batch = cache_->Read(cursor_, count, out, per_set_edges);
  cursor_ += batch.sets_added;
  sets_reused_ += batch.sets_reused;
  sets_sampled_ += batch.sets_added - batch.sets_reused;
  return batch;
}

SampleBatch CachedSampleSource::FetchUntilCost(RRCollection* out,
                                               double cost_threshold,
                                               uint64_t max_sets) {
  SampleBatch batch =
      cache_->ReadUntilCost(cursor_, cost_threshold, max_sets, out);
  cursor_ += batch.sets_added;
  sets_reused_ += batch.sets_reused;
  sets_sampled_ += batch.sets_added - batch.sets_reused;
  return batch;
}

}  // namespace timpp
