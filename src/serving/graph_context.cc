#include "serving/graph_context.h"

#include <algorithm>
#include <utility>

namespace timpp {

GraphContext::GraphContext(Graph graph, unsigned num_threads)
    : graph_(std::move(graph)) {
  sampling_.num_threads = std::max(1u, num_threads);
}

std::shared_ptr<SharedRRCache> GraphContext::AcquireStream(
    const StreamKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = caches_.find(key);
  if (it == caches_.end()) {
    SamplingConfig config = sampling_;
    static_cast<StreamKey&>(config) = key;
    std::shared_ptr<RRSpillStore> spill;
    if (!spill_dir_.empty()) {
      // The store persists across cache generations under this key: the
      // eviction hook filled it, this (re-)creation reads it back.
      auto store = spill_stores_.find(key);
      if (store == spill_stores_.end()) {
        RRSpillOptions spill_options;
        spill_options.dir = spill_dir_;
        store = spill_stores_
                    .emplace(key, std::make_shared<RRSpillStore>(
                                      graph_.num_nodes(), spill_options))
                    .first;
      }
      spill = store->second;
    }
    CacheEntry entry;
    entry.cache =
        std::make_shared<SharedRRCache>(graph_, config, std::move(spill));
    it = caches_.emplace(key, std::move(entry)).first;
  }
  it->second.last_used = ++use_tick_;
  return it->second.cache;
}

void GraphContext::set_cache_budget_bytes(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  cache_budget_bytes_ = bytes;
}

size_t GraphContext::cache_budget_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_budget_bytes_;
}

void GraphContext::set_spill_dir(std::string dir) {
  std::lock_guard<std::mutex> lock(mu_);
  spill_dir_ = std::move(dir);
}

std::string GraphContext::spill_dir() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spill_dir_;
}

size_t GraphContext::EnforceCacheBudget() {
  std::lock_guard<std::mutex> lock(mu_);
  if (cache_budget_bytes_ == 0) return 0;
  size_t evicted = 0;
  auto resident_bytes = [this] {
    size_t total = 0;
    for (const auto& [key, entry] : caches_) {
      total += entry.cache->MemoryBytes();
    }
    return total;
  };
  while (!caches_.empty() && resident_bytes() > cache_budget_bytes_) {
    auto victim = caches_.begin();
    for (auto it = caches_.begin(); it != caches_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    // Write the victim's published prefix to its spill store first (no-op
    // without one) so the next acquisition of this key reloads from disk.
    // Best-effort: a write failure just means a plain eviction — the
    // successor regenerates, results unchanged.
    SharedRRCache& cache = *victim->second.cache;
    (void)cache.SpillCommitted();
    // Preserve lifetime accounting before the stream leaves the map; a
    // re-created stream starts fresh counters, so reuse ratios would
    // otherwise dip spuriously after every eviction. (An in-flight reader
    // may still advance the detached cache's counters; those last few are
    // the price of not blocking eviction on live readers.)
    retired_sets_sampled_ += cache.total_sets_sampled();
    retired_sets_served_ += cache.total_sets_served();
    retired_sets_reused_ += cache.total_sets_reused();
    retired_sets_spill_loaded_ += cache.total_sets_spill_loaded();
    // Dropping the map's shared_ptr is the whole eviction: a live reader
    // holding an AcquireStream handle keeps the chunks alive; otherwise
    // they free here.
    caches_.erase(victim);
    ++evicted;
  }
  streams_evicted_ += evicted;
  return evicted;
}

size_t GraphContext::SharedMemoryBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const auto& [key, entry] : caches_) total += entry.cache->MemoryBytes();
  return total;
}

uint64_t GraphContext::TotalSetsSampled() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = retired_sets_sampled_;
  for (const auto& [key, entry] : caches_) {
    total += entry.cache->total_sets_sampled();
  }
  return total;
}

uint64_t GraphContext::TotalSetsServed() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = retired_sets_served_;
  for (const auto& [key, entry] : caches_) {
    total += entry.cache->total_sets_served();
  }
  return total;
}

uint64_t GraphContext::TotalSetsReused() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = retired_sets_reused_;
  for (const auto& [key, entry] : caches_) {
    total += entry.cache->total_sets_reused();
  }
  return total;
}

uint64_t GraphContext::TotalSetsSpillLoaded() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = retired_sets_spill_loaded_;
  for (const auto& [key, entry] : caches_) {
    total += entry.cache->total_sets_spill_loaded();
  }
  return total;
}

size_t GraphContext::NumStreams() const {
  std::lock_guard<std::mutex> lock(mu_);
  return caches_.size();
}

uint64_t GraphContext::StreamsEvicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return streams_evicted_;
}

}  // namespace timpp
