// SamplingEngine — the one place RR sets get generated.
//
// Every phase of every RIS-family algorithm in this library (Algorithm 2's
// doubling loop, Algorithm 3's θ′ batch, Algorithm 1's θ batch, IMM's
// progressive x_i batches, Borgs et al.'s cost-threshold loop) consumes
// i.i.d. random RR sets, so they all parallelize the same way. The engine
// owns the global index stream and exposes batch primitives that fill an
// RRCollection. A persistent thread pool fills private per-thread shard
// collections by claiming fixed-size index chunks off an atomic counter
// (dynamic load balancing for heavy-tailed RR-set sizes), and a chunk
// table restores global index order for the merge. No phase implements
// its own sampling loop.
//
// Determinism contract (bit-reproducibility independent of thread count):
// the engine numbers RR sets with a monotone global index and derives set
// i's RNG stream from (config.seed, i) alone — SampleIndexRng — so a set's
// content does not depend on which thread produced it. Chunks merge in
// global index order via RRCollection::AppendRange, so the resulting
// collection is byte-identical for every value of config.num_threads
// (including 1). Batch boundaries (kSetsPerBatch / kSetsPerCostBatch) are
// fixed constants so early-stop checks (memory budget, cost threshold)
// fire at the same set index regardless of parallelism. SampleInto fills
// several batches per fork-join (a window, sized from exact traversal
// counters) but merges and budget-checks them one batch at a time, so a
// window changes when sets are sampled, never which sets are kept.
//
// Error model: fills cannot fail. A batch call stops short only at the
// output's memory budget or a cost threshold, and its SampleBatch says so.
#ifndef TIMPP_ENGINE_SAMPLING_ENGINE_H_
#define TIMPP_ENGINE_SAMPLING_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "engine/run_options.h"
#include "graph/graph.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"
#include "util/alias_table.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/types.h"

namespace timpp {

class ThreadPool;

/// RNG stream of global set index `i`: a splitmix64 hash of (seed, i)
/// seeding an xoshiro stream. THE determinism contract — every fill
/// derives set content from this and nothing else, which is why shards
/// merge bit-identically no matter which thread produced them.
inline Rng SampleIndexRng(uint64_t seed, uint64_t index) {
  uint64_t state = seed + (index + 1) * 0x9e3779b97f4a7c15ULL;
  return Rng(SplitMix64(state));
}

/// Borgs et al.'s cost-threshold admission rule — the ONE definition of
/// "sample until the cumulative traversal cost reaches τ" shared by every
/// path that must stop at the same set: the engine's SampleUntilCost, the
/// serving cache's cost read, and RIS's budget continuation. Sets are
/// admitted while the running cost is below the threshold (the crossing
/// set is kept), subject to an optional set cap; keeping the check order
/// in one place is what keeps those paths bit-identical.
struct CostAdmission {
  double cost_threshold = 0.0;
  uint64_t max_sets = 0;  // 0 = uncapped
  uint64_t traversal_cost = 0;
  uint64_t sets_admitted = 0;
  bool hit_set_cap = false;

  /// Whether the rule admits another set. Latches hit_set_cap when the
  /// cap (not the threshold) is what stops it.
  bool WantsMore() {
    if (static_cast<double>(traversal_cost) >= cost_threshold) return false;
    if (max_sets != 0 && sets_admitted >= max_sets) {
      hit_set_cap = true;
      return false;
    }
    return true;
  }

  /// Accounts one admitted set of traversal cost `set_cost` (edges
  /// examined + nodes appended).
  void Admit(uint64_t set_cost) {
    traversal_cost += set_cost;
    ++sets_admitted;
  }
};

/// Accounting for one batch call.
struct SampleBatch {
  /// RR sets appended to the output collection.
  uint64_t sets_added = 0;
  /// Edges examined across all appended sets' traversals.
  uint64_t edges_examined = 0;
  /// Borgs et al. cost units: edges examined + nodes appended.
  uint64_t traversal_cost = 0;
  /// SampleUntilCost stopped because `max_sets` was reached.
  bool hit_set_cap = false;
  /// Sampling stopped early because the output collection went over its
  /// memory budget (RRCollection::set_memory_budget).
  bool hit_memory_budget = false;
  /// Of `sets_added`, how many were served from a shared prefix cache
  /// instead of freshly sampled (serving layer; engine paths leave 0).
  uint64_t sets_reused = 0;
};

/// Parallel RR-set generator bound to one graph and one SamplingConfig
/// (engine/run_options.h). Not thread-safe: one batch call at a time (the
/// engine parallelizes internally).
class SamplingEngine {
 public:
  /// `config` is copied (sliced, when a solver passes its options); its
  /// borrowed pointers must outlive the engine. `root_distribution`
  /// (borrowed; nullptr = uniform roots, Definition 2) draws roots ∝ node
  /// weight for node-weighted influence. `config.num_threads` fixes the
  /// pool size (1 = sequential).
  SamplingEngine(const Graph& graph, const SamplingConfig& config,
                 const AliasTable* root_distribution = nullptr);
  ~SamplingEngine();

  SamplingEngine(const SamplingEngine&) = delete;
  SamplingEngine& operator=(const SamplingEngine&) = delete;

  const Graph& graph() const { return graph_; }
  const SamplingConfig& config() const { return config_; }
  unsigned num_threads() const { return config_.num_threads; }

  /// Always OK: fills cannot fail. Kept only because the end-to-end
  /// benchmark's replay (e2ebench/replay.cc) calls it after every phase;
  /// it goes once that replay stops calling it.
  Status status() const { return Status::OK(); }

  /// Total RR sets generated by this engine so far (== the next global set
  /// index). Successive batch calls consume disjoint index ranges, so a
  /// whole multi-phase run is one deterministic sample stream.
  uint64_t sets_sampled() const { return next_index_; }

  /// Appends `count` fresh random RR sets to `*out`. Stops early only if
  /// `out` goes over its memory budget, checked at every 8192-set batch
  /// boundary; the sets of a stop's window past it are dropped and the
  /// stream cursor stays at the stop. One fork-join fills a window of up
  /// to eight batches: the fewest whose expected traversal cost, at the
  /// previous window's cost per set, reaches a fixed target (the engine's
  /// first window is one batch). Cheap sets (LT) get wide windows and
  /// expensive ones (dense IC) one batch per window; the window sequence
  /// is a pure function of exact counters and never changes the output.
  /// Returns accounting for the appended sets. `per_set_edges` (optional)
  /// receives each appended set's edges_examined in set order — consumers
  /// that replay subranges later (the serving layer's shared prefix cache)
  /// need the per-set split the aggregate SampleBatch cannot give back.
  SampleBatch SampleInto(RRCollection* out, uint64_t count,
                         std::vector<uint64_t>* per_set_edges = nullptr);

  /// Appends fresh random RR sets to `*out` until their cumulative
  /// traversal cost (edges examined + nodes appended, Borgs et al.'s unit)
  /// reaches `cost_threshold`: sets keep being appended while the running
  /// cost is below the threshold, so the set that crosses it is kept.
  /// `max_sets` (0 = none) caps the number of appended sets as an
  /// out-of-memory guard. Deterministic in config.seed alone.
  SampleBatch SampleUntilCost(RRCollection* out, double cost_threshold,
                              uint64_t max_sets = 0);

  /// Per-index filter and visitor for VisitSamples. The visitor receives
  /// the global set index and the set's members (the span is only valid
  /// for the duration of the call). The filter runs CONCURRENTLY on the
  /// engine's threads while a chunk fills, so it must be safe to invoke
  /// from multiple threads and must not read state the visitor mutates
  /// except between chunks — the visitor itself runs sequentially on the
  /// calling thread after each chunk's fill completes, which is why a
  /// visitor may safely update state (e.g. dead-set bits) the next
  /// chunk's filter reads.
  using SampleFilter = std::function<bool(uint64_t index)>;
  using SampleVisitor =
      std::function<void(uint64_t index, std::span<const NodeId> nodes)>;

  /// Streams the RR sets of global indices [first, first + count) through
  /// `visit` in index order WITHOUT retaining them — the sample-and-
  /// discard primitive behind memory-budgeted selection. Because set i is
  /// a pure function of (config.seed, i), this regenerates past indices
  /// exactly and "generates" future ones identically to a later
  /// SampleInto; next_index_ is untouched (pair with SkipTo when the
  /// visited range should count as consumed). Regeneration runs on the
  /// engine's threads in fixed-size chunks; only one chunk of sets is ever
  /// resident. `filter` (optional) skips the traversal of indices it
  /// rejects entirely — used to avoid regenerating RR sets already known
  /// dead to a coverage pass. Returns accounting for the visited sets.
  SampleBatch VisitSamples(uint64_t first, uint64_t count,
                           const SampleFilter& filter,
                           const SampleVisitor& visit);

  /// Advances the global set index to `index` (no-op when already past
  /// it) without generating anything. Budgeted phases use this after
  /// sample-and-discard streaming so later phases consume the same index
  /// ranges as a budget-off run — the determinism contract extends across
  /// the budget setting, not just across thread counts.
  void SkipTo(uint64_t index);

  /// The engine's worker pool (nullptr at one thread), idle between batch
  /// calls. Only the engine's owner may borrow it (EngineSampleSource's
  /// pool(), and StreamingGreedyMaxCover, which drives the engine alone);
  /// an engine shared across requests must not lend it, because
  /// ThreadPool::ParallelRun admits one caller at a time.
  ThreadPool* pool() const { return pool_.get(); }

 private:
  /// Per-thread state: a private sampler plus shard buffers refilled each
  /// fill. Samplers persist across fills so traversal scratch
  /// (VisitMarker, BFS queue) is allocated once per engine.
  struct Shard;

  /// One claimed slice of a fill's output: shard `shard`'s sets
  /// [begin, end). chunks_ lists them in global index order, so walking
  /// them walks the filled range exactly as a sequential loop would.
  struct Chunk {
    unsigned shard = 0;
    size_t begin = 0;
    size_t end = 0;
  };

  /// Produces the RR sets of global indices [base, base + count) into the
  /// shards, skipping indices `filter` (optional) rejects, and rebuilds
  /// chunks_: kFillChunkSets produced sets per chunk (the last may be
  /// short), in index order. Results stay valid until the next Fill.
  void Fill(uint64_t base, uint64_t count, const SampleFilter* filter);

  /// Batches SampleInto's next window holds (see SampleInto).
  uint64_t WindowBatches() const;

  /// Samples global indices [begin, end) into shard `w`'s buffers,
  /// skipping indices rejected by `filter` (may be null).
  void SampleRange(unsigned w, uint64_t begin, uint64_t end,
                   const SampleFilter* filter);

  /// The 1-thread SampleInto path: appends sets [base, base + count)
  /// straight into `*out`, no shard copy, accumulating into `*total`.
  void AppendDirect(uint64_t base, uint64_t count, RRCollection* out,
                    SampleBatch* total, std::vector<uint64_t>* per_set_edges);

  const Graph& graph_;
  SamplingConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Chunk> chunks_;         // rebuilt by every Fill
  std::unique_ptr<ThreadPool> pool_;  // nullptr when num_threads == 1
  uint64_t next_index_ = 0;
  // Sets SampleInto merged from its latest window, and their traversal
  // cost: the basis of the next window's size.
  uint64_t window_sets_ = 0;
  uint64_t window_cost_ = 0;
};

}  // namespace timpp

#endif  // TIMPP_ENGINE_SAMPLING_ENGINE_H_
