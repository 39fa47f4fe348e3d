// SamplingEngine — the one place RR sets get generated.
//
// Every phase of every RIS-family algorithm in this library (Algorithm 2's
// doubling loop, Algorithm 3's θ′ batch, Algorithm 1's θ batch, IMM's
// progressive x_i batches, Borgs et al.'s cost-threshold loop) consumes
// i.i.d. random RR sets, so they all parallelize the same way. The engine
// owns the global index stream and exposes batch primitives that fill an
// RRCollection; the physical production of each index range is delegated
// to a pluggable SampleBackend (engine/sample_backend.h): in-process
// worker threads by default, coordinated worker subprocesses under
// `--backend=procs:N`. No phase implements its own sampling loop.
//
// Determinism contract (bit-reproducibility independent of thread count,
// worker count, and backend): the engine numbers RR sets with a monotone
// global index and every backend derives set i's RNG stream from
// (config.seed, i) alone — SampleIndexRng — so a set's content does not
// depend on which worker (thread OR process) produced it. Backends return
// fills as chunks ordered by global index, and the engine merges them in
// that order via RRCollection::AppendRange. The resulting collection is
// therefore byte-identical for every value of config.num_threads
// (including 1), every worker count, and across backends. Batch
// boundaries (kSetsPerBatch / kSetsPerCostBatch) are fixed constants so
// early-stop checks (memory budget, cost threshold) fire at the same set
// index regardless of parallelism.
//
// Error model: local fills cannot fail, but a process-shard fill can (a
// worker dies mid-shard, a handshake is rejected). The engine latches the
// first backend error in status() and stops producing sets — callers get
// a short batch plus a non-OK status, never silently truncated results.
#ifndef TIMPP_ENGINE_SAMPLING_ENGINE_H_
#define TIMPP_ENGINE_SAMPLING_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "engine/run_options.h"
#include "engine/sample_backend.h"
#include "graph/graph.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"
#include "util/alias_table.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/types.h"

namespace timpp {

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
  /// weight for node-weighted influence — local backends only.
  SamplingEngine(const Graph& graph, const SamplingConfig& config,
                 const AliasTable* root_distribution = nullptr);
  ~SamplingEngine();

  SamplingEngine(const SamplingEngine&) = delete;
  SamplingEngine& operator=(const SamplingEngine&) = delete;

  const Graph& graph() const { return graph_; }
  const SamplingConfig& config() const { return config_; }
  unsigned num_threads() const { return config_.num_threads; }

  /// The backend producing this engine's samples (diagnostics and test
  /// fault injection; never needed on the solve paths).
  SampleBackend& backend() { return *backend_; }

  /// Snapshot of the backend's fault-tolerance counters (all zero for the
  /// local backend and for healthy distributed runs). Safe to call
  /// concurrently with sampling — solvers take before/after snapshots to
  /// report per-run deltas.
  BackendStats backend_stats() const { return backend_->stats(); }

  /// First backend error, if any. Once non-OK, every further batch call
  /// returns immediately with zero sets; callers that observed a short
  /// batch must check this before trusting downstream results. Local
  /// fills never fail; process-shard fills fail on worker crashes,
  /// handshake rejections (graph hash mismatch), or protocol errors.
  /// The first error wins and is latched atomically, so concurrent
  /// readers (serving requests sharing a cache engine) observe either OK
  /// or that first error — never a torn write. Returns by value for the
  /// same reason.
  Status status() const;

  /// Total RR sets generated by this engine so far (== the next global set
  /// index). Successive batch calls consume disjoint index ranges, so a
  /// whole multi-phase run is one deterministic sample stream.
  uint64_t sets_sampled() const { return next_index_; }

  /// Appends `count` fresh random RR sets to `*out`. Stops early only if
  /// `out` goes over its memory budget (checked at fixed batch
  /// boundaries) or the backend fails (see status()). Returns accounting
  /// for the appended sets. `per_set_edges` (optional) receives each
  /// appended set's edges_examined in set order — consumers that replay
  /// subranges later (the serving layer's shared prefix cache) need the
  /// per-set split the aggregate SampleBatch cannot give back.
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
  /// backend's workers while a chunk fills, so it must be safe to invoke
  /// from multiple threads and must not read state the visitor mutates
  /// except between chunks — the visitor itself runs sequentially on the
  /// calling thread after each chunk's fill completes, which is why a
  /// visitor may safely update state (e.g. dead-set bits) the next
  /// chunk's filter reads. (Process-shard backends evaluate the filter on
  /// the coordinator before dispatch, which satisfies the same contract.)
  using SampleFilter = ::timpp::SampleFilter;
  using SampleVisitor =
      std::function<void(uint64_t index, std::span<const NodeId> nodes)>;

  /// Streams the RR sets of global indices [first, first + count) through
  /// `visit` in index order WITHOUT retaining them — the sample-and-
  /// discard primitive behind memory-budgeted selection. Because set i is
  /// a pure function of (config.seed, i), this regenerates past indices
  /// exactly and "generates" future ones identically to a later
  /// SampleInto; next_index_ is untouched (pair with SkipTo when the
  /// visited range should count as consumed). Regeneration runs on the
  /// backend in fixed-size chunks; only one chunk of sets is ever
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

 private:
  /// Fills [base, base + count) through the backend, latching errors into
  /// status_. Returns false when sampling must stop.
  bool FillOk(uint64_t base, uint64_t count, const SampleFilter* filter);

  /// Latches `st` as the engine error if none is set yet (first wins).
  void LatchError(Status st);

  const Graph& graph_;
  SamplingConfig config_;
  std::unique_ptr<SampleBackend> backend_;
  // Error latch: `failed_` is the lock-free fast path (release-stored
  // after the Status is in place, acquire-loaded by readers), the Status
  // itself lives behind `status_mu_` so concurrent status() calls never
  // race a writer mid-assignment.
  std::atomic<bool> failed_{false};
  mutable std::mutex status_mu_;
  Status first_error_;  // guarded by status_mu_
  uint64_t next_index_ = 0;
};

}  // namespace timpp

#endif  // TIMPP_ENGINE_SAMPLING_ENGINE_H_
