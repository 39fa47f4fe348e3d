// SampleSource — the solver-facing view of one RR-set sample stream.
//
// Every RIS-family phase consumes a prefix of the engine's global index
// stream. Standalone runs consume it straight from a private
// SamplingEngine; the serving layer instead serves it from a shared
// collection that persists across requests, because set i is a pure
// function of (seed, i) and therefore identical no matter which request
// first forced it into existence. SampleSource abstracts exactly that
// difference: a cursor over the stream plus "give me the next `count`
// sets", with accounting that reports how many of them were reused from a
// cache rather than freshly sampled. Core algorithms (TIM/TIM+/IMM/RIS
// phases) are written against this interface, so one implementation of
// Algorithm 1/2/3 serves both the standalone and the batch/serving paths
// with bit-identical output.
#ifndef TIMPP_ENGINE_SAMPLE_SOURCE_H_
#define TIMPP_ENGINE_SAMPLE_SOURCE_H_

#include <cstdint>
#include <vector>

#include "engine/sampling_engine.h"
#include "graph/graph.h"
#include "rrset/rr_collection.h"

namespace timpp {

/// A readable cursor over one engine's deterministic RR-set stream.
/// Implementations are not thread-safe; one consumer at a time (solver
/// phases are sequential, and the serving layer serializes requests per
/// graph context).
class SampleSource {
 public:
  virtual ~SampleSource() = default;

  /// The engine whose global index stream this source serves. Budgeted
  /// streaming phases drive it directly (VisitSamples regeneration);
  /// VisitSamples does not move the stream cursor, so such use composes
  /// with Fetch.
  virtual SamplingEngine& engine() = 0;

  /// A worker pool the consumer may use alone between its Fetch calls
  /// (the inverted-index build borrows it), or nullptr. A standalone
  /// source lends its private engine's pool. A source over a stream that
  /// concurrent requests share returns nullptr: its engine() belongs to
  /// the shared cache, and ThreadPool::ParallelRun admits one caller at a
  /// time, so never borrow engine().pool() in its place. The one
  /// exception is StreamingGreedyMaxCover, which runs its passes on the
  /// engine it is handed: it also drives that engine's VisitSamples, so
  /// it needs the engine to itself anyway, and the RR solvers reach it
  /// only without a context source (a budget with one is refused).
  virtual ThreadPool* pool() = 0;

  /// Graph the stream samples over.
  virtual const Graph& graph() const = 0;

  /// Next global stream index a Fetch will consume.
  virtual uint64_t position() const = 0;

  /// Advances the cursor to `index` (no-op when already past it) without
  /// reading anything — the budget paths use this to keep later phases on
  /// the same index ranges as a budget-off run.
  virtual void Seek(uint64_t index) = 0;

  /// Appends the next `count` sets of the stream to `*out` and advances
  /// the cursor by the sets actually delivered. Reused sets are
  /// byte-identical to freshly sampled ones (per-index RNG contract), and
  /// their accounting (edges_examined, traversal_cost) matches what
  /// sampling them here would have reported. May stop early only for the
  /// same reasons SamplingEngine::SampleInto does (output memory budget).
  /// `per_set_edges` (optional) receives each delivered set's
  /// edges-examined count in set order (appended, mirroring the appends to
  /// `*out`) — the spill tier records them so reloaded shards report the
  /// accounting a fresh sample of the same indices would.
  virtual SampleBatch Fetch(RRCollection* out, uint64_t count,
                            std::vector<uint64_t>* per_set_edges = nullptr) = 0;

  /// Cost-threshold variant (Borgs et al.'s stopping rule, see
  /// SamplingEngine::SampleUntilCost): appends sets while the running
  /// traversal cost is below `cost_threshold`; the crossing set is kept.
  /// `max_sets` (0 = none) caps the appended sets. Stops at the same set
  /// index as a standalone engine run would.
  virtual SampleBatch FetchUntilCost(RRCollection* out, double cost_threshold,
                                     uint64_t max_sets) = 0;
};

/// The standalone implementation: a thin adapter over a borrowed
/// SamplingEngine, preserving its behaviour exactly (cursor == the
/// engine's next_index_). Solvers running without a serving context wrap
/// their private engine in one of these, which is why it lends the
/// engine's pool: the engine must not be shared.
class EngineSampleSource final : public SampleSource {
 public:
  explicit EngineSampleSource(SamplingEngine& engine) : engine_(engine) {}

  SamplingEngine& engine() override { return engine_; }
  ThreadPool* pool() override { return engine_.pool(); }
  const Graph& graph() const override { return engine_.graph(); }
  uint64_t position() const override { return engine_.sets_sampled(); }
  void Seek(uint64_t index) override { engine_.SkipTo(index); }

  SampleBatch Fetch(RRCollection* out, uint64_t count,
                    std::vector<uint64_t>* per_set_edges = nullptr) override {
    return engine_.SampleInto(out, count, per_set_edges);
  }

  SampleBatch FetchUntilCost(RRCollection* out, double cost_threshold,
                             uint64_t max_sets) override {
    return engine_.SampleUntilCost(out, cost_threshold, max_sets);
  }

 private:
  SamplingEngine& engine_;
};

}  // namespace timpp

#endif  // TIMPP_ENGINE_SAMPLE_SOURCE_H_
