// RunOptions — the run knobs every RR-set solve shares, declared once.
//
// TIM, TIM+, IMM and RIS draw every phase from one RR stream, and set i of
// that stream is a pure function of the stream's identity and i (see
// SampleIndexRng in engine/sampling_engine.h). The knobs layer by what
// they are allowed to change:
//
//   StreamKey       decides set content — equal keys, equal streams.
//   SamplingConfig  adds the thread count, which sizes the solve's one
//                   worker pool; never content.
//   RunOptions      adds the memory budget and the spill tier; never
//                   seeds, θ or LB (only resident bytes and extra passes).
//
// TimOptions, ImmOptions, RisOptions, SolverOptions and ImRequest all
// derive from RunOptions, so a solver hands its options straight to a
// SamplingEngine and callers copy one base instead of a field list.
// RrRunStats is the matching counter block every RR solver reports.
#ifndef TIMPP_ENGINE_RUN_OPTIONS_H_
#define TIMPP_ENGINE_RUN_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "diffusion/triggering.h"
#include "util/types.h"

namespace timpp {

/// The facets that select a distinct RR stream. Serving caches and phase
/// memos key on exactly these fields: content is invariant to everything
/// the derived structs add, so one cache serves any thread count or
/// budget.
struct StreamKey {
  /// Diffusion model; kTriggering requires `custom_model`.
  DiffusionModel model = DiffusionModel::kIC;
  /// Traversal strategy: geometric skip sampling over constant-probability
  /// arc runs vs one coin per arc (SamplerMode). Modes sample the same
  /// RR-set distribution but consume RNG streams differently, so switching
  /// modes changes individual sets (not their statistics).
  SamplerMode sampler_mode = SamplerMode::kAuto;
  /// Propagation-round bound (0 = unlimited): depth-d RR sets optimize the
  /// time-critical spread "nodes activated within d rounds" (Chen et al.,
  /// AAAI'12), and every guarantee carries over via the depth-d analog of
  /// Lemma 2.
  uint32_t max_hops = 0;
  /// Master seed. Together with a set's global index it fully determines
  /// the set.
  uint64_t seed = 0x7145ULL;
  /// Borrowed; must outlive the run (and any serving context that caches
  /// a stream under this key). Used when model == kTriggering.
  const TriggeringModel* custom_model = nullptr;

  auto operator<=>(const StreamKey&) const = default;
};

/// A stream plus the threads that sample it. Results are bit-identical at
/// every thread count.
struct SamplingConfig : StreamKey {
  /// Total sampling parallelism (calling thread included); 1 =
  /// sequential.
  unsigned num_threads = 1;
};

/// Everything an RR-set solve needs beyond its algorithm parameters.
struct RunOptions : SamplingConfig {
  /// Soft cap (bytes; 0 = unlimited) on resident RR-collection DataBytes.
  /// Past it, selection degrades to streaming sample-and-discard greedy
  /// over a retained stream prefix (coverage/streaming_cover.h): same
  /// seeds, θ and LB, bounded memory, extra sampling passes. One policy
  /// applies it, SelectNodes (core/node_selector.h): the retained prefix
  /// stays within the cap, and the inverted index is built only when it
  /// fits too. TIM budgets node selection (its KPT phases keep small
  /// collections), IMM both phases, RIS its cost loop and selection.
  /// Every RR solver refuses a budget together with a SolveContext source
  /// (InvalidArgument): the budget caps one run's resident bytes, and its
  /// streaming greedy drives the source's engine alone. Solvers without
  /// RR collections ignore it.
  size_t memory_budget_bytes = 0;
  /// Parent directory for disk-spilled RR prefixes (empty = no spill
  /// tier). Only consulted when memory_budget_bytes trips: non-resident
  /// index ranges are written once as sequential chunks and replayed each
  /// greedy round instead of regenerated — same seeds, with
  /// regeneration_passes == 0 while the store stays healthy. The chunks
  /// live in one file in a unique per-run subdirectory, deleted when the
  /// run ends.
  std::string spill_dir;
};

/// Budget and spill counters of one RR-set solve.
struct RrRunStats {
  /// memory_budget_bytes forced streaming selection (in any phase).
  bool hit_memory_budget = false;
  /// RR sets resident for the final selection (== θ budget-off).
  uint64_t rr_sets_retained = 0;
  /// Greedy rounds that regenerated discarded RR sets by graph traversal
  /// (0 budget-off, and 0 under a healthy spill store).
  uint64_t regeneration_passes = 0;
  /// Spill-tier activity (zero without a spill_dir): sets written to
  /// disk, sets replayed from disk across all greedy rounds, and chunk
  /// bytes written.
  uint64_t rr_sets_spilled = 0;
  uint64_t sets_spill_read = 0;
  uint64_t spill_bytes_written = 0;
};

}  // namespace timpp

#endif  // TIMPP_ENGINE_RUN_OPTIONS_H_
