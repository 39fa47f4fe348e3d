#include "coverage/streaming_cover.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <vector>

#include "util/bit_vector.h"
#include "util/thread_pool.h"
#include "util/types.h"

namespace timpp {

size_t MaxPrefixUnderDataBudget(const RRCollection& rr, size_t budget_bytes) {
  // DataBytes of a p-set prefix (no index): p+1 offsets, p widths, and the
  // members of the first p sets.
  size_t nodes = 0;
  size_t prefix = 0;
  for (size_t id = 0; id < rr.num_sets(); ++id) {
    nodes += rr.Set(static_cast<RRSetId>(id)).size();
    const size_t bytes = (id + 2) * sizeof(EdgeIndex) +
                         (id + 1) * sizeof(uint64_t) + nodes * sizeof(NodeId);
    if (bytes > budget_bytes) break;
    prefix = id + 1;
  }
  return prefix;
}

bool IndexedDataBytesFitBudget(const RRCollection& rr, size_t budget_bytes) {
  const size_t index_bytes =
      (static_cast<size_t>(rr.num_graph_nodes()) + 1) * sizeof(EdgeIndex) +
      rr.total_nodes() * sizeof(RRSetId);
  return rr.DataBytes() + index_bytes <= budget_bytes;
}

namespace {

// Resident sets per pass work unit: a claim's cost stays negligible next
// to the unit, while a few thousand units still balance the workers. The
// same size as the spill tier's default chunk.
constexpr uint64_t kSetsPerSlice = 4096;

// One work unit of a coverage pass: global indices [first, first + count)
// of the resident prefix, or of a single spill chunk.
struct PassUnit {
  uint64_t first;
  uint64_t count;
  bool spilled;
};

// Everything one pass worker writes; merged by the caller after the pass.
struct PassWorker {
  std::vector<uint32_t> counts;
  /// Local ids of live sets this pass found covered by a selected seed.
  std::vector<RRSetId> killed;
  /// Spill units whose read or decode failed this pass.
  std::vector<size_t> failed;
  uint64_t sets_spill_read = 0;
  RRSpillStore::ChunkScratch scratch;
};

// One pass over the work unit held as sets [lo, hi) of `sets`, whose set
// `lo` has local id `local_lo`. Scans the unit's members as one flat
// array. The first pass (no seed yet) adds every member: no set is dead
// before a seed is picked. A later pass finds `newest` in the array and
// walks a forward cursor over the offsets to the set of each hit; a live
// set that holds it has its members taken back out and is listed as
// killed. A node occurs at most once per RR set, so these are exactly the
// sets and decrements a per-set membership test finds; the scan still
// resumes after the hit set's end, so a repeated node cannot count twice.
// uint32_t arithmetic wraps, so a worker's net-negative contribution
// still sums exactly.
void ScanUnit(const RRCollection& sets, size_t lo, size_t hi,
              uint64_t local_lo, NodeId newest, const BitVector& dead,
              PassWorker* me) {
  const std::span<const NodeId> members = sets.Members(lo, hi);
  if (newest == kInvalidNode) {
    for (NodeId v : members) ++me->counts[v];
    return;
  }
  const EdgeIndex base = sets.Offset(lo);
  size_t set = lo;
  for (auto it = std::find(members.begin(), members.end(), newest);
       it != members.end();) {
    const EdgeIndex at = base + static_cast<EdgeIndex>(it - members.begin());
    while (sets.Offset(set + 1) <= at) ++set;
    const uint64_t local = local_lo + (set - lo);
    if (!dead.Get(local)) {
      for (NodeId v : sets.Set(static_cast<RRSetId>(set))) --me->counts[v];
      me->killed.push_back(static_cast<RRSetId>(local));
    }
    it = std::find(members.begin() + (sets.Offset(set + 1) - base),
                   members.end(), newest);
  }
}

}  // namespace

StreamingCoverResult StreamingGreedyMaxCover(SamplingEngine& engine,
                                             const RRCollection& cache,
                                             uint64_t first_index,
                                             uint64_t total_sets, int k,
                                             RRSpillStore* spill) {
  const NodeId n = engine.graph().num_nodes();
  StreamingCoverResult result;
  if (k <= 0 || n == 0 || total_sets == 0) return result;
  assert(total_sets <= kMaxRRSets);

  const uint64_t cached = std::min<uint64_t>(cache.num_sets(), total_sets);
  const uint64_t end = first_index + total_sets;

  // Plan the passes once: resident slices, then the spill chunks' parts of
  // the uncached suffix, and the uncovered ranges between them, which
  // every round regenerates.
  std::vector<PassUnit> units;
  for (uint64_t s = 0; s < cached; s += kSetsPerSlice) {
    units.push_back(
        {first_index + s, std::min(kSetsPerSlice, cached - s), false});
  }
  std::vector<PassUnit> gaps;
  uint64_t pos = first_index + cached;
  if (spill != nullptr && pos < end) {
    for (const RRSpillStore::ChunkRange& chunk :
         spill->ChunksOverlapping(pos, end - pos)) {
      const uint64_t lo = std::max(chunk.first, pos);
      const uint64_t hi = std::min(chunk.first + chunk.count, end);
      if (lo > pos) gaps.push_back({pos, lo - pos, false});
      units.push_back({lo, hi - lo, true});
      pos = hi;
    }
  }
  if (pos < end) gaps.push_back({pos, end - pos, false});

  // The passes run on the engine's pool: between them this function
  // drives the engine's VisitSamples, so it has the engine to itself.
  ThreadPool* const pool = engine.pool();
  const unsigned num_workers = static_cast<unsigned>(std::clamp<size_t>(
      units.size(), 1, std::max(1u, engine.num_threads())));
  std::vector<PassWorker> workers(num_workers);
  for (PassWorker& worker : workers) worker.counts.resize(n);
  // Worker 0's counts are the live-coverage counts the rounds pick from;
  // the other workers' hold one pass's contributions, folded in after it.
  std::vector<uint32_t>& counts = workers[0].counts;

  // Chosen seeds, out of the running for future picks, and the one picked
  // last. Written only between passes.
  std::vector<char> selected(n, 0);
  NodeId newest = kInvalidNode;
  // Liveness of each of the θ sets (local id = global index -
  // first_index). A set dies the first time a pass sees it covered by the
  // selected seeds; a dead set is never regenerated again and a pass
  // ignores its members (seeds only grow, so death is permanent).
  // Read-only during a pass; the pass's deaths are applied after it.
  BitVector dead(total_sets);
  const auto live = [&](uint64_t index) {
    return !dead.Get(index - first_index);
  };

  // Regeneration's step for one live set, ScanUnit's rule: the first pass
  // adds the set into `into`; a later pass takes it back out, reporting it
  // covered, if it holds the newest seed (older seeds' sets are dead
  // already). The counts stay those of the live sets, as GreedyMaxCover's
  // decrements keep them.
  const auto absorb = [&](std::vector<uint32_t>& into,
                          std::span<const NodeId> set) {
    if (newest == kInvalidNode) {
      for (NodeId v : set) ++into[v];
      return true;
    }
    if (std::find(set.begin(), set.end(), newest) == set.end()) return true;
    for (NodeId v : set) --into[v];
    return false;
  };

  std::atomic<size_t> next_unit{0};
  const auto run_pass = [&](unsigned w) {
    PassWorker& me = workers[w];
    if (w != 0) std::fill(me.counts.begin(), me.counts.end(), 0);
    for (size_t u; (u = next_unit.fetch_add(1, std::memory_order_relaxed)) <
                   units.size();) {
      const PassUnit& unit = units[u];
      const uint64_t local = unit.first - first_index;
      if (!unit.spilled) {
        ScanUnit(cache, local, local + unit.count, local, newest, dead, &me);
        continue;
      }
      // The pass reads the unit's live sets: the count the spill
      // counters report.
      const uint64_t live_sets =
          unit.count - dead.CountRange(local, local + unit.count);
      const auto scan = [&](uint64_t chunk_first, const RRCollection& sets) {
        const uint64_t lo = unit.first - chunk_first;
        ScanUnit(sets, lo, lo + unit.count, local, newest, dead, &me);
        return live_sets;
      };
      if (spill->VisitChunk(unit.first, unit.count, scan, &me.scratch).ok()) {
        me.sets_spill_read += live_sets;
      } else {
        me.failed.push_back(u);
      }
    }
  };

  std::vector<PassUnit> regenerate;
  for (int round = 0; round < k; ++round) {
    next_unit.store(0, std::memory_order_relaxed);
    if (pool != nullptr) {
      pool->ParallelRun(num_workers, run_pass);
    } else {
      run_pass(0);
    }
    // Fold the other workers' contributions into the live counts here:
    // one vectorized add per worker costs less than waking the pool a
    // second time.
    for (unsigned w = 1; w < num_workers; ++w) {
      const std::vector<uint32_t>& other = workers[w].counts;
      for (NodeId v = 0; v < n; ++v) counts[v] += other[v];
    }

    regenerate = gaps;
    uint64_t spill_read = 0;
    for (PassWorker& worker : workers) {
      for (RRSetId local : worker.killed) dead.Set(local);
      worker.killed.clear();
      for (size_t u : worker.failed) regenerate.push_back(units[u]);
      worker.failed.clear();
      spill_read += worker.sets_spill_read;
      worker.sets_spill_read = 0;
    }
    if (spill_read > 0) ++result.spill_read_passes;
    result.sets_spill_read += spill_read;

    // Regenerate what no chunk replayed. Sequential visits, so the
    // visitor may update counts and dead bits directly.
    uint64_t regenerated = 0;
    for (const PassUnit& range : regenerate) {
      const SampleBatch pass = engine.VisitSamples(
          range.first, range.count, live,
          [&](uint64_t index, std::span<const NodeId> set) {
            if (!absorb(counts, set)) dead.Set(index - first_index);
          });
      regenerated += pass.sets_added;
      result.edges_examined += pass.edges_examined;
    }
    if (regenerated > 0) ++result.regeneration_passes;
    result.sets_regenerated += regenerated;

    // Exact greedy pick: max count, ties to the smaller node id (ascending
    // scan with a strict comparison).
    NodeId best = kInvalidNode;
    for (NodeId v = 0; v < n; ++v) {
      if (selected[v]) continue;
      if (best == kInvalidNode || counts[v] > counts[best]) best = v;
    }
    if (best == kInvalidNode) break;  // every node selected
    selected[best] = 1;
    newest = best;
    result.cover.seeds.push_back(best);
    result.cover.marginal_coverage.push_back(counts[best]);
    result.cover.covered_sets += counts[best];
  }

  result.cover.covered_fraction =
      static_cast<double>(result.cover.covered_sets) /
      static_cast<double>(total_sets);
  return result;
}

namespace {

// Sets per spill call of a fill: the engine's per-visit batch, so a chunk
// a coverage pass decodes holds what a regeneration visit would have.
constexpr uint64_t kSetsPerFillChunk = 1024;
// Sets per engine call of a fill: the engine's own batch size, so a call
// wakes its threads once. Eight chunks per wake-up keep a fill's
// fork-joins few; the engine's shards already hold a batch this size.
constexpr uint64_t kSetsPerFillSample = 8 * kSetsPerFillChunk;

}  // namespace

SpillFillResult SpillFillTo(SampleSource& source, RRSpillStore& spill,
                            uint64_t target_index) {
  SpillFillResult result;
  const NodeId n = source.graph().num_nodes();
  // IMM's LB iterations re-fill the same stream with growing targets:
  // skip the prefix already on disk instead of resampling it.
  if (source.position() < target_index) {
    source.Seek(spill.CoveredEnd(source.position(),
                                 target_index - source.position()));
  }
  RRCollection scratch(n);
  std::vector<uint64_t> scratch_edges;
  while (result.spill_ok && source.position() < target_index) {
    const uint64_t pos = source.position();
    scratch.Clear();
    scratch_edges.clear();
    source.Fetch(&scratch, std::min(kSetsPerFillSample, target_index - pos),
                 &scratch_edges);
    // Spill chunk by chunk, accounting each chunk's sampling as it goes:
    // a failed write stops the fill, and the sets after it regenerate at
    // cover time, where they are accounted instead.
    for (size_t done = 0; done < scratch.num_sets();) {
      const size_t count = static_cast<size_t>(std::min<uint64_t>(
          kSetsPerFillChunk, scratch.num_sets() - done));
      uint64_t edges = 0;
      for (size_t j = done; j < done + count; ++j) edges += scratch_edges[j];
      result.batch.sets_added += count;
      result.batch.edges_examined += edges;
      result.batch.traversal_cost +=
          edges + (scratch.Offset(done + count) - scratch.Offset(done));
      if (!spill.SpillRange(scratch, scratch_edges, done, count, pos + done)
               .ok()) {
        result.spill_ok = false;
        break;
      }
      result.sets_spilled += count;
      done += count;
    }
  }
  // Land later phases on the same stream indices as a budget-off run even
  // when spilling stopped short.
  source.Seek(target_index);
  return result;
}

}  // namespace timpp
