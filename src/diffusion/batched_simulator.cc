#include "diffusion/batched_simulator.h"

#include <bit>
#include <cmath>

namespace timpp {

namespace {

/// Above this probability sparse arcs flip one coin per pending lane
/// instead of geometric-skip jumps: a log draw costs several uniform
/// draws, and expected jumps (1 + p·trials) approach the trial count as p
/// grows, so skips stop paying for themselves around p ~ 1/8.
constexpr float kCoinProbability = 0.125f;

/// "No clamp" limit for NextSkip when jumping across a run's flattened
/// trial sequence — the skip is bounded by ln(2^-53)/ln(1-p) anyway, far
/// below 2^64 for any p the graph can store.
constexpr uint64_t kUnbounded = ~0ULL;

/// With at most this many pending lanes (and sparse p) a run is sampled
/// once per lane with the scalar geometric-skip idiom instead of per arc:
/// past the first hops most frontier nodes carry very few lanes, and the
/// per-arc path's visited-bitmap load for every arc — dead or alive — is
/// exactly the memory traffic that makes it lose to the scalar simulator
/// on large graphs. Skipping per lane touches visited state only at live
/// landings, like the scalar sampler.
constexpr int kPerLaneSkipLanes = 4;

/// Writes p ∈ (0, 1) as m·2^-k with m odd — the float's finite binary
/// expansion, whose length k drives the bitwise-exact mask draw below.
void DecomposeProb(float p, uint32_t* m, int* k) {
  int exp;
  const float frac = std::frexp(p, &exp);  // p = frac·2^exp, frac ∈ [0.5, 1)
  const uint32_t mant = static_cast<uint32_t>(std::ldexp(frac, 24));
  const int tz = std::countr_zero(mant);
  *m = mant >> tz;
  *k = 24 - tz - exp;
}

/// 64 exact Bernoulli(m·2^-k) coins in at most k raw RNG words: process
/// the expansion bits b_k..b_1 (LSB of m upward), OR-ing a fresh random
/// word for a 1-bit and AND-ing for a 0-bit. Induction gives P(lane bit
/// set) = 0.b1…bk exactly, and lanes stay independent because the combine
/// is bitwise. For p = 1/2 this is ONE word for 64 coins; small
/// probabilities (k can exceed 33 for WC 1/indeg on high-in-degree hubs)
/// stay cheap because an all-zero accumulator short-circuits the AND tail.
uint64_t DrawBitwiseMask(Rng& rng, uint32_t m, int k) {
  uint64_t acc = 0;
  for (int i = 0; i < k; ++i) {
    // m < 2^24, so expansion bits past the mantissa are literal zeros
    // (always AND steps) and must be read as such: indexing them through
    // the 32-bit shift is UB once i reaches 32, which is reachable — any
    // p below ~0.002 decomposes with k >= 33.
    const bool bit = i < 24 && ((m >> i) & 1) != 0;
    if (acc == 0 && !bit) {
      // AND step on an all-zero accumulator: the step is a no-op, and if
      // no 1-bit remains at or above i the result is 0 regardless of the
      // remaining words. Skipping draws whose values cannot reach the
      // output keeps the joint distribution exact and caps the cost for
      // tiny p (a subnormal would otherwise burn ~150 words per arc).
      if (i >= 24 || (m >> i) == 0) return 0;
      continue;
    }
    const uint64_t r = rng.Next();
    acc = bit ? (acc | r) : (acc & r);
  }
  return acc;
}

}  // namespace

template <typename OnActivate>
uint64_t BatchedIcSimulator::Run(std::span<const NodeId> seeds, Rng& rng,
                                 int num_lanes, uint32_t max_hops,
                                 OnActivate&& on_activate) {
  if (num_lanes < 1) num_lanes = 1;
  if (num_lanes > kMaxLanes) num_lanes = kMaxLanes;
  const uint64_t full_mask =
      num_lanes >= kMaxLanes ? ~0ULL : (1ULL << num_lanes) - 1;

  if (++epoch_ == 0) {
    // Stamp wrap (every 2^32 batches): pay one O(n) reset.
    for (NodeState& st : state_) st.stamp = 0;
    epoch_ = 1;
  }
  queue_a_.clear();
  queue_b_.clear();

  uint64_t activations = 0;
  // Marks v active in the lanes of `add` (disjoint from its visited bits
  // by construction) and stages them for propagation at level parity
  // `par` — all on v's one NodeState cache line.
  const auto activate = [&](NodeId v, uint64_t add, std::vector<NodeId>& queue,
                            int par) {
    NodeState& st = state_[v];
    if (st.stamp != epoch_) {
      st.stamp = epoch_;
      st.bits = add;
    } else {
      st.bits |= add;
    }
    if (st.pending[par] == 0) queue.push_back(v);
    st.pending[par] |= add;
    activations += static_cast<uint64_t>(std::popcount(add));
    on_activate(v, add);
  };

  for (NodeId s : seeds) {
    const uint64_t add = full_mask & ~VisitedBits(s);
    if (add != 0) activate(s, add, queue_a_, 0);
  }

  // Level-synchronous frontier expansion: `cur` holds the nodes whose
  // pending bits were first set `hops` hops from the seeds, `next`
  // collects the following level (pending words alternate by level
  // parity so same-level re-activations of a not-yet-processed node stay
  // in the next level — hop counts per lane match the scalar BFS
  // exactly). Each consumed pending word is zeroed, keeping both
  // parities all-zero across runs.
  std::vector<NodeId>* cur = &queue_a_;
  std::vector<NodeId>* next = &queue_b_;
  int par = 0;
  uint32_t hops = 0;
  while (!cur->empty()) {
    if (max_hops != 0 && hops >= max_hops) {
      // Deadline reached: the staged frontier never fires. Zero its
      // pending bits so the scratch invariant holds for the next batch.
      for (NodeId v : *cur) state_[v].pending[par] = 0;
      break;
    }
    ++hops;
    const int next_par = 1 - par;
    for (NodeId u : *cur) {
      NodeState& ust = state_[u];
      const uint64_t mask = ust.pending[par];
      ust.pending[par] = 0;
      const auto arcs = graph_.OutArcs(u);
      const auto run_ends = graph_.OutRunEnds(u);
      const auto run_invs = graph_.OutRunInvLog1mp(u);
      // Walk the runs in lockstep with the arcs. Each (arc, pending
      // lane) pair is one i.i.d. Bernoulli(p) trial — only lanes that
      // newly activated u and have not yet activated w examine the arc;
      // coins for other lanes are never relevant, so they are never
      // drawn.
      const int mask_pc = std::popcount(mask);
      EdgeIndex start = 0;
      for (size_t r = 0; r < run_ends.size(); ++r) {
        const EdgeIndex end = run_ends[r];
        const float p = arcs[start].prob;
        if (p >= 1.0f) {
          for (EdgeIndex i = start; i < end; ++i) {
            const NodeId w = arcs[i].node;
            const uint64_t pend = mask & ~VisitedBits(w);
            if (pend != 0) activate(w, pend, *next, next_par);
          }
        } else if (p > 0.0f && p < kCoinProbability &&
                   mask_pc <= kPerLaneSkipLanes) {
          // Few pending lanes at sparse p: run the scalar skip sampler
          // once per lane over the run's arcs. Visited bitmaps are
          // loaded only at live landings — scalar memory traffic —
          // instead of one pend lookup per arc; coins for arcs whose
          // target the lane already activated are drawn and ignored,
          // exactly as the scalar simulator does, so each lane's
          // cascade distribution is unchanged.
          const double inv_log1mp = run_invs[r];
          for (uint64_t lanes = mask; lanes != 0; lanes &= lanes - 1) {
            const uint64_t lane = lanes & -lanes;
            for (EdgeIndex i =
                     start + rng.NextSkip(inv_log1mp, end - start);
                 i < end; i += 1 + rng.NextSkip(inv_log1mp, end - i - 1)) {
              const NodeId w = arcs[i].node;
              const uint64_t add = lane & ~VisitedBits(w);
              if (add != 0) activate(w, add, *next, next_par);
            }
          }
        } else if (p > 0.0f) {
          // Three exact samplers, dispatched per arc on the pending-
          // lane count pc (all draw each (arc, lane) coin Bernoulli(p),
          // so the per-lane cascade distribution is unchanged):
          //  - dense pend: bitwise-exact mask, k raw words for 64 coins
          //    (k = the float's expansion length; 1 word for p = 1/2);
          //  - sparse pend, coin-friendly p: one uniform per lane;
          //  - sparse pend, sparse p: geometric skips over the run's
          //    flattened (arc × pending-lane) trial sequence — the
          //    scalar skip sampler lifted to the lane dimension,
          //    reusing the run's precomputed 1/ln(1-p). One jump
          //    covers the dead trials of many arcs at once, so a
          //    mostly-dead run costs O(1) log draws total.
          // Mixing samplers across arcs is exact: arcs' coins are
          // independent, and the geometric stream is memoryless, so
          // dense arcs simply contribute no slots to it.
          uint32_t expansion_m;
          int expansion_k;
          DecomposeProb(p, &expansion_m, &expansion_k);
          const double inv_log1mp = run_invs[r];
          const bool use_coins = p >= kCoinProbability;
          uint64_t jump =
              use_coins ? 0 : rng.NextSkip(inv_log1mp, kUnbounded);
          for (EdgeIndex i = start; i < end; ++i) {
            const NodeId w = arcs[i].node;
            const uint64_t pend = mask & ~VisitedBits(w);
            uint64_t slots = static_cast<uint64_t>(std::popcount(pend));
            if (slots == 0) continue;
            // Bitwise wins once its k words undercut one ~1.5-word
            // uniform (or one multi-word log) draw per pending lane.
            if (expansion_k <= static_cast<int>(slots + (slots >> 1))) {
              const uint64_t add =
                  pend & DrawBitwiseMask(rng, expansion_m, expansion_k);
              if (add != 0) activate(w, add, *next, next_par);
              continue;
            }
            if (use_coins) {
              uint64_t add = 0;
              for (uint64_t bits = pend; bits != 0; bits &= bits - 1) {
                if (rng.NextDouble() < p) add |= bits & -bits;
              }
              if (add != 0) activate(w, add, *next, next_par);
              continue;
            }
            if (jump >= slots) {
              jump -= slots;
              continue;
            }
            // The jump landed inside this arc's pending slots: select
            // the jump-th pending lane (ascending bit order), then keep
            // jumping within the arc until the remaining slots run out.
            uint64_t add = 0;
            uint64_t bits = pend;
            while (jump < slots) {
              for (uint64_t j = 0; j < jump; ++j) bits &= bits - 1;
              add |= bits & -bits;
              bits &= bits - 1;
              slots -= jump + 1;
              jump = rng.NextSkip(inv_log1mp, kUnbounded);
            }
            jump -= slots;
            activate(w, add, *next, next_par);
          }
          // Any leftover jump is discarded at the run boundary —
          // memorylessness makes the restart exact, and the next run's
          // p (hence inv_log1mp) differs anyway.
        }
        start = end;
      }
    }
    cur->clear();
    std::swap(cur, next);
    par = next_par;
  }
  return activations;
}

uint64_t BatchedIcSimulator::SimulateBatch(std::span<const NodeId> seeds,
                                           Rng& rng, int num_lanes,
                                           uint32_t max_hops) {
  return Run(seeds, rng, num_lanes, max_hops, [](NodeId, uint64_t) {});
}

uint64_t BatchedIcSimulator::SimulateBatchCollect(
    std::span<const NodeId> seeds, Rng& rng,
    std::vector<LaneActivation>* activated, int num_lanes,
    uint32_t max_hops) {
  activated->clear();
  return Run(seeds, rng, num_lanes, max_hops, [&](NodeId v, uint64_t add) {
    activated->push_back(LaneActivation{v, add});
  });
}

double BatchedIcSimulator::SimulateBatchWeighted(
    std::span<const NodeId> seeds, Rng& rng, std::span<const double> weights,
    int num_lanes, uint32_t max_hops) {
  double total = 0.0;
  Run(seeds, rng, num_lanes, max_hops, [&](NodeId v, uint64_t add) {
    total += static_cast<double>(std::popcount(add)) * weights[v];
  });
  return total;
}

}  // namespace timpp
