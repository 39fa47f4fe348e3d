// Core scalar types shared by every timpp module.
#ifndef TIMPP_UTIL_TYPES_H_
#define TIMPP_UTIL_TYPES_H_

#include <cstdint>
#include <limits>

namespace timpp {

/// Identifier of a node in a Graph. Nodes are densely numbered [0, n).
using NodeId = uint32_t;

/// Index of an edge inside a CSR adjacency array. 64-bit so that
/// billion-edge graphs (the paper's Twitter dataset has 1.5G edges) fit.
using EdgeIndex = uint64_t;

/// Identifier of one RR set inside an RRCollection.
using RRSetId = uint32_t;

/// Most RR sets one run may sample into one collection or coverage pass:
/// ids 0 .. kMaxRRSets - 1 stay below the kInvalidRRSet sentinel. Solvers
/// check every sample size against it before sampling
/// (CheckSampleSize, core/parameters.h).
inline constexpr uint64_t kMaxRRSets = std::numeric_limits<RRSetId>::max();

/// How randomized traversals (RR-set sampling, forward IC simulation)
/// decide which arcs of a constant-probability run are live.
enum class SamplerMode {
  /// Pick per graph: geometric skips when the adjacency's constant-prob
  /// runs are long enough to amortize the log() per draw, else per-arc.
  kAuto,
  /// One Bernoulli coin per examined arc (the classic traversal).
  kPerArc,
  /// Geometric-jump traversal: per run of equal-probability arcs, jump
  /// straight to the next live arc. Exactly the same live-arc
  /// distribution as kPerArc (a run of L independent Bernoulli(p) trials
  /// IS a sequence of geometric gaps), but O(1 + successes) work per run
  /// instead of O(L).
  kSkip,
};

/// Human-readable SamplerMode name ("auto" | "perarc" | "skip").
inline const char* SamplerModeName(SamplerMode mode) {
  switch (mode) {
    case SamplerMode::kAuto:
      return "auto";
    case SamplerMode::kPerArc:
      return "perarc";
    case SamplerMode::kSkip:
      return "skip";
  }
  return "?";
}

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Sentinel for "no RR set".
inline constexpr RRSetId kInvalidRRSet = std::numeric_limits<RRSetId>::max();

}  // namespace timpp

#endif  // TIMPP_UTIL_TYPES_H_
