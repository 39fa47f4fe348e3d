// Shared helpers for the timpp test suite: small canonical graphs and
// statistical assertion helpers for Monte-Carlo comparisons.
#ifndef TIMPP_TESTS_TEST_UTIL_H_
#define TIMPP_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "engine/sampling_engine.h"
#include "gen/generators.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/weight_models.h"
#include "util/types.h"

namespace timpp {
namespace testing {

/// SamplingConfig for a plain-IC engine with the given seed and thread
/// count — the common case across the suite.
inline SamplingConfig IcSampling(uint64_t seed, unsigned num_threads = 1) {
  SamplingConfig config;
  config.model = DiffusionModel::kIC;
  config.seed = seed;
  config.num_threads = num_threads;
  return config;
}

/// Builds a graph from explicit (from, to, prob) triples; aborts the test on
/// builder failure.
inline Graph MakeGraph(NodeId num_nodes,
                       const std::vector<RawEdge>& edges) {
  GraphBuilder builder;
  builder.ReserveNodes(num_nodes);
  for (const RawEdge& e : edges) builder.AddEdge(e.from, e.to, e.prob);
  Graph g;
  Status s = builder.Build(&g);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return g;
}

/// 0 -> 1 -> 2 -> ... with probability p on every edge.
inline Graph MakeChain(NodeId n, float p) {
  std::vector<RawEdge> edges;
  for (NodeId v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1, p});
  return MakeGraph(n, edges);
}

/// Hub 0 -> {1..n-1} with probability p on every spoke.
inline Graph MakeOutStar(NodeId n, float p) {
  std::vector<RawEdge> edges;
  for (NodeId v = 1; v < n; ++v) edges.push_back({0, v, p});
  return MakeGraph(n, edges);
}

/// Scale-free Barabasi-Albert graph with weighted-cascade probabilities —
/// the paper's §7.1 IC setting, where every in-arc list is a single
/// constant-probability run and geometric skip sampling applies exactly.
inline Graph MakeWcPowerLaw(NodeId n, unsigned attach, uint64_t seed) {
  GraphBuilder builder;
  GenBarabasiAlbert(n, attach, seed, &builder);
  AssignWeightedCascade(&builder);
  Graph g;
  Status s = builder.Build(&g);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return g;
}

/// A 10-node, 15-arc test network with two communities (0-4 dense, 5-9
/// sparse) bridged by 4->5. Small enough for the exact IC oracle
/// (15 <= 20 edges) yet structured enough that influence maximization has a
/// non-trivial answer.
inline Graph MakeTwoCommunities(float p) {
  std::vector<RawEdge> edges = {
      {0, 1, p}, {0, 2, p}, {1, 2, p}, {1, 3, p}, {2, 3, p},
      {3, 4, p}, {2, 0, p}, {4, 0, p},                          // community A
      {4, 5, p},                                                // bridge
      {5, 6, p}, {6, 7, p}, {7, 8, p}, {8, 9, p}, {5, 8, p},
      {9, 5, p},                                                // community B
  };
  return MakeGraph(10, edges);
}

/// Self-cleaning spill parent directory, unique per process and instance
/// (test binaries run concurrently under ctest -j).
class TempSpillDir {
 public:
  TempSpillDir() {
    dir_ = ::testing::TempDir() + "/timpp_spill_test_" +
           std::to_string(::getpid()) + "_" + std::to_string(counter_++);
  }
  ~TempSpillDir() {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  TempSpillDir(const TempSpillDir&) = delete;
  TempSpillDir& operator=(const TempSpillDir&) = delete;
  const std::string& path() const { return dir_; }

 private:
  inline static int counter_ = 0;
  std::string dir_;
};

/// EXPECT that two Monte-Carlo quantities agree within both an absolute
/// floor and a relative band. MC tests in this suite use fixed seeds, so
/// they are deterministic; the band just needs to absorb the sampling error
/// of the chosen sample sizes.
inline void ExpectClose(double expected, double actual, double rel_tol,
                        double abs_tol = 0.05) {
  const double tol = std::max(abs_tol, rel_tol * std::abs(expected));
  EXPECT_NEAR(expected, actual, tol)
      << "expected=" << expected << " actual=" << actual;
}

}  // namespace testing
}  // namespace timpp

#endif  // TIMPP_TESTS_TEST_UTIL_H_
