// Unit tests for graph/graph.h and graph/graph_builder.h.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "tests/test_util.h"

namespace timpp {
namespace {

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder builder;
  Graph g;
  ASSERT_TRUE(builder.Build(&g).ok());
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphBuilderTest, NodeCountFromMaxEndpoint) {
  GraphBuilder builder;
  builder.AddEdge(2, 7, 0.5f);
  EXPECT_EQ(builder.num_nodes(), 8u);
  Graph g;
  ASSERT_TRUE(builder.Build(&g).ok());
  EXPECT_EQ(g.num_nodes(), 8u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(GraphBuilderTest, ReserveNodesCreatesIsolatedNodes) {
  GraphBuilder builder;
  builder.ReserveNodes(5);
  Graph g;
  ASSERT_TRUE(builder.Build(&g).ok());
  EXPECT_EQ(g.num_nodes(), 5u);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(g.OutDegree(v), 0u);
    EXPECT_EQ(g.InDegree(v), 0u);
  }
}

TEST(GraphBuilderTest, ReserveNodesNeverShrinks) {
  GraphBuilder builder;
  builder.AddEdge(0, 9, 1.0f);
  builder.ReserveNodes(3);
  EXPECT_EQ(builder.num_nodes(), 10u);
}

TEST(GraphTest, OutAndInArcsAreConsistent) {
  Graph g = testing::MakeGraph(4, {{0, 1, 0.1f},
                                   {0, 2, 0.2f},
                                   {1, 2, 0.3f},
                                   {2, 3, 0.4f},
                                   {3, 0, 0.5f}});
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 5u);

  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.InDegree(2), 2u);

  // Every out-arc must appear as the matching in-arc.
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const Arc& a : g.OutArcs(u)) {
      bool found = false;
      for (const Arc& b : g.InArcs(a.node)) {
        if (b.node == u && b.prob == a.prob) found = true;
      }
      EXPECT_TRUE(found) << "arc " << u << "->" << a.node
                         << " missing from transpose";
    }
  }
}

TEST(GraphTest, DegreesSumToEdgeCount) {
  Graph g = testing::MakeTwoCommunities(0.5f);
  uint64_t out_sum = 0, in_sum = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out_sum += g.OutDegree(v);
    in_sum += g.InDegree(v);
  }
  EXPECT_EQ(out_sum, g.num_edges());
  EXPECT_EQ(in_sum, g.num_edges());
}

TEST(GraphTest, ParallelEdgesAreKept) {
  Graph g = testing::MakeGraph(2, {{0, 1, 0.5f}, {0, 1, 0.25f}});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.InDegree(1), 2u);
}

TEST(GraphTest, InProbSum) {
  Graph g = testing::MakeGraph(3, {{0, 2, 0.25f}, {1, 2, 0.5f}});
  EXPECT_NEAR(g.InProbSum(2), 0.75, 1e-6);
  EXPECT_DOUBLE_EQ(g.InProbSum(0), 0.0);
}

TEST(GraphTest, MemoryBytesGrowsWithSize) {
  Graph small = testing::MakeChain(10, 0.5f);
  Graph large = testing::MakeChain(1000, 0.5f);
  EXPECT_GT(large.MemoryBytes(), small.MemoryBytes());
  EXPECT_GT(small.MemoryBytes(), 0u);
}

TEST(GraphTest, MemoryBytesChargesRunMetadata) {
  // The Figure 12 memory experiment must see the prob-run arrays: the
  // accounting must cover at least the raw CSR payload plus one EdgeIndex
  // per run and per-node run offsets in both directions.
  Graph g = testing::MakeChain(100, 0.5f);
  const size_t csr_payload =
      2 * 101 * sizeof(EdgeIndex) + 2 * g.num_edges() * sizeof(Arc);
  const size_t run_payload =
      (2 * 101 + g.num_in_runs() + g.num_out_runs()) * sizeof(EdgeIndex) +
      (g.num_in_runs() + g.num_out_runs()) * sizeof(double);
  EXPECT_GE(g.MemoryBytes(), csr_payload + run_payload);
}

TEST(GraphTest, ConstantProbabilityListsAreSingleRuns) {
  // Every in-arc of a node shares one probability (the weighted-cascade
  // shape) -> exactly one run spanning the whole list.
  Graph g = testing::MakeGraph(
      4, {{0, 3, 0.25f}, {1, 3, 0.25f}, {2, 3, 0.25f}, {0, 1, 0.5f}});
  ASSERT_EQ(g.InDegree(3), 3u);
  const auto runs = g.InRunEnds(3);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], 3u);
  EXPECT_EQ(g.InRunEnds(1).size(), 1u);
  EXPECT_EQ(g.InRunEnds(0).size(), 0u);  // no in-arcs, no runs
}

TEST(GraphTest, MixedProbabilitiesSplitIntoMaximalRuns) {
  // In-arc list of node 5 in insertion order: probs .1 .1 .3 .3 .3 .2 ->
  // runs of length 2, 3, 1 (local ends 2, 5, 6).
  Graph g = testing::MakeGraph(6, {{0, 5, 0.1f},
                                   {1, 5, 0.1f},
                                   {2, 5, 0.3f},
                                   {3, 5, 0.3f},
                                   {4, 5, 0.3f},
                                   {0, 5, 0.2f}});
  const auto runs = g.InRunEnds(5);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0], 2u);
  EXPECT_EQ(runs[1], 5u);
  EXPECT_EQ(runs[2], 6u);
  // Run probabilities are read off the first arc of each run.
  const auto arcs = g.InArcs(5);
  EXPECT_FLOAT_EQ(arcs[0].prob, 0.1f);
  EXPECT_FLOAT_EQ(arcs[2].prob, 0.3f);
  EXPECT_FLOAT_EQ(arcs[5].prob, 0.2f);
}

TEST(GraphTest, AvgRunLengthReflectsRunStructure) {
  // Chain with one probability: every non-source node has a single
  // length-1 in-run -> average length 1. Star into node 0 with equal
  // probs: node 0 has one run of length n-1.
  Graph star = [] {
    std::vector<RawEdge> edges;
    for (NodeId v = 1; v < 9; ++v) edges.push_back({v, 0, 0.125f});
    return testing::MakeGraph(9, edges);
  }();
  EXPECT_DOUBLE_EQ(star.AvgInRunLength(), 8.0);
  EXPECT_GE(star.AvgInRunLength(), kSkipRunLengthThreshold);
  Graph chain = testing::MakeChain(10, 0.5f);
  EXPECT_DOUBLE_EQ(chain.AvgInRunLength(), 1.0);
  Graph empty;
  EXPECT_DOUBLE_EQ(empty.AvgInRunLength(), 0.0);
  EXPECT_DOUBLE_EQ(empty.AvgOutRunLength(), 0.0);
}

TEST(GraphBuilderTest, RejectsProbabilityAboveOne) {
  GraphBuilder builder;
  builder.AddEdge(0, 1, 1.5f);
  Graph g;
  Status s = builder.Build(&g);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(GraphBuilderTest, RejectsNegativeProbability) {
  GraphBuilder builder;
  builder.AddEdge(0, 1, -0.1f);
  Graph g;
  EXPECT_TRUE(builder.Build(&g).IsInvalidArgument());
}

TEST(GraphBuilderTest, RejectsNonFiniteProbability) {
  GraphBuilder builder;
  builder.AddEdge(0, 1, std::numeric_limits<float>::quiet_NaN());
  Graph g;
  EXPECT_TRUE(builder.Build(&g).IsInvalidArgument());
  GraphBuilder builder2;
  builder2.AddEdge(0, 1, std::numeric_limits<float>::infinity());
  EXPECT_TRUE(builder2.Build(&g).IsInvalidArgument());
}

TEST(GraphBuilderTest, UndirectedEdgeAddsBothArcs) {
  GraphBuilder builder;
  builder.AddUndirectedEdge(0, 1, 0.5f);
  Graph g;
  ASSERT_TRUE(builder.Build(&g).ok());
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.OutDegree(0), 1u);
  EXPECT_EQ(g.OutDegree(1), 1u);
}

TEST(GraphBuilderTest, DeduplicateRemovesExactPairs) {
  GraphBuilder builder;
  builder.AddEdge(0, 1, 0.5f);
  builder.AddEdge(0, 1, 0.9f);  // duplicate pair, different prob
  builder.AddEdge(1, 0, 0.5f);  // reverse direction is distinct
  builder.DeduplicateEdges();
  EXPECT_EQ(builder.num_edges(), 2u);
  Graph g;
  ASSERT_TRUE(builder.Build(&g).ok());
  // First occurrence wins.
  EXPECT_FLOAT_EQ(g.OutArcs(0)[0].prob, 0.5f);
}

TEST(GraphBuilderTest, RemoveSelfLoops) {
  GraphBuilder builder;
  builder.AddEdge(0, 0, 1.0f);
  builder.AddEdge(0, 1, 1.0f);
  builder.AddEdge(1, 1, 0.5f);
  builder.RemoveSelfLoops();
  EXPECT_EQ(builder.num_edges(), 1u);
}

TEST(GraphBuilderTest, BuilderIsReusableAfterBuild) {
  GraphBuilder builder;
  builder.AddEdge(0, 1, 1.0f);
  Graph g1;
  ASSERT_TRUE(builder.Build(&g1).ok());
  builder.AddEdge(1, 2, 1.0f);
  Graph g2;
  ASSERT_TRUE(builder.Build(&g2).ok());
  EXPECT_EQ(g1.num_edges(), 1u);
  EXPECT_EQ(g2.num_edges(), 2u);
  EXPECT_EQ(g2.num_nodes(), 3u);
}

TEST(GraphTest, ArcOrderFollowsInsertionWithinSource) {
  Graph g = testing::MakeGraph(4, {{0, 3, 0.1f}, {0, 1, 0.2f}, {0, 2, 0.3f}});
  auto arcs = g.OutArcs(0);
  ASSERT_EQ(arcs.size(), 3u);
  EXPECT_EQ(arcs[0].node, 3u);
  EXPECT_EQ(arcs[1].node, 1u);
  EXPECT_EQ(arcs[2].node, 2u);
}

TEST(GraphContentHashTest, SensitiveToWeightsOrderAndDirection) {
  const auto build = [](float p01, float p12, bool extra) {
    GraphBuilder b;
    b.AddEdge(0, 1, p01);
    b.AddEdge(1, 2, p12);
    if (extra) b.AddEdge(2, 0, 0.5f);
    Graph g;
    EXPECT_TRUE(b.Build(&g).ok());
    return g;
  };
  const Graph base = build(0.3f, 0.7f, false);
  EXPECT_EQ(base.ContentHash(), build(0.3f, 0.7f, false).ContentHash());
  EXPECT_NE(base.ContentHash(), build(0.31f, 0.7f, false).ContentHash());
  EXPECT_NE(base.ContentHash(), build(0.7f, 0.3f, false).ContentHash());
  EXPECT_NE(base.ContentHash(), build(0.3f, 0.7f, true).ContentHash());
}

}  // namespace
}  // namespace timpp
