// Unit tests for graph/graph_io.h: text edge lists and the binary format.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "gen/generators.h"
#include "graph/graph_io.h"
#include "graph/weight_models.h"
#include "tests/test_util.h"

namespace timpp {
namespace {

// RAII temp file that deletes itself.
class TempFile {
 public:
  explicit TempFile(const std::string& contents = "") {
    path_ = ::testing::TempDir() + "/timpp_io_test_" +
            std::to_string(counter_++) + ".tmp";
    if (!contents.empty()) {
      std::ofstream out(path_);
      out << contents;
    }
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  static int counter_;
  std::string path_;
};
int TempFile::counter_ = 0;

TEST(EdgeListTest, ParsesSimpleList) {
  TempFile file("0 1\n1 2\n2 0\n");
  GraphBuilder builder;
  ASSERT_TRUE(ReadEdgeList(file.path(), EdgeListOptions{}, &builder).ok());
  Graph g;
  ASSERT_TRUE(builder.Build(&g).ok());
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_FLOAT_EQ(g.OutArcs(0)[0].prob, 1.0f);  // default prob
}

TEST(EdgeListTest, ParsesProbabilityColumn) {
  TempFile file("0 1 0.25\n1 2 0.75\n");
  GraphBuilder builder;
  ASSERT_TRUE(ReadEdgeList(file.path(), EdgeListOptions{}, &builder).ok());
  Graph g;
  ASSERT_TRUE(builder.Build(&g).ok());
  EXPECT_FLOAT_EQ(g.OutArcs(0)[0].prob, 0.25f);
  EXPECT_FLOAT_EQ(g.OutArcs(1)[0].prob, 0.75f);
}

TEST(EdgeListTest, SkipsCommentsAndBlankLines) {
  TempFile file("# SNAP header\n% matrix-market header\n\n  \n0 1\n");
  GraphBuilder builder;
  ASSERT_TRUE(ReadEdgeList(file.path(), EdgeListOptions{}, &builder).ok());
  EXPECT_EQ(builder.num_edges(), 1u);
}

TEST(EdgeListTest, UndirectedOptionDoublesArcs) {
  TempFile file("0 1\n1 2\n");
  EdgeListOptions options;
  options.undirected = true;
  GraphBuilder builder;
  ASSERT_TRUE(ReadEdgeList(file.path(), options, &builder).ok());
  EXPECT_EQ(builder.num_edges(), 4u);
}

TEST(EdgeListTest, DefaultProbOption) {
  TempFile file("0 1\n");
  EdgeListOptions options;
  options.default_prob = 0.125f;
  GraphBuilder builder;
  ASSERT_TRUE(ReadEdgeList(file.path(), options, &builder).ok());
  Graph g;
  ASSERT_TRUE(builder.Build(&g).ok());
  EXPECT_FLOAT_EQ(g.OutArcs(0)[0].prob, 0.125f);
}

TEST(EdgeListTest, MissingFileIsIOError) {
  GraphBuilder builder;
  Status s = ReadEdgeList("/nonexistent/really/not/here.txt",
                          EdgeListOptions{}, &builder);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

TEST(EdgeListTest, MalformedLineIsCorruption) {
  TempFile file("0 1\nnot numbers\n");
  GraphBuilder builder;
  Status s = ReadEdgeList(file.path(), EdgeListOptions{}, &builder);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.message().find(":2"), std::string::npos)
      << "should name line 2: " << s.message();
}

TEST(EdgeListTest, NegativeIdIsCorruption) {
  TempFile file("-3 1\n");
  GraphBuilder builder;
  EXPECT_TRUE(
      ReadEdgeList(file.path(), EdgeListOptions{}, &builder).IsCorruption());
}

TEST(EdgeListTest, WriteReadRoundTrip) {
  // Weighted-cascade probabilities (1 / in-degree) need every digit of the
  // shortest float form: at 6 digits, 8,078 of these 11,988 changed bits.
  GraphBuilder wc;
  GenBarabasiAlbert(2000, 3, 7, &wc);
  // In-arc lists follow insertion order, so insert in the (from, to) order
  // a written list reads back in: then the ContentHash must match too.
  wc.DeduplicateEdges();
  AssignWeightedCascade(&wc);
  ASSERT_EQ(wc.num_edges(), 11988u);
  Graph original;
  ASSERT_TRUE(wc.Build(&original).ok());
  TempFile file;
  ASSERT_TRUE(WriteEdgeList(original, file.path()).ok());

  GraphBuilder builder;
  ASSERT_TRUE(ReadEdgeList(file.path(), EdgeListOptions{}, &builder).ok());
  Graph restored;
  ASSERT_TRUE(builder.Build(&restored).ok());

  ASSERT_EQ(restored.num_nodes(), original.num_nodes());
  ASSERT_EQ(restored.num_edges(), original.num_edges());
  for (NodeId v = 0; v < original.num_nodes(); ++v) {
    auto a = original.OutArcs(v);
    auto b = restored.OutArcs(v);
    ASSERT_EQ(a.size(), b.size()) << "node " << v;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].node, b[i].node);
      EXPECT_EQ(std::bit_cast<uint32_t>(a[i].prob),
                std::bit_cast<uint32_t>(b[i].prob))
          << a[i].prob << " vs " << b[i].prob;
    }
  }
  EXPECT_EQ(restored.ContentHash(), original.ContentHash());
}

TEST(EdgeListTest, WriteReadRoundTripsFloatsThatDoubleRoundingMoves) {
  // 7.038531e-26 is the float's shortest form, but read as a double and
  // narrowed it lands on the float below.
  const float tricky = std::bit_cast<float>(uint32_t{0x15ae43fd});
  Graph original = testing::MakeGraph(2, {{0, 1, tricky}, {1, 0, 0.1f}});
  TempFile file;
  ASSERT_TRUE(WriteEdgeList(original, file.path()).ok());
  GraphBuilder builder;
  ASSERT_TRUE(ReadEdgeList(file.path(), EdgeListOptions{}, &builder).ok());
  ASSERT_EQ(builder.num_edges(), 2u);
  EXPECT_EQ(std::bit_cast<uint32_t>(builder.edges()[0].prob), 0x15ae43fdu);
  EXPECT_EQ(builder.edges()[1].prob, 0.1f);
}

TEST(EdgeListTest, AcceptsSignsCrlfExtraColumnsAndNoFinalNewline) {
  TempFile file(
      "+1 +2 +0.5 extra columns\r\n"
      "\t-0 007\t2.5E-1\r\n"
      "  % indented comment\r\n"
      "\r\n"
      "3 4");
  GraphBuilder builder;
  ASSERT_TRUE(ReadEdgeList(file.path(), EdgeListOptions{}, &builder).ok());
  ASSERT_EQ(builder.num_edges(), 3u);
  const auto& e = builder.edges();
  EXPECT_EQ(e[0].from, 1u);
  EXPECT_EQ(e[0].to, 2u);
  EXPECT_EQ(e[0].prob, 0.5f);
  EXPECT_EQ(e[1].from, 0u);
  EXPECT_EQ(e[1].to, 7u);
  EXPECT_EQ(e[1].prob, 0.25f);
  EXPECT_EQ(e[2].from, 3u);
  EXPECT_EQ(e[2].prob, 1.0f);
}

TEST(EdgeListTest, ReadsFromAPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string text = "0 1\n1 2 0.5\n";
  ASSERT_EQ(::write(fds[1], text.data(), text.size()),
            static_cast<ssize_t>(text.size()));
  ::close(fds[1]);
  GraphBuilder builder;
  const Status s = ReadEdgeList("/dev/fd/" + std::to_string(fds[0]),
                                EdgeListOptions{}, &builder);
  ::close(fds[0]);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(builder.num_edges(), 2u);
}

TEST(EdgeListTest, ReadErrorIsIOError) {
  // A directory opens but fails its first read(2), which must not read as
  // an empty graph.
  GraphBuilder builder;
  Status s = ReadEdgeList(::testing::TempDir(), EdgeListOptions{}, &builder);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

TEST(EdgeListTest, IdPast32BitsIsCorruptionNotWrapped) {
  // 4294967303 = 2^32 + 7 must not wrap to arc 7 -> 1.
  TempFile file("4294967303 1\n");
  GraphBuilder builder;
  Status s = ReadEdgeList(file.path(), EdgeListOptions{}, &builder);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.message().find(":1: node id out of range"), std::string::npos)
      << s.message();
  EXPECT_EQ(builder.num_edges(), 0u);
}

TEST(EdgeListTest, IdAtInvalidNodeIsCorruption) {
  // An endpoint of kInvalidNode would wrap AddEdge's node count, and Build
  // would write out of bounds.
  TempFile file("0 1\n4294967295 0\n");
  GraphBuilder builder;
  Status s = ReadEdgeList(file.path(), EdgeListOptions{}, &builder);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.message().find(":2: node id out of range"), std::string::npos)
      << s.message();

  // The largest id the parser takes still fails to build: its node count
  // is kInvalidNode.
  TempFile edge("4294967294 0\n");
  GraphBuilder at_limit;
  ASSERT_TRUE(ReadEdgeList(edge.path(), EdgeListOptions{}, &at_limit).ok());
  Graph g;
  EXPECT_TRUE(at_limit.Build(&g).IsInvalidArgument());
}

TEST(EdgeListTest, BuildRejectsInvalidNodeEndpoint) {
  GraphBuilder builder;
  builder.AddEdge(0, 1, 0.5f);
  builder.AddEdge(kInvalidNode, 0, 0.5f);  // the count wraps; 2 nodes remain
  Graph g;
  Status s = builder.Build(&g);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
}

TEST(EdgeListTest, MalformedProbabilityIsCorruption) {
  // None of these may load as a silent probability 0 (a dead arc), and
  // 1e300 must not reach the float cast, where it is undefined behaviour.
  for (const char* column : {"abc", "nan", "inf", "-inf", "1e300", "1e400",
                             "0.5abc", "1e", "+-0.5", "0x1p-3", "#"}) {
    SCOPED_TRACE(column);
    TempFile file(std::string("0 1 0.5\n0 1 ") + column + "\n");
    GraphBuilder builder;
    Status s = ReadEdgeList(file.path(), EdgeListOptions{}, &builder);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_NE(s.message().find(":2: probability is not a finite float"),
              std::string::npos)
        << s.message();
  }
}

TEST(EdgeListTest, ProbabilityOutsideUnitIntervalParsesButFailsBuild) {
  // A weight pass may overwrite these (e.g. SNAP timestamps), so the
  // parser keeps them; Build rejects any that survive. An underflow past
  // double's range reads as 0.
  TempFile file("0 1 1234\n1 2 -0.5\n2 0 1e-400\n");
  GraphBuilder builder;
  ASSERT_TRUE(ReadEdgeList(file.path(), EdgeListOptions{}, &builder).ok());
  ASSERT_EQ(builder.num_edges(), 3u);
  EXPECT_EQ(builder.edges()[0].prob, 1234.0f);
  EXPECT_EQ(builder.edges()[1].prob, -0.5f);
  EXPECT_EQ(builder.edges()[2].prob, 0.0f);
  Graph g;
  EXPECT_TRUE(builder.Build(&g).IsInvalidArgument());
  AssignWeightedCascade(&builder);
  EXPECT_TRUE(builder.Build(&g).ok());
}

}  // namespace
}  // namespace timpp
