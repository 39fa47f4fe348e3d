// RR-shard wire-format tests: exact round trips (empty shards, empty
// sets, single-node sets, >64k-node sets), AppendRange merge equivalence,
// randomized fuzz, and rejection of every corruption class (magic,
// version, truncation, trailing bytes, inconsistent totals, out-of-range
// node ids) — a worker shard must decode exactly or not at all.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "rrset/rr_collection.h"
#include "rrset/rr_serialization.h"
#include "util/rng.h"
#include "util/types.h"

namespace timpp {
namespace {

// Builds a collection + aligned edge counts from explicit sets.
struct TestShard {
  explicit TestShard(NodeId num_nodes) : sets(num_nodes) {}
  RRCollection sets;
  std::vector<uint64_t> edges;

  void Add(const std::vector<NodeId>& nodes, uint64_t width, uint64_t edge) {
    sets.Add(nodes, width);
    edges.push_back(edge);
  }
};

void ExpectEqualCollections(const RRCollection& a, const RRCollection& b) {
  ASSERT_EQ(a.num_sets(), b.num_sets());
  ASSERT_EQ(a.total_nodes(), b.total_nodes());
  EXPECT_EQ(a.TotalWidth(), b.TotalWidth());
  for (size_t i = 0; i < a.num_sets(); ++i) {
    const auto sa = a.Set(static_cast<RRSetId>(i));
    const auto sb = b.Set(static_cast<RRSetId>(i));
    ASSERT_EQ(sa.size(), sb.size()) << "set " << i;
    EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin())) << "set " << i;
    EXPECT_EQ(a.Width(static_cast<RRSetId>(i)),
              b.Width(static_cast<RRSetId>(i)))
        << "set " << i;
  }
}

TEST(RRSerializationTest, RoundTripsTypicalShard) {
  TestShard shard(100);
  shard.Add({1, 2, 3}, 7, 12);
  shard.Add({99}, 1, 0);
  shard.Add({0, 50, 99, 98, 4}, 20, 33);

  std::string bytes;
  SerializeRRShard(shard.sets, shard.edges, &bytes);

  RRCollection decoded(100);
  std::vector<uint64_t> decoded_edges;
  RRShardInfo info;
  Status s = DeserializeRRShard(bytes, 100, &decoded, &decoded_edges, &info);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ExpectEqualCollections(shard.sets, decoded);
  EXPECT_EQ(decoded_edges, shard.edges);
  EXPECT_EQ(info.num_sets, 3u);
  EXPECT_EQ(info.total_nodes, 9u);
  EXPECT_EQ(info.total_edges, 45u);
}

TEST(RRSerializationTest, RoundTripsEmptyShardAndEmptySets) {
  TestShard shard(10);
  std::string bytes;
  SerializeRRShard(shard.sets, shard.edges, &bytes);
  RRCollection decoded(10);
  std::vector<uint64_t> edges;
  ASSERT_TRUE(DeserializeRRShard(bytes, 10, &decoded, &edges).ok());
  EXPECT_EQ(decoded.num_sets(), 0u);

  // Zero-member sets are representable (the format never assumes a root).
  shard.Add({}, 0, 5);
  shard.Add({3}, 2, 1);
  shard.Add({}, 0, 0);
  bytes.clear();
  SerializeRRShard(shard.sets, shard.edges, &bytes);
  RRCollection decoded2(10);
  edges.clear();
  ASSERT_TRUE(DeserializeRRShard(bytes, 10, &decoded2, &edges).ok());
  ExpectEqualCollections(shard.sets, decoded2);
  EXPECT_EQ(edges, shard.edges);
}

TEST(RRSerializationTest, RoundTripsHugeSet) {
  // >64k members: node counts must survive as full-width integers.
  const NodeId n = 70000;
  TestShard shard(n);
  std::vector<NodeId> big(69000);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<NodeId>(i);
  shard.Add(big, 123456789ULL, 987654321ULL);

  std::string bytes;
  SerializeRRShard(shard.sets, shard.edges, &bytes);
  RRCollection decoded(n);
  std::vector<uint64_t> edges;
  ASSERT_TRUE(DeserializeRRShard(bytes, n, &decoded, &edges).ok());
  ExpectEqualCollections(shard.sets, decoded);
}

TEST(RRSerializationTest, SubrangeSerializationMatchesAppendRange) {
  TestShard shard(50);
  Rng rng(99);
  for (int i = 0; i < 20; ++i) {
    std::vector<NodeId> nodes;
    const size_t size = rng.NextBounded(6);
    for (size_t j = 0; j < size; ++j) {
      nodes.push_back(static_cast<NodeId>(rng.NextBounded(50)));
    }
    shard.Add(nodes, rng.NextBounded(100), rng.NextBounded(1000));
  }

  // Decoding a [first, count) slice must equal AppendRange of that slice.
  std::string bytes;
  SerializeRRShard(shard.sets, shard.edges, 5, 9, &bytes);
  RRCollection decoded(50);
  std::vector<uint64_t> edges;
  ASSERT_TRUE(DeserializeRRShard(bytes, 50, &decoded, &edges).ok());

  RRCollection expected(50);
  expected.AppendRange(shard.sets, 5, 9);
  ExpectEqualCollections(expected, decoded);
  EXPECT_EQ(edges, std::vector<uint64_t>(shard.edges.begin() + 5,
                                         shard.edges.begin() + 14));

  // Decoding appends: a second slice lands after the first, its offsets
  // rebased past the members already stored.
  bytes.clear();
  SerializeRRShard(shard.sets, shard.edges, 0, 5, &bytes);
  ASSERT_TRUE(DeserializeRRShard(bytes, 50, &decoded, &edges).ok());
  expected.AppendRange(shard.sets, 0, 5);
  ExpectEqualCollections(expected, decoded);
  EXPECT_EQ(edges.size(), 14u);
}

TEST(RRSerializationTest, FuzzRoundTrips) {
  Rng rng(0xfeed);
  for (int round = 0; round < 50; ++round) {
    const NodeId n = 1 + static_cast<NodeId>(rng.NextBounded(500));
    TestShard shard(n);
    const size_t num_sets = rng.NextBounded(40);
    for (size_t i = 0; i < num_sets; ++i) {
      std::vector<NodeId> nodes;
      const size_t size = rng.NextBounded(30);
      for (size_t j = 0; j < size; ++j) {
        nodes.push_back(static_cast<NodeId>(rng.NextBounded(n)));
      }
      shard.Add(nodes, rng.Next(), rng.Next() >> 32);
    }
    std::string bytes;
    SerializeRRShard(shard.sets, shard.edges, &bytes);
    RRCollection decoded(n);
    std::vector<uint64_t> edges;
    ASSERT_TRUE(DeserializeRRShard(bytes, n, &decoded, &edges).ok())
        << "round " << round;
    ExpectEqualCollections(shard.sets, decoded);
    EXPECT_EQ(edges, shard.edges);
  }
}

TEST(RRSerializationTest, RejectsCorruption) {
  TestShard shard(20);
  shard.Add({1, 2}, 3, 4);
  shard.Add({5}, 1, 1);
  std::string good;
  SerializeRRShard(shard.sets, shard.edges, &good);

  RRCollection out(20);
  std::vector<uint64_t> edges;
  const auto expect_reject = [&](std::string bytes, const char* what) {
    RRCollection scratch(20);
    std::vector<uint64_t> scratch_edges;
    Status s = DeserializeRRShard(bytes, 20, &scratch, &scratch_edges);
    EXPECT_FALSE(s.ok()) << what;
    // Failed decodes must not half-append.
    EXPECT_EQ(scratch.num_sets(), 0u) << what;
    EXPECT_TRUE(scratch_edges.empty()) << what;
  };

  {
    std::string bad = good;
    bad[0] ^= 0x5a;
    expect_reject(bad, "bad magic");
  }
  {
    std::string bad = good;
    bad[4] = 99;  // version field
    expect_reject(bad, "bad version");
  }
  for (size_t cut : {size_t{3}, size_t{15}, good.size() - 1}) {
    expect_reject(good.substr(0, cut), "truncation");
  }
  expect_reject(good + "x", "trailing bytes");
  {
    // Declare more nodes in set 0 than total_nodes supports.
    std::string bad = good;
    uint64_t big = 1000;
    std::memcpy(bad.data() + 32, &big, sizeof(big));  // node_count[0]
    expect_reject(bad, "inconsistent totals");
  }
  {
    // Per-set node counts whose 64-bit sum wraps around to total_nodes.
    std::string bad = good;
    const uint64_t counts[2] = {(uint64_t{1} << 63) + 2,
                                (uint64_t{1} << 63) + 1};
    std::memcpy(bad.data() + 32, counts, sizeof(counts));  // node_count[0..1]
    expect_reject(bad, "wrapping node counts");
  }
  {
    // Out-of-range node id.
    std::string bad = good;
    uint32_t huge = 12345;
    std::memcpy(bad.data() + bad.size() - sizeof(huge), &huge, sizeof(huge));
    expect_reject(bad, "node id out of range");
  }

  // The untouched buffer still decodes after all that slicing.
  ASSERT_TRUE(DeserializeRRShard(good, 20, &out, &edges).ok());
  ExpectEqualCollections(shard.sets, out);
}

}  // namespace
}  // namespace timpp
