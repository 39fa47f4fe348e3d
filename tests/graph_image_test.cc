// Tests of the on-disk CSR graph image (graph/graph_io.h
// WriteGraphImage/OpenGraphImage + graph/graph_storage.h MmapGraphImage):
// a mapped graph must be indistinguishable from the resident graph it was
// written from — same ContentHash, same adjacency, byte-identical RR
// streams — and every corruption class (truncated header, bad magic, bad
// version, truncated or malformed payload, flipped payload bit, wrong
// node count, nonzero reserved field) must come back as a named Status
// that leaves the output Graph untouched, never as a half-built graph.
// Mutation fuzz holds every other byte change to the same rule, unless
// the mutant is itself the canonical image of the graph it opens.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "engine/sampling_engine.h"
#include "graph/graph_io.h"
#include "rrset/rr_collection.h"
#include "tests/test_util.h"

namespace timpp {
namespace {

using testing::MakeWcPowerLaw;

// RAII image path that deletes itself.
class TempImage {
 public:
  TempImage() {
    path_ = ::testing::TempDir() + "/timpp_image_test_" +
            std::to_string(counter_++) + ".timppimg";
  }
  ~TempImage() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  static int counter_;
  std::string path_;
};
int TempImage::counter_ = 0;

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

void ExpectEqualCollections(const RRCollection& a, const RRCollection& b) {
  ASSERT_EQ(a.num_sets(), b.num_sets());
  ASSERT_EQ(a.total_nodes(), b.total_nodes());
  for (size_t i = 0; i < a.num_sets(); ++i) {
    const auto sa = a.Set(static_cast<RRSetId>(i));
    const auto sb = b.Set(static_cast<RRSetId>(i));
    ASSERT_EQ(sa.size(), sb.size()) << "set " << i;
    EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin())) << "set " << i;
  }
}

TEST(GraphImageTest, RoundTripPreservesGraphExactly) {
  const Graph resident = MakeWcPowerLaw(300, 3, 11);
  TempImage image;
  ASSERT_TRUE(WriteGraphImage(resident, image.path()).ok());

  Graph mapped;
  const Status status = OpenGraphImage(image.path(), &mapped);
  ASSERT_TRUE(status.ok()) << status.ToString();

  EXPECT_EQ(mapped.num_nodes(), resident.num_nodes());
  EXPECT_EQ(mapped.num_edges(), resident.num_edges());
  EXPECT_EQ(mapped.ContentHash(), resident.ContentHash());
  for (NodeId v = 0; v < resident.num_nodes(); ++v) {
    const auto ra = resident.OutArcs(v);
    const auto ma = mapped.OutArcs(v);
    ASSERT_EQ(ra.size(), ma.size()) << "node " << v;
    for (size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].node, ma[i].node);
      EXPECT_EQ(ra[i].prob, ma[i].prob);
    }
    const auto ri = resident.InArcs(v);
    const auto mi = mapped.InArcs(v);
    ASSERT_EQ(ri.size(), mi.size()) << "node " << v;
    for (size_t i = 0; i < ri.size(); ++i) {
      EXPECT_EQ(ri[i].node, mi[i].node);
      EXPECT_EQ(ri[i].prob, mi[i].prob);
    }
  }
}

TEST(GraphImageTest, MappedGraphProducesByteIdenticalRRStreams) {
  const Graph resident = MakeWcPowerLaw(250, 3, 5);
  TempImage image;
  ASSERT_TRUE(WriteGraphImage(resident, image.path()).ok());
  Graph mapped;
  ASSERT_TRUE(OpenGraphImage(image.path(), &mapped).ok());

  for (DiffusionModel model : {DiffusionModel::kIC, DiffusionModel::kLT}) {
    SamplingConfig config;
    config.model = model;
    config.seed = 77;
    SamplingEngine resident_engine(resident, config);
    RRCollection resident_rr(resident.num_nodes());
    const SampleBatch a = resident_engine.SampleInto(&resident_rr, 2000);
    // At 4 threads every sampling thread reads the mapping at once.
    for (unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(threads);
      config.num_threads = threads;
      SamplingEngine mapped_engine(mapped, config);
      RRCollection mapped_rr(mapped.num_nodes());
      const SampleBatch b = mapped_engine.SampleInto(&mapped_rr, 2000);
      EXPECT_EQ(a.edges_examined, b.edges_examined);
      ExpectEqualCollections(resident_rr, mapped_rr);
    }
  }
}

// ---- corruption rejection ---------------------------------------------
//
// Every rejection must (a) name the failure in the Status and (b) leave
// the caller's Graph exactly as it was — no half-built state.

class GraphImageCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    original_ = MakeWcPowerLaw(120, 3, 4);
    ASSERT_TRUE(WriteGraphImage(original_, image_.path()).ok());
    bytes_ = testing::ReadFile(image_.path());
    ASSERT_GT(bytes_.size(), 48u);
  }

  /// Opens the (tampered) image expecting failure whose message contains
  /// `fragment`, and verifies the output graph kept its prior contents.
  void ExpectRejected(const std::string& fragment) {
    Graph sentinel = testing::MakeChain(5, 0.5f);
    const uint64_t sentinel_hash = sentinel.ContentHash();
    const Status status = OpenGraphImage(image_.path(), &sentinel);
    ASSERT_FALSE(status.ok()) << "tampered image was accepted";
    EXPECT_NE(status.ToString().find(fragment), std::string::npos)
        << "status '" << status.ToString() << "' does not mention '"
        << fragment << "'";
    EXPECT_EQ(sentinel.num_nodes(), 5u) << "graph was clobbered on failure";
    EXPECT_EQ(sentinel.ContentHash(), sentinel_hash);
  }

  Graph original_;
  TempImage image_;
  std::string bytes_;
};

TEST_F(GraphImageCorruptionTest, TruncatedHeaderIsRejected) {
  WriteFileBytes(image_.path(), bytes_.substr(0, 17));
  ExpectRejected("truncated image header");
}

TEST_F(GraphImageCorruptionTest, BadMagicIsRejected) {
  bytes_[0] = 'X';
  WriteFileBytes(image_.path(), bytes_);
  ExpectRejected("bad image magic");
}

TEST_F(GraphImageCorruptionTest, UnsupportedVersionIsRejected) {
  bytes_[8] = 99;  // u32 file version at offset 8
  WriteFileBytes(image_.path(), bytes_);
  ExpectRejected("unsupported image version");
}

TEST_F(GraphImageCorruptionTest, NonzeroReservedFieldIsRejected) {
  bytes_[13] ^= 1;  // u32 reserved at offset 12, written as 0
  WriteFileBytes(image_.path(), bytes_);
  ExpectRejected("nonzero reserved image header field");
}

TEST_F(GraphImageCorruptionTest, TruncatedPayloadIsRejected) {
  // Header intact, payload cut short of the header's payload_size.
  WriteFileBytes(image_.path(), bytes_.substr(0, bytes_.size() - 24));
  ExpectRejected("truncated image payload");
}

TEST_F(GraphImageCorruptionTest, FlippedProbabilityBitIsRejected) {
  // The file's last 4 bytes are the final in-arc's probability float;
  // flipping one bit passes every structural check and must be caught by
  // the content-hash recomputation.
  bytes_[bytes_.size() - 2] ^= 0x10;
  WriteFileBytes(image_.path(), bytes_);
  ExpectRejected("image content hash mismatch");
}

TEST_F(GraphImageCorruptionTest, WrongNodeCountIsRejected) {
  // u64 node count at payload offset 8 (file offset 40): claiming one
  // extra node desynchronizes the offsets ramp from the CSR shape checks.
  ++bytes_[40];
  WriteFileBytes(image_.path(), bytes_);
  ExpectRejected("invalid CSR in image");
}

TEST_F(GraphImageCorruptionTest, OversizedSectionCountIsRejected) {
  // Bump the out_offsets section count (u64 at file offset 48): the
  // sections desynchronize and the next count is read from arc bytes —
  // far past the payload bounds.
  ++bytes_[48];
  WriteFileBytes(image_.path(), bytes_);
  ExpectRejected("malformed image payload");
}

TEST_F(GraphImageCorruptionTest, PayloadSizeMismatchIsRejected) {
  // A header whose payload_size disagrees with the file's actual size in
  // either direction is rejected before any payload parse.
  uint64_t payload = 0;
  std::memcpy(&payload, bytes_.data() + 16, sizeof(payload));
  payload -= 8;
  std::memcpy(bytes_.data() + 16, &payload, sizeof(payload));
  WriteFileBytes(image_.path(), bytes_);
  ExpectRejected("truncated image payload");
}

TEST_F(GraphImageCorruptionTest, MissingFileIsRejected) {
  std::remove(image_.path().c_str());
  ExpectRejected("cannot open");
}

// ---- mutation fuzz -----------------------------------------------------

// 2,000 byte-overwrite, bit-flip, insert and truncate mutants of a small
// weighted-cascade image at a fixed seed. Each one either fails with a
// Status naming the file, leaving the caller's graph untouched, or opens
// a graph whose image is the mutant byte for byte: an image opens only in
// its one canonical encoding. Every other mutant mutates only the 32-byte
// file header, where the fixed fields sit, so each of them is hit often.
TEST_F(GraphImageCorruptionTest, MutantsOpenCanonicallyOrNotAtAll) {
  TempImage rewritten;
  const std::string header = bytes_.substr(0, 32);
  const std::string payload = bytes_.substr(32);
  std::mt19937_64 rng(0x71ae6);
  int opened = 0;
  for (int round = 0; round < 2000; ++round) {
    SCOPED_TRACE(round);
    const std::string mutant =
        round % 2 == 0 ? testing::MutateBytes(bytes_, &rng)
                       : testing::MutateBytes(header, &rng) + payload;
    WriteFileBytes(image_.path(), mutant);
    Graph graph = testing::MakeChain(5, 0.5f);
    const uint64_t sentinel_hash = graph.ContentHash();
    const Status status = OpenGraphImage(image_.path(), &graph);
    if (!status.ok()) {
      EXPECT_NE(status.ToString().find(image_.path()), std::string::npos)
          << status.ToString();
      EXPECT_EQ(graph.num_nodes(), 5u) << "graph was clobbered on failure";
      EXPECT_EQ(graph.ContentHash(), sentinel_hash);
      continue;
    }
    ++opened;
    ASSERT_TRUE(WriteGraphImage(graph, rewritten.path()).ok());
    EXPECT_TRUE(testing::ReadFile(rewritten.path()) == mutant)
        << "an image opened from a non-canonical encoding";
  }
  EXPECT_LT(opened, 2000) << "the mutator changed nothing";
}

}  // namespace
}  // namespace timpp
