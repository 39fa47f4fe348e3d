// Differential and mutation fuzzing of the graph readers (graph/graph_io.h),
// with fixed seeds so every run checks the same inputs.
//
// Differential: random well-formed edge lists must give builders
// bit-identical to the getline + istringstream parser ReadEdgeList
// replaced, kept below as the reference.
// Mutation: byte flips, insertions and truncations of valid text files
// must come back OK or as a named Status, never crash, and every OK
// builder must build or fail with InvalidArgument.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "util/types.h"

namespace timpp {
namespace {

// ReadEdgeList's read block. The boundary tests place lines across it.
constexpr size_t kBlockBytes = size_t{1} << 20;

// Mutated ids can ask for graphs of up to 2^32 - 2 nodes, which are valid
// but take gigabytes to build. Mutants past this count are not built.
constexpr uint64_t kMaxBuiltNodes = uint64_t{1} << 16;

// The parser ReadEdgeList replaced, verbatim. Its known defects (ids past
// 32 bits wrap; a malformed third column becomes probability 0; 1e300
// overflows the float cast) never reach it here: the differential inputs
// are well-formed, and mutants go to it only after ReadEdgeList accepted
// them.
Status ReferenceReadEdgeList(const std::string& path,
                             const EdgeListOptions& options,
                             GraphBuilder* builder) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);

  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;
    if (options.comment_chars.find(line[start]) != std::string::npos) continue;

    std::istringstream ss(line);
    long long u = -1, v = -1;
    double p = options.default_prob;
    if (!(ss >> u >> v)) {
      return Status::Corruption(path + ":" + std::to_string(line_no) +
                                ": expected 'u v [p]'");
    }
    ss >> p;
    if (u < 0 || v < 0) {
      return Status::Corruption(path + ":" + std::to_string(line_no) +
                                ": negative node id");
    }
    const NodeId from = static_cast<NodeId>(u);
    const NodeId to = static_cast<NodeId>(v);
    const float prob = static_cast<float>(p);
    if (options.undirected) {
      builder->AddUndirectedEdge(from, to, prob);
    } else {
      builder->AddEdge(from, to, prob);
    }
  }
  return Status::OK();
}

class TempPath {
 public:
  TempPath()
      : path_(::testing::TempDir() + "/timpp_io_fuzz_" +
              std::to_string(counter_++) + ".tmp") {}
  ~TempPath() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

  void Write(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

 private:
  static int counter_;
  std::string path_;
};
int TempPath::counter_ = 0;

void ExpectSameBuilder(const GraphBuilder& want, const GraphBuilder& got) {
  ASSERT_EQ(want.num_nodes(), got.num_nodes());
  ASSERT_EQ(want.num_edges(), got.num_edges());
  for (size_t i = 0; i < want.num_edges(); ++i) {
    const RawEdge& a = want.edges()[i];
    const RawEdge& b = got.edges()[i];
    ASSERT_EQ(a.from, b.from) << "edge " << i;
    ASSERT_EQ(a.to, b.to) << "edge " << i;
    ASSERT_EQ(std::bit_cast<uint32_t>(a.prob), std::bit_cast<uint32_t>(b.prob))
        << "edge " << i << ": " << a.prob << " vs " << b.prob;
  }
}

// Parses `text` with both parsers; both must succeed with equal builders.
void ExpectMatchesReference(const std::string& text,
                            const EdgeListOptions& options) {
  TempPath file;
  file.Write(text);
  GraphBuilder want, got;
  const Status ref = ReferenceReadEdgeList(file.path(), options, &want);
  ASSERT_TRUE(ref.ok()) << ref.ToString();
  const Status s = ReadEdgeList(file.path(), options, &got);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ExpectSameBuilder(want, got);
}

// Random well-formed edge lists covering the whole accepted grammar.
class EdgeListGenerator {
 public:
  explicit EdgeListGenerator(uint64_t seed) : rng_(seed) {}

  EdgeListOptions Options() {
    EdgeListOptions options;
    options.undirected = Coin(0.3);
    const float defaults[] = {1.0f, 0.1f, 0.0f, 0.37f};
    options.default_prob = defaults[Below(4)];
    const char* comments[] = {"#%", "#", "%c"};
    options.comment_chars = comments[Below(3)];
    return options;
  }

  // `lines` lines, ending in a newline or not.
  std::string Text(const EdgeListOptions& options, int lines) {
    std::string text;
    for (int i = 0; i < lines; ++i) {
      text += Line(options);
      text += Coin(0.2) ? "\r\n" : "\n";
    }
    if (Coin(0.5) && !text.empty()) text.pop_back();
    return text;
  }

  std::string Line(const EdgeListOptions& options) {
    switch (Below(8)) {
      case 0:
        return "";
      case 1:
        return Indent(1);
      case 2: {
        const char c =
            options.comment_chars[Below(options.comment_chars.size())];
        return Indent(0) + c + " comment 1 2 0.5";
      }
      default: {
        std::string line = Indent(0) + Id() + Space(1) + Id();
        const uint64_t columns = Below(3);  // beyond the two ids
        if (columns >= 1) line += Space(1) + Prob();
        if (columns >= 2) line += Space(1) + (Coin(0.5) ? "x9" : Prob());
        return line + Space(0);
      }
    }
  }

 private:
  bool Coin(double p) { return std::bernoulli_distribution(p)(rng_); }
  uint64_t Below(uint64_t n) { return rng_() % n; }

  // A run of at least `min` spaces, tabs and CRs: what may precede a
  // comment or make a line blank.
  std::string Indent(uint64_t min) {
    std::string s;
    for (uint64_t i = Below(4) + min; i > 0; --i) s += " \t\r"[Below(3)];
    return s;
  }

  // Token separators: '\v' and '\f' also split tokens.
  std::string Space(uint64_t min) {
    std::string s;
    for (uint64_t i = Below(4) + min; i > 0; --i) s += "  \t\t\r\v\f"[Below(7)];
    return s;
  }

  std::string Id() {
    const uint64_t id = Coin(0.05) ? kInvalidNode - 1 - Below(3) : Below(500);
    std::string s = Coin(0.1) ? "+" : "";
    if (id == 0 && Coin(0.3)) s = "-";
    s += std::string(Below(4) == 0 ? Below(5) : 0, '0');  // leading zeros
    return s + std::to_string(id);
  }

  // Decimal, exponent and signed forms, inside and outside [0, 1].
  std::string Prob() {
    char buf[64];
    const double value = std::uniform_real_distribution<double>(0, 1)(rng_);
    switch (Below(9)) {
      case 0:
        std::snprintf(buf, sizeof(buf), "%.3f", value);
        break;
      case 1:
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        break;
      case 2:
        std::snprintf(buf, sizeof(buf), "%.6e", value);
        break;
      case 3:  // tiny, or past double's range, where it reads as 0
        std::snprintf(buf, sizeof(buf), "%.3fE-%d", value,
                      Coin(0.5) ? 30 : 400);
        break;
      case 4:
        std::snprintf(buf, sizeof(buf), "+%.4g", value);
        break;
      case 5:
        return Coin(0.5) ? "-0" : "1";
      case 6:
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(value * 2e9));  // a timestamp
        break;
      case 7:
        std::snprintf(buf, sizeof(buf), ".%03d",
                      static_cast<int>(value * 999));
        break;
      default:
        std::snprintf(buf, sizeof(buf), "%.5fe-0%d", value,
                      static_cast<int>(Below(3)));
        break;
    }
    return buf;
  }

  std::mt19937_64 rng_;
};

TEST(EdgeListDifferentialTest, RandomListsMatchReference) {
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EdgeListGenerator gen(seed);
    const EdgeListOptions options = gen.Options();
    ExpectMatchesReference(gen.Text(options, 1 + static_cast<int>(seed % 60)),
                           options);
    if (HasFatalFailure()) return;
  }
}

TEST(EdgeListDifferentialTest, LinesStraddlingTheBlockBoundary) {
  // A filler comment ends a few bytes before the block boundary, so the
  // next line is cut at each of its bytes in turn.
  EdgeListGenerator gen(7);
  const EdgeListOptions options;
  const std::string straddler = "+12 0345\t2.5e-1 extra\r";
  for (size_t cut = 0; cut <= straddler.size() + 1; ++cut) {
    SCOPED_TRACE("cut " + std::to_string(cut));
    std::string text = "#" + std::string(kBlockBytes - cut - 2, 'x') + "\n";
    text += straddler + "\n" + gen.Text(options, 20);
    ExpectMatchesReference(text, options);
    if (HasFatalFailure()) return;
  }
  // A large random list crosses several boundaries at arbitrary bytes.
  std::string text;
  while (text.size() < 3 * kBlockBytes) text += gen.Text(options, 1000) + "\n";
  ExpectMatchesReference(text, options);
}

TEST(EdgeListDifferentialTest, LinesLongerThanABlock) {
  const EdgeListOptions options;
  const std::string big(kBlockBytes + kBlockBytes / 2, ' ');
  ExpectMatchesReference("0 1\n#" + big + "comment\n2 3 0.5\n", options);
  ExpectMatchesReference("0 1\n" + big + "\n\t" + big + "\r\n2 3", options);
  ExpectMatchesReference(big + "4 5" + big + "0.125" + big + "x\n6 7\n",
                         options);
  ExpectMatchesReference(
      "1 " + std::string(3 * kBlockBytes, '0') + "2 0.5\n8 9", options);
}

// Applies 1-3 byte flips, insertions or truncations.
std::string Mutate(std::string bytes, std::mt19937_64* rng) {
  const std::string interesting = " \t\r\n\v#%+-.e0123456789\xff";
  const int mutations = 1 + static_cast<int>((*rng)() % 3);
  for (int i = 0; i < mutations && !bytes.empty(); ++i) {
    const size_t at = (*rng)() % bytes.size();
    const char byte = (*rng)() % 2 ? interesting[(*rng)() % interesting.size()]
                                   : static_cast<char>((*rng)());
    switch ((*rng)() % 4) {
      case 0:
        bytes[at] = byte;
        break;
      case 1:
        bytes[at] = static_cast<char>(bytes[at] ^ (1 << ((*rng)() % 8)));
        break;
      case 2:
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at), byte);
        break;
      default:
        bytes.resize(at);
        break;
    }
  }
  return bytes;
}

// Builds unless the graph is too large for a unit test. A count of
// kInvalidNode fails before any allocation, so it always runs.
void ExpectBuildsOrInvalidArgument(const GraphBuilder& builder) {
  if (builder.num_nodes() > kMaxBuiltNodes &&
      builder.num_nodes() != kInvalidNode) {
    return;
  }
  Graph g;
  const Status s = builder.Build(&g);
  EXPECT_TRUE(s.ok() || s.IsInvalidArgument()) << s.ToString();
}

TEST(EdgeListMutationTest, MutantsFailCleanly) {
  std::mt19937_64 rng(2014);
  int accepted = 0, rejected = 0;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    EdgeListGenerator gen(seed);
    const EdgeListOptions options = gen.Options();
    const std::string valid = gen.Text(options, 40);
    for (int round = 0; round < 20; ++round) {
      const std::string mutant = Mutate(valid, &rng);
      SCOPED_TRACE(::testing::PrintToString(mutant));
      TempPath file;
      file.Write(mutant);
      GraphBuilder builder;
      const Status s = ReadEdgeList(file.path(), options, &builder);
      if (!s.ok()) {
        ++rejected;
        ASSERT_TRUE(s.IsCorruption()) << s.ToString();
        ASSERT_EQ(s.message().rfind(file.path() + ":", 0), 0u) << s.message();
        continue;
      }
      ++accepted;
      // Whatever ReadEdgeList accepts, the reference accepts identically.
      GraphBuilder reference;
      ASSERT_TRUE(ReferenceReadEdgeList(file.path(), options, &reference).ok());
      ExpectSameBuilder(reference, builder);
      ExpectBuildsOrInvalidArgument(builder);
      if (HasFatalFailure()) return;
    }
  }
  // Both outcomes must be exercised for the suite to mean anything.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace timpp
