#include "graph/graph_io.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/scoped_fd.h"

namespace timpp {

namespace {

// ReadEdgeList reads the file in blocks of this size. A line longer than
// the buffer doubles it until the line fits.
constexpr size_t kReadBlockBytes = size_t{1} << 20;

// The classic locale's whitespace: ' ', '\t', '\n', '\v', '\f', '\r'.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool AtTokenEnd(const char* p, const char* end) {
  return p == end || IsSpace(*p);
}

const char* SkipSpace(const char* p, const char* end) {
  while (p != end && IsSpace(*p)) ++p;
  return p;
}

// Reads the whitespace-delimited id token at *p ("[+-]digits") and
// advances *p past it. Returns nullptr, or why the token is not an id.
const char* ReadId(const char** p, const char* end, NodeId* id) {
  const char* q = *p;
  const bool negative = q != end && *q == '-';
  if (q != end && (*q == '+' || *q == '-')) ++q;
  uint64_t value = 0;
  const std::from_chars_result r = std::from_chars(q, end, value);
  if (r.ec == std::errc::invalid_argument || !AtTokenEnd(r.ptr, end)) {
    return "expected 'u v [p]'";
  }
  if (negative && (value != 0 || r.ec != std::errc())) {
    return "negative node id";
  }
  if (r.ec != std::errc() || value >= kInvalidNode) {
    return "node id out of range";
  }
  *id = static_cast<NodeId>(value);
  *p = r.ptr;
  return nullptr;
}

// Reads the whitespace-delimited probability token at p: a finite decimal
// within float range. It is read as a double and then narrowed, the path
// edge lists have always taken, so existing files keep their float bits.
// False when the token is anything else.
bool ReadProb(const char* p, const char* end, float* prob) {
  // The grammar allows a leading '+'; from_chars does not.
  if (*p == '+' && ++p != end && *p == '-') return false;
  double value = 0;
  std::from_chars_result r = std::from_chars(p, end, value);
  if (r.ec == std::errc::result_out_of_range) {
    // Beyond double's exponent range. An underflow is a valid value that
    // reads as +-0; long double tells it from an overflow.
    long double wide = 0;
    r = std::from_chars(p, end, wide);
    if (r.ec == std::errc() && std::fabs(wide) < 1) {
      value = std::signbit(wide) ? -0.0 : 0.0;
    } else {
      r.ec = std::errc::result_out_of_range;
    }
  }
  if (r.ec != std::errc() || !AtTokenEnd(r.ptr, end) ||
      !(std::fabs(value) <= std::numeric_limits<float>::max())) {
    return false;
  }
  *prob = static_cast<float>(value);
  return true;
}

// Parses lines of an edge list into a builder.
class LineParser {
 public:
  LineParser(const EdgeListOptions& options, GraphBuilder* builder)
      : options_(options), builder_(builder) {
    for (const char c : options.comment_chars) {
      is_comment_[static_cast<unsigned char>(c)] = true;
    }
  }

  // Parses one line, without its '\n'. Returns nullptr, or why the line is
  // malformed.
  const char* Parse(const char* p, const char* end) const {
    // The first byte that is not ' ', '\t' or '\r' decides whether the
    // line is blank or a comment.
    const char* first = p;
    while (first != end &&
           (*first == ' ' || *first == '\t' || *first == '\r')) {
      ++first;
    }
    if (first == end || is_comment_[static_cast<unsigned char>(*first)]) {
      return nullptr;
    }

    NodeId from = 0, to = 0;
    p = SkipSpace(first, end);
    if (const char* error = ReadId(&p, end, &from)) return error;
    p = SkipSpace(p, end);
    if (const char* error = ReadId(&p, end, &to)) return error;
    // Tokens after the third are ignored.
    float prob = options_.default_prob;
    p = SkipSpace(p, end);
    if (p != end && !ReadProb(p, end, &prob)) {
      return "probability is not a finite float";
    }

    if (options_.undirected) {
      builder_->AddUndirectedEdge(from, to, prob);
    } else {
      builder_->AddEdge(from, to, prob);
    }
    return nullptr;
  }

 private:
  const EdgeListOptions& options_;
  GraphBuilder* builder_;
  std::array<bool, 256> is_comment_{};
};

}  // namespace

Status ReadEdgeList(const std::string& path, const EdgeListOptions& options,
                    GraphBuilder* builder) {
  const ScopedFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (fd.get() < 0) return Status::IOError("cannot open " + path);

  const LineParser parser(options, builder);
  std::vector<char> buffer(kReadBlockBytes);
  size_t held = 0;  // bytes of an unfinished line at the front of buffer
  size_t line_no = 0;
  for (bool eof = false; !eof;) {
    const ssize_t got =
        ::read(fd.get(), buffer.data() + held, buffer.size() - held);
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("read error on " + path + ": " +
                             std::strerror(errno));
    }
    eof = got == 0;
    const char* p = buffer.data();
    const char* const end = p + held + got;
    while (p != end) {
      const char* newline =
          static_cast<const char*>(std::memchr(p, '\n', end - p));
      if (newline == nullptr && !eof) break;  // wait for the rest of it
      const char* const line_end = newline == nullptr ? end : newline;
      ++line_no;
      if (const char* error = parser.Parse(p, line_end)) {
        return Status::Corruption(path + ":" + std::to_string(line_no) +
                                  ": " + error);
      }
      p = newline == nullptr ? end : newline + 1;
    }
    held = static_cast<size_t>(end - p);
    std::memmove(buffer.data(), p, held);
    if (held == buffer.size()) buffer.resize(2 * buffer.size());
  }
  return Status::OK();
}

Status WriteEdgeList(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << "# timpp edge list: n=" << graph.num_nodes()
      << " m=" << graph.num_edges() << "\n";
  // The widest line is two 10-digit ids, a 24-byte double and separators.
  char line[64];
  char* const last = line + sizeof(line) - 1;  // a byte for each separator
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for (const Arc& a : graph.OutArcs(v)) {
      char* p = std::to_chars(line, last, v).ptr;
      *p++ = ' ';
      p = std::to_chars(p, last, a.node).ptr;
      *p++ = ' ';
      char* const prob = p;
      p = std::to_chars(prob, last, a.prob).ptr;
      // ReadEdgeList narrows the decimal through double, and for a few
      // floats (e.g. 7.038531e-26) the float's shortest form rounds twice
      // to a neighbour. The double's shortest form always reads back.
      float back = 0;
      ReadProb(prob, p, &back);
      if (std::bit_cast<uint32_t>(back) != std::bit_cast<uint32_t>(a.prob)) {
        p = std::to_chars(prob, last, static_cast<double>(a.prob)).ptr;
      }
      *p++ = '\n';
      out.write(line, p - line);
    }
  }
  if (!out) return Status::IOError("write failure on " + path);
  return Status::OK();
}

namespace {

// Payload format of the graph image. A rebuild through GraphBuilder (the
// edge-list path) preserves each direction's arc multiset but can permute
// IN-arc order (in-lists follow builder insertion order, and a CSR walk
// reorders the insertions). Reverse traversals consume in-arc order, so a
// reopened image needs the exact adjacency — both CSR directions verbatim;
// run metadata re-derived (a pure function of the arcs, via the shared
// ComputeProbabilityRuns).
constexpr char kImageMagic[4] = {'T', 'I', 'M', 'I'};
constexpr uint32_t kImageVersion = 1;

template <typename T>
void AppendSpan(std::string* out, std::span<const T> v) {
  const uint64_t count = v.size();
  out->append(reinterpret_cast<const char*>(&count), sizeof(count));
  out->append(reinterpret_cast<const char*>(v.data()), count * sizeof(T));
}

// CSR sanity: offsets are a monotone [0..m] ramp of size n+1 and every
// arc endpoint is a valid node.
bool ValidCsr(NodeId n, uint64_t m, std::span<const EdgeIndex> offsets,
              std::span<const Arc> arcs) {
  if (offsets.size() != static_cast<size_t>(n) + 1) return false;
  if (arcs.size() != m) return false;
  if (offsets.front() != 0 || offsets.back() != m) return false;
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) return false;
  }
  for (const Arc& a : arcs) {
    if (a.node >= n) return false;
  }
  return true;
}

}  // namespace

void SerializeGraph(const Graph& graph, std::string* out) {
  const GraphView& v = graph.view();
  out->clear();
  out->append(kImageMagic, sizeof(kImageMagic));
  const uint32_t version = kImageVersion;
  const uint64_t n = v.num_nodes;
  out->append(reinterpret_cast<const char*>(&version), sizeof(version));
  out->append(reinterpret_cast<const char*>(&n), sizeof(n));
  AppendSpan(out, v.out_offsets);
  AppendSpan(out, v.out_arcs);
  AppendSpan(out, v.in_offsets);
  AppendSpan(out, v.in_arcs);
}

// ------------------------------------------------------ on-disk image --
//
// File layout (everything little-endian, written and read on the same
// architecture class):
//
//   offset  0: char[8]  "TIMPPIMG"
//   offset  8: u32      file format version (1)
//   offset 12: u32      reserved (0)
//   offset 16: u64      payload size in bytes
//   offset 24: u64      Graph::ContentHash of the serialized graph
//   offset 32: payload  — the exact SerializeGraph bytes (TIMI header +
//                         four [u64 count][data] sections)
//
// Every payload element (u64 counts, EdgeIndex offsets, 8-byte Arcs) is 8
// bytes and the payload starts at offset 32, so each section's data is
// 8-byte aligned relative to the (page-aligned) mapping base: the arrays
// can be read in place through reinterpret_cast spans with no copy.

namespace {

constexpr char kFileMagic[8] = {'T', 'I', 'M', 'P', 'P', 'I', 'M', 'G'};
constexpr uint32_t kFileVersion = 1;
constexpr size_t kFileHeaderBytes = 32;

struct FileHeader {
  char magic[8];
  uint32_t version;
  uint32_t reserved;
  uint64_t payload_size;
  uint64_t content_hash;
};
static_assert(sizeof(FileHeader) == kFileHeaderBytes);

/// Owns the bytes behind a mapped graph image: either a read-only mmap of
/// the whole file or (when mmap is unavailable) a heap copy. The adjacency
/// spans in view() point straight into those bytes; only the derived run
/// metadata lives in owned vectors. Immutable after construction.
class MmapGraphImage final : public GraphStorage {
 public:
  MmapGraphImage(void* map_addr, size_t map_len,
                 std::vector<uint64_t> heap_copy, NodeId n,
                 std::span<const EdgeIndex> out_offsets,
                 std::span<const Arc> out_arcs,
                 std::span<const EdgeIndex> in_offsets,
                 std::span<const Arc> in_arcs)
      : map_addr_(map_addr),
        map_len_(map_len),
        heap_copy_(std::move(heap_copy)) {
    view_.num_nodes = n;
    view_.out_offsets = out_offsets;
    view_.out_arcs = out_arcs;
    view_.in_offsets = in_offsets;
    view_.in_arcs = in_arcs;
    // Run metadata is a pure function of the adjacency (the same shared
    // derivation every backend uses), materialized on the heap: it is
    // small (one entry per constant-probability run) and not part of the
    // serialized payload.
    ComputeProbabilityRuns(n, out_offsets, out_arcs, &runs_.out_run_offsets,
                           &runs_.out_run_ends, &runs_.out_run_inv_log1mp);
    ComputeProbabilityRuns(n, in_offsets, in_arcs, &runs_.in_run_offsets,
                           &runs_.in_run_ends, &runs_.in_run_inv_log1mp);
    view_.out_run_offsets = runs_.out_run_offsets;
    view_.out_run_ends = runs_.out_run_ends;
    view_.out_run_inv_log1mp = runs_.out_run_inv_log1mp;
    view_.in_run_offsets = runs_.in_run_offsets;
    view_.in_run_ends = runs_.in_run_ends;
    view_.in_run_inv_log1mp = runs_.in_run_inv_log1mp;
  }

  ~MmapGraphImage() override {
    if (map_addr_ != nullptr) ::munmap(map_addr_, map_len_);
  }

  MmapGraphImage(const MmapGraphImage&) = delete;
  MmapGraphImage& operator=(const MmapGraphImage&) = delete;

  GraphView view() const override { return view_; }

  size_t ResidentBytes() const override {
    // The heap-copy fallback holds the whole image resident; the mmap path
    // charges only the derived run metadata (mapped pages are reclaimable
    // page cache, accounted under MappedBytes).
    return runs_.HeapBytes() + heap_copy_.size() * sizeof(uint64_t);
  }

  size_t MappedBytes() const override { return map_len_; }

  const char* kind() const override { return "mmap"; }

 private:
  void* map_addr_;
  size_t map_len_;
  std::vector<uint64_t> heap_copy_;  // 8-aligned fallback buffer
  GraphArrays runs_;                 // only the run fields are populated
  GraphView view_;
};

/// Advances `*p` past a [u64 count][count * T] section, pointing `*out`
/// at the data in place. Fails (without advancing past `end`) on
/// truncation or an absurd count.
template <typename T>
bool TakeSpan(const char** p, const char* end, uint64_t max_count,
              std::span<const T>* out) {
  uint64_t count = 0;
  if (static_cast<size_t>(end - *p) < sizeof(count)) return false;
  std::memcpy(&count, *p, sizeof(count));
  *p += sizeof(count);
  if (count > max_count ||
      static_cast<uint64_t>(end - *p) < count * sizeof(T)) {
    return false;
  }
  *out = {reinterpret_cast<const T*>(*p), static_cast<size_t>(count)};
  *p += count * sizeof(T);
  return true;
}

}  // namespace

Status WriteGraphImage(const Graph& graph, const std::string& path) {
  std::string payload;
  SerializeGraph(graph, &payload);

  FileHeader header;
  std::memcpy(header.magic, kFileMagic, sizeof(kFileMagic));
  header.version = kFileVersion;
  header.reserved = 0;
  header.payload_size = payload.size();
  header.content_hash = graph.ContentHash();

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out.flush();
  if (!out) return Status::IOError("write failure on " + path);
  return Status::OK();
}

Status OpenGraphImage(const std::string& path, Graph* graph) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IOError("cannot open " + path);

  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("cannot stat " + path);
  }
  const size_t file_size = static_cast<size_t>(st.st_size);
  if (file_size < kFileHeaderBytes) {
    ::close(fd);
    return Status::Corruption(path + ": truncated image header");
  }

  // Map the whole file read-only; fall back to an 8-aligned heap copy when
  // mmap is unavailable (exotic filesystems). Either way `base` points at
  // the file header and stays valid for the storage object's lifetime.
  void* map_addr = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  std::vector<uint64_t> heap_copy;
  const char* base = nullptr;
  size_t map_len = 0;
  if (map_addr != MAP_FAILED) {
    base = static_cast<const char*>(map_addr);
    map_len = file_size;
  } else {
    map_addr = nullptr;
    heap_copy.resize((file_size + sizeof(uint64_t) - 1) / sizeof(uint64_t));
    size_t off = 0;
    while (off < file_size) {
      const ssize_t got =
          ::read(fd, reinterpret_cast<char*>(heap_copy.data()) + off,
                 file_size - off);
      if (got <= 0) break;
      off += static_cast<size_t>(got);
    }
    if (off != file_size) {
      ::close(fd);
      return Status::IOError("short read on " + path);
    }
    base = reinterpret_cast<const char*>(heap_copy.data());
  }
  ::close(fd);  // the mapping (or copy) outlives the descriptor

  // Single cleanup path for every validation failure below.
  const auto fail = [&](Status status) {
    if (map_addr != nullptr) ::munmap(map_addr, map_len);
    return status;
  };

  FileHeader header;
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, kFileMagic, sizeof(kFileMagic)) != 0) {
    return fail(Status::Corruption(path + ": bad image magic"));
  }
  if (header.version != kFileVersion) {
    return fail(Status::Corruption(path + ": unsupported image version " +
                                   std::to_string(header.version)));
  }
  if (header.reserved != 0) {
    return fail(
        Status::Corruption(path + ": nonzero reserved image header field"));
  }
  if (header.payload_size != file_size - kFileHeaderBytes) {
    return fail(Status::Corruption(path + ": truncated image payload"));
  }

  // Parse the payload (the exact SerializeGraph bytes) in place.
  const char* p = base + kFileHeaderBytes;
  const char* const end = p + header.payload_size;
  if (header.payload_size < sizeof(kImageMagic) + sizeof(uint32_t) +
                                sizeof(uint64_t) ||
      std::memcmp(p, kImageMagic, sizeof(kImageMagic)) != 0) {
    return fail(Status::Corruption(path + ": malformed image payload"));
  }
  p += sizeof(kImageMagic);
  uint32_t payload_version = 0;
  std::memcpy(&payload_version, p, sizeof(payload_version));
  p += sizeof(payload_version);
  if (payload_version != kImageVersion) {
    return fail(Status::Corruption(path + ": unsupported payload version " +
                                   std::to_string(payload_version)));
  }
  uint64_t n = 0;
  std::memcpy(&n, p, sizeof(n));
  p += sizeof(n);
  if (n > std::numeric_limits<NodeId>::max()) {
    return fail(Status::Corruption(path + ": malformed image payload"));
  }

  std::span<const EdgeIndex> out_offsets, in_offsets;
  std::span<const Arc> out_arcs, in_arcs;
  const uint64_t max_entries = header.payload_size;
  if (!TakeSpan(&p, end, max_entries, &out_offsets) ||
      !TakeSpan(&p, end, max_entries, &out_arcs) ||
      !TakeSpan(&p, end, max_entries, &in_offsets) ||
      !TakeSpan(&p, end, max_entries, &in_arcs) || p != end) {
    return fail(Status::Corruption(path + ": malformed image payload"));
  }
  const uint64_t m = out_arcs.size();
  if (!ValidCsr(static_cast<NodeId>(n), m, out_offsets, out_arcs) ||
      !ValidCsr(static_cast<NodeId>(n), m, in_offsets, in_arcs)) {
    return fail(Status::Corruption(path + ": invalid CSR in image"));
  }

  // From here the storage object owns the mapping / heap copy.
  Graph candidate(std::make_shared<MmapGraphImage>(
      map_addr, map_len, std::move(heap_copy), static_cast<NodeId>(n),
      out_offsets, out_arcs, in_offsets, in_arcs));

  // The stored hash covers every byte a sampler reads (targets AND
  // probability bits, both directions, run structure); recomputing it over
  // the mapped arrays catches silent payload corruption — e.g. flipped
  // float bits — that shape validation cannot see.
  if (candidate.ContentHash() != header.content_hash) {
    return Status::Corruption(path + ": image content hash mismatch");
  }
  *graph = std::move(candidate);
  return Status::OK();
}

}  // namespace timpp
