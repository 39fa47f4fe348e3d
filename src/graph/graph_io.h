// Graph serialization: SNAP-style text edge lists (the format of the
// datasets in Table 2) and the TIMPPIMG binary image, an exact CSR image
// opened by mapping the file.
#ifndef TIMPP_GRAPH_GRAPH_IO_H_
#define TIMPP_GRAPH_GRAPH_IO_H_

#include <string>

#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "util/status.h"

namespace timpp {

/// Options for reading text edge lists.
struct EdgeListOptions {
  /// If true, each line "u v" is inserted as two arcs (u->v and v->u), the
  /// convention for the undirected datasets NetHEPT and DBLP.
  bool undirected = false;
  /// Default probability for lines without a third column. Weight-model
  /// passes typically overwrite this afterwards.
  float default_prob = 1.0f;
  /// Lines beginning with these characters are skipped (SNAP uses '#').
  std::string comment_chars = "#%";
};

/// Parses a whitespace-separated edge list ("u v" or "u v p" per line) into
/// `builder` (appending to existing content). Ids are used as-is (no
/// compaction).
///
/// Grammar, per '\n'-terminated line (the last line needs no '\n'):
///   - A line is skipped when it holds only ' ', '\t' and '\r', or when its
///     first other byte is one of `comment_chars`.
///   - Otherwise it holds tokens separated by ' ', '\t', '\r', '\v', '\f'.
///     The first two are node ids: decimal digits with an optional '+' (or
///     '-' on zero), below kInvalidNode (2^32 - 1).
///   - An optional third token is the probability: a finite decimal within
///     float range, optionally signed, with optional exponent. It is read as
///     a double and narrowed to float. Values outside [0, 1] parse (a weight
///     pass may overwrite them); Build() rejects any that survive.
///   - Tokens after the third are ignored.
/// Returns IOError when the file cannot be opened or read, and Corruption
/// naming "path:line:" for the first malformed line. Reads sequentially, so
/// pipes work too.
Status ReadEdgeList(const std::string& path, const EdgeListOptions& options,
                    GraphBuilder* builder);

/// Writes "from to prob" lines, each probability in the shortest form that
/// ReadEdgeList reads back to the same float bits.
Status WriteEdgeList(const Graph& graph, const std::string& path);

/// Exact in-memory image — the payload of WriteGraphImage below. Unlike
/// an edge list (which rebuilds through GraphBuilder and may permute
/// IN-arc order, since in-lists follow builder insertion order), the image
/// preserves both CSR directions verbatim:
/// OpenGraphImage restores a ContentHash-identical Graph, so reverse
/// traversals — and with them every RR set — replay bit-exactly. Run
/// metadata is re-derived from the arcs (pure function, shared
/// ComputeProbabilityRuns).
void SerializeGraph(const Graph& graph, std::string* out);

/// On-disk CSR image: a 32-byte file header (magic "TIMPPIMG", format
/// version, payload size, Graph::ContentHash) followed by the exact
/// SerializeGraph payload. Every array element in the payload is 8 bytes
/// and the payload starts at file offset 32, so the arrays are naturally
/// aligned for mapping the file read-only and pointing a GraphStorage
/// view straight into the page cache.
Status WriteGraphImage(const Graph& graph, const std::string& path);

/// Opens a WriteGraphImage file as a Graph backed by a read-only mmap
/// (MmapGraphImage storage; falls back to a heap copy if mmap is
/// unavailable). Only the derived run metadata is materialized on the
/// heap — the adjacency stays in the mapping, and the kernel pages it in
/// on demand. Validates structure (header, section bounds, CSR shape) and
/// content (stored ContentHash recomputed over the mapped arrays); on any
/// failure returns a named Status and leaves `*graph` untouched. The
/// resulting Graph is ContentHash- and RR-stream-identical to the
/// resident Graph the image was written from.
Status OpenGraphImage(const std::string& path, Graph* graph);

}  // namespace timpp

#endif  // TIMPP_GRAPH_GRAPH_IO_H_
