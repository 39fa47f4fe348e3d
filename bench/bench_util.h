// Shared plumbing for the figure-reproduction bench binaries: dataset
// construction from flags, spread measurement, and table formatting.
//
// Every binary accepts:
//   --scale=<f>   fraction of paper-scale node count (per-binary default
//                 keeps the run laptop-sized; --scale=1 is paper-sized)
//   --seed=<u64>  master RNG seed
//   --eps, --k and algorithm-specific knobs documented per binary.
// Alongside the human-readable tables, every bench binary emits a
// machine-readable mirror: the shared helpers (and any metric recorded via
// RecordMetric) accumulate into a process-wide JSON document written to
// BENCH_<binary>.json at exit, so the perf trajectory can be tracked
// PR-over-PR by diffing or plotting those files. The JSON lands next to
// the binary (the build directory) regardless of the invocation CWD —
// running `build/bench_foo` from the repo root must not litter the
// checkout — unless --bench-out=DIR (see ConfigureBenchOutput) or
// SetOutputDir redirects it.
#ifndef TIMPP_BENCH_BENCH_UTIL_H_
#define TIMPP_BENCH_BENCH_UTIL_H_

#include <errno.h>  // program_invocation_short_name (glibc)
#include <unistd.h>  // readlink (exe-relative JSON output)

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "diffusion/spread_estimator.h"
#include "gen/dataset_proxies.h"
#include "gen/generators.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/weight_models.h"
#include "util/flags.h"
#include "util/types.h"

namespace timpp {
namespace bench {

/// Process-wide JSON mirror of a bench run. Flushed to
/// BENCH_<binary>.json in the output directory (the binary's own
/// directory by default) when the process exits normally (static
/// destructor); Flush() forces an earlier write.
class JsonReport {
 public:
  static JsonReport& Global() {
    static JsonReport report;
    return report;
  }

  void SetTitle(const std::string& title, const std::string& notes) {
    title_ = title;
    notes_ = notes;
  }

  /// Overrides the JSON output directory (empty = keep the default:
  /// wherever the binary itself lives, falling back to the CWD).
  void SetOutputDir(const std::string& dir) { output_dir_ = dir; }

  /// Records one numeric metric; emission order is preserved.
  void AddMetric(const std::string& label, double value) {
    metrics_.emplace_back(label, value);
  }

  void Flush() {
    if (metrics_.empty() && title_.empty()) return;
    const std::string binary = BinaryName();
    const std::string path = OutputDir() + "/BENCH_" + binary + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "{\n  \"binary\": \"%s\",\n", Escaped(binary).c_str());
    std::fprintf(f, "  \"title\": \"%s\",\n", Escaped(title_).c_str());
    std::fprintf(f, "  \"notes\": \"%s\",\n", Escaped(notes_).c_str());
    std::fprintf(f, "  \"metrics\": [");
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::fprintf(f, "%s\n    {\"label\": \"%s\", \"value\": %.17g}",
                   i == 0 ? "" : ",", Escaped(metrics_[i].first).c_str(),
                   metrics_[i].second);
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("[json] wrote %s (%zu metrics)\n", path.c_str(),
                metrics_.size());
  }

  ~JsonReport() { Flush(); }

 private:
  JsonReport() = default;

  /// File-name stem: the binary name where the platform exposes it, else a
  /// slug of the title — distinct per bench either way, so suite runs in
  /// one directory never overwrite each other's JSON.
  std::string BinaryName() const {
#if defined(__GLIBC__) && defined(_GNU_SOURCE)
    return program_invocation_short_name;
#else
    std::string slug;
    for (char c : title_) {
      if (std::isalnum(static_cast<unsigned char>(c))) {
        slug.push_back(
            static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
      } else if (!slug.empty() && slug.back() != '_') {
        slug.push_back('_');
      }
      if (slug.size() >= 48) break;
    }
    return slug.empty() ? "bench" : slug;
#endif
  }

  /// Where the JSON goes: the explicit override, else the directory of
  /// the running binary (so CI picks it out of the build tree and a run
  /// from the repo root leaves no stray files), else the CWD.
  std::string OutputDir() const {
    if (!output_dir_.empty()) return output_dir_;
#if defined(__linux__)
    char exe[4096];
    const ssize_t len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (len > 0) {
      exe[len] = '\0';
      const std::string path(exe);
      const size_t slash = path.rfind('/');
      if (slash != std::string::npos && slash > 0) {
        return path.substr(0, slash);
      }
    }
#endif
    return ".";
  }

  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
        out.push_back(c);
      } else if (c == '\n') {
        out += "\\n";
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  std::string title_;
  std::string notes_;
  std::string output_dir_;
  std::vector<std::pair<std::string, double>> metrics_;
};

/// Applies the shared --bench-out=DIR flag (explicit JSON output
/// directory; default keeps the exe-relative placement). Call once after
/// parsing flags.
inline void ConfigureBenchOutput(const Flags& flags) {
  const std::string dir = flags.GetString("bench-out", "");
  if (!dir.empty()) JsonReport::Global().SetOutputDir(dir);
}

/// Records a metric into the JSON mirror without printing (benches keep
/// their own table formatting for the human side).
inline void RecordMetric(const std::string& label, double value) {
  JsonReport::Global().AddMetric(label, value);
}

/// Default k sweep used across the paper's figures (k from 1 to 50).
inline std::vector<int> DefaultKSweep() { return {1, 10, 20, 30, 40, 50}; }

/// Linear-interpolated percentile of `values` (p in [0, 100]); takes the
/// sample vector by value and sorts the copy. Empty input yields 0.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      (std::min(std::max(p, 0.0), 100.0) / 100.0) *
      static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

/// The latency summary every serving bench reports: P50/P90/P99 of
/// `latencies_ms`, recorded as <prefix>.p50_ms/.p90_ms/.p99_ms in the
/// JSON mirror and returned as {p50, p90, p99}.
struct LatencySummary {
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
};

inline LatencySummary RecordLatencyPercentiles(
    const std::string& prefix, const std::vector<double>& latencies_ms) {
  LatencySummary summary;
  summary.p50_ms = Percentile(latencies_ms, 50.0);
  summary.p90_ms = Percentile(latencies_ms, 90.0);
  summary.p99_ms = Percentile(latencies_ms, 99.0);
  RecordMetric(prefix + ".p50_ms", summary.p50_ms);
  RecordMetric(prefix + ".p90_ms", summary.p90_ms);
  RecordMetric(prefix + ".p99_ms", summary.p99_ms);
  return summary;
}

/// Builds the proxy for `dataset`, exiting the process on failure.
inline Graph MustBuildProxy(Dataset dataset, double scale,
                            WeightScheme scheme, uint64_t seed) {
  Graph graph;
  Status status = BuildDatasetProxy(dataset, scale, scheme, seed, &graph);
  if (!status.ok()) {
    std::fprintf(stderr, "failed to build dataset proxy: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
  return graph;
}

/// Scale-free Barabasi-Albert graph with weighted-cascade probabilities
/// (the paper's §7.1 IC setting; whole in-arc lists are single
/// constant-probability runs), exiting the process on failure.
inline Graph MustBuildWcPowerLaw(NodeId n, unsigned attach, uint64_t seed) {
  GraphBuilder builder;
  GenBarabasiAlbert(n, attach, seed, &builder);
  AssignWeightedCascade(&builder);
  Graph graph;
  Status status = builder.Build(&graph);
  if (!status.ok()) {
    std::fprintf(stderr, "failed to build WC power-law graph: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
  return graph;
}

/// Monte-Carlo spread of `seeds` (10^4 cascades unless overridden; the
/// paper's figures use 10^4-10^5). Routed through VerifySpread so every
/// bench table shares one spread-measurement contract: scalar cascades
/// under every model, on 4 threads.
inline double MeasureSpread(const Graph& graph,
                            const std::vector<NodeId>& seeds,
                            DiffusionModel model,
                            uint64_t num_samples = 10000,
                            uint64_t seed = 0xbe7c4) {
  VerifySpreadOptions options;
  options.num_samples = num_samples;
  options.model = model;
  options.num_threads = 4;
  options.seed = seed;
  return VerifySpread(graph, seeds, options);
}

/// Prints the standard bench header naming the figure being reproduced,
/// and titles the JSON mirror.
inline void PrintHeader(const std::string& title, const std::string& notes) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  if (!notes.empty()) std::printf("%s\n", notes.c_str());
  std::printf("==============================================================\n");
  JsonReport::Global().SetTitle(title, notes);
}

/// Prints one dataset banner with its actual proxy size; the proxy size
/// lands in the JSON mirror so scaled runs stay comparable.
inline void PrintDatasetBanner(const std::string& name, const Graph& graph,
                               double scale) {
  std::printf("--- %s proxy (scale=%.4g): n=%u, m=%llu ---\n", name.c_str(),
              scale, graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()));
  RecordMetric(name + ".n", static_cast<double>(graph.num_nodes()));
  RecordMetric(name + ".m", static_cast<double>(graph.num_edges()));
}

}  // namespace bench
}  // namespace timpp

#endif  // TIMPP_BENCH_BENCH_UTIL_H_
