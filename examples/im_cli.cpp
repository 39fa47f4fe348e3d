// im_cli — command-line influence maximization over your own graphs.
//
// Loads a SNAP-style edge list ("u v" or "u v p" per line, '#' comments),
// applies a weight scheme, runs any solver registered in the global
// SolverRegistry and prints the seed set with its estimated spread. The
// whole library behind one binary, with no per-algorithm branching: the
// --algo flag is a registry lookup.
//
// Examples:
//   ./build/im_cli graph.txt --k=50 --algo=tim+ --model=ic --threads=8
//   ./build/im_cli graph.txt --undirected --weights=wc --algo=celf++
//        --mc=1000
//   ./build/im_cli graph.txt --algo=degree --k=20
//   ./build/im_cli --list_algos
//
// Flags:
//   --k=50            seed-set size
//   --algo=tim+       any registered solver; --list_algos prints them
//   --model=ic        ic | lt   (defines both weights default and solver)
//   --weights=wc      wc (1/indeg) | lt (normalized random) | keep (file) |
//                     uniform:<p> | trivalency
//   --eps=0.1 --ell=1 --seed=7 --mc=10000 --threads=1
//                     (--celf_r is accepted as an alias for --mc; note the
//                     old CLI's "celf" ran CELF++ — that variant is now
//                     registered as "celf++", plain lazy-forward as "celf")
//   --max_hops=0      bound propagation rounds (time-critical variant)
//   --sampler=auto    auto | perarc | skip — RR-traversal strategy:
//                     geometric skip sampling over constant-probability
//                     arc runs (fast on wc/uniform graphs) vs one coin
//                     per arc; auto picks per graph
//   --cache-budget=0  batch mode: byte cap on the shared RR collections
//                     (LRU stream eviction; identical results, bounded
//                     memory)
//   --concurrency=1   batch mode: >1 serves the batch through the async
//                     Submit path with that many concurrent request
//                     workers (results identical to --concurrency=1;
//                     per-request reuse attribution may shift between
//                     overlapping requests)
//   --max-pending=0   batch mode with --concurrency: admission-queue
//                     bound; requests past it are rejected with
//                     Unavailable (0 = unbounded, the CLI default — a
//                     batch file is finite)
//   --memory-budget=0 soft cap (bytes; 0 = unlimited) on resident
//                     RR-collection bytes. tim/tim+/imm/ris all degrade
//                     gracefully past it (streaming sample-and-discard
//                     selection over a retained stream prefix: identical
//                     seeds, extra sampling passes)
//   --graph-image=g.timppimg
//                     out-of-core graph storage: if the file exists, mmap
//                     it read-only instead of parsing the edge list (the
//                     positional argument becomes optional); otherwise
//                     build from the edge list, write the image, and run
//                     from the mapped copy. ContentHash and every RR
//                     stream are bit-identical to the resident load
//   --spill-dir=DIR   out-of-core RR storage: when --memory-budget trips,
//                     write the non-resident RR ranges once to one spill
//                     file under DIR and replay them each greedy round
//                     instead of regenerating (identical seeds,
//                     regeneration_passes=0 while the store is healthy).
//                     In batch mode only budgeted requests spill; an
//                     evicted shared stream is resampled on demand
//   --spill           shorthand for --spill-dir=<system temp>/im_spill
//   --ris_tau_scale / --ris_max_sets
//                     RIS cost-threshold and out-of-memory knobs
//   --undirected      treat each input line as an undirected edge
//   --batch=req.tsv   serve many requests against the loaded graph through
//                     the ServingEngine (cross-request RR-collection and
//                     KPT/LB reuse; results identical to running each
//                     request standalone). One request per line:
//                       algo  k  epsilon  [key=value ...]
//                     where key ∈ {seed, model, ell, hops, sampler,
//                     budget, mc, tau_scale, max_sets}; '#' starts a
//                     comment. Unset keys inherit the CLI flags. Prints a
//                     per-request line plus a reuse summary.
//
// Any other --flag is an error (exit 2), so a misspelt flag never runs
// silently at its default. So is an integer flag or batch field whose
// value is not a whole base-10 integer that fits its field (--k=4294967301
// or --threads=-1 exit 2 instead of wrapping; --seed and seed= take any
// value in [0, 2^64-1]), and a floating-point one (--eps, --ell,
// --ris_tau_scale, --weights=uniform:<p>, and a batch line's epsilon,
// ell= and tau_scale=) whose value is not a whole finite number:
// --eps=0.1x exits 2 instead of running ε = 0.1.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "diffusion/spread_estimator.h"
#include "engine/solver_registry.h"
#include "graph/graph_io.h"
#include "graph/weight_models.h"
#include "serving/serving_engine.h"
#include "util/flags.h"

namespace {

int Fail(const timpp::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

void PrintAlgos() {
  std::printf("registered algorithms:");
  for (const std::string& name : timpp::SolverRegistry::Global().Names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");
}

bool ParseSamplerMode(const std::string& name, timpp::SamplerMode* mode) {
  if (name == "auto") {
    *mode = timpp::SamplerMode::kAuto;
  } else if (name == "perarc") {
    *mode = timpp::SamplerMode::kPerArc;
  } else if (name == "skip") {
    *mode = timpp::SamplerMode::kSkip;
  } else {
    return false;
  }
  return true;
}

/// Parses one batch line ("algo k epsilon [key=value ...]") into a
/// request pre-filled with the CLI-level defaults. Returns false (with a
/// message on stderr) on malformed input.
bool ParseBatchLine(const std::string& line, int line_number,
                    timpp::ImRequest* request) {
  std::istringstream in(line);
  std::string k, epsilon;
  if (!(in >> request->algo >> k >> epsilon)) {
    std::fprintf(stderr, "batch line %d: expected 'algo k epsilon ...'\n",
                 line_number);
    return false;
  }
  if (!timpp::ParseInteger(k, &request->k)) {
    std::fprintf(stderr, "batch line %d: bad k '%s'\n", line_number,
                 k.c_str());
    return false;
  }
  if (!timpp::ParseDouble(epsilon, &request->epsilon)) {
    std::fprintf(stderr, "batch line %d: bad epsilon '%s'\n", line_number,
                 epsilon.c_str());
    return false;
  }
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "batch line %d: expected key=value, got '%s'\n",
                   line_number, token.c_str());
      return false;
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    bool valid = true;
    if (key == "seed") {
      valid = timpp::ParseInteger(value, &request->seed);
    } else if (key == "model") {
      if (value == "lt") {
        request->model = timpp::DiffusionModel::kLT;
      } else if (value == "ic") {
        request->model = timpp::DiffusionModel::kIC;
      } else {
        std::fprintf(stderr, "batch line %d: unknown model '%s' (ic|lt)\n",
                     line_number, value.c_str());
        return false;
      }
    } else if (key == "ell") {
      valid = timpp::ParseDouble(value, &request->ell);
    } else if (key == "hops") {
      valid = timpp::ParseInteger(value, &request->max_hops);
    } else if (key == "sampler") {
      if (!ParseSamplerMode(value, &request->sampler_mode)) {
        std::fprintf(stderr, "batch line %d: unknown sampler '%s'\n",
                     line_number, value.c_str());
        return false;
      }
    } else if (key == "budget") {
      valid = timpp::ParseInteger(value, &request->memory_budget_bytes);
    } else if (key == "mc") {
      valid = timpp::ParseInteger(value, &request->mc_samples);
    } else if (key == "tau_scale") {
      valid = timpp::ParseDouble(value, &request->ris_tau_scale);
    } else if (key == "max_sets") {
      valid = timpp::ParseInteger(value, &request->ris_max_sets);
    } else {
      std::fprintf(stderr, "batch line %d: unknown key '%s'\n",
                   line_number, key.c_str());
      return false;
    }
    if (!valid) {
      std::fprintf(stderr, "batch line %d: bad value in '%s'\n", line_number,
                   token.c_str());
      return false;
    }
  }
  return true;
}

/// Batch mode: runs every request in `path` against the loaded graph via
/// a ServingEngine and reports per-request results plus reuse totals.
int RunBatch(const std::string& path, timpp::Graph graph,
             const timpp::ImRequest& defaults,
             const timpp::ServingOptions& serving_options,
             unsigned concurrency) {
  const unsigned num_threads = serving_options.num_threads;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read batch file %s\n", path.c_str());
    return 1;
  }
  std::vector<timpp::ImRequest> requests;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    timpp::ImRequest request = defaults;
    if (!ParseBatchLine(line, line_number, &request)) return 2;
    requests.push_back(std::move(request));
  }
  if (requests.empty()) {
    std::fprintf(stderr, "error: %s contains no requests\n", path.c_str());
    return 2;
  }

  timpp::ServingEngine serving(serving_options);
  timpp::Status status = serving.RegisterGraph("g", std::move(graph));
  if (!status.ok()) return Fail(status);

  std::vector<timpp::ImResponse> responses;
  if (concurrency > 1) {
    // Async path: every request enters the admission queue up front and a
    // crew of `concurrency` workers drains it; results come back in
    // request order through the futures regardless of completion order.
    std::printf(
        "serving %zu request(s) with %u thread(s), concurrency %u\n\n",
        requests.size(), num_threads, concurrency);
    std::vector<std::future<timpp::ImResponse>> futures;
    futures.reserve(requests.size());
    for (const timpp::ImRequest& request : requests) {
      futures.push_back(serving.Submit(request));
    }
    responses.reserve(futures.size());
    for (auto& future : futures) responses.push_back(future.get());
  } else {
    std::printf("serving %zu request(s) with %u thread(s)\n\n",
                requests.size(), num_threads);
    responses = serving.SolveBatch(requests);
  }

  int failures = 0;
  for (size_t i = 0; i < responses.size(); ++i) {
    const timpp::ImRequest& request = requests[i];
    const timpp::ImResponse& response = responses[i];
    if (!response.status.ok()) {
      ++failures;
      std::printf("[%zu] %s k=%d eps=%g FAILED: %s\n", i,
                  request.algo.c_str(), request.k, request.epsilon,
                  response.status.ToString().c_str());
      continue;
    }
    std::printf(
        "[%zu] %s k=%d eps=%g seed=%llu time=%.3fs spread=%.1f "
        "reused=%llu sampled=%llu%s seeds:",
        i, request.algo.c_str(), request.k, request.epsilon,
        static_cast<unsigned long long>(request.seed),
        response.result.seconds_total, response.result.estimated_spread,
        static_cast<unsigned long long>(response.rr_sets_reused),
        static_cast<unsigned long long>(response.rr_sets_sampled),
        response.phase_cache_hit ? " kpt-cache-hit" : "");
    for (timpp::NodeId s : response.result.seeds) std::printf(" %u", s);
    std::printf("\n");
  }

  const timpp::GraphContext* context = serving.Context("g");
  std::printf(
      "\nreuse summary: %llu RR sets served, %llu sampled "
      "(%.1f%% reuse), %zu stream(s), shared collections %.1f MB\n",
      static_cast<unsigned long long>(context->TotalSetsServed()),
      static_cast<unsigned long long>(context->TotalSetsSampled()),
      context->TotalSetsServed() == 0
          ? 0.0
          : 100.0 * static_cast<double>(context->TotalSetsReused()) /
                static_cast<double>(context->TotalSetsServed()),
      context->NumStreams(),
      static_cast<double>(context->SharedMemoryBytes()) / (1024.0 * 1024.0));
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  timpp::Flags flags(argc, argv);
  // Every flag main() reads in some mode, including the batch-only ones,
  // --spill (read only without --spill-dir) and the --celf_r and
  // --memory_budget aliases.
  static const std::set<std::string> kKnownFlags = {
      "algo", "batch", "cache-budget", "celf_r", "concurrency", "ell",
      "eps", "graph-image", "k", "list_algos", "max-pending", "max_hops",
      "mc", "memory-budget", "memory_budget", "model", "ris_max_sets",
      "ris_tau_scale", "sampler", "seed", "spill", "spill-dir", "threads",
      "undirected", "weights"};
  bool unknown = false;
  for (const std::string& name : flags.names()) {
    if (kKnownFlags.count(name) == 0) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
      unknown = true;
    }
  }
  if (unknown) return 2;
  if (flags.GetBool("list_algos", false)) {
    PrintAlgos();
    return 0;
  }
  const std::string image_path = flags.GetString("graph-image", "");
  const bool image_exists =
      !image_path.empty() && std::filesystem::exists(image_path);
  if (flags.positional().empty() && !image_exists) {
    std::fprintf(stderr,
                 "usage: im_cli <edge-list> [--k=50] [--algo=tim+] "
                 "[--model=ic] [--weights=wc] [--threads=N] [--eps=0.1] "
                 "[--graph-image=g.timppimg] [--batch=requests.tsv] ... | "
                 "--list_algos\n");
    return 2;
  }

  // Every numeric flag is checked up front, before the graph loads: a
  // value that is not a whole integer fitting its field, or not a whole
  // finite number, exits 2.
  bool bad_value = false;
  const auto int_flag = [&]<typename T>(const char* name, T def) {
    T value = def;
    if (!flags.GetCheckedInt(name, def, &value)) {
      std::fprintf(stderr, "invalid --%s=%s: expected an integer in [%s, %s]\n",
                   name, flags.GetString(name, "").c_str(),
                   std::to_string(std::numeric_limits<T>::min()).c_str(),
                   std::to_string(std::numeric_limits<T>::max()).c_str());
      bad_value = true;
    }
    return value;
  };
  const auto double_flag = [&](const char* name, double def) {
    double value = def;
    if (!flags.GetCheckedDouble(name, def, &value)) {
      std::fprintf(stderr, "invalid --%s=%s: expected a finite number\n",
                   name, flags.GetString(name, "").c_str());
      bad_value = true;
    }
    return value;
  };
  // --celf_r is the pre-registry spelling of the greedy family's sample
  // count; honor it as an alias so old command lines keep their meaning.
  const uint64_t mc = flags.Has("celf_r") ? int_flag("celf_r", uint64_t{10000})
                                          : int_flag("mc", uint64_t{10000});
  const int k = int_flag("k", 50);
  const uint64_t seed = int_flag("seed", uint64_t{7});
  const uint32_t max_hops = int_flag("max_hops", uint32_t{0});
  const unsigned num_threads = int_flag("threads", 1u);
  const uint64_t ris_max_sets = int_flag("ris_max_sets", uint64_t{10000000});
  // --memory_budget is accepted as a spelling variant.
  const size_t memory_budget =
      int_flag(flags.Has("memory-budget") ? "memory-budget" : "memory_budget",
               size_t{0});
  const size_t cache_budget = int_flag("cache-budget", size_t{0});
  const unsigned concurrency = std::max(1u, int_flag("concurrency", 1u));
  const size_t max_pending = int_flag("max-pending", size_t{0});
  const double epsilon = double_flag("eps", 0.1);
  const double ell = double_flag("ell", 1.0);
  const double ris_tau_scale = double_flag("ris_tau_scale", 0.1);

  const std::string path =
      flags.positional().empty() ? std::string() : flags.positional()[0];
  const std::string algo = flags.GetString("algo", "tim+");
  const std::string model_name = flags.GetString("model", "ic");
  if (model_name != "ic" && model_name != "lt") {
    std::fprintf(stderr, "unknown --model=%s (ic|lt)\n", model_name.c_str());
    bad_value = true;
  }
  const timpp::DiffusionModel model = model_name == "lt"
                                          ? timpp::DiffusionModel::kLT
                                          : timpp::DiffusionModel::kIC;
  const std::string weights = flags.GetString(
      "weights", model == timpp::DiffusionModel::kLT ? "lt" : "wc");
  double uniform_p = 0.0;
  if (weights.rfind("uniform:", 0) == 0 &&
      !timpp::ParseDouble(std::string_view(weights).substr(8), &uniform_p)) {
    std::fprintf(stderr,
                 "invalid --weights=%s: expected uniform:<finite number>\n",
                 weights.c_str());
    bad_value = true;
  }
  if (bad_value) return 2;

  // ---- load ---------------------------------------------------------
  timpp::EdgeListOptions io_options;
  io_options.undirected = flags.GetBool("undirected", false);
  timpp::Graph graph;
  timpp::Status status;
  if (image_exists) {
    // Out-of-core path: map the prebuilt CSR image read-only; the kernel
    // pages the adjacency in on demand. Weights and direction are baked
    // into the image; the edge-list flags are not consulted.
    status = timpp::OpenGraphImage(image_path, &graph);
    if (!status.ok()) return Fail(status);
    std::printf("mapped %s: n=%u, m=%llu\n", image_path.c_str(),
                graph.num_nodes(),
                static_cast<unsigned long long>(graph.num_edges()));
  } else {
    timpp::GraphBuilder builder;
    status = timpp::ReadEdgeList(path, io_options, &builder);
    if (!status.ok()) return Fail(status);

    if (weights == "wc") {
      timpp::AssignWeightedCascade(&builder);
    } else if (weights == "lt") {
      timpp::AssignRandomLT(&builder, seed);
    } else if (weights == "trivalency") {
      timpp::AssignTrivalency(&builder, seed);
    } else if (weights.rfind("uniform:", 0) == 0) {
      timpp::AssignUniform(&builder, static_cast<float>(uniform_p));
    } else if (weights != "keep") {
      std::fprintf(stderr, "unknown --weights=%s\n", weights.c_str());
      return 2;
    }

    status = builder.Build(&graph);
    if (!status.ok()) return Fail(status);
    std::printf("loaded %s: n=%u, m=%llu\n", path.c_str(), graph.num_nodes(),
                static_cast<unsigned long long>(graph.num_edges()));
    if (!image_path.empty()) {
      // Save-and-reload: write the image, then run THIS command from the
      // mapped copy so the round-trip is exercised (and verified — the
      // open recomputes the content hash) on the very run that created it.
      status = timpp::WriteGraphImage(graph, image_path);
      if (!status.ok()) return Fail(status);
      timpp::Graph mapped;
      status = timpp::OpenGraphImage(image_path, &mapped);
      if (!status.ok()) return Fail(status);
      graph = std::move(mapped);
      std::printf("wrote graph image %s (running from the mapped copy)\n",
                  image_path.c_str());
    }
  }

  const std::string sampler = flags.GetString("sampler", "auto");
  timpp::SamplerMode sampler_mode;
  if (!ParseSamplerMode(sampler, &sampler_mode)) {
    std::fprintf(stderr, "unknown --sampler=%s (auto|perarc|skip)\n",
                 sampler.c_str());
    return 2;
  }

  // ---- spill tier ---------------------------------------------------
  std::string spill_dir = flags.GetString("spill-dir", "");
  if (spill_dir.empty() && flags.GetBool("spill", false)) {
    spill_dir =
        (std::filesystem::temp_directory_path() / "im_spill").string();
  }

  // ---- options ------------------------------------------------------
  timpp::SolverOptions options;
  options.k = k;
  options.sampler_mode = sampler_mode;
  options.epsilon = epsilon;
  options.ell = ell;
  options.model = model;
  options.max_hops = max_hops;
  options.num_threads = num_threads;
  options.seed = seed;
  options.mc_samples = mc;
  options.ris_tau_scale = ris_tau_scale;
  options.ris_max_sets = ris_max_sets;
  options.memory_budget_bytes = memory_budget;
  options.spill_dir = spill_dir;

  // ---- batch mode ---------------------------------------------------
  if (flags.Has("batch")) {
    // The CLI options are every request's defaults (k and ε come from
    // each line); the engine-wide knobs come from serving_options.
    timpp::ImRequest defaults;
    static_cast<timpp::SolverOptions&>(defaults) = options;
    defaults.graph = "g";
    timpp::ServingOptions serving_options;
    serving_options.num_threads = num_threads;
    serving_options.shared_cache_budget_bytes = cache_budget;
    serving_options.submit_workers = concurrency;
    // A batch file is a finite, known workload: default to unbounded
    // admission so --concurrency never sheds requests unless the user
    // asks for a bound.
    serving_options.max_pending_requests = max_pending;
    serving_options.spill_dir = spill_dir;
    return RunBatch(flags.GetString("batch", ""), std::move(graph), defaults,
                    serving_options, concurrency);
  }

  // ---- solve --------------------------------------------------------
  std::unique_ptr<timpp::InfluenceSolver> solver;
  status = timpp::SolverRegistry::Global().Create(algo, graph, &solver);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    PrintAlgos();
    return 2;
  }

  timpp::SolverResult result;
  status = solver->Run(options, &result);
  if (!status.ok()) return Fail(status);

  // ---- report -------------------------------------------------------
  timpp::SpreadEstimatorOptions est;
  est.num_samples = mc;
  est.model = model;
  est.num_threads = options.num_threads;
  est.max_hops = options.max_hops;
  est.sampler_mode = sampler_mode;
  timpp::SpreadEstimator estimator(graph, est);
  const double spread = estimator.Estimate(result.seeds, seed ^ 0xabc);

  std::printf("\nalgorithm=%s model=%s sampler=%s k=%d time=%.3fs\n",
              solver->name().c_str(), timpp::DiffusionModelName(model),
              timpp::SamplerModeName(sampler_mode), options.k,
              result.seconds_total);
  if (!result.metrics.empty()) {
    std::printf("stats:");
    for (const auto& [name, value] : result.metrics) {
      std::printf(" %s=%.6g", name.c_str(), value);
    }
    std::printf("\n");
  }
  if (result.Metric("hit_memory_budget") != 0.0) {
    // Every RR-set algorithm now degrades gracefully (RIS included since
    // its collection became a stream-prefix cache): seeds are identical
    // to an unbudgeted run, so this is a cost note, not a quality
    // warning.
    const double retained = result.Metric("rr_sets_retained");
    const double theta =
        result.Metric("theta", result.Metric("rr_sets_generated"));
    if (retained == theta) {
      // Every set stayed resident; only the inverted index was over.
      std::printf(
          "note: memory budget engaged — the inverted index did not fit, "
          "so the greedy streamed over all %.6g resident RR sets (seeds "
          "identical to an unbudgeted run)\n",
          retained);
    } else {
      std::printf(
          "note: memory budget engaged — selection streamed %.6g "
          "regeneration pass(es) over discarded RR sets (seeds identical "
          "to an unbudgeted run, retained %.6g of %.6g sets)\n",
          result.Metric("regeneration_passes"), retained, theta);
    }
    if (result.Metric("rr_sets_spilled") != 0.0) {
      std::printf(
          "note: spill tier engaged — %.6g sets spilled (%.6g bytes), "
          "%.6g set reads replayed from disk instead of regenerated\n",
          result.Metric("rr_sets_spilled"),
          result.Metric("spill_bytes_written"),
          result.Metric("sets_spill_read"));
    }
  }
  if (result.estimated_spread > 0.0) {
    std::printf("solver spread estimate: %.1f\n", result.estimated_spread);
  }
  std::printf("expected spread (MC %llu): %.1f (%.2f%% of n)\n",
              static_cast<unsigned long long>(mc), spread,
              100.0 * spread / graph.num_nodes());
  std::printf("seeds:");
  for (timpp::NodeId s : result.seeds) std::printf(" %u", s);
  std::printf("\n");
  return 0;
}
