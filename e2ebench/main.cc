// timpp_e2e — the measuring process behind run.py.
//
//   timpp_e2e info  --dir D
//   timpp_e2e gen   --workload W --seed S --dir D [--scale toy]
//   timpp_e2e run   --workload W --seed S --dir D --threads T [--scale toy]
//                   [--unbudgeted] [--tamper spread|serve|spill]
//   timpp_e2e trace --workload W --seed S --dir D --threads T [--scale toy]
//                   [--tamper replay]
//   timpp_e2e replay --workload W --seed S --dir D --threads T [--scale toy]
//
// Every subcommand prints one JSON line. `run` is one untraced repeat
// (setup → cold solve → verify, or one serving mix); run.py starts a fresh
// process for each repeat so every repeat pays the cold-allocator cost a
// CLI user pays. `trace` is the separate traced process: it times every
// layer call of a replayed solve (replay.h) and reads the exact counters;
// `replay` is a bare cold replay (the 1-thread side of engine.speedup_4t).
//
// Exit codes: 0 success, 2 usage or I/O error, 3 a correctness gate failed
// (the gate's reason goes to stderr and no metrics are printed).
#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "diffusion/spread_estimator.h"
#include "graph/graph_io.h"
#include "json_line.h"
#include "replay.h"
#include "rrset/rr_spill.h"
#include "serve_mix.h"
#include "span_trace.h"
#include "util/flags.h"
#include "util/timer.h"
#include "workloads.h"

namespace timpp::e2e {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  const WorkloadSpec* spec = nullptr;
  Seeds seeds;
  std::string dir;
  unsigned threads = 1;
  std::string tamper;
  bool unbudgeted = false;
};

int Fail(const std::string& what) {
  std::fprintf(stderr, "timpp_e2e: %s\n", what.c_str());
  return 2;
}

int Fail(const Status& status) { return Fail(status.ToString()); }

int GateFailed(const std::string& gate, const std::string& why) {
  std::fprintf(stderr, "timpp_e2e: correctness gate '%s' failed: %s\n",
               gate.c_str(), why.c_str());
  return 3;
}

std::string SpillDir(const std::string& dir) { return dir + "/spill"; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double StdDev(const std::vector<double>& v) {
  const double mean = std::accumulate(v.begin(), v.end(), 0.0) / v.size();
  double ss = 0.0;
  for (double x : v) ss += (x - mean) * (x - mean);
  return std::sqrt(ss / static_cast<double>(v.size() - 1));
}

// The k highest node ids: the youngest, lowest-degree nodes of a
// preferential-attachment graph — a seed set no solver would return.
std::vector<NodeId> TamperedSeeds(const Graph& graph, size_t k) {
  std::vector<NodeId> seeds;
  for (NodeId v = graph.num_nodes(); v-- > 0 && seeds.size() < k;) {
    seeds.push_back(v);
  }
  return seeds;
}

// ------------------------------------------------------------- info --

int Info(const std::string& dir) {
  utsname uts{};
  uname(&uts);
  bool ndebug = false;
#ifdef NDEBUG
  ndebug = true;
#endif
  std::string sanitizers;
#if defined(__SANITIZE_ADDRESS__)
  sanitizers += "address ";
#endif
#if defined(__SANITIZE_THREAD__)
  sanitizers += "thread ";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  sanitizers += "clang ";
#endif
#endif

  // Which async backend a spill store's readahead resolves to here: spill
  // three one-set chunks and replay them, which issues prefetches.
  std::string io_backend = "unprobed";
  {
    RRSpillOptions options;
    options.dir = dir;
    options.sets_per_chunk = 1;
    RRSpillStore store(1, options);
    RRCollection sets(1);
    const NodeId node = 0;
    for (int i = 0; i < 3; ++i) sets.Add({&node, 1}, 1);
    uint64_t stopped = 0;
    if (store.SpillRange(sets, {}, 0, 3, 0).ok() &&
        store.VisitRange(0, 3, nullptr,
                         [](uint64_t, std::span<const NodeId>) {}, &stopped)
            .ok()) {
      io_backend = store.io_backend_name();
    }
  }

  JsonLine line;
  line.Add("ndebug", ndebug)
      .Add("sanitizers", sanitizers)
      .Add("compiler", __VERSION__)
      .Add("kernel", std::string(uts.sysname) + " " + uts.release)
      .Add("spill_io_backend", io_backend)
      .Print();
  return 0;
}

// -------------------------------------------------------------- run --

// Verifies `solve`'s seeds (a tampered set under --tamper spread), applies
// the spread gate, and adds the verification fields to `line`. Returns the
// exit code of a failed gate, 0 otherwise.
int Verify(const Args& a, const Graph& graph, const SolveOutcome& solve,
           JsonLine* line) {
  const std::vector<NodeId> seeds =
      a.tamper == "spread" ? TamperedSeeds(graph, solve.seeds.size())
                           : solve.seeds;
  Timer timer;
  const double spread = VerifySpread(
      graph, seeds, VerifyOptions(*a.spec, a.threads, a.seeds.verify));
  const double verify_s = timer.ElapsedSeconds();
  std::string why;
  if (!SpreadAgrees(*a.spec, graph.num_nodes(), solve, spread, &why)) {
    return GateFailed("spread", why);
  }
  line->Add("verify_s", verify_s)
      .Add("spread", spread)
      .Add("seeds", solve.seeds)
      .Add("peak_rss_mb", PeakRssMb());
  return 0;
}

int RunBatch(const Args& a) {
  const WorkloadSpec& spec = *a.spec;
  Graph graph;
  double setup_s = 0.0;
  Status st = LoadGraph(spec, a.seeds, a.dir, &graph, &setup_s);
  if (!st.ok()) return Fail(st);

  Seeds seeds = a.seeds;
  if (a.unbudgeted && a.tamper == "spill") {
    seeds.solver = DeriveSeed(seeds.solver, 9);
  }
  SolveOutcome solve;
  st = Solve(spec, seeds, graph, a.threads, !a.unbudgeted, SpillDir(a.dir),
             &solve);
  JsonLine line;
  if (!st.ok()) {
    // A solver error is a failed operation, not a crash of the benchmark.
    line.Add("ok", false).Add("error", st.ToString()).Print();
    return 0;
  }
  line.Add("ok", true);
  if (a.unbudgeted) {
    line.Add("seeds", solve.seeds).Print();
    return 0;
  }
  if (spec.memory_budget_bytes != 0) {
    if (!solve.hit_memory_budget) {
      return GateFailed("spill", "the memory budget never tripped");
    }
    if (solve.regeneration_passes != 0) {
      return GateFailed("spill", "streaming selection regenerated " +
                                     std::to_string(solve.regeneration_passes) +
                                     " passes instead of replaying the spill");
    }
  }
  line.Add("setup_s", setup_s).Add("solve_s", solve.seconds);
  if (int code = Verify(a, graph, solve, &line)) return code;
  line.Print();
  return 0;
}

int RunServe(const Args& a) {
  ServeMixResult mix;
  Status st = RunServeMix(*a.spec, a.seeds, a.dir, a.threads,
                          a.tamper == "serve", &mix);
  if (!st.ok()) return Fail(st);
  if (!mix.gate_error.empty()) return GateFailed("serve", mix.gate_error);
  JsonLine line;
  line.Add("ok", true)
      .Add("setup_s", mix.setup_s)
      .Add("solve_s", mix.wall_s)
      .Add("attempted", mix.attempted)
      .Add("failed", mix.failed)
      .Add("latency_ms", mix.latency_ms);
  if (int code = Verify(a, mix.graph, mix.canonical, &line)) return code;
  line.Print();
  return 0;
}

// ----------------------------------------------------------- replay --

// One untraced-process replay: the cold solve at --threads, for the
// thread-scaling ratio (run.py compares a 1-thread one with the traced
// process's cold replay).
int Replay(const Args& a) {
  Graph graph;
  double setup_s = 0.0;
  Status st = LoadGraph(*a.spec, a.seeds, a.dir, &graph, &setup_s);
  if (!st.ok()) return Fail(st);
  Tracer tracer;
  ReplayResult replay;
  st = ReplaySolve(*a.spec, a.seeds, graph, a.threads, SpillDir(a.dir), false,
                   &tracer, &replay);
  if (!st.ok()) return Fail(st);
  JsonLine()
      .Add("ok", true)
      .Add("replay_total_s", replay.total_s)
      .Add("seeds", replay.seeds)
      .Print();
  return 0;
}

// ------------------------------------------------------------ trace --

int Trace(const Args& a) {
  const WorkloadSpec& spec = *a.spec;
  Tracer tracer;
  JsonLine m;  // the per-layer metrics

  // graph: both setup paths, whichever one the workload uses.
  Graph text_graph;
  {
    GraphBuilder builder;
    Status st = tracer.Span("graph.parse", "graph",
                            [&] { return ParseText(a.dir, &builder); });
    if (st.ok()) {
      st = tracer.Span("graph.build", "graph", [&] {
        return BuildFromText(spec, a.seeds, &builder, &text_graph);
      });
    }
    if (!st.ok()) return Fail(st);
  }
  Graph image_graph;
  Status st = tracer.Span("graph.image_open", "graph", [&] {
    return OpenGraphImage(ImagePath(a.dir), &image_graph);
  });
  if (!st.ok()) return Fail(st);
  const Graph graph = spec.parse_text ? text_graph : image_graph;
  text_graph = Graph();
  image_graph = Graph();
  m.Add("graph.parse_s", tracer.Sum("graph.parse"))
      .Add("graph.build_s", tracer.Sum("graph.build"))
      .Add("graph.image_open_s", tracer.Sum("graph.image_open"))
      .Add("graph.mb", graph.MemoryBytes() / kMiB);

  // The replay at the workload's threads runs first, so it is this fresh
  // process's cold solve (what a CLI user pays): every layer span below
  // comes from it. An identical second replay gives the warm cost.
  const std::string spill_dir = SpillDir(a.dir);
  Seeds replay_seeds = a.seeds;
  if (a.tamper == "replay") replay_seeds.solver = DeriveSeed(a.seeds.solver, 9);
  ReplayResult replay, warm;
  st = ReplaySolve(spec, replay_seeds, graph, a.threads, spill_dir, true,
                   &tracer, &replay);
  Tracer warm_tracer;
  if (st.ok()) {
    st = ReplaySolve(spec, replay_seeds, graph, a.threads, spill_dir, false,
                     &warm_tracer, &warm);
  }
  if (!st.ok()) return Fail(st);

  // Gates: the solver itself returns what the replay did, bit for bit; a
  // budgeted solve returns what an unbudgeted one does, from its spill.
  SolveOutcome solver;
  st = tracer.Span("solve.untraced", "core", [&] {
    return Solve(spec, a.seeds, graph, a.threads, true, spill_dir, &solver);
  });
  if (!st.ok()) return Fail(st);
  if (std::string diff = CompareReplay(spec, solver, replay); !diff.empty()) {
    return GateFailed("replay", diff);
  }
  if (warm.seeds != replay.seeds) {
    return GateFailed("replay", "the warm replay's seeds differ");
  }
  if (spec.memory_budget_bytes != 0) {
    SolveOutcome unbudgeted;
    st = Solve(spec, a.seeds, graph, a.threads, false, spill_dir, &unbudgeted);
    if (!st.ok()) return Fail(st);
    if (unbudgeted.seeds != solver.seeds) {
      return GateFailed("spill", "budgeted seeds differ from unbudgeted");
    }
    if (solver.regeneration_passes != 0 || !solver.hit_memory_budget) {
      return GateFailed("spill", "budget did not trip, or selection "
                                 "regenerated instead of replaying");
    }
  }

  const double sample_s = tracer.Sum("engine.sample");
  const double fill_s = tracer.Sum("engine.fill");
  m.Add("core.kpt_s", tracer.Sum("core.kpt") + tracer.Sum("core.lb_search"))
      .Add("core.refine_s", tracer.Sum("core.refine"))
      .Add("core.kpt_sets", replay.kpt_sets)
      .Add("core.lb_iterations", replay.lb_iterations)
      .Add("core.theta", replay.theta)
      .Add("engine.sample_s", sample_s)
      .Add("engine.fill_s", fill_s)
      .Add("engine.merge_s", sample_s - fill_s)
      .Add("engine.sets", replay.sampled_sets)
      .Add("engine.edges_examined", replay.edges_examined)
      .Add("engine.sets_per_s",
           sample_s > 0 ? static_cast<double>(replay.sampled_sets) / sample_s
                        : 0.0)
      .Add("rrset.index_s", tracer.Sum("rrset.index"))
      .Add("rrset.index_builds", tracer.Count("rrset.index"))
      .Add("rrset.data_mb", replay.rr_data_bytes / kMiB)
      .Add("rrset.capacity_mb", replay.rr_capacity_bytes / kMiB)
      .Add("rrset.first_touch_s", replay.total_s - warm.total_s)
      .Add("coverage.greedy_s", tracer.Sum("coverage.greedy"))
      .Add("coverage.stream_s", tracer.Sum("coverage.stream"))
      .Add("coverage.regeneration_passes", replay.regeneration_passes)
      .Add("spill.write_s",
           tracer.Sum("spill.write") + tracer.Sum("spill.fill_to"))
      .Add("spill.mb_written", replay.spill.bytes_written / kMiB)
      .Add("spill.sets_read", replay.spill.sets_read)
      .Add("spill.prefetch_hit_ratio",
           replay.spill.prefetch_issued
               ? static_cast<double>(replay.spill.prefetch_hits) /
                     static_cast<double>(replay.spill.prefetch_issued)
               : 0.0)
      .Add("spill.sync_fallback_reads", replay.spill.sync_fallback_reads);

  // diffusion: eight VerifySpread calls with distinct seeds give the
  // estimator's standard error at this cascade count.
  std::vector<double> estimates, seconds;
  for (uint64_t i = 0; i < 8; ++i) {
    const uint64_t seed = i == 0 ? a.seeds.verify : DeriveSeed(a.seeds.verify, i);
    Timer timer;
    estimates.push_back(tracer.Span("diffusion.verify", "diffusion", [&] {
      return VerifySpread(graph, solver.seeds,
                          VerifyOptions(spec, a.threads, seed));
    }));
    seconds.push_back(timer.ElapsedSeconds());
  }
  std::string why;
  if (!SpreadAgrees(spec, graph.num_nodes(), solver, estimates[0], &why)) {
    return GateFailed("spread", why);
  }
  const double se = StdDev(estimates);
  const double verify_s = Median(seconds);
  m.Add("diffusion.cascades_per_s",
        static_cast<double>(spec.mc_samples) / verify_s)
      .Add("diffusion.spread_se", se)
      .Add("diffusion.precision_per_s", 1.0 / (se * se * verify_s));

  // serving: the mix, last, so the solves above ran in a cold process.
  // (On serve-mix every other layer is measured on the canonical request,
  // which is the spec's solve.)
  ServeMixResult mix;
  if (spec.serving()) {
    st = tracer.Span("serving.mix", "serving", [&] {
      return RunServeMix(spec, a.seeds, a.dir, a.threads, false, &mix);
    });
    if (!st.ok()) return Fail(st);
    if (!mix.gate_error.empty()) return GateFailed("serve", mix.gate_error);
  }
  std::vector<double> reads, writes;
  for (size_t i = 0; i < mix.latency_ms.size(); ++i) {
    (mix.is_read[i] ? reads : writes).push_back(mix.latency_ms[i]);
  }
  m.Add("serving.reuse_ratio",
        mix.sets_served ? static_cast<double>(mix.sets_reused) /
                              static_cast<double>(mix.sets_served)
                        : 0.0)
      .Add("serving.phase_hit_ratio",
           mix.attempted ? static_cast<double>(mix.phase_hits) /
                               static_cast<double>(mix.attempted)
                         : 0.0)
      .Add("serving.sets_sampled", mix.sets_sampled)
      .Add("serving.cache_mb", mix.cache_bytes / kMiB)
      .Add("serving.read_p50_ms", Median(reads))
      .Add("serving.write_p50_ms", Median(writes));

  const std::string spans_path = a.dir + "/spans.json";
  std::ofstream(spans_path) << tracer.ToJson();

  JsonLine line;
  line.Add("ok", true)
      .Add("replay_total_s", replay.total_s)
      // Traced warm replay minus the untraced warm solve: what the spans
      // cost (both ran after the cold replay, in the same process state).
      .Add("trace_overhead_s", warm.total_s - solver.seconds)
      .Add("seeds", replay.seeds)
      .Add("spill_io_backend", replay.io_backend)
      .Add("spans", spans_path)
      .Raw("metrics", m.str())
      .Print();
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Fail("usage: timpp_e2e info|gen|run|trace|replay [flags]");
  }
  const std::string command = argv[1];
  Flags flags(argc - 1, argv + 1);
  const std::string dir = flags.GetString("dir", "");
  if (dir.empty()) return Fail("--dir is required");
  if (command == "info") return Info(dir);

  Args a;
  const Scale scale =
      flags.GetString("scale", "full") == "toy" ? Scale::kToy : Scale::kFull;
  a.spec = FindWorkload(flags.GetString("workload", ""), scale);
  if (a.spec == nullptr) return Fail("unknown --workload");
  a.seeds = DeriveSeeds(std::stoull(flags.GetString("seed", "1")));
  a.dir = dir;
  a.threads = static_cast<unsigned>(flags.GetInt("threads", 1));
  a.tamper = flags.GetString("tamper", "");
  a.unbudgeted = flags.GetBool("unbudgeted", false);

  if (command == "gen") {
    const Status st = GenerateInputs(*a.spec, a.seeds, dir);
    if (!st.ok()) return Fail(st);
    JsonLine().Add("ok", true).Print();
    return 0;
  }
  if (command == "run") return a.spec->serving() ? RunServe(a) : RunBatch(a);
  if (command == "trace") return Trace(a);
  if (command == "replay") return Replay(a);
  return Fail("unknown command " + command);
}

}  // namespace
}  // namespace timpp::e2e

int main(int argc, char** argv) { return timpp::e2e::Main(argc, argv); }
