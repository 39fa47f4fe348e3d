// Out-of-core storage layer: mmap graph images and the RR spill tier.
//
// Four questions, one WC power-law graph:
//
//  1. Graph images — what does opening a prebuilt CSR image cost vs
//     rebuilding the graph from scratch, and does sampling through the
//     mapped (page-cache-backed) arrays keep up with resident arrays?
//     The mapped fill is asserted bit-identical to the resident one
//     before any timing is reported.
//
//  2. RR spill — under a memory budget that forces the streaming greedy,
//     how does disk replay (spill tier on) compare to per-round
//     regeneration (spill tier off)? Both runs are asserted
//     seed-identical to the unbudgeted run; the spilled run must report
//     regeneration_passes == 0.
//
//  3. Cold chunk replay — with the page cache dropped from the store's
//     spill file (posix_fadvise DONTNEED), how fast does a sequential
//     replay (VisitRange: one VisitChunk read per chunk, in index order)
//     stream sets back?
//     The replay checksum is asserted identical to the in-memory truth
//     (fatal) before any timing is reported.
//
//  4. Parallel greedy replay — the streaming greedy over a fully spilled
//     θ range on 1 vs 4 threads. Both runs are asserted seed-identical
//     to GreedyMaxCover on the in-memory sets, with equal spill read
//     counts, before any timing is reported (the speedup is
//     informational: it needs spare cores).
//
// Emits BENCH_bench_outofcore.json (bench_util.h).
//
// Usage: bench_outofcore [--scale=1] [--sets=40000] [--seed=7] [--k=20]
//        [--eps=0.3] [--bench-out=DIR]
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "coverage/greedy_cover.h"
#include "coverage/streaming_cover.h"
#include "engine/sampling_engine.h"
#include "engine/solver_registry.h"
#include "graph/graph_io.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_spill.h"
#include "util/timer.h"

namespace timpp {
namespace {

bool Identical(const RRCollection& a, const RRCollection& b) {
  if (a.num_sets() != b.num_sets() || a.total_nodes() != b.total_nodes() ||
      a.TotalWidth() != b.TotalWidth()) {
    return false;
  }
  for (size_t i = 0; i < a.num_sets(); ++i) {
    const auto sa = a.Set(static_cast<RRSetId>(i));
    const auto sb = b.Set(static_cast<RRSetId>(i));
    if (sa.size() != sb.size() ||
        !std::equal(sa.begin(), sa.end(), sb.begin())) {
      return false;
    }
  }
  return true;
}

SolverResult RunTimPlus(const Graph& graph, int k, double eps, uint64_t seed,
                        size_t budget, const std::string& spill_dir) {
  std::unique_ptr<InfluenceSolver> solver;
  Status status = SolverRegistry::Global().Create("tim+", graph, &solver);
  if (!status.ok()) {
    std::fprintf(stderr, "create tim+: %s\n", status.ToString().c_str());
    std::exit(1);
  }
  SolverOptions options;
  options.k = k;
  options.epsilon = eps;
  options.seed = seed;
  options.memory_budget_bytes = budget;
  options.spill_dir = spill_dir;
  SolverResult result;
  status = solver->Run(options, &result);
  if (!status.ok()) {
    std::fprintf(stderr, "tim+ run: %s\n", status.ToString().c_str());
    std::exit(1);
  }
  return result;
}

/// Asks the kernel to drop the page-cache pages of every file in `dir`
/// (a spill store keeps one), so the next replay pass actually reads from
/// storage.
void DropPageCache(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const int fd = ::open(entry.path().c_str(), O_RDONLY);
    if (fd < 0) continue;
    ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
    ::close(fd);
  }
}

/// Order-sensitive FNV-1a mix of every (index, member...) the replay
/// delivers — any divergence in content or order changes the checksum.
struct ReplayChecksum {
  uint64_t value = 1469598103934665603ull;
  void Mix(uint64_t v) {
    value ^= v;
    value *= 1099511628211ull;
  }
};

/// Full cold VisitRange pass over [0, count); returns sets/sec and writes
/// the content checksum.
double TimeColdReplay(RRSpillStore* store, uint64_t count,
                      uint64_t* checksum) {
  DropPageCache(store->directory());
  ReplayChecksum sum;
  uint64_t stopped = 0;
  Timer timer;
  Status status = store->VisitRange(
      0, count, nullptr,
      [&sum](uint64_t index, std::span<const NodeId> set) {
        sum.Mix(index);
        for (NodeId node : set) sum.Mix(node);
      },
      &stopped);
  const double seconds = timer.ElapsedSeconds();
  if (!status.ok() || stopped != count) {
    std::fprintf(stderr, "cold replay failed: %s (stopped at %llu)\n",
                 status.ToString().c_str(),
                 static_cast<unsigned long long>(stopped));
    std::exit(1);
  }
  *checksum = sum.value;
  return static_cast<double>(count) / seconds;
}

void Run(int argc, char** argv) {
  Flags flags(argc, argv);
  bench::ConfigureBenchOutput(flags);
  const double scale = flags.GetDouble("scale", 1.0);
  const uint64_t sets = flags.GetInt("sets", 40000);
  const uint64_t seed = flags.GetInt("seed", 7);
  const int k = static_cast<int>(flags.GetInt("k", 20));
  const double eps = flags.GetDouble("eps", 0.3);

  bench::JsonReport::Global().SetTitle(
      "Out-of-core storage: mmap graph image + RR spill tier",
      "mapped fills asserted bit-identical to resident; spilled seeds "
      "asserted identical to unbudgeted");

  const NodeId n = std::max<NodeId>(static_cast<NodeId>(30000 * scale), 1000);
  const std::string tmp =
      (std::filesystem::temp_directory_path() / "timpp_bench_outofcore")
          .string();
  std::filesystem::create_directories(tmp);
  const std::string image_path = tmp + "/graph.timppimg";

  // ---- resident build (the cost the image avoids) ---------------------
  Graph resident;
  double build_seconds;
  {
    Timer timer;
    GraphBuilder builder;
    GenBarabasiAlbert(n, 10, seed, &builder);
    AssignWeightedCascade(&builder);
    Status status = builder.Build(&resident);
    if (!status.ok()) {
      std::fprintf(stderr, "build: %s\n", status.ToString().c_str());
      std::exit(1);
    }
    build_seconds = timer.ElapsedSeconds();
  }
  std::printf("graph: n=%u m=%llu   built in %.3fs\n", resident.num_nodes(),
              static_cast<unsigned long long>(resident.num_edges()),
              build_seconds);
  bench::RecordMetric("graph.n", resident.num_nodes());
  bench::RecordMetric("graph.m", static_cast<double>(resident.num_edges()));
  bench::RecordMetric("resident_build_seconds", build_seconds);

  // ---- image write / open --------------------------------------------
  double write_seconds;
  {
    Timer timer;
    Status status = WriteGraphImage(resident, image_path);
    if (!status.ok()) {
      std::fprintf(stderr, "write image: %s\n", status.ToString().c_str());
      std::exit(1);
    }
    write_seconds = timer.ElapsedSeconds();
  }
  Graph mapped;
  double open_seconds;
  {
    Timer timer;
    Status status = OpenGraphImage(image_path, &mapped);
    if (!status.ok()) {
      std::fprintf(stderr, "open image: %s\n", status.ToString().c_str());
      std::exit(1);
    }
    open_seconds = timer.ElapsedSeconds();
  }
  const auto image_bytes =
      static_cast<double>(std::filesystem::file_size(image_path));
  std::printf(
      "image: %.1f MB   write %.3fs   open(mmap+verify) %.3fs   "
      "open speedup vs rebuild %.1fx\n",
      image_bytes / (1024.0 * 1024.0), write_seconds, open_seconds,
      build_seconds / open_seconds);
  bench::RecordMetric("image_bytes", image_bytes);
  bench::RecordMetric("image_write_seconds", write_seconds);
  bench::RecordMetric("image_open_seconds", open_seconds);
  bench::RecordMetric("image_open_speedup_vs_rebuild",
                      build_seconds / open_seconds);

  // ---- sampling through the mapping ----------------------------------
  SamplingConfig config;
  config.model = DiffusionModel::kIC;
  config.seed = seed;
  RRCollection resident_rr(resident.num_nodes());
  double resident_seconds;
  {
    SamplingEngine engine(resident, config);
    Timer timer;
    engine.SampleInto(&resident_rr, sets);
    resident_seconds = timer.ElapsedSeconds();
  }
  RRCollection mapped_rr(mapped.num_nodes());
  double mapped_seconds;
  {
    SamplingEngine engine(mapped, config);
    Timer timer;
    engine.SampleInto(&mapped_rr, sets);
    mapped_seconds = timer.ElapsedSeconds();
  }
  if (resident.ContentHash() != mapped.ContentHash() ||
      !Identical(resident_rr, mapped_rr)) {
    std::fprintf(stderr, "FATAL: mapped graph diverged from resident\n");
    std::exit(1);
  }
  const double resident_rate = static_cast<double>(sets) / resident_seconds;
  const double mapped_rate = static_cast<double>(sets) / mapped_seconds;
  std::printf(
      "sampling %llu sets: resident %.0f sets/s   mmap %.0f sets/s "
      "(%.2fx, bit-identical)\n",
      static_cast<unsigned long long>(sets), resident_rate, mapped_rate,
      mapped_rate / resident_rate);
  bench::RecordMetric("resident_sample_sets_per_sec", resident_rate);
  bench::RecordMetric("mmap_sample_sets_per_sec", mapped_rate);
  bench::RecordMetric("mmap_vs_resident_ratio", mapped_rate / resident_rate);

  // ---- cold chunk replay ---------------------------------------------
  // Page cache dropped before the pass so the chunk reads hit storage.
  // One spill file holds every 1024-set chunk.
  // The checksum is the gate: the replay must match the in-memory sets
  // exactly before any rate is reported.
  RRSpillOptions spill;
  spill.dir = tmp + "/replay";
  spill.sets_per_chunk = 1024;
  RRSpillStore store(resident.num_nodes(), spill);
  {
    Status status = store.SpillRange(resident_rr, {}, 0, sets, 0);
    if (!status.ok()) {
      std::fprintf(stderr, "spill: %s\n", status.ToString().c_str());
      std::exit(1);
    }
  }
  ReplayChecksum truth;
  for (uint64_t i = 0; i < sets; ++i) {
    truth.Mix(i);
    for (NodeId node : resident_rr.Set(static_cast<RRSetId>(i))) {
      truth.Mix(node);
    }
  }
  uint64_t sum = 0;
  const double sync_rate = TimeColdReplay(&store, sets, &sum);
  if (sum != truth.value) {
    std::fprintf(stderr, "FATAL: cold replay diverged from in-memory sets\n");
    std::exit(1);
  }
  std::printf("cold replay %llu sets: %.0f sets/s (checksum identical)\n",
              static_cast<unsigned long long>(sets), sync_rate);
  bench::RecordMetric("cold_replay_sync_sets_per_sec", sync_rate);

  // ---- spill tier vs regeneration under a budget ---------------------
  const SolverResult unbudgeted =
      RunTimPlus(resident, k, eps, seed, 0, "");
  const auto budget =
      static_cast<size_t>(unbudgeted.Metric("rr_data_bytes") / 8.0);
  const SolverResult regen = RunTimPlus(resident, k, eps, seed, budget, "");
  const SolverResult spilled =
      RunTimPlus(resident, k, eps, seed, budget, tmp);
  if (regen.seeds != unbudgeted.seeds || spilled.seeds != unbudgeted.seeds) {
    std::fprintf(stderr, "FATAL: budgeted seeds diverged\n");
    std::exit(1);
  }
  if (spilled.Metric("regeneration_passes") != 0.0 ||
      spilled.Metric("rr_sets_spilled") == 0.0) {
    std::fprintf(stderr, "FATAL: spill tier did not engage\n");
    std::exit(1);
  }
  std::printf(
      "tim+ k=%d eps=%g budget=%zuB: unbudgeted %.3fs   regen %.3fs "
      "(%.6g passes)   spill %.3fs (%.6g sets replayed, %.1f MB written) "
      "   spill speedup vs regen %.2fx\n",
      k, eps, budget, unbudgeted.seconds_total, regen.seconds_total,
      regen.Metric("regeneration_passes"), spilled.seconds_total,
      spilled.Metric("sets_spill_read"),
      spilled.Metric("spill_bytes_written") / (1024.0 * 1024.0),
      regen.seconds_total / spilled.seconds_total);
  bench::RecordMetric("timplus_unbudgeted_seconds", unbudgeted.seconds_total);
  bench::RecordMetric("timplus_regen_seconds", regen.seconds_total);
  bench::RecordMetric("timplus_regen_passes",
                      regen.Metric("regeneration_passes"));
  bench::RecordMetric("timplus_spill_seconds", spilled.seconds_total);
  bench::RecordMetric("timplus_spill_sets_replayed",
                      spilled.Metric("sets_spill_read"));
  bench::RecordMetric("timplus_spill_bytes_written",
                      spilled.Metric("spill_bytes_written"));
  bench::RecordMetric("spill_speedup_vs_regen",
                      regen.seconds_total / spilled.seconds_total);

  // ---- parallel greedy replay: 1 vs 4 threads ------------------------
  // Every set of the cold-replay store (1024-set chunks), none resident:
  // each round replays the whole θ range from disk. The first sweep
  // checks both thread counts against GreedyMaxCover (and warms the page
  // cache); only the second is timed.
  resident_rr.BuildIndex();
  const CoverResult truth_cover = GreedyMaxCover(resident_rr, k);
  const RRCollection none(resident.num_nodes());
  double replay_seconds[2] = {0.0, 0.0};
  uint64_t replay_sets_read[2] = {0, 0};
  for (const bool timed : {false, true}) {
    for (int i = 0; i < 2; ++i) {
      SamplingConfig replay_config = config;
      replay_config.num_threads = i == 0 ? 1 : 4;
      SamplingEngine engine(resident, replay_config);
      Timer timer;
      const StreamingCoverResult replayed =
          StreamingGreedyMaxCover(engine, none, 0, sets, k, &store);
      if (timed) {
        replay_seconds[i] = timer.ElapsedSeconds();
        continue;
      }
      replay_sets_read[i] = replayed.sets_spill_read;
      if (replayed.cover.seeds != truth_cover.seeds ||
          replayed.regeneration_passes != 0) {
        std::fprintf(stderr,
                     "FATAL: %u-thread spill replay diverged from "
                     "GreedyMaxCover\n",
                     replay_config.num_threads);
        std::exit(1);
      }
    }
  }
  if (replay_sets_read[0] != replay_sets_read[1]) {
    std::fprintf(stderr, "FATAL: spill replay read counts differ\n");
    std::exit(1);
  }
  std::printf(
      "greedy replay k=%d over %llu spilled sets: 1 thread %.3fs   "
      "4 threads %.3fs   speedup %.2fx (%llu set reads each)\n",
      k, static_cast<unsigned long long>(sets), replay_seconds[0],
      replay_seconds[1], replay_seconds[0] / replay_seconds[1],
      static_cast<unsigned long long>(replay_sets_read[0]));
  bench::RecordMetric("replay_1t_seconds", replay_seconds[0]);
  bench::RecordMetric("replay_4t_seconds", replay_seconds[1]);
  bench::RecordMetric("replay_speedup_4t_vs_1t",
                      replay_seconds[0] / replay_seconds[1]);
  bench::RecordMetric("replay_sets_read",
                      static_cast<double>(replay_sets_read[0]));

  std::filesystem::remove_all(tmp);
  std::printf(
      "\nidentity checks: mmap fill byte-equal to resident; cold replay "
      "checksum equal to in-memory sets; budgeted "
      "(regen, spill) seeds equal to unbudgeted; 1- and 4-thread greedy "
      "replay seeds equal to GreedyMaxCover\n");
}

}  // namespace
}  // namespace timpp

int main(int argc, char** argv) {
  timpp::Run(argc, argv);
  return 0;
}
