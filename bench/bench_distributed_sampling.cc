// Distributed RR sampling: sets/sec vs worker count, plus merge overhead.
//
// One WC power-law graph, one sampling stream; the same θ-set fill runs on
// the local thread backend and on `procs:N` for N ∈ {1, 2, 4} worker
// subprocesses (inline graph handshake — what a programmatic coordinator
// pays). Every distributed fill is asserted BIT-IDENTICAL to the local
// one (sets, widths, per-set edge counts) before its timing is reported:
// the bench doubles as the acceptance check that scaling out never
// changes results. "Merge overhead" isolates the serialize → pipe →
// deserialize → AppendRange cost by timing a second local fill that
// round-trips every batch through the wire format.
//
// Emits BENCH_bench_distributed_sampling.json (bench_util.h).
//
// Usage: bench_distributed_sampling [--scale=1] [--sets=60000] [--seed=7]
//        [--threads=1] (threads = per-worker sampling threads)
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "engine/sampling_engine.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_serialization.h"
#include "util/timer.h"

namespace timpp {
namespace {

bool Identical(const RRCollection& a, const std::vector<uint64_t>& ae,
               const RRCollection& b, const std::vector<uint64_t>& be) {
  if (a.num_sets() != b.num_sets() || a.total_nodes() != b.total_nodes() ||
      a.TotalWidth() != b.TotalWidth() || ae != be) {
    return false;
  }
  for (size_t i = 0; i < a.num_sets(); ++i) {
    const auto sa = a.Set(static_cast<RRSetId>(i));
    const auto sb = b.Set(static_cast<RRSetId>(i));
    if (sa.size() != sb.size() ||
        !std::equal(sa.begin(), sa.end(), sb.begin())) {
      return false;
    }
    if (a.Width(static_cast<RRSetId>(i)) != b.Width(static_cast<RRSetId>(i))) {
      return false;
    }
  }
  return true;
}

void Run(int argc, char** argv) {
  Flags flags(argc, argv);
  bench::ConfigureBenchOutput(flags);
  const double scale = flags.GetDouble("scale", 1.0);
  const uint64_t sets = flags.GetInt("sets", 60000);
  const uint64_t seed = flags.GetInt("seed", 7);
  const unsigned worker_threads =
      static_cast<unsigned>(flags.GetInt("threads", 1));
  // IC/WC sets are memory-speed to sample (shard bytes ≈ sampling cost:
  // the coordinator merge caps scaling); LT sets are random walks paying
  // O(indeg) per step for a handful of shipped nodes — the
  // CPU-heavy-per-byte profile process sharding exists for.
  const std::string model_name = flags.GetString("model", "lt");
  const DiffusionModel model =
      model_name == "ic" ? DiffusionModel::kIC : DiffusionModel::kLT;

  const NodeId n =
      std::max<NodeId>(static_cast<NodeId>(30000 * scale), 1000);
  Graph graph;
  {
    GraphBuilder builder;
    GenBarabasiAlbert(n, 10, seed, &builder);
    if (model == DiffusionModel::kLT) {
      AssignRandomLT(&builder, seed);
    } else {
      AssignWeightedCascade(&builder);
    }
    Status status = builder.Build(&graph);
    if (!status.ok()) {
      std::fprintf(stderr, "graph build failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
  }

  bench::JsonReport::Global().SetTitle(
      "Distributed RR sampling: sets/sec vs worker count",
      "procs:N fills asserted bit-identical to local before timing");

  std::printf("graph: n=%u m=%llu model=%s   fill: %llu sets, seed=%llu\n\n",
              graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()),
              DiffusionModelName(model),
              static_cast<unsigned long long>(sets),
              static_cast<unsigned long long>(seed));
  std::printf("%-12s %12s %12s %10s\n", "backend", "seconds", "sets/sec",
              "vs local");

  // Local reference fill (also the identity baseline).
  SamplingConfig local_config;
  local_config.model = model;
  local_config.seed = seed;
  local_config.num_threads = worker_threads;
  RRCollection local_rr(graph.num_nodes());
  std::vector<uint64_t> local_edges;
  double local_seconds;
  {
    SamplingEngine engine(graph, local_config);
    Timer timer;
    engine.SampleInto(&local_rr, sets, &local_edges);
    local_seconds = timer.ElapsedSeconds();
  }
  const double local_rate = static_cast<double>(sets) / local_seconds;
  std::printf("%-12s %12.3f %12.0f %10s\n", "local", local_seconds,
              local_rate, "1.00x");
  bench::RecordMetric("local_sets_per_sec", local_rate);

  // Merge overhead: local sampling plus a wire-format round trip of every
  // 8192-set batch — the coordinator-side cost floor of any remote shard.
  {
    SamplingEngine engine(graph, local_config);
    RRCollection merged(graph.num_nodes());
    std::vector<uint64_t> merged_edges;
    Timer timer;
    RRCollection batch_rr(graph.num_nodes());
    std::vector<uint64_t> batch_edges;
    std::string wire;
    for (uint64_t done = 0; done < sets;) {
      const uint64_t batch = std::min<uint64_t>(8192, sets - done);
      batch_rr.Clear();
      batch_edges.clear();
      engine.SampleInto(&batch_rr, batch, &batch_edges);
      wire.clear();
      SerializeRRShard(batch_rr, batch_edges, &wire);
      Status s = DeserializeRRShard(wire, graph.num_nodes(), &merged,
                                    &merged_edges);
      if (!s.ok()) {
        std::fprintf(stderr, "round-trip failed: %s\n", s.ToString().c_str());
        std::exit(1);
      }
      done += batch;
    }
    const double seconds = timer.ElapsedSeconds();
    if (!Identical(local_rr, local_edges, merged, merged_edges)) {
      std::fprintf(stderr, "IDENTITY VIOLATION: wire round trip diverged\n");
      std::exit(1);
    }
    const double overhead = seconds - local_seconds;
    std::printf("%-12s %12.3f %12.0f %10s  (serialize+parse overhead "
                "%.1f%%)\n",
                "local+wire", seconds, static_cast<double>(sets) / seconds,
                "-", 100.0 * overhead / local_seconds);
    bench::RecordMetric("wire_roundtrip_overhead_frac",
                        overhead / local_seconds);
  }

  for (unsigned workers : {1u, 2u, 4u}) {
    SamplingConfig config = local_config;
    config.sample_backend.kind = SampleBackendKind::kProcessShards;
    config.sample_backend.num_workers = workers;
    config.sample_backend.worker_threads = worker_threads;
    SamplingEngine engine(graph, config);

    // Warm-up regeneration forces spawn + handshake out of the timed
    // region without consuming stream indices (VisitSamples never moves
    // the cursor), so the timed fill still covers [0, sets).
    engine.VisitSamples(0, 64, SamplingEngine::SampleFilter(),
                        [](uint64_t, std::span<const NodeId>) {});
    if (!engine.status().ok()) {
      std::fprintf(stderr, "procs:%u unavailable: %s\n", workers,
                   engine.status().ToString().c_str());
      std::exit(1);
    }

    RRCollection rr(graph.num_nodes());
    std::vector<uint64_t> edges;
    Timer timer;
    engine.SampleInto(&rr, sets, &edges);
    const double seconds = timer.ElapsedSeconds();
    if (!engine.status().ok()) {
      std::fprintf(stderr, "procs:%u failed: %s\n", workers,
                   engine.status().ToString().c_str());
      std::exit(1);
    }
    if (!Identical(local_rr, local_edges, rr, edges)) {
      std::fprintf(stderr,
                   "IDENTITY VIOLATION: procs:%u diverged from local\n",
                   workers);
      std::exit(1);
    }
    const double rate = static_cast<double>(sets) / seconds;
    std::printf("%-12s %12.3f %12.0f %9.2fx\n",
                ("procs:" + std::to_string(workers)).c_str(), seconds, rate,
                rate / local_rate);
    bench::RecordMetric("procs" + std::to_string(workers) + "_sets_per_sec",
                        rate);
    bench::RecordMetric(
        "procs" + std::to_string(workers) + "_speedup_vs_local",
        rate / local_rate);
  }
  // Fault mix: the same fill on procs:2 with one injected worker kill —
  // what a fill costs when supervision has to respawn a worker and
  // replay its shard mid-flight. Identity still asserted: recovery must
  // never show up in the stream, only in the counters and the rate.
  {
    SamplingConfig config = local_config;
    config.sample_backend.kind = SampleBackendKind::kProcessShards;
    config.sample_backend.num_workers = 2;
    config.sample_backend.worker_threads = worker_threads;
    config.sample_backend.fault_spec = "kill@" + std::to_string(sets / 3);
    config.sample_backend.retry_backoff_ms = 1;
    SamplingEngine engine(graph, config);
    engine.VisitSamples(0, 64, SamplingEngine::SampleFilter(),
                        [](uint64_t, std::span<const NodeId>) {});
    RRCollection rr(graph.num_nodes());
    std::vector<uint64_t> edges;
    Timer timer;
    engine.SampleInto(&rr, sets, &edges);
    const double seconds = timer.ElapsedSeconds();
    if (!engine.status().ok()) {
      std::fprintf(stderr, "procs:2+kill failed: %s\n",
                   engine.status().ToString().c_str());
      std::exit(1);
    }
    if (!Identical(local_rr, local_edges, rr, edges)) {
      std::fprintf(stderr,
                   "IDENTITY VIOLATION: procs:2 with injected kill "
                   "diverged from local\n");
      std::exit(1);
    }
    const BackendStats stats = engine.backend_stats();
    if (stats.worker_respawns == 0 || stats.shard_retries == 0) {
      std::fprintf(stderr, "fault mix: injected kill never fired\n");
      std::exit(1);
    }
    const double rate = static_cast<double>(sets) / seconds;
    std::printf("%-12s %12.3f %12.0f %9.2fx  (respawns=%llu retries=%llu)\n",
                "procs:2+kill", seconds, rate, rate / local_rate,
                static_cast<unsigned long long>(stats.worker_respawns),
                static_cast<unsigned long long>(stats.shard_retries));
    bench::RecordMetric("procs2_faulty_sets_per_sec", rate);
    bench::RecordMetric("procs2_faulty_vs_healthy_respawns",
                        static_cast<double>(stats.worker_respawns));
  }
  std::printf("\nidentity check: every procs:N fill byte-equal to local, "
              "injected-kill fill included\n");
}

}  // namespace
}  // namespace timpp

int main(int argc, char** argv) {
  timpp::Run(argc, argv);
  return 0;
}
