// Monte-Carlo cascade throughput: scalar IcSimulator vs the 64-lane
// bitmap-parallel BatchedIcSimulator (diffusion/batched_simulator.h), on
// weighted-cascade power-law graphs across mean-degree regimes. One
// batched traversal advances 64 cascades by OR-propagation, so the win is
// traversal amortization plus geometric-skip lane-mask draws (~1 RNG draw
// covers 64 lanes on mostly-dead arcs).
//
// Statistical equivalence is asserted BEFORE any timing: per regime the
// scalar and bitmap64 estimates of the same seed set must agree within
// MC tolerance, and the batched estimator must be deterministic (two
// runs bit-equal). A CELF parity section then checks the end-to-end
// claim — seed sets selected with batched estimates match
// scalar-selected sets in measured spread.
//
// Usage: bench_mc_spread [--nodes=20000] [--cascades=128000] [--seeds=50]
//                        [--seed=7]
//                        [--celf_nodes=1000] [--celf_r=1000] [--celf_k=3]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "baselines/celf_greedy.h"
#include "bench/bench_util.h"
#include "diffusion/batched_simulator.h"
#include "diffusion/ic_simulator.h"
#include "diffusion/spread_estimator.h"
#include "util/rng.h"
#include "util/timer.h"

namespace timpp {
namespace {

/// The k highest-out-degree nodes — the natural seed set for a spread
/// workload (hubs keep the frontier non-trivial in every regime).
std::vector<NodeId> TopOutDegreeSeeds(const Graph& graph, int k) {
  std::vector<NodeId> order(graph.num_nodes());
  std::iota(order.begin(), order.end(), 0u);
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&](NodeId a, NodeId b) {
                      return graph.OutArcs(a).size() > graph.OutArcs(b).size();
                    });
  order.resize(k);
  return order;
}

double EstimateWithMode(const Graph& graph, std::span<const NodeId> seeds,
                        McBatchMode mode, uint64_t samples, uint64_t seed) {
  SpreadEstimatorOptions options;
  options.num_samples = samples;
  options.mc_batch = mode;
  return SpreadEstimator(graph, options).Estimate(seeds, seed);
}

void RequireClose(const char* what, double reference, double actual,
                  double rel_tol) {
  const double tol = std::max(0.05, rel_tol * std::abs(reference));
  if (std::abs(reference - actual) > tol) {
    std::fprintf(stderr,
                 "FATAL: %s disagrees before timing: reference=%.4f "
                 "actual=%.4f (tol %.4f)\n",
                 what, reference, actual, tol);
    std::exit(1);
  }
}

/// Cascades/sec of the scalar simulator over `cascades` runs.
double TimeScalar(const Graph& graph, std::span<const NodeId> seeds,
                  uint64_t cascades, uint64_t seed, uint64_t* sink) {
  IcSimulator sim(graph);
  Rng rng(seed);
  Timer timer;
  uint64_t total = 0;
  for (uint64_t i = 0; i < cascades; ++i) total += sim.Simulate(seeds, rng);
  const double seconds = timer.ElapsedSeconds();
  *sink += total;
  return static_cast<double>(cascades) / seconds;
}

/// Cascades/sec of the batched simulator over `cascades`/64 batches.
double TimeBatched(const Graph& graph, std::span<const NodeId> seeds,
                   uint64_t cascades, uint64_t seed, uint64_t* sink) {
  BatchedIcSimulator sim(graph);
  Rng rng(seed);
  const uint64_t batches = cascades / BatchedIcSimulator::kMaxLanes;
  Timer timer;
  uint64_t total = 0;
  for (uint64_t b = 0; b < batches; ++b) total += sim.SimulateBatch(seeds, rng);
  const double seconds = timer.ElapsedSeconds();
  *sink += total;
  return static_cast<double>(batches * BatchedIcSimulator::kMaxLanes) /
         seconds;
}

void Run(int argc, char** argv) {
  Flags flags(argc, argv);
  bench::ConfigureBenchOutput(flags);
  const NodeId nodes =
      static_cast<NodeId>(flags.GetInt("nodes", 20000));
  const uint64_t cascades = flags.GetInt("cascades", 128000);
  // Seed-set size of the timed estimates. 50 is the paper's largest k —
  // the regime the greedy/CELF estimator actually lives in, where it
  // scores S ∪ {v} for |S| up to k-1 thousands of times.
  const int num_seeds = static_cast<int>(flags.GetInt("seeds", 50));
  const uint64_t seed = flags.GetInt("seed", 7);

  bench::PrintHeader(
      "Monte-Carlo cascade batching: scalar vs bitmap64",
      "64 IC cascades per traversal via per-vertex lane bitmaps; "
      "equivalence asserted before timing");

  // Mean-degree regimes: BA attachment a gives mean degree ~2a. Sparse
  // frontiers (a=1) amortize the least; dense hubs (a=10) the most.
  uint64_t sink = 0;
  std::printf("%8s | %14s %14s %8s\n", "regime", "scalar c/s",
              "bitmap64 c/s", "speedup");
  for (unsigned attach : {1u, 4u, 10u}) {
    Graph graph = bench::MustBuildWcPowerLaw(nodes, attach, seed);
    const std::vector<NodeId> seeds = TopOutDegreeSeeds(graph, num_seeds);
    const std::string regime = "deg~" + std::to_string(2 * attach);

    // ---- equivalence + determinism gate ----------------------------
    const uint64_t check_samples = 20000;
    const double ref =
        EstimateWithMode(graph, seeds, McBatchMode::kScalar, check_samples,
                         seed ^ 0x11);
    const double bitmap =
        EstimateWithMode(graph, seeds, McBatchMode::kBitmap64, check_samples,
                         seed ^ 0x11);
    RequireClose("bitmap64 estimate", ref, bitmap, 0.04);
    const double again =
        EstimateWithMode(graph, seeds, McBatchMode::kBitmap64, check_samples,
                         seed ^ 0x11);
    if (again != bitmap) {
      std::fprintf(stderr, "FATAL: bitmap64 estimator non-deterministic\n");
      std::exit(1);
    }

    // ---- fixed-work timing -----------------------------------------
    const double scalar_cs =
        TimeScalar(graph, seeds, cascades, seed ^ 0x22, &sink);
    const double bitmap_cs =
        TimeBatched(graph, seeds, cascades, seed ^ 0x22, &sink);
    std::printf("%8s | %14.0f %14.0f %7.1fx\n", regime.c_str(), scalar_cs,
                bitmap_cs, bitmap_cs / scalar_cs);
    bench::RecordMetric(regime + ".scalar_cascades_per_sec", scalar_cs);
    bench::RecordMetric(regime + ".bitmap64_cascades_per_sec", bitmap_cs);
    bench::RecordMetric(regime + ".bitmap64_speedup", bitmap_cs / scalar_cs);
  }

  // ---- CELF parity: batched estimates must select equal-quality seeds
  const NodeId celf_nodes =
      static_cast<NodeId>(flags.GetInt("celf_nodes", 1000));
  const uint64_t celf_r = flags.GetInt("celf_r", 1000);
  const int celf_k = static_cast<int>(flags.GetInt("celf_k", 3));
  Graph graph = bench::MustBuildWcPowerLaw(celf_nodes, 4, seed);

  CelfOptions scalar_options, bitmap_options;
  scalar_options.num_mc_samples = bitmap_options.num_mc_samples = celf_r;
  scalar_options.seed = bitmap_options.seed = seed;
  bitmap_options.mc_batch = McBatchMode::kBitmap64;

  std::vector<NodeId> scalar_seeds, bitmap_seeds;
  CelfStats scalar_stats, bitmap_stats;
  Status status = RunCelfGreedy(graph, scalar_options, celf_k, &scalar_seeds,
                                &scalar_stats);
  if (status.ok()) {
    status = RunCelfGreedy(graph, bitmap_options, celf_k, &bitmap_seeds,
                           &bitmap_stats);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL: CELF run failed: %s\n",
                 status.ToString().c_str());
    std::exit(1);
  }
  const double scalar_spread = bench::MeasureSpread(
      graph, scalar_seeds, DiffusionModel::kIC, 20000, seed ^ 0x33);
  const double bitmap_spread = bench::MeasureSpread(
      graph, bitmap_seeds, DiffusionModel::kIC, 20000, seed ^ 0x33);
  RequireClose("CELF bitmap64 seed quality", scalar_spread, bitmap_spread,
               0.05);
  std::printf(
      "\nCELF parity (n=%u, r=%llu, k=%d): scalar spread %.2f in %.2fs, "
      "bitmap64 spread %.2f in %.2fs (%.1fx)\n",
      celf_nodes, static_cast<unsigned long long>(celf_r), celf_k,
      scalar_spread, scalar_stats.seconds_total, bitmap_spread,
      bitmap_stats.seconds_total,
      scalar_stats.seconds_total / bitmap_stats.seconds_total);
  bench::RecordMetric("celf.scalar_spread", scalar_spread);
  bench::RecordMetric("celf.bitmap64_spread", bitmap_spread);
  bench::RecordMetric("celf.scalar_seconds", scalar_stats.seconds_total);
  bench::RecordMetric("celf.bitmap64_seconds", bitmap_stats.seconds_total);
  bench::RecordMetric(
      "celf.bitmap64_speedup",
      scalar_stats.seconds_total / bitmap_stats.seconds_total);

  std::printf(
      "\nequivalence checks: scalar/bitmap64 estimates agree per regime; "
      "batched estimator deterministic; CELF seed quality matches "
      "(checksum %llu)\n",
      static_cast<unsigned long long>(sink % 97));
}

}  // namespace
}  // namespace timpp

int main(int argc, char** argv) {
  timpp::Run(argc, argv);
  return 0;
}
