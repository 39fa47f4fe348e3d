// Micro-benchmark (google-benchmark) + ablation 2 (DESIGN.md §5): bucket
// vs heap vs naive greedy max-coverage over realistic RR collections of
// growing size. main() additionally runs two fixed-work A/Bs on one
// collection, serial vs 4-task pooled index build (verifying identical
// index arrays) and bucket vs heap greedy (verifying bit-identical seeds),
// timing both sides, and writes the timings into
// BENCH_bench_micro_coverage.json for PR-over-PR tracking.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "bench/bench_util.h"
#include "coverage/greedy_cover.h"
#include "rrset/rr_collection.h"
#include "rrset/rr_sampler.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace timpp {
namespace {

// Builds an RR collection of `num_sets` sets sampled from the NetHEPT
// proxy — the exact workload Algorithm 1 feeds the solver.
std::unique_ptr<RRCollection> MakeCollection(size_t num_sets) {
  static const Graph graph = bench::MustBuildProxy(
      Dataset::kNetHept, 0.1, WeightScheme::kWeightedCascadeIC, 1);
  auto rr = std::make_unique<RRCollection>(graph.num_nodes());
  RRSampler sampler(graph, DiffusionModel::kIC);
  Rng rng(7);
  std::vector<NodeId> scratch;
  for (size_t i = 0; i < num_sets; ++i) {
    RRSampleInfo info = sampler.SampleRandomRoot(rng, &scratch);
    rr->Add(scratch, info.width);
  }
  rr->BuildIndex();
  return rr;
}

void BM_BucketGreedyCover(benchmark::State& state) {
  auto rr = MakeCollection(static_cast<size_t>(state.range(0)));
  const int k = 50;
  for (auto _ : state) {
    CoverResult result = GreedyMaxCover(*rr, k);
    benchmark::DoNotOptimize(result.covered_sets);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BucketGreedyCover)->Arg(10000)->Arg(50000)->Arg(200000);

void BM_HeapGreedyCover(benchmark::State& state) {
  auto rr = MakeCollection(static_cast<size_t>(state.range(0)));
  const int k = 50;
  for (auto _ : state) {
    CoverResult result = HeapGreedyMaxCover(*rr, k);
    benchmark::DoNotOptimize(result.covered_sets);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HeapGreedyCover)->Arg(10000)->Arg(50000)->Arg(200000);

void BM_NaiveGreedyCover(benchmark::State& state) {
  auto rr = MakeCollection(static_cast<size_t>(state.range(0)));
  const int k = 50;
  for (auto _ : state) {
    CoverResult result = NaiveGreedyMaxCover(*rr, k);
    benchmark::DoNotOptimize(result.covered_sets);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NaiveGreedyCover)->Arg(10000)->Arg(50000)->Arg(200000);

void BM_BuildIndex(benchmark::State& state) {
  auto rr = MakeCollection(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    rr->BuildIndex();
    benchmark::DoNotOptimize(rr->index_built());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildIndex)->Arg(10000)->Arg(100000);

// Fixed-work A/Bs into the JSON mirror. The pooled index build must write
// the serial build's arrays (each node's list ascending by set id), and
// the two greedy paths must return bit-identical results (the bucket
// queue replicates the heap's argmax-count / min-id selection rule
// exactly); each A/B aborts if its sides ever diverge, so the bench
// doubles as a large-scale equivalence check.
void RecordCoverAbMetrics() {
  // Large-n graph: the queue data structure's cost is Θ(n)-dominated
  // (initial fill + selection), so a small-n proxy hides the bucket/heap
  // difference behind the shared Σ|R| set-killing work. 300k nodes makes
  // the heap pay its n log n while the bucket queue stays linear.
  constexpr size_t kAbSets = 200000;
  constexpr int kAbK = 50;
  bench::PrintHeader("micro: greedy max-coverage",
                     "A/B: serial vs 4-task pooled index build, bucket "
                     "queue vs lazy heap, weighted-cascade "
                     "Barabasi-Albert n=300000 RR collection");
  const Graph graph = bench::MustBuildWcPowerLaw(300000, 10, 7);
  auto rr = std::make_unique<RRCollection>(graph.num_nodes());
  RRSampler sampler(graph, DiffusionModel::kIC);
  Rng rng(7);
  std::vector<NodeId> scratch;
  for (size_t i = 0; i < kAbSets; ++i) {
    RRSampleInfo info = sampler.SampleRandomRoot(rng, &scratch);
    rr->Add(scratch, info.width);
  }
  bench::RecordMetric("collection.num_sets", static_cast<double>(kAbSets));
  bench::RecordMetric("collection.total_nodes",
                      static_cast<double>(rr->total_nodes()));

  RRCollection pooled = *rr;
  Timer serial_timer;
  rr->BuildIndex();
  const double serial_seconds = serial_timer.ElapsedSeconds();
  ThreadPool pool(3);
  Timer pool_timer;
  pooled.BuildIndex(&pool);
  const double pool_seconds = pool_timer.ElapsedSeconds();
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    const auto a = rr->SetsContaining(v);
    const auto b = pooled.SetsContaining(v);
    if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) {
      std::fprintf(stderr,
                   "FATAL: pooled and serial index builds diverged\n");
      std::exit(1);
    }
  }
  std::printf("index serial: %.4fs   4-task pool: %.4fs   (identical)\n",
              serial_seconds, pool_seconds);
  bench::RecordMetric("index_serial.seconds", serial_seconds);
  bench::RecordMetric("index_pool4.seconds", pool_seconds);
  bench::RecordMetric("index_pool4.speedup_vs_serial",
                      serial_seconds / pool_seconds);

  Timer bucket_timer;
  CoverResult bucket = GreedyMaxCover(*rr, kAbK);
  const double bucket_seconds = bucket_timer.ElapsedSeconds();
  Timer heap_timer;
  CoverResult heap = HeapGreedyMaxCover(*rr, kAbK);
  const double heap_seconds = heap_timer.ElapsedSeconds();

  if (bucket.seeds != heap.seeds ||
      bucket.marginal_coverage != heap.marginal_coverage ||
      bucket.covered_sets != heap.covered_sets) {
    std::fprintf(stderr,
                 "FATAL: bucket-queue and heap max-coverage diverged\n");
    std::exit(1);
  }
  std::printf("bucket: %.4fs   heap: %.4fs   (k=%d, identical seeds)\n",
              bucket_seconds, heap_seconds, kAbK);
  std::printf("bucket speedup over heap: %.2fx\n",
              heap_seconds / bucket_seconds);
  bench::RecordMetric("cover_bucket.seconds", bucket_seconds);
  bench::RecordMetric("cover_heap.seconds", heap_seconds);
  bench::RecordMetric("cover_bucket.speedup_vs_heap",
                      heap_seconds / bucket_seconds);
}

}  // namespace
}  // namespace timpp

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  timpp::RecordCoverAbMetrics();
  return 0;
}
