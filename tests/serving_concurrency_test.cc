// Concurrency tests of the serving layer: requests racing through one
// GraphContext must return bit-identical results to the serialized PR-4
// batch path at every concurrency level — including while the cache
// budget evicts streams under live readers — the admission queue must
// shed overload as Unavailable without corrupting admitted requests,
// destroying the engine must still serve every admitted request, the
// PhaseCache must compute each key exactly once no matter how many
// requests race for it, and concurrent SharedRRCache readers must see
// byte-identical sets while a writer grows the stream. Run under TSan in
// CI (the blocking job).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/phase_cache.h"
#include "engine/sampling_engine.h"
#include "rrset/rr_collection.h"
#include "serving/graph_context.h"
#include "serving/request_scheduler.h"
#include "serving/rr_cache.h"
#include "serving/serving_engine.h"
#include "tests/test_util.h"

namespace timpp {
namespace {

using testing::IcSampling;
using testing::MakeTwoCommunities;
using testing::MakeWcPowerLaw;

// The workload all the engine-level tests share: algorithms, k, ε and
// seeds varied so the batch spans several streams and phase keys, with
// exact repeats so the phase cache and full-prefix reuse are exercised.
std::vector<ImRequest> ConcurrencyBatch(const std::string& graph) {
  std::vector<ImRequest> requests;
  const auto add = [&](const std::string& algo, int k, double eps,
                       uint64_t seed) {
    ImRequest r;
    r.graph = graph;
    r.algo = algo;
    r.k = k;
    r.epsilon = eps;
    r.seed = seed;
    requests.push_back(r);
  };
  for (uint64_t seed : {2024ULL, 4242ULL}) {
    add("tim+", 3, 0.4, seed);
    add("tim+", 3, 0.3, seed);  // same KPT key, larger θ: prefix extension
    add("tim+", 3, 0.4, seed);  // exact repeat: full reuse
    add("tim", 2, 0.4, seed);
    add("imm", 3, 0.4, seed);
    add("imm", 3, 0.4, seed);  // exact repeat: LB-cache hit
    add("imm", 2, 0.3, seed);
  }
  return requests;
}

// Serialized reference: a fresh engine solving the batch sequentially —
// the PR-4 contract the concurrent paths must reproduce bit-for-bit.
std::vector<ImResponse> SerialReference(const Graph& graph,
                                        const std::vector<ImRequest>& requests,
                                        unsigned num_threads) {
  ServingEngine engine(ServingOptions{.num_threads = num_threads});
  EXPECT_TRUE(engine.RegisterGraph(requests.front().graph, graph).ok());
  std::vector<ImResponse> responses;
  responses.reserve(requests.size());
  for (const ImRequest& request : requests) {
    responses.push_back(engine.Solve(request));
  }
  return responses;
}

// Solver results are deterministic in the request options alone; the
// reuse ATTRIBUTION (rr_sets_reused/sampled, phase_cache_hit) reflects
// which overlapping request reached the cache first, so only the former
// is compared. edges_examined is deterministic even across phase-cache
// hit/miss — the memo restores the phase's edge counts by design.
void ExpectSameResults(const std::vector<ImResponse>& expected,
                       const std::vector<ImResponse>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(actual[i].status.ok())
        << "request " << i << ": " << actual[i].status.ToString();
    ASSERT_TRUE(expected[i].status.ok()) << "reference request " << i;
    EXPECT_EQ(expected[i].result.seeds, actual[i].result.seeds)
        << "request " << i;
    EXPECT_DOUBLE_EQ(expected[i].result.estimated_spread,
                     actual[i].result.estimated_spread)
        << "request " << i;
    for (const char* metric :
         {"theta", "lb", "kpt_star", "kpt_plus", "rr_sets_kpt",
          "rr_sets_sampling", "rr_sets_generated", "cost_examined",
          "edges_examined"}) {
      EXPECT_DOUBLE_EQ(expected[i].result.Metric(metric),
                       actual[i].result.Metric(metric))
          << "request " << i << " metric " << metric;
    }
  }
}

// Submits every request from `submitters` threads concurrently and
// returns the responses in request order.
std::vector<ImResponse> SubmitFromThreads(ServingEngine& engine,
                                          const std::vector<ImRequest>& requests,
                                          unsigned submitters) {
  std::vector<std::future<ImResponse>> futures(requests.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(submitters);
  for (unsigned t = 0; t < submitters; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= requests.size()) return;
        futures[i] = engine.Submit(requests[i]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<ImResponse> responses;
  responses.reserve(futures.size());
  for (auto& future : futures) responses.push_back(future.get());
  return responses;
}

// ------------------------------------ concurrent vs serialized ----------

TEST(ConcurrentServingTest, SubmitIsBitIdenticalToSerialAtEveryConcurrency) {
  Graph g = MakeWcPowerLaw(250, 4, 77);
  const std::vector<ImRequest> requests = ConcurrencyBatch("g");
  const std::vector<ImResponse> reference =
      SerialReference(g, requests, /*num_threads=*/2);

  for (unsigned workers : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(workers);
    ServingOptions options;
    options.num_threads = 2;
    options.submit_workers = workers;
    options.max_pending_requests = 0;  // finite batch: never shed
    ServingEngine engine(options);
    ASSERT_TRUE(engine.RegisterGraph("g", g).ok());

    const std::vector<ImResponse> responses =
        SubmitFromThreads(engine, requests, /*submitters=*/4);
    ExpectSameResults(reference, responses);
    ASSERT_NE(engine.scheduler(), nullptr);
    // completed_ is bumped after the promise resolves; give the last
    // worker its instant to get there.
    for (int i = 0;
         i < 100000 && engine.scheduler()->completed() != requests.size();
         ++i) {
      std::this_thread::yield();
    }
    EXPECT_EQ(engine.scheduler()->completed(), requests.size());
    EXPECT_EQ(engine.scheduler()->rejected(), 0u);
  }
}

TEST(ConcurrentServingTest, ConcurrentSolveCallersMatchSerial) {
  // The synchronous Solve path from many caller threads — no scheduler,
  // raw concurrency against the shared caches.
  Graph g = MakeWcPowerLaw(250, 4, 77);
  const std::vector<ImRequest> requests = ConcurrencyBatch("g");
  const std::vector<ImResponse> reference =
      SerialReference(g, requests, /*num_threads=*/1);

  ServingEngine engine(ServingOptions{.num_threads = 1});
  ASSERT_TRUE(engine.RegisterGraph("g", g).ok());
  std::vector<ImResponse> responses(requests.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= requests.size()) return;
        responses[i] = engine.Solve(requests[i]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ExpectSameResults(reference, responses);
}

TEST(ConcurrentServingTest, EvictionUnderConcurrencyKeepsResultsIdentical) {
  // A budget small enough that streams are evicted while other requests
  // hold live readers on them; the refcount retirement must keep every
  // in-flight read coherent and every response bit-identical.
  Graph g = MakeWcPowerLaw(250, 4, 77);
  const std::vector<ImRequest> requests = ConcurrencyBatch("g");
  const std::vector<ImResponse> reference =
      SerialReference(g, requests, /*num_threads=*/2);

  ServingOptions options;
  options.num_threads = 2;
  options.submit_workers = 4;
  options.max_pending_requests = 0;
  options.shared_cache_budget_bytes = 256 * 1024;
  ServingEngine engine(options);
  ASSERT_TRUE(engine.RegisterGraph("g", g).ok());

  const std::vector<ImResponse> responses =
      SubmitFromThreads(engine, requests, /*submitters=*/4);
  ExpectSameResults(reference, responses);

  GraphContext* context = engine.Context("g");
  ASSERT_NE(context, nullptr);
  EXPECT_LE(context->SharedMemoryBytes(), options.shared_cache_budget_bytes);
  EXPECT_GT(context->StreamsEvicted(), 0u)
      << "budget was too large to exercise eviction under readers";
}

// ------------------------------------ admission control -----------------

TEST(ConcurrentServingTest, AdmissionQueueShedsOverloadAsUnavailable) {
  Graph g = MakeWcPowerLaw(250, 4, 77);
  ServingOptions options;
  options.num_threads = 1;
  options.submit_workers = 1;  // one worker: the queue actually backs up
  options.max_pending_requests = 2;
  ServingEngine engine(options);
  ASSERT_TRUE(engine.RegisterGraph("g", g).ok());

  ImRequest request;
  request.graph = "g";
  request.algo = "imm";
  request.k = 3;
  request.epsilon = 0.3;
  request.seed = 2024;
  const ImResponse expected = SerialReference(g, {request}, 1).front();

  // Burst submissions until the 2-deep queue rejects one; every accepted
  // response must still be the bit-exact result.
  std::vector<std::future<ImResponse>> futures;
  for (int i = 0; i < 5000 && engine.scheduler() == nullptr; ++i) {
    futures.push_back(engine.Submit(request));
  }
  while (engine.scheduler()->rejected() == 0 && futures.size() < 5000) {
    futures.push_back(engine.Submit(request));
  }
  EXPECT_GT(engine.scheduler()->rejected(), 0u)
      << "a 1-worker, 2-deep queue absorbed 5000 instant submissions";

  uint64_t accepted = 0;
  uint64_t rejected = 0;
  for (auto& future : futures) {
    ImResponse response = future.get();
    if (response.status.IsUnavailable()) {
      ++rejected;
      continue;
    }
    ++accepted;
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(expected.result.seeds, response.result.seeds);
    EXPECT_DOUBLE_EQ(expected.result.Metric("theta"),
                     response.result.Metric("theta"));
  }
  EXPECT_EQ(rejected, engine.scheduler()->rejected());
  // completed_ is bumped after the promise resolves; give the last
  // worker its instant to get there.
  for (int i = 0; i < 100000 && engine.scheduler()->completed() != accepted;
       ++i) {
    std::this_thread::yield();
  }
  EXPECT_EQ(accepted, engine.scheduler()->completed());
}

// ------------------------------------ shutdown --------------------------

TEST(ConcurrentServingTest, DestroyingTheEngineDrainsEveryAdmittedRequest) {
  // The scheduler's lifecycle contract: destruction stops admission, then
  // serves every request already admitted, so a future handed out by
  // Submit always resolves with the real response. The engine is
  // destroyed straight after the last Submit, with the queue still full.
  Graph g = MakeWcPowerLaw(250, 4, 77);
  const std::vector<ImRequest> requests = ConcurrencyBatch("g");
  const std::vector<ImResponse> reference =
      SerialReference(g, requests, /*num_threads=*/2);

  for (unsigned workers : {1u, 3u}) {
    SCOPED_TRACE(workers);
    std::vector<std::future<ImResponse>> futures;
    {
      ServingOptions options;
      options.num_threads = 2;
      options.submit_workers = workers;
      options.max_pending_requests = 0;
      ServingEngine engine(options);
      ASSERT_TRUE(engine.RegisterGraph("g", g).ok());
      for (const ImRequest& request : requests) {
        futures.push_back(engine.Submit(request));
      }
    }
    std::vector<ImResponse> responses;
    for (auto& future : futures) {
      ASSERT_TRUE(future.valid());
      ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
                std::future_status::ready)
          << "a future outlived the engine unresolved";
      responses.push_back(future.get());
    }
    ExpectSameResults(reference, responses);
  }
}

// ------------------------------------ phase cache -----------------------

TEST(ConcurrentServingTest, PhaseComputedOnceUnderConcurrentSameKeyRequests) {
  Graph g = MakeWcPowerLaw(250, 4, 77);
  ServingOptions options;
  options.num_threads = 1;
  options.submit_workers = 4;
  options.max_pending_requests = 0;
  ServingEngine engine(options);
  ASSERT_TRUE(engine.RegisterGraph("g", g).ok());

  // 12 identical requests racing through 4 workers: one LB key, so one
  // miss — the computing request — and 11 hits, however they interleave.
  ImRequest request;
  request.graph = "g";
  request.algo = "imm";
  request.k = 3;
  request.epsilon = 0.4;
  request.seed = 2024;
  const std::vector<ImRequest> requests(12, request);
  const std::vector<ImResponse> reference = SerialReference(g, requests, 1);
  const std::vector<ImResponse> responses =
      SubmitFromThreads(engine, requests, /*submitters=*/4);
  ExpectSameResults(reference, responses);

  GraphContext* context = engine.Context("g");
  ASSERT_NE(context, nullptr);
  EXPECT_EQ(context->phase_cache().misses(), 1u)
      << "a key raced into more than one computation";
  EXPECT_EQ(context->phase_cache().hits(), requests.size() - 1);
  EXPECT_EQ(context->phase_cache().size(), 1u);
}

// ------------------------------------ SharedRRCache ---------------------

TEST(ConcurrentServingTest, ConcurrentReadersSeeByteIdenticalSets) {
  // Many threads reading ranges while some of them grow the stream: every
  // read must match the reference engine byte for byte.
  const Graph g = MakeTwoCommunities(0.35f);
  RRCollection reference(g.num_nodes());
  SamplingEngine reference_engine(g, IcSampling(11, 1));
  reference_engine.SampleInto(&reference, 1200);

  SharedRRCache cache(g, IcSampling(11, 1));
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      // Staggered, overlapping ranges; later rounds re-read what earlier
      // rounds grew, racing published-prefix reads against the writer.
      for (int round = 0; round < 6; ++round) {
        const uint64_t first = (t * 37 + round * 151) % 700;
        const uint64_t count = 100 + 50 * (t % 3);
        RRCollection out(g.num_nodes());
        cache.Read(first, count, &out);
        for (uint64_t i = 0; i < count; ++i) {
          const auto got = out.Set(static_cast<RRSetId>(i));
          const auto want =
              reference.Set(static_cast<RRSetId>(first + i));
          if (got.size() != want.size() ||
              !std::equal(got.begin(), got.end(), want.begin())) {
            failures.fetch_add(1, std::memory_order_relaxed);
            return;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0) << "a concurrent read diverged from the "
                                   "reference stream";
  EXPECT_EQ(cache.cached_sets(),
            cache.total_sets_sampled());  // each index sampled once
}

TEST(ConcurrentServingTest, EvictionUnderLiveReadersServesByteIdenticalSets) {
  // Readers rotate across streams while another thread enforces a budget
  // that keeps at most ~one stream resident: reads race evictions, and a
  // reader holding an AcquireStream handle must keep its chunks alive and
  // byte-stable even after the stream leaves the context map.
  const Graph g = MakeTwoCommunities(0.35f);
  constexpr int kNumStreams = 3;
  std::vector<RRCollection> reference;
  for (int s = 0; s < kNumStreams; ++s) {
    reference.emplace_back(g.num_nodes());
    SamplingEngine engine(g, IcSampling(100 + s, 1));
    engine.SampleInto(&reference.back(), 400);
  }

  GraphContext context(Graph(g), 1);
  // A 1-byte budget: every enforcement pass evicts whatever is resident,
  // maximizing read-vs-eviction interleavings.
  context.set_cache_budget_bytes(1);
  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  std::thread evictor([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      context.EnforceCacheBudget();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> readers;
  for (unsigned t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < 8; ++round) {
        const int s = static_cast<int>((t + round) % kNumStreams);
        StreamKey key;
        key.seed = 100 + s;
        std::shared_ptr<SharedRRCache> cache = context.AcquireStream(key);
        RRCollection out(g.num_nodes());
        cache->Read(0, 400, &out);
        for (uint64_t i = 0; i < 400; ++i) {
          const auto got = out.Set(static_cast<RRSetId>(i));
          const auto want = reference[s].Set(static_cast<RRSetId>(i));
          if (got.size() != want.size() ||
              !std::equal(got.begin(), got.end(), want.begin())) {
            failures.fetch_add(1, std::memory_order_relaxed);
            return;
          }
        }
      }
    });
  }
  for (std::thread& reader : readers) reader.join();
  stop.store(true, std::memory_order_relaxed);
  evictor.join();
  EXPECT_EQ(failures.load(), 0)
      << "a read under concurrent eviction diverged from the reference";
  // Whatever the interleaving left resident goes now; either way the
  // 1-byte budget must have evicted something by this point.
  context.EnforceCacheBudget();
  EXPECT_GT(context.StreamsEvicted(), 0u)
      << "budget was too large to exercise eviction";
}

}  // namespace
}  // namespace timpp
