// Acceptance tests of the fault-tolerant distributed sampling layer: a
// procs backend with deterministic injected faults (kill-before-reply,
// hang past the shard deadline, truncated frame, corrupt frame, slow
// handshake) must RECOVER — respawn the worker, replay the shard — and
// produce RR streams, seeds, θ and LB bit-identical to the local
// backend, at every worker count, mid-VisitSamples and under
// SharedRRCache growth. Recovery must be visible in BackendStats (and
// only then: healthy runs keep all-zero counters), retry-budget
// exhaustion must surface a descriptive Status (never truncated
// results), fallback=local must finish exhausted shards in-process, and
// the serving layer's Unavailable overload shedding must compose with
// backend retries without double-counting.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "distributed/fault_injection.h"
#include "distributed/process_shard_backend.h"
#include "engine/sampling_engine.h"
#include "engine/solver_registry.h"
#include "rrset/rr_collection.h"
#include "serving/request_scheduler.h"
#include "serving/rr_cache.h"
#include "serving/serving_engine.h"
#include "tests/test_util.h"

namespace timpp {
namespace {

using testing::MakeWcPowerLaw;

SampleBackendSpec Procs(unsigned workers, const std::string& fault_spec,
                        uint32_t shard_timeout_ms = 0) {
  SampleBackendSpec spec;
  spec.kind = SampleBackendKind::kProcessShards;
  spec.num_workers = workers;
  spec.fault_spec = fault_spec;
  spec.shard_timeout_ms = shard_timeout_ms;
  // Keep injected-hang recovery fast; correctness must not depend on the
  // backoff schedule.
  spec.retry_backoff_ms = 1;
  return spec;
}

SamplingConfig Config(uint64_t seed, const SampleBackendSpec& backend = {}) {
  SamplingConfig config;
  config.model = DiffusionModel::kIC;
  config.seed = seed;
  config.sample_backend = backend;
  return config;
}

void ExpectEqualCollections(const RRCollection& a, const RRCollection& b) {
  ASSERT_EQ(a.num_sets(), b.num_sets());
  ASSERT_EQ(a.total_nodes(), b.total_nodes());
  for (size_t i = 0; i < a.num_sets(); ++i) {
    const auto sa = a.Set(static_cast<RRSetId>(i));
    const auto sb = b.Set(static_cast<RRSetId>(i));
    ASSERT_EQ(sa.size(), sb.size()) << "set " << i;
    EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin())) << "set " << i;
  }
}

// ------------------------------------ spec grammar ----------------------

TEST(FaultPlanTest, ParsesTheDocumentedGrammar) {
  FaultPlan plan;
  ASSERT_TRUE(ParseFaultPlan("kill@100;hang@5000x2:250;trunc@7;corrupt@9;"
                             "slowhs@1:50",
                             &plan)
                  .ok());
  ASSERT_EQ(plan.rules.size(), 5u);
  EXPECT_EQ(plan.rules[0].fault, FaultClass::kKillBeforeReply);
  EXPECT_EQ(plan.rules[0].key, 100u);
  EXPECT_EQ(plan.rules[0].times, 1u);
  EXPECT_EQ(plan.rules[1].fault, FaultClass::kHangInShard);
  EXPECT_EQ(plan.rules[1].times, 2u);
  EXPECT_EQ(plan.rules[1].delay_ms, 250u);
  EXPECT_EQ(plan.rules[4].fault, FaultClass::kSlowHandshake);
  EXPECT_EQ(plan.rules[4].key, 1u);

  // Empty specs and stray separators are fine (match nothing).
  EXPECT_TRUE(ParseFaultPlan("", &plan).ok());
  EXPECT_TRUE(ParseFaultPlan(";;", &plan).ok());
}

TEST(FaultPlanTest, RejectsMalformedRulesByName) {
  FaultPlan plan;
  for (const char* bad : {"explode@3", "kill@", "kill@abc", "kill@3:250",
                          "trunc@3:1", "hang@3x0", "hang@3xq", "kill"}) {
    const Status status = ParseFaultPlan(bad, &plan);
    EXPECT_FALSE(status.ok()) << bad;
    EXPECT_TRUE(status.IsInvalidArgument()) << bad;
  }
}

// ------------------------------------ fault matrix ----------------------

struct FaultCase {
  const char* name;
  const char* spec;          // fault keyed inside the sampled range
  uint32_t shard_timeout_ms;  // 0 = no deadline needed for this class
};

// Every fault class, at worker counts {1, 2, 4}: the fill must succeed,
// match the local stream bit for bit, and account the recovery in the
// class's counter.
TEST(FaultMatrixTest, EveryFaultClassRecoversBitIdentically) {
  const Graph graph = MakeWcPowerLaw(150, 3, 23);
  SamplingEngine local(graph, Config(31));
  RRCollection local_rr(graph.num_nodes());
  local.SampleInto(&local_rr, 600);
  ASSERT_TRUE(local.status().ok());

  const FaultCase cases[] = {
      {"kill", "kill@100", 0},
      {"hang", "hang@100:60000", 200},
      {"trunc", "trunc@100", 0},
      {"corrupt", "corrupt@100", 0},
      {"slowhs", "slowhs@0:60000", 200},
  };
  for (const FaultCase& c : cases) {
    for (unsigned workers : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::string(c.name) + " x" + std::to_string(workers));
      SamplingEngine procs(
          graph, Config(31, Procs(workers, c.spec, c.shard_timeout_ms)));
      RRCollection procs_rr(graph.num_nodes());
      const SampleBatch batch = procs.SampleInto(&procs_rr, 600);
      ASSERT_TRUE(procs.status().ok()) << procs.status().ToString();
      EXPECT_EQ(batch.sets_added, 600u);
      ExpectEqualCollections(local_rr, procs_rr);

      const BackendStats stats = procs.backend_stats();
      EXPECT_GE(stats.shard_retries + stats.worker_respawns, 1u);
      switch (c.spec[0]) {
        case 'k':
          EXPECT_GE(stats.worker_crashes, 1u);
          break;
        case 'h':
        case 's':  // slowhs: the handshake deadline expires
          EXPECT_GE(stats.shard_timeouts, 1u);
          break;
        case 't':
        case 'c':
          EXPECT_GE(stats.corrupt_frames, 1u);
          break;
      }
    }
  }
}

TEST(FaultMatrixTest, HealthyRunsKeepAllCountersZero) {
  const Graph graph = MakeWcPowerLaw(150, 3, 23);
  for (unsigned workers : {1u, 2u}) {
    SamplingEngine procs(graph, Config(31, Procs(workers, "")));
    RRCollection rr(graph.num_nodes());
    procs.SampleInto(&rr, 400);
    ASSERT_TRUE(procs.status().ok()) << procs.status().ToString();
    EXPECT_FALSE(procs.backend_stats().any());
  }
}

TEST(FaultMatrixTest, FilteredVisitRecoversMidStream) {
  // VisitSamples with a filter rides the kSampleList protocol path; a
  // fault keyed at a listed index fires mid-visit and must recover
  // without dropping or reordering a single visit.
  const Graph graph = MakeWcPowerLaw(150, 3, 21);
  const auto filter = [](uint64_t index) { return index % 3 != 1; };

  struct Visit {
    uint64_t index;
    std::vector<NodeId> nodes;
    bool operator==(const Visit&) const = default;
  };
  const auto collect = [&](SamplingEngine& engine) {
    std::vector<Visit> visits;
    engine.VisitSamples(100, 2000, filter,
                        [&](uint64_t index, std::span<const NodeId> nodes) {
                          visits.push_back(
                              {index, {nodes.begin(), nodes.end()}});
                        });
    return visits;
  };

  SamplingEngine local(graph, Config(3));
  const auto local_visits = collect(local);
  for (const char* spec : {"kill@500", "trunc@500"}) {
    SCOPED_TRACE(spec);
    SamplingEngine procs(graph, Config(3, Procs(4, spec)));
    const auto procs_visits = collect(procs);
    ASSERT_TRUE(procs.status().ok()) << procs.status().ToString();
    ASSERT_EQ(local_visits.size(), procs_visits.size());
    EXPECT_TRUE(local_visits == procs_visits);
    EXPECT_GE(procs.backend_stats().shard_retries, 1u);
  }
}

TEST(FaultMatrixTest, SharedRRCacheGrowthIsFaultInvisible) {
  // The serving layer's shared stream grows through the same backend;
  // injected faults during growth must never reach a reader.
  const Graph graph = MakeWcPowerLaw(150, 3, 23);
  RRCollection reference(graph.num_nodes());
  SamplingEngine local(graph, Config(11));
  local.SampleInto(&reference, 800);

  SamplingConfig faulty = Config(11, Procs(2, "kill@200;trunc@600"));
  SharedRRCache cache(graph, faulty);
  RRCollection out(graph.num_nodes());
  cache.Read(0, 800, &out);
  ExpectEqualCollections(reference, out);
}

// ------------------------------------ solver-level identity -------------

TEST(FaultMatrixTest, SolversStayBitIdenticalUnderInjectedFaults) {
  const Graph graph = MakeWcPowerLaw(250, 3, 17);
  for (const char* algo : {"tim+", "imm", "ris"}) {
    SCOPED_TRACE(algo);
    std::unique_ptr<InfluenceSolver> solver;
    ASSERT_TRUE(SolverRegistry::Global().Create(algo, graph, &solver).ok());
    SolverOptions options;
    options.k = 4;
    options.epsilon = 0.3;
    options.seed = 1234;
    options.ris_tau_scale = 0.05;
    options.ris_max_sets = 200000;

    SolverResult local;
    ASSERT_TRUE(solver->Run(options, &local).ok());
    // Healthy local runs carry no backend_* metrics at all.
    EXPECT_EQ(local.Metric("backend_shard_retries", -1.0), -1.0);

    options.sample_backend = Procs(2, "kill@50;corrupt@2000");
    SolverResult faulty;
    const Status status = solver->Run(options, &faulty);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(local.seeds, faulty.seeds);
    EXPECT_EQ(local.estimated_spread, faulty.estimated_spread);
    // θ (tim+/imm) and LB/τ are pure functions of the sample stream, so
    // they survive any recovery path; the recovery itself must be
    // visible in the flattened metrics.
    for (const char* metric : {"theta", "lb", "tau"}) {
      EXPECT_EQ(local.Metric(metric, -1.0), faulty.Metric(metric, -1.0))
          << metric;
    }
    EXPECT_GE(faulty.Metric("backend_shard_retries", 0.0), 1.0);
    EXPECT_GE(faulty.Metric("backend_worker_respawns", 0.0), 1.0);
  }
}

// ------------------------------------ metric contract -------------------

// The registry's metric names AND their order are a contract: im_cli prints
// them in emission order, and local-vs-procs / budget / spill sweeps
// compare runs stat for stat. Spill and backend counters appear only when
// they fired, so a plain local run keeps the exact list it always had.
TEST(SolverMetricContractTest, NamesAndOrderArePinnedPerAlgorithm) {
  const Graph graph = MakeWcPowerLaw(250, 3, 17);
  testing::TempSpillDir dir;

  const std::vector<std::string> budget = {
      "hit_memory_budget", "rr_sets_retained", "regeneration_passes"};
  const std::vector<std::string> spill = {
      "rr_sets_spilled", "sets_spill_read", "spill_bytes_written"};
  const std::vector<std::string> backend = {
      "backend_shard_retries",   "backend_worker_respawns",
      "backend_shard_timeouts",  "backend_worker_crashes",
      "backend_corrupt_frames",  "backend_quarantined_workers",
      "backend_fallback_shards", "backend_fallback_sets"};
  const auto concat = [](std::vector<std::vector<std::string>> parts) {
    std::vector<std::string> out;
    for (const auto& part : parts) {
      out.insert(out.end(), part.begin(), part.end());
    }
    return out;
  };
  const std::vector<std::string> tim_head = {
      "theta",       "theta_prime",    "kpt_star",        "kpt_plus",
      "rr_sets_kpt", "edges_examined", "rr_memory_bytes", "rr_data_bytes"};
  const std::vector<std::string> tim_tail = {"seconds_node_selection",
                                             "kpt_cache_hit"};
  const std::vector<std::string> imm_head = {
      "theta",           "lb",           "rr_sets_sampling",
      "sampling_iterations", "rr_memory_bytes", "rr_data_bytes"};
  const std::vector<std::string> imm_tail = {"lb_cache_hit"};
  const std::vector<std::string> ris_head = {"tau", "rr_sets_generated",
                                             "cost_examined", "hit_set_cap"};
  struct AlgoNames {
    const char* algo;
    std::vector<std::string> plain;
  };
  const AlgoNames algos[] = {
      {"tim", concat({tim_head, budget, tim_tail})},
      {"tim+", concat({tim_head, budget, tim_tail})},
      {"imm", concat({imm_head, budget, imm_tail})},
      {"ris", concat({ris_head, budget})},
  };

  const auto names_of = [](const SolverResult& result) {
    std::vector<std::string> names;
    for (const auto& [name, value] : result.metrics) names.push_back(name);
    return names;
  };
  for (const AlgoNames& expected : algos) {
    SCOPED_TRACE(expected.algo);
    std::unique_ptr<InfluenceSolver> solver;
    ASSERT_TRUE(
        SolverRegistry::Global().Create(expected.algo, graph, &solver).ok());
    SolverOptions options;
    options.k = 4;
    options.epsilon = 0.3;
    options.seed = 1234;
    options.ris_tau_scale = 0.05;
    options.ris_max_sets = 200000;

    SolverResult plain;
    ASSERT_TRUE(solver->Run(options, &plain).ok());
    EXPECT_EQ(names_of(plain), expected.plain);

    // A 1 KiB budget trips every RR solver on this graph: regeneration
    // without a spill dir, disk replay with one.
    options.memory_budget_bytes = 1024;
    SolverResult regenerated;
    ASSERT_TRUE(solver->Run(options, &regenerated).ok());
    EXPECT_EQ(regenerated.Metric("hit_memory_budget"), 1.0);
    EXPECT_GT(regenerated.Metric("regeneration_passes"), 0.0);
    EXPECT_EQ(names_of(regenerated), expected.plain);

    options.spill_dir = dir.path();
    SolverResult spilled;
    ASSERT_TRUE(solver->Run(options, &spilled).ok());
    EXPECT_GT(spilled.Metric("rr_sets_spilled"), 0.0);
    EXPECT_EQ(names_of(spilled), concat({expected.plain, spill}));

    // A killed worker makes every backend counter appear, zeros included.
    options.memory_budget_bytes = 0;
    options.spill_dir.clear();
    options.sample_backend = Procs(2, "kill@50");
    SolverResult recovered;
    const Status status = solver->Run(options, &recovered);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_GE(recovered.Metric("backend_shard_retries"), 1.0);
    EXPECT_EQ(names_of(recovered), concat({expected.plain, backend}));
  }
}

// ------------------------------------ exhaustion & fallback -------------

TEST(FaultExhaustionTest, ExhaustedRetryBudgetIsADescriptiveError) {
  const Graph graph = MakeWcPowerLaw(150, 3, 23);
  // x1000000: the fault fires on every attempt, so the budget must run
  // out. Low retry budget keeps the test fast.
  SampleBackendSpec spec = Procs(2, "kill@100x1000000");
  spec.max_shard_retries = 1;
  SamplingEngine engine(graph, Config(31, spec));
  RRCollection rr(graph.num_nodes());
  const SampleBatch batch = engine.SampleInto(&rr, 600);

  ASSERT_FALSE(engine.status().ok());
  // Never truncated results: the failed batch contributes nothing.
  EXPECT_EQ(batch.sets_added, 0u);
  EXPECT_EQ(rr.num_sets(), 0u);
  // The error names the shard, the attempt count and the last cause.
  const std::string message = engine.status().message();
  EXPECT_NE(message.find("shard"), std::string::npos) << message;
  EXPECT_NE(message.find("failed after 2 attempts"), std::string::npos)
      << message;
  EXPECT_NE(message.find("worker"), std::string::npos) << message;
}

TEST(FaultExhaustionTest, RepeatOffendersAreQuarantined) {
  const Graph graph = MakeWcPowerLaw(150, 3, 23);
  SampleBackendSpec spec = Procs(1, "kill@100x1000000");
  spec.max_shard_retries = 16;
  spec.max_worker_failures = 3;
  SamplingEngine engine(graph, Config(31, spec));
  RRCollection rr(graph.num_nodes());
  engine.SampleInto(&rr, 600);

  ASSERT_FALSE(engine.status().ok());
  EXPECT_TRUE(engine.status().IsUnavailable())
      << engine.status().ToString();
  EXPECT_NE(engine.status().message().find("quarantined"),
            std::string::npos)
      << engine.status().ToString();
  const BackendStats stats = engine.backend_stats();
  EXPECT_GE(stats.quarantined_workers, 1u);
  // Quarantine kicked in at the per-worker failure cap, well before the
  // 16-attempt shard budget.
  EXPECT_LE(stats.shard_retries, 16u);
}

TEST(FaultExhaustionTest, LocalFallbackFinishesTheFillBitIdentically) {
  const Graph graph = MakeWcPowerLaw(150, 3, 23);
  SamplingEngine local(graph, Config(31));
  RRCollection local_rr(graph.num_nodes());
  local.SampleInto(&local_rr, 600);

  SampleBackendSpec spec = Procs(2, "kill@100x1000000");
  spec.max_shard_retries = 1;
  spec.fallback = FallbackPolicy::kLocal;
  SamplingEngine engine(graph, Config(31, spec));
  RRCollection rr(graph.num_nodes());
  const SampleBatch batch = engine.SampleInto(&rr, 600);
  ASSERT_TRUE(engine.status().ok()) << engine.status().ToString();
  EXPECT_EQ(batch.sets_added, 600u);
  ExpectEqualCollections(local_rr, rr);

  const BackendStats stats = engine.backend_stats();
  EXPECT_GE(stats.fallback_shards, 1u);
  EXPECT_GT(stats.fallback_sets, 0u);
  // Later healthy fills keep using the fleet (no fault keyed there).
  engine.SampleInto(&rr, 100);
  ASSERT_TRUE(engine.status().ok()) << engine.status().ToString();
  EXPECT_EQ(rr.num_sets(), 700u);
}

// ------------------------------------ serving composition ---------------

TEST(FaultServingTest, ConcurrentSubmitSurvivesInjectedKills) {
  const Graph graph = MakeWcPowerLaw(200, 3, 77);
  std::vector<ImRequest> requests;
  for (uint64_t seed : {2024ULL, 4242ULL}) {
    for (double eps : {0.4, 0.3}) {
      ImRequest r;
      r.graph = "g";
      r.algo = "tim+";
      r.k = 3;
      r.epsilon = eps;
      r.seed = seed;
      requests.push_back(r);
    }
  }

  // Serialized local reference.
  ServingEngine reference_engine(ServingOptions{.num_threads = 1});
  ASSERT_TRUE(reference_engine.RegisterGraph("g", graph).ok());
  std::vector<ImResponse> reference;
  for (const ImRequest& request : requests) {
    reference.push_back(reference_engine.Solve(request));
  }

  ServingOptions options;
  options.num_threads = 1;
  options.submit_workers = 4;
  options.max_pending_requests = 0;
  options.sample_backend = Procs(2, "kill@20");
  ServingEngine engine(options);
  ASSERT_TRUE(engine.RegisterGraph("g", graph).ok());

  std::vector<std::future<ImResponse>> futures(requests.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= requests.size()) return;
        futures[i] = engine.Submit(requests[i]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t i = 0; i < requests.size(); ++i) {
    ImResponse response = futures[i].get();
    ASSERT_TRUE(response.status.ok())
        << "request " << i << ": " << response.status.ToString();
    EXPECT_EQ(reference[i].result.seeds, response.result.seeds)
        << "request " << i;
    EXPECT_DOUBLE_EQ(reference[i].result.Metric("theta"),
                     response.result.Metric("theta"))
        << "request " << i;
  }
}

TEST(FaultServingTest, OverloadSheddingComposesWithBackendRetries) {
  // Unavailable means two different things in this stack: the admission
  // queue shedding a request, and a worker dying under a shard (which the
  // backend retries internally). They must compose without interference:
  // every submission resolves exactly once, shed requests match the
  // scheduler's rejected() count (no double counting), and every
  // admitted response is bit-exact despite the injected kill.
  const Graph graph = MakeWcPowerLaw(200, 3, 77);
  ImRequest request;
  request.graph = "g";
  request.algo = "tim+";
  request.k = 3;
  request.epsilon = 0.4;
  request.seed = 2024;

  ServingEngine reference_engine(ServingOptions{.num_threads = 1});
  ASSERT_TRUE(reference_engine.RegisterGraph("g", graph).ok());
  const ImResponse expected = reference_engine.Solve(request);
  ASSERT_TRUE(expected.status.ok());

  ServingOptions options;
  options.num_threads = 1;
  options.submit_workers = 1;  // one worker: the queue actually backs up
  options.max_pending_requests = 2;
  options.sample_backend = Procs(2, "kill@20");
  ServingEngine engine(options);
  ASSERT_TRUE(engine.RegisterGraph("g", graph).ok());

  std::vector<std::future<ImResponse>> futures;
  for (int i = 0; i < 5000 && engine.scheduler() == nullptr; ++i) {
    futures.push_back(engine.Submit(request));
  }
  while (engine.scheduler()->rejected() == 0 && futures.size() < 5000) {
    futures.push_back(engine.Submit(request));
  }
  EXPECT_GT(engine.scheduler()->rejected(), 0u);

  uint64_t accepted = 0;
  uint64_t shed = 0;
  for (auto& future : futures) {
    ImResponse response = future.get();
    if (response.status.IsUnavailable()) {
      ++shed;
      continue;
    }
    ++accepted;
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(expected.result.seeds, response.result.seeds);
  }
  EXPECT_EQ(accepted + shed, futures.size());
  EXPECT_EQ(shed, engine.scheduler()->rejected());
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace timpp
