// Tests of process-sharded distributed RR sampling: `procs:N` must be
// BIT-IDENTICAL to the local backend at every worker count — at the
// engine level (collections, accounting, filtered streaming) and for
// every RR solver in the registry (seeds, θ, LB, spread, edge counts),
// budgeted and unbudgeted, IC and LT. Worker crashes are recovered
// transparently (respawn + shard retry, still bit-identical); with
// retries disabled, and for deterministic failures (graph identity
// mismatch, missing binary), the run fails with a clear Status, never
// with truncated results. Injected-fault coverage (hangs, truncated or
// corrupt frames, retry exhaustion, fallback) lives in
// fault_injection_test.cc.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "distributed/graph_spec.h"
#include "distributed/process_shard_backend.h"
#include "engine/sampling_engine.h"
#include "engine/solver_registry.h"
#include "graph/graph_io.h"
#include "rrset/rr_collection.h"
#include "tests/test_util.h"

namespace timpp {
namespace {

using testing::MakeWcPowerLaw;

SampleBackendSpec Procs(unsigned workers, unsigned threads = 1) {
  SampleBackendSpec spec;
  spec.kind = SampleBackendKind::kProcessShards;
  spec.num_workers = workers;
  spec.worker_threads = threads;
  return spec;
}

SamplingConfig Config(DiffusionModel model, uint64_t seed,
                      const SampleBackendSpec& backend = {}) {
  SamplingConfig config;
  config.model = model;
  config.seed = seed;
  config.sample_backend = backend;
  return config;
}

void ExpectEqualCollections(const RRCollection& a, const RRCollection& b) {
  ASSERT_EQ(a.num_sets(), b.num_sets());
  ASSERT_EQ(a.total_nodes(), b.total_nodes());
  EXPECT_EQ(a.TotalWidth(), b.TotalWidth());
  for (size_t i = 0; i < a.num_sets(); ++i) {
    const auto sa = a.Set(static_cast<RRSetId>(i));
    const auto sb = b.Set(static_cast<RRSetId>(i));
    ASSERT_EQ(sa.size(), sb.size()) << "set " << i;
    EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin())) << "set " << i;
    EXPECT_EQ(a.Width(static_cast<RRSetId>(i)),
              b.Width(static_cast<RRSetId>(i)))
        << "set " << i;
  }
}

TEST(ProcessShardBackendTest, EngineFillsAreBitIdenticalToLocal) {
  const Graph graph = MakeWcPowerLaw(200, 3, 7);
  for (DiffusionModel model : {DiffusionModel::kIC, DiffusionModel::kLT}) {
    SamplingEngine local(graph, Config(model, 42));
    RRCollection local_rr(graph.num_nodes());
    std::vector<uint64_t> local_edges;
    const SampleBatch local_batch =
        local.SampleInto(&local_rr, 1000, &local_edges);
    ASSERT_TRUE(local.status().ok());

    for (unsigned workers : {1u, 2u, 4u}) {
      SamplingEngine procs(graph, Config(model, 42, Procs(workers)));
      RRCollection procs_rr(graph.num_nodes());
      std::vector<uint64_t> procs_edges;
      const SampleBatch procs_batch =
          procs.SampleInto(&procs_rr, 1000, &procs_edges);
      ASSERT_TRUE(procs.status().ok()) << procs.status().ToString();

      ExpectEqualCollections(local_rr, procs_rr);
      EXPECT_EQ(local_edges, procs_edges) << workers << " workers";
      EXPECT_EQ(local_batch.edges_examined, procs_batch.edges_examined);
      EXPECT_EQ(local_batch.traversal_cost, procs_batch.traversal_cost);
    }
  }
}

TEST(ProcessShardBackendTest, MultithreadedWorkersChangeNothing) {
  const Graph graph = MakeWcPowerLaw(150, 3, 9);
  SamplingEngine local(graph, Config(DiffusionModel::kIC, 5));
  RRCollection local_rr(graph.num_nodes());
  local.SampleInto(&local_rr, 700);

  SamplingEngine procs(graph, Config(DiffusionModel::kIC, 5, Procs(2, 3)));
  RRCollection procs_rr(graph.num_nodes());
  procs.SampleInto(&procs_rr, 700);
  ASSERT_TRUE(procs.status().ok()) << procs.status().ToString();
  ExpectEqualCollections(local_rr, procs_rr);
}

TEST(ProcessShardBackendTest, CostThresholdStopsAtTheSameSet) {
  const Graph graph = MakeWcPowerLaw(200, 3, 11);
  SamplingEngine local(graph, Config(DiffusionModel::kIC, 13));
  RRCollection local_rr(graph.num_nodes());
  const SampleBatch local_batch = local.SampleUntilCost(&local_rr, 4000.0);

  SamplingEngine procs(graph, Config(DiffusionModel::kIC, 13, Procs(3)));
  RRCollection procs_rr(graph.num_nodes());
  const SampleBatch procs_batch = procs.SampleUntilCost(&procs_rr, 4000.0);
  ASSERT_TRUE(procs.status().ok()) << procs.status().ToString();

  EXPECT_EQ(local_batch.sets_added, procs_batch.sets_added);
  EXPECT_EQ(local_batch.traversal_cost, procs_batch.traversal_cost);
  ExpectEqualCollections(local_rr, procs_rr);
}

TEST(ProcessShardBackendTest, FilteredVisitStreamsIdentically) {
  // VisitSamples with a filter exercises the kSampleList path: the
  // coordinator evaluates the filter and ships explicit index lists.
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

  SamplingEngine local(graph, Config(DiffusionModel::kIC, 3));
  SamplingEngine procs(graph, Config(DiffusionModel::kIC, 3, Procs(4)));
  const std::vector<Visit> local_visits = collect(local);
  const std::vector<Visit> procs_visits = collect(procs);
  ASSERT_TRUE(procs.status().ok()) << procs.status().ToString();
  ASSERT_EQ(local_visits.size(), procs_visits.size());
  EXPECT_TRUE(local_visits == procs_visits);
}

// ---- solver sweep ----------------------------------------------------

struct SweepCase {
  std::string algo;
  DiffusionModel model;
  size_t memory_budget;
};

SolverResult RunRegistry(const Graph& graph, const SweepCase& c,
                         const SampleBackendSpec& backend) {
  std::unique_ptr<InfluenceSolver> solver;
  Status s = SolverRegistry::Global().Create(c.algo, graph, &solver);
  EXPECT_TRUE(s.ok()) << s.ToString();
  SolverOptions options;
  options.k = 4;
  options.epsilon = 0.3;
  options.seed = 1234;
  options.model = c.model;
  options.memory_budget_bytes = c.memory_budget;
  options.ris_tau_scale = 0.05;
  options.ris_max_sets = 200000;
  options.sample_backend = backend;
  SolverResult result;
  s = solver->Run(options, &result);
  EXPECT_TRUE(s.ok()) << c.algo << ": " << s.ToString();
  return result;
}

TEST(DistributedSolverTest, EveryRrSolverIsBitIdenticalAcrossBackends) {
  const Graph graph = MakeWcPowerLaw(250, 3, 17);
  std::vector<SweepCase> cases;
  for (const char* algo : {"tim+", "imm", "ris"}) {
    for (DiffusionModel model :
         {DiffusionModel::kIC, DiffusionModel::kLT}) {
      cases.push_back({algo, model, 0});
      cases.push_back({algo, model, 64 * 1024});  // budgeted / streaming
    }
  }

  for (const SweepCase& c : cases) {
    SCOPED_TRACE(c.algo + (c.model == DiffusionModel::kLT ? "/lt" : "/ic") +
                 (c.memory_budget != 0 ? "/budgeted" : ""));
    const SolverResult local = RunRegistry(graph, c, SampleBackendSpec{});
    for (unsigned workers : {1u, 2u, 4u}) {
      SCOPED_TRACE(workers);
      const SolverResult procs = RunRegistry(graph, c, Procs(workers));
      EXPECT_EQ(local.seeds, procs.seeds);
      EXPECT_EQ(local.estimated_spread, procs.estimated_spread);
      // Stat-for-stat identity, wall-clock and allocator-capacity
      // accounting excepted (rr_memory_bytes counts vector capacities,
      // which legitimately depend on the append pattern; rr_data_bytes is
      // the allocation-independent quantity and must match).
      for (const auto& [name, value] : local.metrics) {
        if (name == "rr_memory_bytes" || name.rfind("seconds", 0) == 0) {
          continue;
        }
        EXPECT_EQ(value, procs.Metric(name, -1.0)) << name;
      }
    }
  }
}

// ---- failure modes ---------------------------------------------------

TEST(DistributedSolverTest, WorkerCrashIsRecoveredBitIdentically) {
  const Graph graph = MakeWcPowerLaw(150, 3, 29);
  SamplingEngine local(graph, Config(DiffusionModel::kIC, 77));
  RRCollection local_rr(graph.num_nodes());
  local.SampleInto(&local_rr, 512);

  SamplingEngine engine(graph, Config(DiffusionModel::kIC, 77, Procs(2)));
  RRCollection rr(graph.num_nodes());
  engine.SampleInto(&rr, 128);
  ASSERT_TRUE(engine.status().ok()) << engine.status().ToString();
  EXPECT_FALSE(engine.backend_stats().any());

  // Kill a worker behind the engine's back, then ask for more: the
  // supervisor detects the dead pipe, respawns the worker and replays
  // its shard. Set i is a pure function of (seed, i), so the replayed
  // shard — and hence the whole stream — is bit-identical to a run that
  // never crashed.
  auto& backend = static_cast<ProcessShardBackend&>(engine.backend());
  ASSERT_TRUE(backend.KillWorkerForTest(0).ok());

  const SampleBatch batch = engine.SampleInto(&rr, 384);
  ASSERT_TRUE(engine.status().ok()) << engine.status().ToString();
  EXPECT_EQ(batch.sets_added, 384u);
  ExpectEqualCollections(local_rr, rr);

  const BackendStats stats = engine.backend_stats();
  EXPECT_GE(stats.worker_respawns, 1u);
  EXPECT_GE(stats.worker_crashes, 1u);
}

TEST(ProcessShardBackendTest, RetriesDisabledLatchesACrashAsAnError) {
  // max_shard_retries = 0 restores the fail-fast contract: a worker
  // crash is a hard, latched error and no later fill quietly succeeds —
  // callers get a Status, never truncated results.
  const Graph graph = MakeWcPowerLaw(150, 3, 23);
  SampleBackendSpec spec = Procs(2);
  spec.max_shard_retries = 0;
  SamplingConfig config = Config(DiffusionModel::kIC, 31, spec);
  ProcessShardBackend backend(graph, config);

  ASSERT_TRUE(backend.Fill(0, 256, nullptr).ok());
  ASSERT_TRUE(backend.KillWorkerForTest(1).ok());
  const Status failed = backend.Fill(256, 256, nullptr);
  EXPECT_FALSE(failed.ok());
  EXPECT_TRUE(backend.chunks().empty());
  // The failure is latched: no later fill can quietly succeed.
  EXPECT_FALSE(backend.Fill(512, 256, nullptr).ok());
}

TEST(ProcessShardBackendTest, MissingWorkerBinaryIsAClearError) {
  const Graph graph = MakeWcPowerLaw(50, 2, 3);
  SampleBackendSpec spec = Procs(1);
  spec.worker_binary = "/nonexistent/timpp_worker_binary";
  SamplingEngine engine(graph, Config(DiffusionModel::kIC, 1, spec));
  RRCollection rr(graph.num_nodes());
  const SampleBatch batch = engine.SampleInto(&rr, 10);
  EXPECT_EQ(batch.sets_added, 0u);
  EXPECT_FALSE(engine.status().ok());
}

TEST(ProcessShardBackendTest, GraphIdentityMismatchIsRejectedAtHandshake) {
  // Coordinator holds graph A but points workers at a file holding graph
  // B: the ContentHash handshake must reject before any sampling.
  const Graph coordinator_graph = MakeWcPowerLaw(100, 3, 41);
  const Graph other_graph = MakeWcPowerLaw(100, 3, 43);
  ASSERT_NE(coordinator_graph.ContentHash(), other_graph.ContentHash());

  const std::string path =
      ::testing::TempDir() + "/timpp_mismatch_" +
      std::to_string(::getpid()) + ".timg";
  ASSERT_TRUE(WriteBinary(other_graph, path).ok());

  SampleBackendSpec spec = Procs(2);
  spec.graph_source = "format=binary;path=" + path;
  SamplingEngine engine(coordinator_graph,
                        Config(DiffusionModel::kIC, 1, spec));
  RRCollection rr(coordinator_graph.num_nodes());
  const SampleBatch batch = engine.SampleInto(&rr, 10);
  EXPECT_EQ(batch.sets_added, 0u);
  ASSERT_FALSE(engine.status().ok());
  EXPECT_NE(engine.status().message().find("mismatch"), std::string::npos)
      << engine.status().ToString();
  std::remove(path.c_str());
}

TEST(ProcessShardBackendTest, SpecLoadedGraphPassesHandshakeAndMatches) {
  // The happy path of spec transport: coordinator and workers load the
  // SAME file through the same recipe (how the CLI operates), so the
  // hash agrees and the sampled stream is identical to local. Note the
  // coordinator must itself hold the file's canonical arc order — the
  // edge-triple container does not preserve a generated graph's in-arc
  // order (that is exactly what the handshake is there to catch, see
  // GraphIdentityMismatchIsRejectedAtHandshake).
  const Graph generated = MakeWcPowerLaw(120, 3, 47);
  const std::string path = ::testing::TempDir() + "/timpp_spec_" +
                           std::to_string(::getpid()) + ".timg";
  ASSERT_TRUE(WriteBinary(generated, path).ok());
  Graph graph;
  ASSERT_TRUE(ReadBinary(path, &graph).ok());

  SamplingEngine local(graph, Config(DiffusionModel::kIC, 55));
  RRCollection local_rr(graph.num_nodes());
  local.SampleInto(&local_rr, 400);

  SampleBackendSpec spec = Procs(2);
  spec.graph_source = "format=binary;path=" + path;
  SamplingEngine procs(graph, Config(DiffusionModel::kIC, 55, spec));
  RRCollection procs_rr(graph.num_nodes());
  procs.SampleInto(&procs_rr, 400);
  ASSERT_TRUE(procs.status().ok()) << procs.status().ToString();
  ExpectEqualCollections(local_rr, procs_rr);
  std::remove(path.c_str());
}

TEST(GraphSpecTest, EncodeParseRoundTrip) {
  GraphSpec spec;
  spec.format = "edgelist";
  spec.path = "/data/nethept.txt";
  spec.undirected = true;
  spec.weights = "uniform:0.1";
  spec.weight_seed = 99;
  std::string encoded;
  ASSERT_TRUE(EncodeGraphSpec(spec, &encoded).ok());
  GraphSpec parsed;
  ASSERT_TRUE(ParseGraphSpec(encoded, &parsed).ok());
  EXPECT_EQ(parsed.format, spec.format);
  EXPECT_EQ(parsed.path, spec.path);
  EXPECT_EQ(parsed.undirected, spec.undirected);
  EXPECT_EQ(parsed.weights, spec.weights);
  EXPECT_EQ(parsed.weight_seed, spec.weight_seed);

  spec.path = "bad;path";
  EXPECT_FALSE(EncodeGraphSpec(spec, &encoded).ok());
  EXPECT_FALSE(ParseGraphSpec("no-equals-here", &parsed).ok());
  EXPECT_FALSE(ParseGraphSpec("format=edgelist", &parsed).ok());  // no path
}

TEST(GraphContentHashTest, SensitiveToWeightsOrderAndDirection) {
  const auto build = [](float p01, float p12, bool extra) {
    GraphBuilder b;
    b.AddEdge(0, 1, p01);
    b.AddEdge(1, 2, p12);
    if (extra) b.AddEdge(2, 0, 0.5f);
    Graph g;
    EXPECT_TRUE(b.Build(&g).ok());
    return g;
  };
  const Graph base = build(0.3f, 0.7f, false);
  EXPECT_EQ(base.ContentHash(), build(0.3f, 0.7f, false).ContentHash());
  EXPECT_NE(base.ContentHash(), build(0.31f, 0.7f, false).ContentHash());
  EXPECT_NE(base.ContentHash(), build(0.7f, 0.3f, false).ContentHash());
  EXPECT_NE(base.ContentHash(), build(0.3f, 0.7f, true).ContentHash());
}

}  // namespace
}  // namespace timpp
