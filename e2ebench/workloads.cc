#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "core/imm.h"
#include "core/tim.h"
#include "gen/generators.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/weight_models.h"
#include "util/rng.h"
#include "util/timer.h"

namespace timpp::e2e {

namespace {

constexpr size_t kMiB = size_t{1} << 20;

// Sizes are scaled down from the reference configurations (BA n=100k
// attach 10, r=10 000, ...) so one repeat — setup, cold solve, verify —
// fits several times into a run; each keeps the property its workload was
// chosen for (see README.md).
WorkloadSpec FullSpec(const std::string& name) {
  WorkloadSpec s;
  s.name = name;
  if (name == "tim-ic-dense") {
    s.n = 20000;
    s.degree = 10;
    s.parse_text = true;
    s.algo = "tim+";
    s.k = 50;
    s.epsilon = 0.2;
    s.mc_samples = 4000;
  } else if (name == "imm-lt") {
    s.scale_free = true;
    s.n = 20000;
    s.degree = 8;
    s.model = DiffusionModel::kLT;
    s.algo = "imm";
    s.k = 50;
    s.epsilon = 0.12;
    s.mc_samples = 10000;
  } else if (name == "tim-ic-spill") {
    s.n = 50000;
    s.degree = 2;
    s.algo = "tim+";
    s.k = 50;
    s.epsilon = 0.25;
    s.memory_budget_bytes = 3 * kMiB;
    s.mc_samples = 5000;
  } else if (name == "serve-mix") {
    s.n = 10000;
    s.degree = 10;
    s.algo = "tim+";
    s.k = 50;
    s.epsilon = 0.3;
    s.mc_samples = 2000;
    s.requests = 200;
    s.cache_budget_bytes = 128 * kMiB;
  } else {
    s.name.clear();
  }
  return s;
}

// Toy sizes keep every code path of the full workload (text parse, LT,
// spill, reuse) at a few thousand nodes.
WorkloadSpec ToySpec(const std::string& name) {
  WorkloadSpec s = FullSpec(name);
  if (s.name.empty()) return s;
  s.n = s.scale_free ? 1500 : 2000;
  s.epsilon = std::max(s.epsilon, 0.3);
  s.mc_samples = 500;
  if (s.memory_budget_bytes != 0) s.memory_budget_bytes = 64 * 1024;
  if (s.serving()) s.requests = 24;
  return s;
}

void ApplyWeights(const WorkloadSpec& spec, uint64_t weight_seed,
                  GraphBuilder* builder) {
  if (spec.model == DiffusionModel::kLT) {
    AssignRandomLT(builder, weight_seed);
  } else {
    AssignWeightedCascade(builder);
  }
}

// "u v" per arc, no probability column: the text workload applies its
// weights at load.
Status WriteArcs(const GraphBuilder& builder, const std::string& path) {
  std::unique_ptr<FILE, int (*)(FILE*)> f(std::fopen(path.c_str(), "w"),
                                          &std::fclose);
  if (!f) return Status::IOError("cannot write " + path);
  std::fprintf(f.get(), "# %u nodes, %zu arcs\n", builder.num_nodes(),
               builder.num_edges());
  for (const RawEdge& e : builder.edges()) {
    std::fprintf(f.get(), "%u %u\n", e.from, e.to);
  }
  return std::ferror(f.get()) ? Status::IOError("short write to " + path)
                              : Status::OK();
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name, Scale scale) {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> all;
    for (const char* name :
         {"tim-ic-dense", "imm-lt", "tim-ic-spill", "serve-mix"}) {
      all.push_back(FullSpec(name));
      all.push_back(ToySpec(name));
    }
    return all;
  }();
  for (size_t i = 0; i < specs.size(); i += 2) {
    if (specs[i].name == name) {
      return &specs[i + (scale == Scale::kToy ? 1 : 0)];
    }
  }
  return nullptr;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t tag) {
  uint64_t state = seed ^ (tag * 0x9e3779b97f4a7c15ULL);
  return SplitMix64(state);
}

Seeds DeriveSeeds(uint64_t workload_seed) {
  // The graphs are fixed datasets, as the paper's SNAP graphs are: their
  // topology and weights come from a constant, so a metric's spread across
  // workload seeds measures the system rather than graph-instance variance
  // (the top-50 LT spread varied by 10% between generated instances). The
  // workload seed drives every random choice the system makes: RR
  // sampling, the Monte-Carlo verification and the request mix.
  constexpr uint64_t kDatasetSeed = 2014;
  Seeds s;
  s.graph = DeriveSeed(kDatasetSeed, 1);
  s.weights = DeriveSeed(kDatasetSeed, 2);
  s.solver = DeriveSeed(workload_seed, 3);
  s.verify = DeriveSeed(workload_seed, 4);
  s.mix = DeriveSeed(workload_seed, 5);
  return s;
}

std::string TextPath(const std::string& dir) { return dir + "/graph.txt"; }
std::string ImagePath(const std::string& dir) { return dir + "/graph.img"; }

Status GenerateInputs(const WorkloadSpec& spec, const Seeds& seeds,
                      const std::string& dir) {
  GraphBuilder builder;
  if (spec.scale_free) {
    GenDirectedScaleFree(spec.n, spec.degree, seeds.graph, &builder);
  } else {
    GenBarabasiAlbert(spec.n, static_cast<unsigned>(spec.degree), seeds.graph,
                      &builder);
  }
  if (spec.parse_text) TIMPP_RETURN_NOT_OK(WriteArcs(builder, TextPath(dir)));
  ApplyWeights(spec, seeds.weights, &builder);
  Graph graph;
  TIMPP_RETURN_NOT_OK(builder.Build(&graph));
  if (!spec.parse_text) TIMPP_RETURN_NOT_OK(WriteEdgeList(graph, TextPath(dir)));
  return WriteGraphImage(graph, ImagePath(dir));
}

Status ParseText(const std::string& dir, GraphBuilder* builder) {
  return ReadEdgeList(TextPath(dir), EdgeListOptions(), builder);
}

Status BuildFromText(const WorkloadSpec& spec, const Seeds& seeds,
                     GraphBuilder* builder, Graph* graph) {
  // Only the text workload carries bare arcs; the others' lists already
  // hold their probabilities (WriteEdgeList's third column).
  if (spec.parse_text) ApplyWeights(spec, seeds.weights, builder);
  return builder->Build(graph);
}

Status LoadGraph(const WorkloadSpec& spec, const Seeds& seeds,
                 const std::string& dir, Graph* graph, double* seconds) {
  Timer timer;
  if (spec.parse_text) {
    GraphBuilder builder;
    TIMPP_RETURN_NOT_OK(ParseText(dir, &builder));
    TIMPP_RETURN_NOT_OK(BuildFromText(spec, seeds, &builder, graph));
  } else {
    TIMPP_RETURN_NOT_OK(OpenGraphImage(ImagePath(dir), graph));
  }
  *seconds = timer.ElapsedSeconds();
  return Status::OK();
}

Status Solve(const WorkloadSpec& spec, const Seeds& seeds, const Graph& graph,
             unsigned threads, bool budgeted, const std::string& spill_dir,
             SolveOutcome* out) {
  const size_t budget = budgeted ? spec.memory_budget_bytes : 0;
  Timer timer;
  if (spec.algo == "imm") {
    ImmOptions options;
    options.k = spec.k;
    options.epsilon = spec.epsilon;
    options.model = spec.model;
    options.num_threads = threads;
    options.seed = seeds.solver;
    options.memory_budget_bytes = budget;
    if (budget != 0) options.spill_dir = spill_dir;
    ImmResult result;
    TIMPP_RETURN_NOT_OK(RunImm(graph, options, &result));
    out->seconds = timer.ElapsedSeconds();
    const ImmStats& st = result.stats;
    out->seeds = std::move(result.seeds);
    out->estimated_spread = st.estimated_spread;
    out->theta = st.theta;
    out->lower_bound = st.lb;
    out->lb_iterations = st.sampling_iterations;
    out->kpt_sets = st.rr_sets_sampling;
    out->regeneration_passes = st.regeneration_passes;
    out->hit_memory_budget = st.hit_memory_budget;
    out->lambda_prime = st.lambda_prime;
    out->lambda_star = st.lambda_star;
    return Status::OK();
  }
  TimOptions options;
  options.k = spec.k;
  options.epsilon = spec.epsilon;
  options.model = spec.model;
  options.use_refinement = true;
  options.num_threads = threads;
  options.seed = seeds.solver;
  options.memory_budget_bytes = budget;
  if (budget != 0) options.spill_dir = spill_dir;
  TimResult result;
  TIMPP_RETURN_NOT_OK(TimSolver(graph).Run(options, &result));
  out->seconds = timer.ElapsedSeconds();
  const TimStats& st = result.stats;
  out->seeds = std::move(result.seeds);
  out->estimated_spread = st.estimated_spread;
  out->theta = st.theta;
  out->lower_bound = st.kpt_plus;
  out->kpt_sets = st.rr_sets_kpt + st.theta_prime;
  out->edges_examined = st.edges_examined;
  out->regeneration_passes = st.regeneration_passes;
  out->hit_memory_budget = st.hit_memory_budget;
  return Status::OK();
}

VerifySpreadOptions VerifyOptions(const WorkloadSpec& spec, unsigned threads,
                                  uint64_t seed) {
  VerifySpreadOptions options;  // default batch mode: what users get
  options.num_samples = spec.mc_samples;
  options.num_threads = threads;
  options.model = spec.model;
  options.seed = seed;
  return options;
}

bool SpreadAgrees(const WorkloadSpec& spec, NodeId n,
                  const SolveOutcome& solve, double verified,
                  std::string* why) {
  const double nd = static_cast<double>(n);
  const double f = solve.estimated_spread / nd;
  const double se_rr =
      nd * std::sqrt(std::max(0.0, f * (1.0 - f)) /
                     static_cast<double>(std::max<uint64_t>(1, solve.theta)));
  const double k = static_cast<double>(solve.seeds.size());
  const double var_bound =
      std::max(0.0, (nd - verified) * (verified - k));
  const double se_mc =
      std::sqrt(var_bound / static_cast<double>(spec.mc_samples));
  const double tolerance = 4.0 * std::hypot(se_rr, se_mc);
  const double gap = std::fabs(solve.estimated_spread - verified);
  if (gap <= tolerance) return true;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "solver n*F_R(S) = %.3f vs VerifySpread = %.3f: gap %.3f > "
                "4 SE = %.3f",
                solve.estimated_spread, verified, gap, tolerance);
  *why = buf;
  return false;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace timpp::e2e
