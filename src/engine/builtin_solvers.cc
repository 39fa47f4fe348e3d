// Registration of every built-in algorithm behind the InfluenceSolver
// interface. Each wrapper translates SolverOptions into the algorithm's
// native options struct, runs it, and flattens its native stats into the
// uniform metrics list.
#include <memory>
#include <utility>

#include "baselines/celf_greedy.h"
#include "baselines/heuristics.h"
#include "baselines/irie.h"
#include "baselines/ris.h"
#include "baselines/simpath.h"
#include "core/imm.h"
#include "core/tim.h"
#include "engine/solver_registry.h"
#include "util/timer.h"

namespace timpp {

namespace {

using Metrics = std::vector<std::pair<std::string, double>>;

double Count(uint64_t value) { return static_cast<double>(value); }
double Flag(bool value) { return value ? 1.0 : 0.0; }

// The one metric layout of every RR-set solver: its own head metrics, the
// budget triple, its tail, then the spill counters — only when the spill
// tier ran. Unspilled runs therefore keep the exact metric list they had
// before the tier existed, which is what stat-for-stat sweeps (budgeted
// vs not) rely on.
Metrics RrMetrics(Metrics head, const RrRunStats& run, const Metrics& tail) {
  head.insert(head.end(),
              {{"hit_memory_budget", Flag(run.hit_memory_budget)},
               {"rr_sets_retained", Count(run.rr_sets_retained)},
               {"regeneration_passes", Count(run.regeneration_passes)}});
  head.insert(head.end(), tail.begin(), tail.end());
  if (run.rr_sets_spilled != 0 || run.sets_spill_read != 0 ||
      run.spill_bytes_written != 0) {
    head.insert(head.end(),
                {{"rr_sets_spilled", Count(run.rr_sets_spilled)},
                 {"sets_spill_read", Count(run.sets_spill_read)},
                 {"spill_bytes_written", Count(run.spill_bytes_written)}});
  }
  return head;
}

// Shared shape of the RR-set solvers: context-aware, and a budgeted
// request runs standalone — a memory budget caps THIS request's resident
// bytes, which is meaningless against a shared collection.
class RrInfluenceSolver : public InfluenceSolver {
 public:
  bool UsesSolveContext() const override { return true; }

  Status Run(const SolverOptions& options, SolverResult* result) override {
    return Solve(options, SolveContext(), result);
  }

  Status RunWithContext(const SolverOptions& options,
                        const SolveContext& context,
                        SolverResult* result) override {
    return Solve(options,
                 options.memory_budget_bytes == 0 ? context : SolveContext(),
                 result);
  }

 protected:
  explicit RrInfluenceSolver(const Graph& graph) : graph_(graph) {}

  virtual Status Solve(const SolverOptions& options,
                       const SolveContext& context, SolverResult* result) = 0;

  const Graph& graph_;
};

// ------------------------------------------------------------- TIM/TIM+ --

class TimInfluenceSolver final : public RrInfluenceSolver {
 public:
  TimInfluenceSolver(const Graph& graph, bool use_refinement)
      : RrInfluenceSolver(graph), use_refinement_(use_refinement) {}

  std::string name() const override { return use_refinement_ ? "tim+" : "tim"; }

 private:
  Status Solve(const SolverOptions& options, const SolveContext& context,
               SolverResult* result) override {
    TimOptions tim;
    static_cast<RunOptions&>(tim) = options;
    tim.k = options.k;
    tim.epsilon = options.epsilon;
    tim.ell = options.ell;
    tim.use_refinement = use_refinement_;

    TimResult native;
    TIMPP_RETURN_NOT_OK(TimSolver(graph_).Run(tim, context, &native));
    const TimStats& s = native.stats;
    result->seeds = std::move(native.seeds);
    result->seconds_total = s.seconds_total;
    result->estimated_spread = s.estimated_spread;
    result->metrics = RrMetrics(
        {{"theta", Count(s.theta)},
         {"theta_prime", Count(s.theta_prime)},
         {"kpt_star", s.kpt_star},
         {"kpt_plus", s.kpt_plus},
         {"rr_sets_kpt", Count(s.rr_sets_kpt)},
         {"edges_examined", Count(s.edges_examined)},
         {"rr_memory_bytes", Count(s.rr_memory_bytes)},
         {"rr_data_bytes", Count(s.rr_data_bytes)}},
        s,
        {{"seconds_node_selection", s.seconds_node_selection},
         {"kpt_cache_hit", Flag(s.kpt_cache_hit)}});
    return Status::OK();
  }

  bool use_refinement_;
};

// ------------------------------------------------------------------- IMM --

class ImmInfluenceSolver final : public RrInfluenceSolver {
 public:
  explicit ImmInfluenceSolver(const Graph& graph) : RrInfluenceSolver(graph) {}

  std::string name() const override { return "imm"; }

 private:
  Status Solve(const SolverOptions& options, const SolveContext& context,
               SolverResult* result) override {
    ImmOptions imm;
    static_cast<RunOptions&>(imm) = options;
    imm.k = options.k;
    imm.epsilon = options.epsilon;
    imm.ell = options.ell;

    ImmResult native;
    TIMPP_RETURN_NOT_OK(RunImm(graph_, imm, context, &native));
    const ImmStats& s = native.stats;
    result->seeds = std::move(native.seeds);
    result->seconds_total = s.seconds_total;
    result->estimated_spread = s.estimated_spread;
    result->metrics = RrMetrics(
        {{"theta", Count(s.theta)},
         {"lb", s.lb},
         {"rr_sets_sampling", Count(s.rr_sets_sampling)},
         {"sampling_iterations", Count(s.sampling_iterations)},
         {"rr_memory_bytes", Count(s.rr_memory_bytes)},
         {"rr_data_bytes", Count(s.rr_data_bytes)}},
        s, {{"lb_cache_hit", Flag(s.lb_cache_hit)}});
    return Status::OK();
  }
};

// ------------------------------------------------------------------- RIS --

class RisInfluenceSolver final : public RrInfluenceSolver {
 public:
  explicit RisInfluenceSolver(const Graph& graph) : RrInfluenceSolver(graph) {}

  std::string name() const override { return "ris"; }

 private:
  Status Solve(const SolverOptions& options, const SolveContext& context,
               SolverResult* result) override {
    RisOptions ris;
    static_cast<RunOptions&>(ris) = options;
    ris.epsilon = options.epsilon;
    ris.ell = options.ell;
    ris.tau_scale = options.ris_tau_scale;
    ris.max_rr_sets = options.ris_max_sets;

    RisStats s;
    TIMPP_RETURN_NOT_OK(
        RunRis(graph_, ris, options.k, context, &result->seeds, &s));
    result->seconds_total = s.seconds_total;
    result->estimated_spread =
        s.covered_fraction * static_cast<double>(graph_.num_nodes());
    result->metrics = RrMetrics({{"tau", s.tau},
                                 {"rr_sets_generated",
                                  Count(s.rr_sets_generated)},
                                 {"cost_examined", Count(s.cost_examined)},
                                 {"hit_set_cap", Flag(s.hit_set_cap)}},
                                s, {});
    return Status::OK();
  }
};

// ---------------------------------------------------------- greedy family --

class CelfInfluenceSolver final : public InfluenceSolver {
 public:
  CelfInfluenceSolver(const Graph& graph, GreedyVariant variant,
                      std::string name)
      : graph_(graph), variant_(variant), name_(std::move(name)) {}

  std::string name() const override { return name_; }

  Status Run(const SolverOptions& options, SolverResult* result) override {
    CelfOptions celf;
    celf.variant = variant_;
    celf.num_mc_samples = options.mc_samples;
    celf.model = options.model;
    celf.custom_model = options.custom_model;
    celf.sampler_mode = options.sampler_mode;
    celf.mc_batch = options.mc_batch;
    celf.seed = options.seed;

    CelfStats stats;
    TIMPP_RETURN_NOT_OK(
        RunCelfGreedy(graph_, celf, options.k, &result->seeds, &stats));

    result->seconds_total = stats.seconds_total;
    if (!stats.spread_after_round.empty()) {
      result->estimated_spread = stats.spread_after_round.back();
    }
    result->metrics = {
        {"spread_evaluations",
         static_cast<double>(stats.spread_evaluations)},
        {"mc_samples", static_cast<double>(celf.num_mc_samples)},
    };
    return Status::OK();
  }

 private:
  const Graph& graph_;
  GreedyVariant variant_;
  std::string name_;
};

// ------------------------------------------------------------------ IRIE --

class IrieInfluenceSolver final : public InfluenceSolver {
 public:
  explicit IrieInfluenceSolver(const Graph& graph) : graph_(graph) {}

  std::string name() const override { return "irie"; }

  Status Run(const SolverOptions& options, SolverResult* result) override {
    IrieOptions irie;
    irie.alpha = options.irie_alpha;
    irie.sampler_mode = options.sampler_mode;
    irie.mc_batch = options.mc_batch;
    irie.seed = options.seed;

    IrieStats stats;
    TIMPP_RETURN_NOT_OK(
        RunIrie(graph_, irie, options.k, &result->seeds, &stats));
    result->seconds_total = stats.seconds_total;
    result->metrics = {
        {"rank_sweeps", static_cast<double>(stats.rank_sweeps)},
    };
    return Status::OK();
  }

 private:
  const Graph& graph_;
};

// --------------------------------------------------------------- SIMPATH --

class SimpathInfluenceSolver final : public InfluenceSolver {
 public:
  explicit SimpathInfluenceSolver(const Graph& graph) : graph_(graph) {}

  std::string name() const override { return "simpath"; }

  Status Run(const SolverOptions& options, SolverResult* result) override {
    SimpathOptions simpath;
    simpath.eta = options.simpath_eta;

    SimpathStats stats;
    TIMPP_RETURN_NOT_OK(
        RunSimpath(graph_, simpath, options.k, &result->seeds, &stats));
    result->seconds_total = stats.seconds_total;
    result->metrics = {
        {"spread_evaluations",
         static_cast<double>(stats.spread_evaluations)},
        {"path_steps", static_cast<double>(stats.path_steps)},
    };
    return Status::OK();
  }

 private:
  const Graph& graph_;
};

// ------------------------------------------------------------- heuristics --

/// Adapts the stateless heuristic selectors; `run` maps (graph, options,
/// k, out-seeds) to a Status.
class HeuristicSolver final : public InfluenceSolver {
 public:
  using RunFn = Status (*)(const Graph&, const SolverOptions&,
                           std::vector<NodeId>*);

  HeuristicSolver(const Graph& graph, std::string name, RunFn run)
      : graph_(graph), name_(std::move(name)), run_(run) {}

  std::string name() const override { return name_; }

  Status Run(const SolverOptions& options, SolverResult* result) override {
    Timer timer;
    TIMPP_RETURN_NOT_OK(run_(graph_, options, &result->seeds));
    result->seconds_total = timer.ElapsedSeconds();
    return Status::OK();
  }

 private:
  const Graph& graph_;
  std::string name_;
  RunFn run_;
};

}  // namespace

void RegisterBuiltinSolvers(SolverRegistry* registry) {
  auto must = [registry](const std::string& name,
                         SolverRegistry::Factory factory) {
    Status s = registry->Register(name, std::move(factory));
    (void)s;  // duplicates impossible for the fixed built-in set
  };

  must("tim", [](const Graph& g) {
    return std::make_unique<TimInfluenceSolver>(g, /*use_refinement=*/false);
  });
  must("tim+", [](const Graph& g) {
    return std::make_unique<TimInfluenceSolver>(g, /*use_refinement=*/true);
  });
  must("imm", [](const Graph& g) {
    return std::make_unique<ImmInfluenceSolver>(g);
  });
  must("ris", [](const Graph& g) {
    return std::make_unique<RisInfluenceSolver>(g);
  });
  must("greedy", [](const Graph& g) {
    return std::make_unique<CelfInfluenceSolver>(g, GreedyVariant::kPlain,
                                                 "greedy");
  });
  must("celf", [](const Graph& g) {
    return std::make_unique<CelfInfluenceSolver>(g, GreedyVariant::kCelf,
                                                 "celf");
  });
  must("celf++", [](const Graph& g) {
    return std::make_unique<CelfInfluenceSolver>(
        g, GreedyVariant::kCelfPlusPlus, "celf++");
  });
  must("irie", [](const Graph& g) {
    return std::make_unique<IrieInfluenceSolver>(g);
  });
  must("simpath", [](const Graph& g) {
    return std::make_unique<SimpathInfluenceSolver>(g);
  });

  must("degree", [](const Graph& g) {
    return std::make_unique<HeuristicSolver>(
        g, "degree",
        +[](const Graph& graph, const SolverOptions& options,
            std::vector<NodeId>* seeds) {
          return SelectByDegree(graph, options.k, seeds);
        });
  });
  must("single-discount", [](const Graph& g) {
    return std::make_unique<HeuristicSolver>(
        g, "single-discount",
        +[](const Graph& graph, const SolverOptions& options,
            std::vector<NodeId>* seeds) {
          return SelectSingleDiscount(graph, options.k, seeds);
        });
  });
  must("degree-discount", [](const Graph& g) {
    return std::make_unique<HeuristicSolver>(
        g, "degree-discount",
        +[](const Graph& graph, const SolverOptions& options,
            std::vector<NodeId>* seeds) {
          return SelectDegreeDiscount(graph, options.k,
                                      options.degree_discount_p, seeds);
        });
  });
  must("pagerank", [](const Graph& g) {
    return std::make_unique<HeuristicSolver>(
        g, "pagerank",
        +[](const Graph& graph, const SolverOptions& options,
            std::vector<NodeId>* seeds) {
          return SelectByPageRank(graph, options.k, options.pagerank_damping,
                                  options.pagerank_iterations, seeds);
        });
  });
  must("kcore", [](const Graph& g) {
    return std::make_unique<HeuristicSolver>(
        g, "kcore",
        +[](const Graph& graph, const SolverOptions& options,
            std::vector<NodeId>* seeds) {
          return SelectByKCore(graph, options.k, seeds);
        });
  });
  must("random", [](const Graph& g) {
    return std::make_unique<HeuristicSolver>(
        g, "random",
        +[](const Graph& graph, const SolverOptions& options,
            std::vector<NodeId>* seeds) {
          return SelectRandom(graph, options.k, options.seed, seeds);
        });
  });
}

}  // namespace timpp
