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

// Appends the run's backend fault-tolerance counters to the metrics list,
// but only when any fired: healthy runs (every local run, and distributed
// runs with no recovery activity) keep the exact metric set they had
// before fault tolerance existed, which is what backend-invariance
// comparisons (local vs procs, stat for stat) rely on.
void AppendBackendMetrics(const BackendStats& backend,
                          std::vector<std::pair<std::string, double>>* out) {
  if (!backend.any()) return;
  const auto add = [out](const char* name, uint64_t value) {
    out->emplace_back(name, static_cast<double>(value));
  };
  add("backend_shard_retries", backend.shard_retries);
  add("backend_worker_respawns", backend.worker_respawns);
  add("backend_shard_timeouts", backend.shard_timeouts);
  add("backend_worker_crashes", backend.worker_crashes);
  add("backend_corrupt_frames", backend.corrupt_frames);
  add("backend_quarantined_workers", backend.quarantined_workers);
  add("backend_fallback_shards", backend.fallback_shards);
  add("backend_fallback_sets", backend.fallback_sets);
}

// Spill-tier metrics, same emission contract as the backend counters:
// only present when the tier actually fired, so no-spill runs keep the
// exact metric set they had before the out-of-core layer existed.
void AppendSpillMetrics(uint64_t rr_sets_spilled, uint64_t sets_spill_read,
                        const RRSpillStats& io,
                        std::vector<std::pair<std::string, double>>* out) {
  if (rr_sets_spilled == 0 && sets_spill_read == 0 &&
      io.bytes_written == 0) {
    return;
  }
  out->emplace_back("rr_sets_spilled",
                    static_cast<double>(rr_sets_spilled));
  out->emplace_back("sets_spill_read",
                    static_cast<double>(sets_spill_read));
  out->emplace_back("spill_bytes_written",
                    static_cast<double>(io.bytes_written));
}

// ------------------------------------------------------------- TIM/TIM+ --

class TimInfluenceSolver final : public InfluenceSolver {
 public:
  TimInfluenceSolver(const Graph& graph, bool use_refinement)
      : graph_(graph), use_refinement_(use_refinement) {}

  std::string name() const override { return use_refinement_ ? "tim+" : "tim"; }

  bool UsesSolveContext() const override { return true; }

  Status Run(const SolverOptions& options, SolverResult* result) override {
    return RunWithContext(options, SolveContext(), result);
  }

  Status RunWithContext(const SolverOptions& options,
                        const SolveContext& context,
                        SolverResult* result) override {
    TimOptions tim;
    tim.k = options.k;
    tim.epsilon = options.epsilon;
    tim.ell = options.ell;
    tim.model = options.model;
    tim.custom_model = options.custom_model;
    tim.use_refinement = use_refinement_;
    tim.max_hops = options.max_hops;
    tim.sampler_mode = options.sampler_mode;
    tim.num_threads = options.num_threads;
    tim.pin_threads = options.pin_threads;
    tim.seed = options.seed;
    tim.memory_budget_bytes = options.memory_budget_bytes;
    tim.spill_dir = options.spill_dir;
    tim.sample_backend = options.sample_backend;

    // A memory budget caps this request's resident bytes — meaningless
    // against a shared collection, so budgeted requests run standalone.
    const SolveContext effective =
        options.memory_budget_bytes == 0 ? context : SolveContext();

    TimSolver solver(graph_);
    TimResult native;
    TIMPP_RETURN_NOT_OK(solver.Run(tim, effective, &native));

    result->seeds = std::move(native.seeds);
    result->seconds_total = native.stats.seconds_total;
    result->estimated_spread = native.stats.estimated_spread;
    result->metrics = {
        {"theta", static_cast<double>(native.stats.theta)},
        {"theta_prime", static_cast<double>(native.stats.theta_prime)},
        {"kpt_star", native.stats.kpt_star},
        {"kpt_plus", native.stats.kpt_plus},
        {"rr_sets_kpt", static_cast<double>(native.stats.rr_sets_kpt)},
        {"edges_examined", static_cast<double>(native.stats.edges_examined)},
        {"rr_memory_bytes",
         static_cast<double>(native.stats.rr_memory_bytes)},
        {"rr_data_bytes", static_cast<double>(native.stats.rr_data_bytes)},
        {"hit_memory_budget", native.stats.hit_memory_budget ? 1.0 : 0.0},
        {"rr_sets_retained",
         static_cast<double>(native.stats.rr_sets_retained)},
        {"regeneration_passes",
         static_cast<double>(native.stats.regeneration_passes)},
        {"seconds_node_selection", native.stats.seconds_node_selection},
        {"kpt_cache_hit", native.stats.kpt_cache_hit ? 1.0 : 0.0},
    };
    AppendSpillMetrics(native.stats.rr_sets_spilled,
                       native.stats.sets_spill_read, native.stats.spill,
                       &result->metrics);
    AppendBackendMetrics(native.stats.backend, &result->metrics);
    return Status::OK();
  }

 private:
  const Graph& graph_;
  bool use_refinement_;
};

// ------------------------------------------------------------------- IMM --

class ImmInfluenceSolver final : public InfluenceSolver {
 public:
  explicit ImmInfluenceSolver(const Graph& graph) : graph_(graph) {}

  std::string name() const override { return "imm"; }

  bool UsesSolveContext() const override { return true; }

  Status Run(const SolverOptions& options, SolverResult* result) override {
    return RunWithContext(options, SolveContext(), result);
  }

  Status RunWithContext(const SolverOptions& options,
                        const SolveContext& context,
                        SolverResult* result) override {
    ImmOptions imm;
    imm.k = options.k;
    imm.epsilon = options.epsilon;
    imm.ell = options.ell;
    imm.model = options.model;
    imm.custom_model = options.custom_model;
    imm.max_hops = options.max_hops;
    imm.sampler_mode = options.sampler_mode;
    imm.num_threads = options.num_threads;
    imm.pin_threads = options.pin_threads;
    imm.seed = options.seed;
    imm.memory_budget_bytes = options.memory_budget_bytes;
    imm.spill_dir = options.spill_dir;
    imm.sample_backend = options.sample_backend;

    // Budgeted requests run standalone (see TimInfluenceSolver).
    const SolveContext effective =
        options.memory_budget_bytes == 0 ? context : SolveContext();

    ImmResult native;
    TIMPP_RETURN_NOT_OK(RunImm(graph_, imm, effective, &native));

    result->seeds = std::move(native.seeds);
    result->seconds_total = native.stats.seconds_total;
    result->estimated_spread = native.stats.estimated_spread;
    result->metrics = {
        {"theta", static_cast<double>(native.stats.theta)},
        {"lb", native.stats.lb},
        {"rr_sets_sampling",
         static_cast<double>(native.stats.rr_sets_sampling)},
        {"sampling_iterations",
         static_cast<double>(native.stats.sampling_iterations)},
        {"rr_memory_bytes",
         static_cast<double>(native.stats.rr_memory_bytes)},
        {"rr_data_bytes", static_cast<double>(native.stats.rr_data_bytes)},
        {"hit_memory_budget", native.stats.hit_memory_budget ? 1.0 : 0.0},
        {"rr_sets_retained",
         static_cast<double>(native.stats.rr_sets_retained)},
        {"regeneration_passes",
         static_cast<double>(native.stats.regeneration_passes)},
        {"lb_cache_hit", native.stats.lb_cache_hit ? 1.0 : 0.0},
    };
    AppendSpillMetrics(native.stats.rr_sets_spilled,
                       native.stats.sets_spill_read, native.stats.spill,
                       &result->metrics);
    AppendBackendMetrics(native.stats.backend, &result->metrics);
    return Status::OK();
  }

 private:
  const Graph& graph_;
};

// ------------------------------------------------------------------- RIS --

class RisInfluenceSolver final : public InfluenceSolver {
 public:
  explicit RisInfluenceSolver(const Graph& graph) : graph_(graph) {}

  std::string name() const override { return "ris"; }

  bool UsesSolveContext() const override { return true; }

  Status Run(const SolverOptions& options, SolverResult* result) override {
    return RunWithContext(options, SolveContext(), result);
  }

  Status RunWithContext(const SolverOptions& options,
                        const SolveContext& context,
                        SolverResult* result) override {
    RisOptions ris;
    ris.epsilon = options.epsilon;
    ris.ell = options.ell;
    ris.model = options.model;
    ris.custom_model = options.custom_model;
    ris.sampler_mode = options.sampler_mode;
    ris.tau_scale = options.ris_tau_scale;
    ris.max_rr_sets = options.ris_max_sets;
    // The RIS-specific budget knob wins when set; the generic budget
    // otherwise applies to RIS too (as its stop switch).
    ris.memory_budget_bytes = options.ris_memory_budget_bytes != 0
                                  ? options.ris_memory_budget_bytes
                                  : options.memory_budget_bytes;
    ris.num_threads = options.num_threads;
    ris.pin_threads = options.pin_threads;
    ris.seed = options.seed;
    ris.spill_dir = options.spill_dir;
    ris.sample_backend = options.sample_backend;

    // RIS's budget contract is per-request (standalone), and RIS ignores
    // max_hops — a shared stream keyed with a hop bound would diverge
    // from the standalone run, so fall back in both cases.
    const SolveContext effective =
        (ris.memory_budget_bytes == 0 && options.max_hops == 0)
            ? context
            : SolveContext();

    RisStats stats;
    TIMPP_RETURN_NOT_OK(
        RunRis(graph_, ris, options.k, effective, &result->seeds, &stats));

    result->seconds_total = stats.seconds_total;
    result->estimated_spread =
        stats.covered_fraction * static_cast<double>(graph_.num_nodes());
    result->metrics = {
        {"tau", stats.tau},
        {"rr_sets_generated", static_cast<double>(stats.rr_sets_generated)},
        {"cost_examined", static_cast<double>(stats.cost_examined)},
        {"hit_set_cap", stats.hit_set_cap ? 1.0 : 0.0},
        {"hit_memory_budget", stats.hit_memory_budget ? 1.0 : 0.0},
        {"rr_sets_retained", static_cast<double>(stats.rr_sets_retained)},
        {"regeneration_passes",
         static_cast<double>(stats.regeneration_passes)},
    };
    AppendSpillMetrics(stats.rr_sets_spilled, stats.sets_spill_read,
                       stats.spill, &result->metrics);
    AppendBackendMetrics(stats.backend, &result->metrics);
    return Status::OK();
  }

 private:
  const Graph& graph_;
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
