#include "replay.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "core/kpt_estimator.h"
#include "core/kpt_refiner.h"
#include "core/parameters.h"
#include "coverage/greedy_cover.h"
#include "coverage/streaming_cover.h"
#include "engine/sample_source.h"
#include "engine/sampling_engine.h"
#include "rrset/rr_collection.h"
#include "util/math.h"
#include "util/timer.h"

namespace timpp::e2e {

namespace {

struct Range {
  uint64_t first = 0;
  uint64_t count = 0;
};

// One replay in progress: the engine and stream every phase shares, the
// spans, and the ranges SampleInto filled (for the fill regeneration).
class Replayer {
 public:
  Replayer(const WorkloadSpec& spec, const Graph& graph, uint64_t seed,
           unsigned threads, Tracer* tracer)
      : spec_(spec),
        graph_(graph),
        engine_(graph, Config(spec, seed, threads)),
        source_(engine_),
        tracer_(*tracer) {}

  // Appends the next `count` stream sets to `rr` (SamplingEngine::
  // SampleInto through the standalone source, as the solvers call it).
  void Sample(RRCollection* rr, uint64_t count,
              std::vector<uint64_t>* per_set_edges, ReplayResult* out) {
    const uint64_t first = source_.position();
    const SampleBatch batch = tracer_.Span("engine.sample", "engine", [&] {
      return source_.Fetch(rr, count, per_set_edges);
    });
    ranges_.push_back({first, batch.sets_added});
    out->sampled_sets += batch.sets_added;
    out->edges_examined += batch.edges_examined;
  }

  CoverResult IndexAndCover(RRCollection* rr, ReplayResult* out) {
    tracer_.Span("rrset.index", "rrset", [&] { rr->BuildIndex(); });
    out->rr_capacity_bytes = rr->MemoryBytes();
    return tracer_.Span("coverage.greedy", "coverage",
                        [&] { return GreedyMaxCover(*rr, spec_.k); });
  }

  Status TimPlus(const std::string& spill_dir, ReplayResult* out);
  Status Imm(ReplayResult* out);

  void RegenerateFills() {
    const SamplingEngine::SampleVisitor ignore = [](uint64_t,
                                                    std::span<const NodeId>) {};
    for (const Range& r : ranges_) {
      tracer_.Span("engine.fill", "engine", [&] {
        engine_.VisitSamples(r.first, r.count, nullptr, ignore);
      });
    }
  }

  Status status() const { return engine_.status(); }

 private:
  static SamplingConfig Config(const WorkloadSpec& spec, uint64_t seed,
                               unsigned threads) {
    SamplingConfig config;  // the fields TimSolver / RunImm set
    config.model = spec.model;
    config.num_threads = threads;
    config.seed = seed;
    return config;
  }

  const WorkloadSpec& spec_;
  const Graph& graph_;
  SamplingEngine engine_;
  EngineSampleSource source_;
  Tracer& tracer_;
  std::vector<Range> ranges_;
};

// TimSolver::Run followed by SelectNodes (core/tim.cc, core/node_selector.cc).
Status Replayer::TimPlus(const std::string& spill_dir, ReplayResult* out) {
  const uint64_t n = graph_.num_nodes();
  const int k = spec_.k;
  const double ell = AdjustEllForTimPlus(1.0, n);
  const double lambda = ComputeLambda(n, k, spec_.epsilon, ell);
  const double eps_prime = RecommendedEpsPrime(spec_.epsilon, k, ell);

  double kpt_plus = 0.0;
  {
    // Scoped like the solver's: R′ is released before node selection.
    KptEstimate kpt = tracer_.Span("core.kpt", "core", [&] {
      return EstimateKpt(source_, k, ell);
    });
    TIMPP_RETURN_NOT_OK(status());
    const KptRefinement refinement = tracer_.Span("core.refine", "core", [&] {
      return RefineKpt(source_, *kpt.last_iteration_rr, k, kpt.kpt_star,
                       eps_prime, ell);
    });
    TIMPP_RETURN_NOT_OK(status());
    kpt_plus = refinement.kpt_plus;
    out->lb_iterations = kpt.terminated_iteration;
    out->kpt_sets = kpt.rr_sets_generated + refinement.theta_prime;
    out->edges_examined += kpt.edges_examined + refinement.edges_examined;
  }
  const uint64_t theta =
      static_cast<uint64_t>(std::max(1.0, std::ceil(lambda / kpt_plus)));
  out->theta = theta;
  out->lower_bound = kpt_plus;

  const size_t budget = spec_.memory_budget_bytes;
  std::optional<RRSpillStore> spill;
  if (budget != 0) {
    RRSpillOptions options;
    options.dir = spill_dir;
    spill.emplace(graph_.num_nodes(), std::move(options));
  }

  const uint64_t first = source_.position();
  RRCollection rr(graph_.num_nodes());
  rr.set_memory_budget(budget);
  std::vector<uint64_t> rr_edges;
  Sample(&rr, theta, spill ? &rr_edges : nullptr, out);
  if (budget != 0 && rr.DataBytes() > budget) {
    const size_t keep = MaxPrefixUnderDataBudget(rr, budget);
    if (spill && rr.num_sets() > keep) {
      tracer_.Span("spill.write", "spill", [&] {
        return spill->SpillRange(rr, rr_edges, keep, rr.num_sets() - keep,
                                 first + keep);
      });
    }
    rr.TruncateTo(keep);
  }
  if (spill && first + theta > source_.position()) {
    const SpillFillResult fill = tracer_.Span("spill.fill_to", "spill", [&] {
      return SpillFillTo(source_, *spill, first + theta);
    });
    out->edges_examined += fill.batch.edges_examined;
  }
  source_.Seek(first + theta);
  TIMPP_RETURN_NOT_OK(status());

  out->rr_data_bytes = rr.DataBytes();
  CoverResult cover;
  if (budget == 0 ||
      (rr.num_sets() == theta && IndexedDataBytesFitBudget(rr, budget))) {
    cover = IndexAndCover(&rr, out);
  } else {
    out->rr_capacity_bytes = rr.MemoryBytes();
    StreamingCoverResult streamed =
        tracer_.Span("coverage.stream", "coverage", [&] {
          return StreamingGreedyMaxCover(engine_, rr, first, theta, k,
                                         spill ? &*spill : nullptr);
        });
    out->edges_examined += streamed.edges_examined;
    out->regeneration_passes = streamed.regeneration_passes;
    cover = std::move(streamed.cover);
  }
  TIMPP_RETURN_NOT_OK(status());
  if (spill) {
    out->spill = spill->stats();
    out->io_backend = spill->io_backend_name();
  }
  out->seeds = std::move(cover.seeds);
  out->estimated_spread = cover.covered_fraction * static_cast<double>(n);
  return Status::OK();
}

// RunImm's unbudgeted path (core/imm.cc): LB search, then selection. The
// sample-size constants are recomputed with RunImm's expressions, in its
// operation order, so CompareReplay can hold them to ImmStats bitwise.
Status Replayer::Imm(ReplayResult* out) {
  const uint64_t num_nodes = graph_.num_nodes();
  const double n = static_cast<double>(num_nodes);
  const double ln_n = SafeLogN(num_nodes);
  const double log_cnk =
      LogBinomial(num_nodes, static_cast<uint64_t>(spec_.k));
  const double eps = spec_.epsilon;
  const double ell = 1.0 * (1.0 + std::log(2.0) / ln_n);
  const double eps_prime = std::sqrt(2.0) * eps;
  const double log2_n = std::max(2.0, std::log2(n));
  out->lambda_prime = (2.0 + 2.0 * eps_prime / 3.0) *
                      (log_cnk + ell * ln_n + std::log(log2_n)) * n /
                      (eps_prime * eps_prime);
  const double one_minus_inv_e = 1.0 - 1.0 / std::exp(1.0);
  const double alpha = std::sqrt(ell * ln_n + std::log(2.0));
  const double beta =
      std::sqrt(one_minus_inv_e * (log_cnk + ell * ln_n + std::log(2.0)));
  out->lambda_star = 2.0 * n * (one_minus_inv_e * alpha + beta) *
                     (one_minus_inv_e * alpha + beta) / (eps * eps);
  const int max_iterations = std::max(1, static_cast<int>(log2_n) - 1);

  double lb = 1.0;
  {
    RRCollection sampling(graph_.num_nodes());
    tracer_.Span("core.lb_search", "core", [&] {
      for (int i = 1; i <= max_iterations; ++i) {
        const double x_i = n / std::pow(2.0, i);
        const uint64_t theta_i = static_cast<uint64_t>(
            std::max(1.0, std::ceil(out->lambda_prime / x_i)));
        if (sampling.num_sets() < theta_i) {
          sampling.DropIndex();
          Sample(&sampling, theta_i - sampling.num_sets(), nullptr, out);
        }
        source_.Seek(theta_i);
        out->kpt_sets = theta_i;
        const CoverResult cover = IndexAndCover(&sampling, out);
        out->lb_iterations = i;
        if (n * cover.covered_fraction >= (1.0 + eps_prime) * x_i) {
          lb = n * cover.covered_fraction / (1.0 + eps_prime);
          break;
        }
      }
    });
  }
  TIMPP_RETURN_NOT_OK(status());
  out->lower_bound = lb;
  out->theta = static_cast<uint64_t>(
      std::max(1.0, std::ceil(out->lambda_star / lb)));

  RRCollection selection(graph_.num_nodes());
  Sample(&selection, out->theta, nullptr, out);
  TIMPP_RETURN_NOT_OK(status());
  out->rr_data_bytes = selection.DataBytes();
  CoverResult cover = IndexAndCover(&selection, out);
  out->seeds = std::move(cover.seeds);
  out->estimated_spread = n * cover.covered_fraction;
  return Status::OK();
}

}  // namespace

Status ReplaySolve(const WorkloadSpec& spec, const Seeds& seeds,
                   const Graph& graph, unsigned threads,
                   const std::string& spill_dir, bool measure_fill,
                   Tracer* tracer, ReplayResult* out) {
  *out = ReplayResult();
  Replayer replayer(spec, graph, seeds.solver, threads, tracer);
  Timer timer;
  TIMPP_RETURN_NOT_OK(spec.algo == "imm" ? replayer.Imm(out)
                                         : replayer.TimPlus(spill_dir, out));
  out->total_s = timer.ElapsedSeconds();
  if (measure_fill) replayer.RegenerateFills();
  return replayer.status();
}

std::string CompareReplay(const WorkloadSpec& spec, const SolveOutcome& solver,
                          const ReplayResult& replay) {
  if (replay.seeds != solver.seeds) return "seeds differ";
  if (replay.theta != solver.theta) return "theta differs";
  if (replay.kpt_sets != solver.kpt_sets) return "pre-selection set counts differ";
  // Bitwise: the replay recomputes the same doubles in the same order.
  if (replay.lower_bound != solver.lower_bound) {
    return spec.algo == "imm" ? "LB differs" : "KPT+ differs";
  }
  if (replay.estimated_spread != solver.estimated_spread) {
    return "n*F_R(S) differs";
  }
  if (spec.algo == "imm") {
    if (replay.lb_iterations != solver.lb_iterations) {
      return "LB iterations differ";
    }
    if (replay.lambda_prime != solver.lambda_prime ||
        replay.lambda_star != solver.lambda_star) {
      return "IMM sample-size constants differ";
    }
  } else if (replay.edges_examined != solver.edges_examined) {
    return "edges examined differ";
  }
  if (replay.regeneration_passes != solver.regeneration_passes) {
    return "regeneration passes differ";
  }
  return "";
}

}  // namespace timpp::e2e
