// Parameter machinery of TIM/TIM+: Equation 4's λ, Algorithm 2's iteration
// budgets, Algorithm 3's λ′ and the recommended ε′, and the ℓ adjustments
// that restore the 1 - n^-ℓ success probability after union bounds.
#ifndef TIMPP_CORE_PARAMETERS_H_
#define TIMPP_CORE_PARAMETERS_H_

#include <cstdint>

#include "util/status.h"

namespace timpp {

/// OutOfRange when one collection or coverage pass would need `sets` RR
/// sets, more than kMaxRRSets (util/types.h): past it a 32-bit RRSetId
/// wraps silently. `sets` is a sample size still in floating point (θ =
/// ⌈λ/KPT⁺⌉ and its kin), checked before the integer cast, which can
/// itself overflow. `what` names the size in the message. Solvers call it
/// before they sample, including on lower bounds (θ ≥ λ/n, as KPT⁺ ≤ n),
/// so an impossible run fails at once.
Status CheckSampleSize(double sets, const char* what);

/// Equation 4:
///   λ = (8 + 2ε)·n·(ℓ·ln n + ln C(n,k) + ln 2) / ε².
/// θ must satisfy θ >= λ/OPT (Equation 5) for Lemma 3 to hold.
double ComputeLambda(uint64_t n, int k, double epsilon, double ell);

/// Algorithm 2, line 2:
///   c_i = (6ℓ·ln n + 6·ln(log2 n)) · 2^i.
double ComputeKptIterationBudget(uint64_t n, double ell, int iteration);

/// Number of iterations Algorithm 2 may run: log2(n) - 1 (at least 1).
int KptMaxIterations(uint64_t n);

/// Algorithm 3, line 7:
///   λ′ = (2 + ε′)·ℓ·n·ln n / ε′².
double ComputeLambdaPrime(uint64_t n, double eps_prime, double ell);

/// §4.1's recommended intermediate accuracy:
///   ε′ = 5·cbrt(ℓ·ε² / (k + ℓ)), valid for ε <= 1. TIM+ keeps its
/// asymptotic bounds whenever ε′ >= ε/√k; this choice approximately
/// minimizes the total number of RR sets generated by Algorithms 1 and 3.
double RecommendedEpsPrime(double epsilon, int k, double ell);

/// §3.3: scaling ℓ by 1 + ln 2 / ln n turns TIM's 1 - 2·n^-ℓ success
/// probability into 1 - n^-ℓ.
double AdjustEllForTim(double ell, uint64_t n);

/// §4.1: scaling ℓ by 1 + ln 3 / ln n does the same for TIM+'s 1 - 3·n^-ℓ.
double AdjustEllForTimPlus(double ell, uint64_t n);

/// Lemma 10: Monte-Carlo samples per estimate for Greedy to be
/// (1-1/e-ε)-approximate with probability 1 - n^-ℓ:
///   r >= (8k² + 2kε)·n·((ℓ+1)·ln n + ln k) / (ε²·OPT).
double GreedyRequiredSamples(uint64_t n, int k, double epsilon, double ell,
                             double opt);

}  // namespace timpp

#endif  // TIMPP_CORE_PARAMETERS_H_
