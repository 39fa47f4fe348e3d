#include "core/parameters.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "util/math.h"
#include "util/types.h"

namespace timpp {

Status CheckSampleSize(double sets, const char* what) {
  if (sets <= static_cast<double>(kMaxRRSets)) return Status::OK();
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "%s needs %.4g RR sets, past the %llu that 32-bit set ids "
                "can index; raise epsilon",
                what, sets, static_cast<unsigned long long>(kMaxRRSets));
  return Status::OutOfRange(buffer);
}

double ComputeLambda(uint64_t n, int k, double epsilon, double ell) {
  const double ln_n = SafeLogN(n);
  const double log_cnk = LogBinomial(n, static_cast<uint64_t>(k));
  return (8.0 + 2.0 * epsilon) * static_cast<double>(n) *
         (ell * ln_n + log_cnk + std::log(2.0)) / (epsilon * epsilon);
}

double ComputeKptIterationBudget(uint64_t n, double ell, int iteration) {
  const double ln_n = SafeLogN(n);
  const double log2_n = std::max(2.0, std::log2(static_cast<double>(n)));
  return (6.0 * ell * ln_n + 6.0 * std::log(log2_n)) *
         std::pow(2.0, iteration);
}

int KptMaxIterations(uint64_t n) {
  return std::max(1, FloorLog2(std::max<uint64_t>(n, 2)) - 1);
}

double ComputeLambdaPrime(uint64_t n, double eps_prime, double ell) {
  return (2.0 + eps_prime) * ell * static_cast<double>(n) * SafeLogN(n) /
         (eps_prime * eps_prime);
}

double RecommendedEpsPrime(double epsilon, int k, double ell) {
  return 5.0 * std::cbrt(ell * epsilon * epsilon /
                         (static_cast<double>(k) + ell));
}

double AdjustEllForTim(double ell, uint64_t n) {
  return ell * (1.0 + std::log(2.0) / SafeLogN(n));
}

double AdjustEllForTimPlus(double ell, uint64_t n) {
  return ell * (1.0 + std::log(3.0) / SafeLogN(n));
}

double GreedyRequiredSamples(uint64_t n, int k, double epsilon, double ell,
                             double opt) {
  const double kd = static_cast<double>(k);
  return (8.0 * kd * kd + 2.0 * kd * epsilon) * static_cast<double>(n) *
         ((ell + 1.0) * SafeLogN(n) + std::log(kd)) /
         (epsilon * epsilon * opt);
}

}  // namespace timpp
