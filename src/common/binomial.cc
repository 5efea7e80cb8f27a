#include "common/binomial.h"

#include <math.h>

#include <cmath>

#include "common/check.h"

namespace ldp {

namespace internal {

namespace {

// Tail of the Stirling series for log(k!); from Hörmann (1993), as used by
// the TensorFlow implementation of BTRS.
double StirlingApproxTail(double k) {
  static const double kTailValues[] = {
      0.0810614667953272,  0.0413406959554092,  0.0276779256849983,
      0.02079067210376509, 0.0166446911898211,  0.0138761288230707,
      0.0118967099458917,  0.0104112652619720,  0.00925546218271273,
      0.00833056343336287};
  if (k <= 9) {
    return kTailValues[static_cast<int>(k)];
  }
  double kp1sq = (k + 1) * (k + 1);
  return (1.0 / 12 - (1.0 / 360 - 1.0 / 1260 / kp1sq) / kp1sq) / (k + 1);
}

}  // namespace

int64_t BinomialInversion(int64_t n, double p, Rng& rng) {
  LDP_DCHECK(p > 0.0 && p <= 0.5);
  // "Second waiting time" method: add geometric gaps until the trial budget
  // is exhausted. Expected number of loop iterations is n*p + 1.
  const double logq = std::log1p(-p);
  int64_t count = -1;
  double trials_used = 0.0;
  while (true) {
    double u = 0.0;
    do {
      u = rng.UniformDouble();
    } while (u <= 0.0);
    trials_used += std::floor(std::log(u) / logq) + 1.0;
    ++count;
    if (trials_used > static_cast<double>(n)) {
      return count;
    }
  }
}

int64_t BinomialBtrs(int64_t n, double p, Rng& rng) {
  LDP_DCHECK(p > 0.0 && p <= 0.5);
  const double nd = static_cast<double>(n);
  const double r = p / (1 - p);
  const double npq = nd * p * (1 - p);
  const double sqrt_npq = std::sqrt(npq);
  const double b = 1.15 + 2.53 * sqrt_npq;
  const double a = -0.0873 + 0.0248 * b + 0.01 * p;
  const double c = nd * p + 0.5;
  const double v_r = 0.92 - 4.2 / b;
  const double alpha = (2.83 + 5.1 / b) * sqrt_npq;
  const double m = std::floor((nd + 1) * p);

  while (true) {
    double u = rng.UniformDouble() - 0.5;
    double v = rng.UniformDouble();
    double us = 0.5 - std::abs(u);
    double kd = std::floor((2 * a / us + b) * u + c);
    if (kd < 0 || kd > nd) {
      continue;  // target density is zero outside [0, n]
    }
    if (us >= 0.07 && v <= v_r) {
      return static_cast<int64_t>(kd);
    }
    // Slow path: full acceptance test in log space.
    v = std::log(v * alpha / (a / (us * us) + b));
    double upper =
        (m + 0.5) * std::log((m + 1) / (r * (nd - m + 1))) +
        (nd + 1) * std::log((nd - m + 1) / (nd - kd + 1)) +
        (kd + 0.5) * std::log(r * (nd - kd + 1) / (kd + 1)) +
        StirlingApproxTail(m) + StirlingApproxTail(nd - m) -
        StirlingApproxTail(kd) - StirlingApproxTail(nd - kd);
    if (v <= upper) {
      return static_cast<int64_t>(kd);
    }
  }
}

}  // namespace internal

int64_t SampleBinomial(int64_t n, double p, Rng& rng) {
  LDP_CHECK_GE(n, 0);
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  if (p > 0.5) return n - SampleBinomial(n, 1.0 - p, rng);
  if (static_cast<double>(n) * p < 10.0) {
    return internal::BinomialInversion(n, p, rng);
  }
  return internal::BinomialBtrs(n, p, rng);
}

BinomialSampler::BinomialSampler(int64_t n, double p) : n_(n), p_(p) {
  LDP_CHECK_GE(n, 0);
  if (n == 0 || p <= 0.0) {
    method_ = Method::kDegenerate;
    degenerate_ = 0;
    return;
  }
  if (p >= 1.0) {
    method_ = Method::kDegenerate;
    degenerate_ = n;
    return;
  }
  if (p > 0.5) {
    mirrored_ = true;
    p_ = 1.0 - p;
  }
  if (n <= kAliasMaxN) {
    method_ = Method::kAlias;
    BuildAlias();
    return;
  }
  const double nd = static_cast<double>(n_);
  if (nd * p_ < 10.0) {
    method_ = Method::kInversion;
    logq_ = std::log1p(-p_);
    return;
  }
  method_ = Method::kBtrs;
  const double npq = nd * p_ * (1 - p_);
  const double sqrt_npq = std::sqrt(npq);
  btrs_r_ = p_ / (1 - p_);
  btrs_b_ = 1.15 + 2.53 * sqrt_npq;
  btrs_a_ = -0.0873 + 0.0248 * btrs_b_ + 0.01 * p_;
  btrs_c_ = nd * p_ + 0.5;
  btrs_vr_ = 0.92 - 4.2 / btrs_b_;
  btrs_alpha_ = (2.83 + 5.1 / btrs_b_) * sqrt_npq;
  btrs_m_ = std::floor((nd + 1) * p_);
}

namespace {

// log|Gamma(x)|, bit-identical to std::lgamma, through the reentrant
// lgamma_r: samplers are built on ParallelFor threads, and std::lgamma
// writes the process-global signgam. The sign is not needed.
double LogGamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

}  // namespace

void BinomialSampler::BuildAlias() {
  const uint64_t k = static_cast<uint64_t>(n_) + 1;
  std::vector<double> pmf(k, 0.0);
  // Anchor at the mode via lgamma, then sweep outward with the one-term
  // pmf recurrence; entries that underflow double stay zero (their total
  // mass is far below the 2^-53 resolution of the acceptance draw).
  const double nd = static_cast<double>(n_);
  int64_t mode = static_cast<int64_t>(std::floor((nd + 1) * p_));
  if (mode > n_) mode = n_;
  const double log_mode_pmf =
      LogGamma(nd + 1) - LogGamma(static_cast<double>(mode) + 1) -
      LogGamma(nd - static_cast<double>(mode) + 1) +
      static_cast<double>(mode) * std::log(p_) +
      (nd - static_cast<double>(mode)) * std::log1p(-p_);
  pmf[static_cast<uint64_t>(mode)] = std::exp(log_mode_pmf);
  const double odds = p_ / (1 - p_);
  for (int64_t i = mode; i < n_; ++i) {
    double next = pmf[static_cast<uint64_t>(i)] * odds * (nd - i) /
                  (static_cast<double>(i) + 1);
    pmf[static_cast<uint64_t>(i) + 1] = next;
    if (next == 0.0) break;
  }
  for (int64_t i = mode; i > 0; --i) {
    double prev = pmf[static_cast<uint64_t>(i)] * static_cast<double>(i) /
                  (odds * (nd - i + 1));
    pmf[static_cast<uint64_t>(i) - 1] = prev;
    if (prev == 0.0) break;
  }
  double total = 0.0;
  for (double v : pmf) total += v;
  LDP_CHECK(total > 0.0);
  // Vose's alias construction: every column i keeps probability accept_[i]
  // of returning i, else returns alias_[i].
  accept_.assign(k, 1.0);
  alias_.resize(k);
  std::vector<double> scaled(k);
  for (uint64_t i = 0; i < k; ++i) {
    alias_[i] = static_cast<uint32_t>(i);
    scaled[i] = pmf[i] * static_cast<double>(k) / total;
  }
  std::vector<uint32_t> small;
  std::vector<uint32_t> large;
  for (uint64_t i = 0; i < k; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    uint32_t s = small.back();
    small.pop_back();
    uint32_t l = large.back();
    large.pop_back();
    accept_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] -= 1.0 - scaled[s];
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  // Leftovers are 1.0-columns up to rounding.
  for (uint32_t s : small) accept_[s] = 1.0;
  for (uint32_t l : large) accept_[l] = 1.0;
}

int64_t BinomialSampler::SampleInversion(Rng& rng) const {
  int64_t count = -1;
  double trials_used = 0.0;
  while (true) {
    double u = 0.0;
    do {
      u = rng.UniformDouble();
    } while (u <= 0.0);
    trials_used += std::floor(std::log(u) / logq_) + 1.0;
    ++count;
    if (trials_used > static_cast<double>(n_)) {
      return count;
    }
  }
}

int64_t BinomialSampler::SampleBtrs(Rng& rng) const {
  const double nd = static_cast<double>(n_);
  while (true) {
    double u = rng.UniformDouble() - 0.5;
    double v = rng.UniformDouble();
    double us = 0.5 - std::abs(u);
    double kd = std::floor((2 * btrs_a_ / us + btrs_b_) * u + btrs_c_);
    if (kd < 0 || kd > nd) {
      continue;
    }
    if (us >= 0.07 && v <= btrs_vr_) {
      return static_cast<int64_t>(kd);
    }
    v = std::log(v * btrs_alpha_ / (btrs_a_ / (us * us) + btrs_b_));
    double upper =
        (btrs_m_ + 0.5) * std::log((btrs_m_ + 1) / (btrs_r_ * (nd - btrs_m_ + 1))) +
        (nd + 1) * std::log((nd - btrs_m_ + 1) / (nd - kd + 1)) +
        (kd + 0.5) * std::log(btrs_r_ * (nd - kd + 1) / (kd + 1)) +
        internal::StirlingApproxTail(btrs_m_) +
        internal::StirlingApproxTail(nd - btrs_m_) -
        internal::StirlingApproxTail(kd) -
        internal::StirlingApproxTail(nd - kd);
    if (v <= upper) {
      return static_cast<int64_t>(kd);
    }
  }
}

int64_t BinomialSampler::Sample(Rng& rng) const {
  int64_t x;
  switch (method_) {
    case Method::kDegenerate:
      return degenerate_;
    case Method::kAlias: {
      // One 64-bit draw serves both alias decisions: the high half of
      // u * (n+1) picks the column (Lemire multiply without the rejection
      // step) and the low half — u's position inside the column's preimage
      // slice — is the accept fraction. Each introduces bias at most
      // (n+1) / 2^64 < 2^-40 for any table size we build (n <= 2^20), far
      // below the double-precision pmf rounding the table itself carries.
      // One Next() instead of two matters: the generator's state update is
      // a serial dependency chain, and at grid scale (millions of
      // empty-cell draws per Finalize) halving it halves the sampler.
      const __uint128_t m =
          static_cast<__uint128_t>(rng.Next()) * (static_cast<uint64_t>(n_) + 1);
      const uint64_t column = static_cast<uint64_t>(m >> 64);
      const double frac = static_cast<double>(
                              static_cast<int64_t>(static_cast<uint64_t>(m) >> 11)) *
                          0x1.0p-53;
      x = (frac < accept_[column]) ? static_cast<int64_t>(column)
                                   : static_cast<int64_t>(alias_[column]);
      break;
    }
    case Method::kInversion:
      x = SampleInversion(rng);
      break;
    default:
      x = SampleBtrs(rng);
      break;
  }
  return mirrored_ ? n_ - x : x;
}

}  // namespace ldp
