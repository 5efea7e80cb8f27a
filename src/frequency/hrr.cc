#include "frequency/hrr.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/bit_util.h"
#include "common/check.h"
#include "frequency/hadamard.h"
#include "protocol/wire.h"

namespace ldp {

HrrOracle::HrrOracle(uint64_t domain, double eps)
    : FrequencyOracle(domain, eps),
      padded_(NextPowerOfTwo(domain)),
      coefficient_sums_(padded_, 0) {
  LDP_CHECK_GE(domain, 1u);
}

double HrrOracle::KeepProbability() const {
  double e = std::exp(eps_);
  return e / (1.0 + e);
}

double HrrOracle::ReportBits() const {
  return static_cast<double>(Log2Ceil(padded_)) + 1.0;
}

double HrrOracle::EstimatorVariance() const {
  if (reports_ == 0) return std::numeric_limits<double>::infinity();
  return HrrExactVariance(eps_, static_cast<double>(reports_));
}

HrrReport HrrEncode(uint64_t padded_domain, double eps, uint64_t value,
                    int sign, Rng& rng) {
  LDP_CHECK(IsPowerOfTwo(padded_domain));
  LDP_CHECK_LT(value, padded_domain);
  LDP_CHECK(sign == 1 || sign == -1);
  HrrReport report;
  report.coefficient_index = rng.UniformInt(padded_domain);
  int coefficient = sign * HadamardSign(value, report.coefficient_index);
  double e = std::exp(eps);
  if (!rng.Bernoulli(e / (1.0 + e))) {
    coefficient = -coefficient;
  }
  report.sign = static_cast<int8_t>(coefficient);
  return report;
}

void HrrOracle::SubmitValue(uint64_t value, Rng& rng) {
  SubmitSignedValue(value, +1, rng);
}

void HrrOracle::SubmitSignedValue(uint64_t value, int sign, Rng& rng) {
  LDP_CHECK_LT(value, domain_);
  AbsorbReport(HrrEncode(padded_, eps_, value, sign, rng));
}

std::vector<double> HrrOracle::EstimateFractions() const {
  if (reports_ == 0) {
    return std::vector<double>(domain_, 0.0);
  }
  // One allocation: the transform and the scaling run in the vector that
  // is returned, which is then cut from padded_ down to domain_ entries
  // (a shrink, never a reallocation).
  std::vector<double> est(coefficient_sums_.begin(), coefficient_sums_.end());
  // theta_hat[z] = FWHT(O)[z] / (N (2p-1)): the index-sampling factor D and
  // the two 1/sqrt(D) normalizations cancel exactly.
  FastWalshHadamard(est);
  double scale =
      1.0 / (static_cast<double>(reports_) * (2.0 * KeepProbability() - 1.0));
  for (uint64_t z = 0; z < domain_; ++z) {
    est[z] *= scale;
  }
  est.resize(domain_);
  return est;
}

std::unique_ptr<FrequencyOracle> HrrOracle::CloneEmpty() const {
  return std::make_unique<HrrOracle>(domain_, eps_);
}

void HrrOracle::MergeFrom(const FrequencyOracle& other) {
  CheckMergeCompatible(other);
  const auto* o = dynamic_cast<const HrrOracle*>(&other);
  LDP_CHECK_MSG(o != nullptr, "MergeFrom requires an HrrOracle");
  for (uint64_t j = 0; j < padded_; ++j) {
    coefficient_sums_[j] += o->coefficient_sums_[j];
  }
  reports_ += o->reports_;
}

void HrrOracle::MergeFromShard(HrrOracle& other) {
  // A report-free oracle's sums are all zero (RestoreState enforces it
  // for restored ones), so adopting other's sums equals adding them.
  if (reports_ != 0) {
    MergeFrom(other);
    return;
  }
  CheckMergeCompatible(other);
  coefficient_sums_.swap(other.coefficient_sums_);
  std::swap(reports_, other.reports_);
}

// The sums are int64_t; the wire carries their two's complement bit
// patterns, which is what a uint64_t view of the same words reads (the
// aliasing rules allow a signed object to be accessed through its
// unsigned counterpart).
void HrrOracle::AppendState(std::vector<uint8_t>& out) const {
  protocol::AppendVarU64(out, reports_);
  protocol::AppendVarU64(out, padded_);
  protocol::AppendU64Array(
      out, std::span<const uint64_t>(
               reinterpret_cast<const uint64_t*>(coefficient_sums_.data()),
               coefficient_sums_.size()));
}

size_t HrrOracle::StateBytes() const {
  return protocol::VarU64Size(reports_) + protocol::VarU64Size(padded_) +
         8 * coefficient_sums_.size();
}

bool HrrOracle::RestoreState(protocol::WireReader& reader) {
  uint64_t reports = 0;
  uint64_t padded = 0;
  if (!reader.ReadVarU64(&reports) || !reader.ReadVarU64(&padded)) {
    return false;
  }
  // The padded domain is a cross-check against the destination's own
  // configuration (already fixed at construction), never an allocation
  // size — a forged value fails here without touching memory.
  if (padded != padded_) return false;
  if (!reader.ReadU64Array(
          coefficient_sums_.size(),
          reinterpret_cast<uint64_t*>(coefficient_sums_.data()))) {
    return false;
  }
  // No reports, no aggregate: MergeFromShard relies on it.
  if (reports == 0 &&
      std::any_of(coefficient_sums_.begin(), coefficient_sums_.end(),
                  [](int64_t sum) { return sum != 0; })) {
    return false;
  }
  reports_ = reports;
  return true;
}

}  // namespace ldp
