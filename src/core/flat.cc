#include "core/flat.h"

#include <cmath>

#include "common/check.h"

namespace ldp {

FlatEstimate::FlatEstimate(const FrequencyOracle& oracle)
    : frequencies_(oracle.EstimateFractions()),
      prefix_(frequencies_.size() + 1, 0.0),
      item_variance_(oracle.EstimatorVariance()) {
  for (size_t i = 0; i < frequencies_.size(); ++i) {
    prefix_[i + 1] = prefix_[i] + frequencies_[i];
  }
}

double FlatEstimate::RangeQuery(uint64_t a, uint64_t b) const {
  LDP_CHECK_LE(a, b);
  LDP_CHECK_LT(b, frequencies_.size());
  return prefix_[b + 1] - prefix_[a];
}

RangeEstimate FlatEstimate::RangeQueryWithUncertainty(uint64_t a,
                                                      uint64_t b) const {
  double r = static_cast<double>(b - a + 1);
  return RangeEstimate{RangeQuery(a, b), std::sqrt(r * item_variance_)};
}

FlatMechanism::FlatMechanism(uint64_t domain, double eps, OracleKind oracle)
    : RangeMechanism(domain, eps),
      oracle_kind_(oracle),
      oracle_(MakeOracle(oracle, domain, eps)) {}

uint64_t FlatMechanism::user_count() const { return oracle_->report_count(); }

std::string FlatMechanism::Name() const {
  std::string name = "Flat-";
  name += OracleKindName(oracle_kind_);
  return name;
}

double FlatMechanism::ReportBits() const { return oracle_->ReportBits(); }

void FlatMechanism::EncodeUser(uint64_t value, Rng& rng) {
  LDP_CHECK_LT(value, domain_);
  LDP_CHECK_MSG(!finalized_, "EncodeUser after Finalize");
  oracle_->SubmitValue(value, rng);
}

void FlatMechanism::EncodeUsers(std::span<const uint64_t> values, Rng& rng) {
  LDP_CHECK_MSG(!finalized_, "EncodeUsers after Finalize");
  for (uint64_t value : values) {
    LDP_CHECK_LT(value, domain_);
  }
  oracle_->SubmitBatch(values, rng);
}

std::unique_ptr<RangeMechanism> FlatMechanism::CloneEmpty() const {
  return std::make_unique<FlatMechanism>(domain_, eps_, oracle_kind_);
}

void FlatMechanism::MergeFrom(const RangeMechanism& other) {
  const auto* o = dynamic_cast<const FlatMechanism*>(&other);
  LDP_CHECK_MSG(o != nullptr, "MergeFrom requires a FlatMechanism");
  LDP_CHECK_MSG(!finalized_ && !o->finalized_,
                "cannot merge finalized mechanisms");
  oracle_->MergeFrom(*o->oracle_);
}

void FlatMechanism::Finalize(Rng& rng) {
  LDP_CHECK_MSG(!finalized_, "Finalize called twice");
  oracle_->Finalize(rng);
  estimate_.emplace(*oracle_);
  finalized_ = true;
}

double FlatMechanism::RangeQuery(uint64_t a, uint64_t b) const {
  LDP_CHECK_MSG(finalized_, "RangeQuery before Finalize");
  return estimate_->RangeQuery(a, b);
}

RangeEstimate FlatMechanism::RangeQueryWithUncertainty(uint64_t a,
                                                       uint64_t b) const {
  LDP_CHECK_MSG(finalized_, "RangeQuery before Finalize");
  return estimate_->RangeQueryWithUncertainty(a, b);
}

std::vector<double> FlatMechanism::EstimateFrequencies() const {
  LDP_CHECK_MSG(finalized_, "EstimateFrequencies before Finalize");
  return estimate_->frequencies();
}

}  // namespace ldp
