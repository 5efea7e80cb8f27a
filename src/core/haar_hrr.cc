#include "core/haar_hrr.h"

#include <cmath>

#include "common/bit_util.h"
#include "common/check.h"

namespace ldp {

HaarHrrEstimate::HaarHrrEstimate(
    uint64_t domain, std::span<const FrequencyOracle* const> levels)
    : domain_(domain),
      padded_(uint64_t{1} << levels.size()),
      coefficient_variance_(levels.size()) {
  const uint32_t height = static_cast<uint32_t>(levels.size());
  coefficients_.height = height;
  // c0 is the scaled total mass — exactly 1/sqrt(D) for fractions, no
  // perturbation required (paper: "hardcoded ... since it does not require
  // perturbation").
  coefficients_.average = 1.0 / std::sqrt(static_cast<double>(padded_));
  coefficients_.detail.resize(height);
  for (uint32_t l = 1; l <= height; ++l) {
    // The oracle estimates the signed fraction vector g with
    // g[k] = S_L - S_R for block k; the orthonormal coefficient adds the
    // 2^{-l/2} scale.
    std::vector<double> g = levels[l - 1]->EstimateFractions();
    double scale = std::exp2(-0.5 * static_cast<double>(l));
    for (double& v : g) {
      v *= scale;
    }
    coefficients_.detail[l - 1] = std::move(g);
    coefficient_variance_[l - 1] = std::exp2(-static_cast<double>(l)) *
                                   levels[l - 1]->EstimatorVariance();
  }
}

RangeEstimate HaarHrrEstimate::RangeQueryWithUncertainty(uint64_t a,
                                                         uint64_t b) const {
  LDP_CHECK_LE(a, b);
  LDP_CHECK_LT(b, domain_);
  double r = static_cast<double>(b - a + 1);
  double total = r * coefficients_.average /
                 std::sqrt(static_cast<double>(padded_));
  double variance = 0.0;
  for (uint32_t l = 1; l <= coefficients_.height; ++l) {
    const std::vector<double>& detail = coefficients_.detail[l - 1];
    const double coeff_var = coefficient_variance_[l - 1];
    uint64_t ka = a >> l;
    uint64_t kb = b >> l;
    double wa = HaarRangeWeight(l, ka, a, b);
    total += wa * detail[ka];
    if (wa != 0.0) variance += wa * wa * coeff_var;
    if (kb != ka) {
      double wb = HaarRangeWeight(l, kb, a, b);
      total += wb * detail[kb];
      if (wb != 0.0) variance += wb * wb * coeff_var;
    }
  }
  return RangeEstimate{total, std::sqrt(variance)};
}

std::vector<double> HaarHrrEstimate::EstimateFrequencies() const {
  std::vector<double> leaves = HaarInverse(coefficients_);
  leaves.resize(domain_);
  return leaves;
}

HaarHrrMechanism::HaarHrrMechanism(uint64_t domain, double eps)
    : RangeMechanism(domain, eps),
      padded_(NextPowerOfTwo(domain)),
      height_(Log2Floor(padded_)) {
  LDP_CHECK_GE(height_, 1u);
  level_oracles_.reserve(height_);
  for (uint32_t l = 1; l <= height_; ++l) {
    level_oracles_.push_back(
        std::make_unique<HrrOracle>(padded_ >> l, eps));
  }
}

double HaarHrrMechanism::ReportBits() const {
  double level_id_bits = static_cast<double>(Log2Ceil(height_));
  double bits = 0.0;
  for (const auto& oracle : level_oracles_) {
    bits += oracle->ReportBits();
  }
  return level_id_bits + bits / static_cast<double>(height_);
}

void HaarHrrMechanism::EncodeUser(uint64_t value, Rng& rng) {
  LDP_CHECK_LT(value, domain_);
  LDP_CHECK_MSG(!finalized_, "EncodeUser after Finalize");
  uint32_t level = 1 + static_cast<uint32_t>(rng.UniformInt(height_));
  HaarUserCoefficient view = HaarUserView(value, level);
  level_oracles_[level - 1]->SubmitSignedValue(view.block, view.sign, rng);
  ++users_;
}

void HaarHrrMechanism::EncodeUsers(std::span<const uint64_t> values,
                                   Rng& rng) {
  LDP_CHECK_MSG(!finalized_, "EncodeUsers after Finalize");
  // Same draw order as the EncodeUser loop (level pick, then submit).
  for (uint64_t value : values) {
    LDP_CHECK_LT(value, domain_);
    uint32_t level = 1 + static_cast<uint32_t>(rng.UniformInt(height_));
    HaarUserCoefficient view = HaarUserView(value, level);
    level_oracles_[level - 1]->SubmitSignedValue(view.block, view.sign, rng);
  }
  users_ += values.size();
}

std::unique_ptr<RangeMechanism> HaarHrrMechanism::CloneEmpty() const {
  return std::make_unique<HaarHrrMechanism>(domain_, eps_);
}

void HaarHrrMechanism::MergeFrom(const RangeMechanism& other) {
  const auto* o = dynamic_cast<const HaarHrrMechanism*>(&other);
  LDP_CHECK_MSG(o != nullptr, "MergeFrom requires a HaarHrrMechanism");
  LDP_CHECK_MSG(!finalized_ && !o->finalized_,
                "cannot merge finalized mechanisms");
  // Distinct domains can share a padded size (and thus identical level
  // oracles); reject instead of merging mismatched populations.
  LDP_CHECK(o->domain_ == domain_);
  for (size_t l = 0; l < level_oracles_.size(); ++l) {
    level_oracles_[l]->MergeFrom(*o->level_oracles_[l]);
  }
  users_ += o->users_;
}

void HaarHrrMechanism::Finalize(Rng& rng) {
  LDP_CHECK_MSG(!finalized_, "Finalize called twice");
  std::vector<const FrequencyOracle*> levels;
  levels.reserve(level_oracles_.size());
  for (const auto& oracle : level_oracles_) {
    oracle->Finalize(rng);
    levels.push_back(oracle.get());
  }
  estimate_.emplace(domain_, levels);
  finalized_ = true;
}

double HaarHrrMechanism::RangeQuery(uint64_t a, uint64_t b) const {
  LDP_CHECK_MSG(finalized_, "RangeQuery before Finalize");
  return estimate_->RangeQuery(a, b);
}

RangeEstimate HaarHrrMechanism::RangeQueryWithUncertainty(
    uint64_t a, uint64_t b) const {
  LDP_CHECK_MSG(finalized_, "RangeQuery before Finalize");
  return estimate_->RangeQueryWithUncertainty(a, b);
}

std::vector<double> HaarHrrMechanism::EstimateFrequencies() const {
  LDP_CHECK_MSG(finalized_, "EstimateFrequencies before Finalize");
  return estimate_->EstimateFrequencies();
}

const HaarCoefficients& HaarHrrMechanism::coefficients() const {
  LDP_CHECK_MSG(finalized_, "coefficients before Finalize");
  return estimate_->coefficients();
}

}  // namespace ldp
