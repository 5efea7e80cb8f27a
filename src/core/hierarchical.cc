#include "core/hierarchical.h"

#include <cmath>

#include "common/bit_util.h"
#include "common/check.h"
#include "core/consistency.h"

namespace ldp {

HierarchicalEstimate::HierarchicalEstimate(
    const TreeShape& shape, std::span<const FrequencyOracle* const> levels,
    bool consistency)
    : shape_(shape), estimates_(shape.height() + 1) {
  const uint32_t h = shape_.height();
  LDP_CHECK_EQ(levels.size(), static_cast<size_t>(h));
  const double ci_factor =
      consistency ? static_cast<double>(shape_.fanout()) /
                        (shape_.fanout() + 1.0)
                  : 1.0;
  estimates_[0] = {1.0};  // the root fraction is known exactly
  node_variance_.assign(h + 1, 0.0);
  for (uint32_t l = 1; l <= h; ++l) {
    estimates_[l] = levels[l - 1]->EstimateFractions();
    node_variance_[l] = ci_factor * levels[l - 1]->EstimatorVariance();
  }
  if (consistency) {
    EnforceHierarchicalConsistency(estimates_, shape_.fanout());
  }
}

RangeEstimate HierarchicalEstimate::RangeQueryWithUncertainty(
    uint64_t a, uint64_t b) const {
  LDP_CHECK_LE(a, b);
  LDP_CHECK_LT(b, shape_.domain());
  double total = 0.0;
  double variance = 0.0;
  for (const TreeNode& node : shape_.Decompose(a, b)) {
    total += estimates_[node.level][node.index];
    variance += node_variance_[node.level];
  }
  return RangeEstimate{total, std::sqrt(variance)};
}

double HierarchicalEstimate::NodeEstimate(const TreeNode& node) const {
  LDP_CHECK_LE(node.level, shape_.height());
  LDP_CHECK_LT(node.index, shape_.NodesAtLevel(node.level));
  return estimates_[node.level][node.index];
}

std::vector<double> HierarchicalEstimate::EstimateFrequencies() const {
  const std::vector<double>& leaves = estimates_[shape_.height()];
  return std::vector<double>(leaves.begin(),
                             leaves.begin() + shape_.domain());
}

HierarchicalMechanism::HierarchicalMechanism(uint64_t domain, double eps,
                                             const HierarchicalConfig& config)
    : RangeMechanism(domain, eps),
      config_(config),
      shape_(domain, config.fanout) {
  const uint32_t h = shape_.height();
  // Under splitting every level sees every user, each at eps/h (sequential
  // composition); under sampling each level's reporters spend full eps.
  double level_eps =
      config_.budget == BudgetStrategy::kSplitting
          ? eps / static_cast<double>(h)
          : eps;
  level_oracles_.reserve(h);
  for (uint32_t l = 1; l <= h; ++l) {
    level_oracles_.push_back(
        MakeOracle(config_.oracle, shape_.NodesAtLevel(l), level_eps));
  }
  if (config_.level_weights.empty()) {
    sampling_weights_.assign(h, 1.0);  // uniform (Lemma 4.4 optimum)
  } else {
    LDP_CHECK_EQ(config_.level_weights.size(), static_cast<size_t>(h));
    sampling_weights_ = config_.level_weights;
  }
}

std::string HierarchicalMechanism::Name() const {
  std::string name = "HH";
  if (config_.consistency) name += "c";
  name += std::to_string(config_.fanout);
  name += "-";
  name += OracleKindName(config_.oracle);
  if (config_.budget == BudgetStrategy::kSplitting) name += "-split";
  return name;
}

double HierarchicalMechanism::ReportBits() const {
  // A user reports their sampled level id plus one oracle report for that
  // level; average the oracle sizes over the level distribution.
  double total_w = 0.0;
  double bits = 0.0;
  for (size_t i = 0; i < sampling_weights_.size(); ++i) {
    total_w += sampling_weights_[i];
    bits += sampling_weights_[i] * level_oracles_[i]->ReportBits();
  }
  double level_id_bits =
      static_cast<double>(Log2Ceil(shape_.height()));
  return level_id_bits + bits / total_w;
}

void HierarchicalMechanism::EncodeUser(uint64_t value, Rng& rng) {
  LDP_CHECK_LT(value, domain_);
  LDP_CHECK_MSG(!finalized_, "EncodeUser after Finalize");
  if (config_.budget == BudgetStrategy::kSplitting) {
    for (uint32_t level = 1; level <= shape_.height(); ++level) {
      level_oracles_[level - 1]->SubmitValue(
          shape_.NodeContaining(level, value), rng);
    }
  } else {
    size_t pick = rng.Discrete(sampling_weights_);
    uint32_t level = static_cast<uint32_t>(pick) + 1;
    level_oracles_[pick]->SubmitValue(shape_.NodeContaining(level, value),
                                      rng);
  }
  ++users_;
}

void HierarchicalMechanism::EncodeUsers(std::span<const uint64_t> values,
                                        Rng& rng) {
  LDP_CHECK_MSG(!finalized_, "EncodeUsers after Finalize");
  // Same draw order as the EncodeUser loop (level pick, then submit), with
  // the per-user finalized/range checks hoisted out of the hot loop.
  if (config_.budget == BudgetStrategy::kSplitting) {
    for (uint64_t value : values) {
      LDP_CHECK_LT(value, domain_);
      for (uint32_t level = 1; level <= shape_.height(); ++level) {
        level_oracles_[level - 1]->SubmitValue(
            shape_.NodeContaining(level, value), rng);
      }
    }
  } else {
    for (uint64_t value : values) {
      LDP_CHECK_LT(value, domain_);
      size_t pick = rng.Discrete(sampling_weights_);
      uint32_t level = static_cast<uint32_t>(pick) + 1;
      level_oracles_[pick]->SubmitValue(shape_.NodeContaining(level, value),
                                        rng);
    }
  }
  users_ += values.size();
}

std::unique_ptr<RangeMechanism> HierarchicalMechanism::CloneEmpty() const {
  return std::make_unique<HierarchicalMechanism>(domain_, eps_, config_);
}

void HierarchicalMechanism::MergeFrom(const RangeMechanism& other) {
  const auto* o = dynamic_cast<const HierarchicalMechanism*>(&other);
  LDP_CHECK_MSG(o != nullptr, "MergeFrom requires a HierarchicalMechanism");
  LDP_CHECK_MSG(!finalized_ && !o->finalized_,
                "cannot merge finalized mechanisms");
  // The domain check matters: same-fanout trees over different domains can
  // share their top levels (identical per-level oracle domains) and would
  // otherwise merge partially or read out of bounds.
  LDP_CHECK(o->domain_ == domain_);
  LDP_CHECK(o->config_.fanout == config_.fanout);
  LDP_CHECK(o->config_.budget == config_.budget);
  for (size_t l = 0; l < level_oracles_.size(); ++l) {
    level_oracles_[l]->MergeFrom(*o->level_oracles_[l]);
  }
  users_ += o->users_;
}

void HierarchicalMechanism::Finalize(Rng& rng) {
  LDP_CHECK_MSG(!finalized_, "Finalize called twice");
  std::vector<const FrequencyOracle*> levels;
  levels.reserve(level_oracles_.size());
  for (const auto& oracle : level_oracles_) {
    oracle->Finalize(rng);
    levels.push_back(oracle.get());
  }
  estimate_.emplace(shape_, levels, config_.consistency);
  finalized_ = true;
}

double HierarchicalMechanism::NodeEstimate(const TreeNode& node) const {
  LDP_CHECK_MSG(finalized_, "NodeEstimate before Finalize");
  return estimate_->NodeEstimate(node);
}

uint64_t HierarchicalMechanism::LevelReportCount(uint32_t level) const {
  LDP_CHECK_GE(level, 1u);
  LDP_CHECK_LE(level, shape_.height());
  return level_oracles_[level - 1]->report_count();
}

double HierarchicalMechanism::RangeQuery(uint64_t a, uint64_t b) const {
  LDP_CHECK_MSG(finalized_, "RangeQuery before Finalize");
  return estimate_->RangeQuery(a, b);
}

RangeEstimate HierarchicalMechanism::RangeQueryWithUncertainty(
    uint64_t a, uint64_t b) const {
  LDP_CHECK_MSG(finalized_, "RangeQuery before Finalize");
  return estimate_->RangeQueryWithUncertainty(a, b);
}

std::vector<double> HierarchicalMechanism::EstimateFrequencies() const {
  LDP_CHECK_MSG(finalized_, "EstimateFrequencies before Finalize");
  return estimate_->EstimateFrequencies();
}

}  // namespace ldp
