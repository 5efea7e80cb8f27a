// Flat range-query mechanism (paper Section 4.2).
//
// The baseline: run one frequency oracle over the whole domain and answer a
// range by summing the per-item estimates. Variance grows linearly with the
// range length (Fact 1: Var = r * V_F), which is what the hierarchical and
// wavelet methods improve on. Kept both as the paper's baseline and because
// it is the most accurate choice for point queries and very short ranges.

#ifndef LDPRANGE_CORE_FLAT_H_
#define LDPRANGE_CORE_FLAT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/range_mechanism.h"
#include "frequency/frequency_oracle.h"

namespace ldp {

/// The finalized half of the flat method: per-item estimates, their prefix
/// sums (O(1) ranges) and the per-item variance. FlatMechanism and the wire
/// server (protocol/flat_protocol.h) both answer through it.
class FlatEstimate {
 public:
  /// Debiases a Finalize()d oracle, with its variance at the reports it
  /// holds (+inf when it holds none).
  explicit FlatEstimate(const FrequencyOracle& oracle);

  /// Estimated fraction of users in [a, b]; requires a <= b < domain.
  double RangeQuery(uint64_t a, uint64_t b) const;

  /// Fact 1: a length-r range has variance r * (per-item variance).
  RangeEstimate RangeQueryWithUncertainty(uint64_t a, uint64_t b) const;

  const std::vector<double>& frequencies() const { return frequencies_; }

 private:
  std::vector<double> frequencies_;
  // prefix_[i] = sum of frequencies_[0..i-1].
  std::vector<double> prefix_;
  double item_variance_;
};

/// Flat mechanism over any frequency oracle.
class FlatMechanism final : public RangeMechanism {
 public:
  FlatMechanism(uint64_t domain, double eps, OracleKind oracle);

  uint64_t user_count() const override;
  std::string Name() const override;
  double ReportBits() const override;
  void EncodeUser(uint64_t value, Rng& rng) override;
  void EncodeUsers(std::span<const uint64_t> values, Rng& rng) override;
  std::unique_ptr<RangeMechanism> CloneEmpty() const override;
  void MergeFrom(const RangeMechanism& other) override;
  void Finalize(Rng& rng) override;
  double RangeQuery(uint64_t a, uint64_t b) const override;
  RangeEstimate RangeQueryWithUncertainty(uint64_t a,
                                          uint64_t b) const override;
  std::vector<double> EstimateFrequencies() const override;

 private:
  OracleKind oracle_kind_;
  std::unique_ptr<FrequencyOracle> oracle_;
  bool finalized_ = false;
  std::optional<FlatEstimate> estimate_;
};

}  // namespace ldp

#endif  // LDPRANGE_CORE_FLAT_H_
