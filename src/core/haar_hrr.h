// HaarHRR: range queries via perturbed Discrete Haar Transform coefficients
// (paper Section 4.6).
//
// Protocol: the domain is padded to D = 2^h. Each user samples one Haar
// level l in [1, h] uniformly (same analysis as HH: uniform is optimal) and
// reports their level-l coefficient vector — a signed one-hot vector with
// entry +/-1 at the block containing their value — through Hadamard
// Randomized Response. HRR is the paper's chosen primitive because it
// handles the negative weight natively and the report is a single bit plus
// indices. The topmost "average" coefficient c0 needs no reports: it always
// equals 1/sqrt(D) for a fraction vector.
//
// No consistency step exists or is needed: Haar coefficients are
// non-redundant, so any coefficient estimate vector corresponds to exactly
// one (signed) frequency vector. Worst-case range variance is
// (1/2) log2(D)^2 V_F (Eq. 3), independent of the range length.

#ifndef LDPRANGE_CORE_HAAR_HRR_H_
#define LDPRANGE_CORE_HAAR_HRR_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/haar.h"
#include "core/range_mechanism.h"
#include "frequency/hrr.h"

namespace ldp {

/// The finalized half of HaarHRR: the orthonormal coefficient estimates and
/// each level's coefficient variance. HaarHrrMechanism and the wire server
/// (protocol/haar_protocol.h) both answer through it.
class HaarHrrEstimate {
 public:
  /// Debiases the Finalize()d level oracles of a `domain`-item range:
  /// levels[l-1] estimates level l's signed fraction vector g (one entry
  /// per block of 2^l leaves); the padded domain is 2^levels.size().
  HaarHrrEstimate(uint64_t domain,
                  std::span<const FrequencyOracle* const> levels);

  /// Estimated fraction of users in [a, b]; requires a <= b < domain.
  double RangeQuery(uint64_t a, uint64_t b) const {
    return RangeQueryWithUncertainty(a, b).value;
  }

  /// The value (summed as HaarRangeEstimate sums it) and, from the same
  /// walk over the boundary blocks, its variance: weight^2 * Var(c_hat)
  /// summed over the cut coefficients, each at its level's report count
  /// (Eq. 3 bounds it). Zero weights are skipped, so a level with no
  /// reports (+inf) counts only where the range reads it; c0 is exact.
  RangeEstimate RangeQueryWithUncertainty(uint64_t a, uint64_t b) const;

  std::vector<double> EstimateFrequencies() const;

  const HaarCoefficients& coefficients() const { return coefficients_; }

 private:
  uint64_t domain_;
  uint64_t padded_;
  HaarCoefficients coefficients_;
  // coefficient_variance_[l-1] = Var(c_hat) at level l = 2^-l * Var(g_hat):
  // the oracle estimates g, the orthonormal coefficient rescales it by
  // 2^{-l/2}.
  std::vector<double> coefficient_variance_;
};

/// The HaarHRR range mechanism.
class HaarHrrMechanism final : public RangeMechanism {
 public:
  HaarHrrMechanism(uint64_t domain, double eps);

  /// Padded power-of-two domain the Haar tree is built over.
  uint64_t padded_domain() const { return padded_; }
  uint32_t height() const { return height_; }

  uint64_t user_count() const override { return users_; }
  std::string Name() const override { return "HaarHRR"; }
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

  /// Post-Finalize estimated orthonormal coefficients (tests/diagnostics).
  const HaarCoefficients& coefficients() const;

 private:
  uint64_t padded_;
  uint32_t height_;
  // level_oracles_[l-1] perturbs the level-l coefficient vector
  // (domain D / 2^l entries, signed).
  std::vector<std::unique_ptr<HrrOracle>> level_oracles_;
  uint64_t users_ = 0;
  bool finalized_ = false;
  std::optional<HaarHrrEstimate> estimate_;
};

}  // namespace ldp

#endif  // LDPRANGE_CORE_HAAR_HRR_H_
