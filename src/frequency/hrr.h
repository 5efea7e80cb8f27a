// Hadamard Randomized Response (paper Section 3.2; Cormode et al. SIGMOD'18,
// Nguyên et al. 2016).
//
// The user's one-hot vector e_v is viewed in the Hadamard basis, where every
// coefficient is +/-1. The user samples one coefficient index j uniformly,
// perturbs its sign with binary randomized response (keep probability
// p = e^eps/(1+e^eps)) and reports (j, sign): ceil(log2 D) + 1 bits total.
// The aggregator sums reports per coefficient, and EstimateFractions
// inverts the transform in O(D log D) and unbiases by 1/(N(2p-1)) in one
// call: ScaledWalshHadamard (frequency/hadamard.h) loads the int64 sums in
// its first, cache-blocked phase and multiplies each final value once by
// the debias factor. It uses the per-tier pass kernels and fans out over
// HardwareThreads() from 2^18 coefficients up; the estimates are
// bit-identical to converting, transforming and scaling one step at a
// time (the sums are integers below 2^53, so the transform is exact).
//
// HRR natively supports *signed* one-hot inputs (-e_v as well as e_v), which
// is exactly what the Haar levels of the paper's HaarHRR mechanism emit —
// the reason the paper selects HRR as the wavelet perturbation primitive.

#ifndef LDPRANGE_FREQUENCY_HRR_H_
#define LDPRANGE_FREQUENCY_HRR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/check.h"
#include "frequency/frequency_oracle.h"

namespace ldp::protocol {
class WireReader;
}  // namespace ldp::protocol

namespace ldp {

/// One HRR user report: a sampled Hadamard coefficient index and the
/// randomized sign of that coefficient — ceil(log2 D) + 1 bits on the
/// wire. This is the quantity a real deployment transmits; see
/// src/protocol for serialization.
struct HrrReport {
  uint64_t coefficient_index = 0;
  int8_t sign = +1;  // -1 or +1
};

/// Stateless client-side HRR encoder: samples a coefficient of the
/// (padded) Hadamard spectrum of sign * e_value and perturbs its sign with
/// binary randomized response. `padded_domain` must be a power of two and
/// value < padded_domain. Provides eps-LDP on its own.
HrrReport HrrEncode(uint64_t padded_domain, double eps, uint64_t value,
                    int sign, Rng& rng);

/// HRR frequency oracle. Domains that are not powers of two are padded
/// internally; estimates are returned for the original domain.
class HrrOracle final : public FrequencyOracle {
 public:
  HrrOracle(uint64_t domain, double eps);

  /// Internal (padded) Hadamard dimension.
  uint64_t padded_domain() const { return padded_; }

  /// Binary-RR keep probability p = e^eps / (1 + e^eps).
  double KeepProbability() const;

  double ReportBits() const override;
  double EstimatorVariance() const override;
  bool SupportsSignedValues() const override { return true; }
  void SubmitValue(uint64_t value, Rng& rng) override;
  void SubmitSignedValue(uint64_t value, int sign, Rng& rng) override;
  /// Server-side ingestion of an externally produced report (see
  /// HrrEncode): the aggregation path used by the wire protocol.
  /// CHECK-fails unless the coefficient index is < padded_domain() and
  /// the sign is +/-1.
  void AbsorbReport(const HrrReport& report) {
    LDP_CHECK_LT(report.coefficient_index, padded_);
    LDP_CHECK(report.sign == 1 || report.sign == -1);
    AddValidatedReport(report);
  }

  /// AbsorbReport's add without its checks, inline for the wire servers'
  /// per-slot fold, which has range-checked the report already (index <
  /// padded_domain(), sign +/-1).
  void AddValidatedReport(const HrrReport& report) {
    coefficient_sums_[report.coefficient_index] += report.sign;
    ++reports_;
  }
  std::vector<double> EstimateFractions() const override;
  std::unique_ptr<FrequencyOracle> CloneEmpty() const override;
  void MergeFrom(const FrequencyOracle& other) override;

  /// MergeFrom for a shard that is merged once and then discarded: an
  /// oracle that holds no reports yet swaps its (all-zero) sums with
  /// `other`'s instead of adding them — the same result, in O(1). The
  /// fan-in merge plane folds its reduced shards into an empty query
  /// node this way, and that node then finalizes in memory the restore
  /// already touched.
  void MergeFromShard(HrrOracle& other);

  /// Appends this oracle's aggregate state in its canonical wire form:
  /// [reports varint][padded varint][padded x sum u64 (two's complement)].
  /// The counterpart of RestoreState; see service/state_wire.h.
  void AppendState(std::vector<uint8_t>& out) const;

  /// Exact byte count AppendState appends.
  size_t StateBytes() const;

  /// Restores serialized state into this (empty, identically configured)
  /// oracle. Total over adversarial bytes: false on truncation, a
  /// padded-domain mismatch, or nonzero sums under a zero report count
  /// (discard the oracle then — state may be partially written). Reads
  /// exactly one AppendState record from `reader`, so multi-oracle state
  /// bodies (per-level, per-tuple) stream through one reader.
  bool RestoreState(protocol::WireReader& reader);

 private:
  uint64_t padded_;
  // coefficient_sums_[j] = sum of reported +/-1 values for coefficient j.
  std::vector<int64_t> coefficient_sums_;
};

/// The per-level HRR oracles of a level-sampling wire server (HaarHRR,
/// TreeHRR), level l at index l-1, with the state codec and shard merge
/// both share. State body: [levels varint][one HrrOracle record per level,
/// level 1 first].
class HrrLevels {
 public:
  /// Appends an empty oracle over `domain` items as the next level.
  void AddLevel(uint64_t domain, double eps) {
    levels_.push_back(std::make_unique<HrrOracle>(domain, eps));
  }

  HrrOracle& operator[](size_t i) { return *levels_[i]; }

  /// The levels as the shared estimators (core/) read them.
  std::vector<const FrequencyOracle*> Views() const;

  void AppendState(std::vector<uint8_t>& out) const;
  size_t StateBytes() const;

  /// Restores a whole state body. Total over adversarial bytes: the level
  /// count is a cross-check against this stack's own, never an allocation
  /// size; false on any mismatch, truncation or trailing byte.
  bool RestoreState(std::span<const uint8_t> body);

  /// HrrOracle::MergeFromShard, level by level.
  void MergeFromShard(HrrLevels& other);

 private:
  std::vector<std::unique_ptr<HrrOracle>> levels_;
};

}  // namespace ldp

#endif  // LDPRANGE_FREQUENCY_HRR_H_
