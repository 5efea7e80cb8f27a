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

namespace ldp {

class HrrStateDecoder;

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

/// The sizes an HRR state body can take for one configuration. The
/// padded domains (and a level count) fix it, up to the width of each
/// record's report-count varint: 1 to kMaxVarU64Bytes bytes.
struct HrrStateSize {
  size_t min = 0;
  size_t max = 0;

  bool Contains(size_t bytes) const { return bytes >= min && bytes <= max; }
};

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
  /// HrrStateDecoder restores it; see service/state_wire.h.
  void AppendState(std::vector<uint8_t>& out) const;

  /// Exact byte count AppendState appends.
  size_t StateBytes() const;

  /// Every byte count AppendState can append for this configuration.
  HrrStateSize StateSizeRange() const;

 private:
  friend class HrrStateDecoder;

  uint64_t padded_;
  // coefficient_sums_[j] = sum of reported +/-1 values for coefficient j.
  std::vector<int64_t> coefficient_sums_;
};

/// The per-level HRR oracles of a level-sampling wire server (HaarHRR,
/// TreeHRR), level l at index l-1, with the state codec and shard merge
/// both share. State body: [levels varint][one HrrOracle record per level,
/// level 1 first]; HrrStateDecoder restores it.
class HrrLevels {
 public:
  /// Appends an empty oracle over `domain` items as the next level.
  void AddLevel(uint64_t domain, double eps) {
    levels_.push_back(std::make_unique<HrrOracle>(domain, eps));
  }

  HrrOracle& operator[](size_t i) { return *levels_[i]; }

  /// The levels as the shared estimators (core/) read them.
  std::vector<const FrequencyOracle*> Views() const;

  size_t size() const { return levels_.size(); }

  void AppendState(std::vector<uint8_t>& out) const;
  size_t StateBytes() const;
  HrrStateSize StateSizeRange() const;

  /// HrrOracle::MergeFromShard, level by level.
  void MergeFromShard(HrrLevels& other);

 private:
  std::vector<std::unique_ptr<HrrOracle>> levels_;
};

/// The one decoder of HRR aggregate state, incremental: it restores a
/// sequence of HrrOracle records (AppendState's form) into empty,
/// identically configured oracles as the bytes arrive, so a body can be
/// received straight into the oracles' arrays. Every restore runs it —
/// the in-memory RestoreStateBody of the flat, haar and tree servers
/// feeds it a whole buffer, and the query node's snapshot intake
/// (service/aggregator_service.h) lands socket reads in its windows — so
/// the two cannot drift apart: any split of the same bytes reaches the
/// same verdict and the same state.
///
/// Total over adversarial bytes. Each field is checked as it completes:
/// the level count and each padded domain are cross-checks against the
/// oracles' own configuration (never allocation sizes), nonzero sums
/// under a zero report count are rejected, and nothing may follow the
/// last record. After a failure the oracles may hold partial state:
/// discard them.
class HrrStateDecoder {
 public:
  /// A flat body: one record, no level count.
  explicit HrrStateDecoder(HrrOracle& oracle);
  /// An HrrLevels body: [levels varint][one record per level].
  explicit HrrStateDecoder(HrrLevels& levels);

  /// Where the next body bytes go: one byte of a varint, or the rest of
  /// the current record's sums array. Empty once the body is complete
  /// or has failed.
  std::span<uint8_t> Window();

  /// Consumes `n` bytes (1 <= n <= Window().size()) that landed in
  /// Window(), running each field's checks as it completes. On a
  /// big-endian host a sums array is byte-swapped in place once its last
  /// byte lands, so the wire stays little-endian on one code path. False
  /// once any check has failed.
  bool Advance(size_t n);

  /// Copies `bytes` through Window()/Advance(). False on a failed check
  /// or a byte past the body's end.
  bool Feed(std::span<const uint8_t> bytes);

  /// The in-memory restore: Feed(body) and nothing missing.
  bool Restore(std::span<const uint8_t> body) { return Feed(body) && done(); }

  bool done() const { return field_ == Field::kDone; }
  bool failed() const { return field_ == Field::kFailed; }

 private:
  enum class Field : uint8_t {
    kLevels, kReports, kPadded, kSums, kDone, kFailed
  };

  /// Starts the next record, or ends the body after the last one.
  void NextRecord();
  /// A varint field just completed with `value`.
  void VarintDone(uint64_t value);
  /// The current record's sums array just completed.
  void SumsDone();

  std::vector<HrrOracle*> oracles_;
  size_t record_ = 0;  // index into oracles_ of the record being decoded
  Field field_ = Field::kReports;
  uint8_t varint_byte_ = 0;  // the window of a varint field
  size_t varint_index_ = 0;
  uint64_t varint_ = 0;
  uint64_t reports_ = 0;    // the current record's report count
  size_t sums_landed_ = 0;  // bytes of the current sums array
};

}  // namespace ldp

#endif  // LDPRANGE_FREQUENCY_HRR_H_
