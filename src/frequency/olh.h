// Optimal Local Hashing (Wang et al., USENIX Security 2017).
//
// Each user samples a hash function H : [D] -> [g] from a seeded family,
// hashes their value, and perturbs the hash with GRR over [g]. The report is
// (seed, perturbed hash). Setting g = e^eps + 1 minimizes variance and
// recovers the shared bound V_F (paper Section 3.2). Decoding costs O(N*D):
// for every report, all items hashing to the reported cell get a support
// increment — the reason the paper (and this library's benches) restricts
// OLH to modest domains.
//
// Two aggregation strategies are available:
//  * kDeferred (default) — SubmitValue/SubmitBatch only append the
//    (seed, cell) report; the O(N*D) support scan runs once, at Finalize
//    (or lazily at first estimate), parallelized over reports with
//    per-thread support accumulators and cache-blocked over the domain.
//    The tradeoff: 12 bytes per undecoded report are buffered until the
//    scan runs (O(N) memory; ~0.75 GiB at the paper's N = 2^26).
//  * kEager — the textbook formulation: every report is decoded with a full
//    O(D) domain scan the moment it arrives. O(D) memory — the choice for
//    memory-bound aggregators — and kept as the baseline for the
//    ingest-throughput bench and as the reference for the deferred path's
//    bit-identical equivalence test.
// Both strategies consume the identical Rng stream and produce bit-identical
// support counts; only when and how fast the scan runs differs.

#ifndef LDPRANGE_FREQUENCY_OLH_H_
#define LDPRANGE_FREQUENCY_OLH_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/arena.h"
#include "frequency/frequency_oracle.h"

namespace ldp::protocol {
class WireReader;
}  // namespace ldp::protocol

namespace ldp {

/// When the O(N*D) support scan runs (see file comment).
enum class OlhDecode {
  kDeferred,
  kEager,
};

/// OLH frequency oracle.
class OlhOracle final : public FrequencyOracle {
 public:
  /// `g_override` forces the hash range (0 = use the optimal e^eps + 1).
  OlhOracle(uint64_t domain, double eps, uint64_t g_override = 0,
            OlhDecode decode = OlhDecode::kDeferred);

  /// The hash range g in use.
  uint64_t hash_range() const { return g_; }

  /// The decode strategy this instance was built with.
  OlhDecode decode_mode() const { return decode_; }

  /// Thread count for the deferred support scan (0 = one per hardware
  /// core, the default). The scan sums integer per-thread accumulators, so
  /// results are bit-identical for every thread count.
  void set_decode_threads(unsigned threads) { decode_threads_ = threads; }

  /// Number of reports ingested but not yet folded into the support counts.
  uint64_t pending_reports() const { return pending_seeds_.size(); }
  /// System allocations ever made by the pending-report columns. Clear()
  /// after a decode retains the arena blocks, so the count stays flat
  /// across ingest/decode sessions at steady state (test hook).
  uint64_t pending_allocation_count() const {
    return pending_seeds_.allocation_count() +
           pending_cells_.allocation_count();
  }

  /// Per-item support counts (decodes any pending reports first):
  /// support[j] = number of reports whose perturbed hash matches H_seed(j).
  const std::vector<uint64_t>& SupportCounts() const;

  /// Server side: folds an already-randomized wire report — the
  /// client-side (seed, perturbed cell) pair of protocol::OlhWireReport —
  /// into the aggregate, exactly as if SubmitValue had drawn it locally.
  /// `cell` must be < hash_range() (validate before calling).
  void AbsorbReport(uint64_t seed, uint32_t cell);

  /// AbsorbReport's deferred append, inline for the multidim server's
  /// per-slot fold: queues one (seed, cell) report for the support scan.
  /// Requires a kDeferred oracle and cell < hash_range(), both checked by
  /// the caller.
  void AppendPendingReport(uint64_t seed, uint32_t cell) {
    pending_seeds_.PushBack(seed);
    pending_cells_.PushBack(cell);
    ++reports_;
  }

  double ReportBits() const override;
  double EstimatorVariance() const override;
  void SubmitValue(uint64_t value, Rng& rng) override;
  void SubmitBatch(std::span<const uint64_t> values, Rng& rng) override;
  void ReserveReports(uint64_t expected) override;
  void Finalize(Rng& rng) override;
  std::vector<double> EstimateFractions() const override;
  std::unique_ptr<FrequencyOracle> CloneEmpty() const override;
  void MergeFrom(const FrequencyOracle& other) override;

  /// Appends this oracle's aggregate state in its canonical wire form:
  /// [reports varint][decoded u8][decoded? domain x support u64]
  /// [pending varint][pending x (seed u64, cell u32)]. The `decoded` flag
  /// is canonical — it is 1 exactly when reports exceed the pending queue,
  /// i.e. when the support array carries information. The counterpart of
  /// RestoreState; see service/state_wire.h.
  void AppendState(std::vector<uint8_t>& out) const;

  /// Exact byte count AppendState appends.
  size_t StateBytes() const;

  /// Restores serialized state into this (empty, identically configured)
  /// oracle. Total over adversarial bytes: the declared pending count is
  /// floor-checked against the bytes actually present before any append,
  /// every cell is validated against hash_range(), and a non-canonical
  /// decoded flag or pending > reports is rejected. Returns false on any
  /// such failure (discard the oracle then — state may be partially
  /// written). Reads exactly one AppendState record from `reader`.
  bool RestoreState(protocol::WireReader& reader);

 private:
  /// Randomizes one value into a (seed, cell) report and either scans it
  /// into support_ (eager) or appends it to the pending queue (deferred).
  void IngestValue(uint64_t value, Rng& rng);

  /// Folds every pending report into support_ (parallel, cache-blocked).
  /// Const because estimation is logically read-only; the pending queue and
  /// support counts are mutable caches of the same aggregate state, guarded
  /// by decode_mu_ so concurrent const queries stay safe.
  void DecodePending() const;

  uint64_t g_;
  OlhDecode decode_;
  unsigned decode_threads_ = 0;
  // Serializes the lazy decode so concurrent const queries cannot race on
  // the mutable caches below (ingestion itself is still single-writer, as
  // for every oracle).
  mutable std::mutex decode_mu_;
  // support_[j] = number of decoded reports whose cell matches H_seed(j).
  mutable std::vector<uint64_t> support_;
  // Undecoded reports, structure-of-arrays on arena-backed columns: the
  // user's public hash seed and the GRR-perturbed cell (g is capped well
  // below 2^32, see kOlhMaxHashRange). Arena columns never relocate on
  // growth (no re-copy of already-ingested reports), retain their blocks
  // across decode cycles, and splice in O(1) on MergeFrom — the merge
  // consumes the source shard's queue, which MergeFrom's contract allows.
  // Both columns see the same append sequence, so their chunk boundaries
  // pair up and the decode kernel can zip them segment by segment.
  mutable ArenaColumn<uint64_t> pending_seeds_;
  mutable ArenaColumn<uint32_t> pending_cells_;
};

/// Hard ceiling on the OLH hash range. Beyond g = e^eps + 1 ~ 2^24 the
/// inner GRR is essentially noiseless and a larger g only inflates the
/// report and the decode cost; the cap also keeps OlhOptimalHashRange from
/// overflowing for large eps (std::exp(44) no longer fits in an int64).
inline constexpr uint64_t kOlhMaxHashRange = uint64_t{1} << 24;

/// The variance-optimal hash range for OLH: round(e^eps) + 1, at least 2,
/// clamped to kOlhMaxHashRange.
uint64_t OlhOptimalHashRange(double eps);

}  // namespace ldp

#endif  // LDPRANGE_FREQUENCY_OLH_H_
