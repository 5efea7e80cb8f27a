// Deployable client/server split of the multidimensional hierarchical
// grid mechanism (paper Section 6).
//
// Each user samples a level tuple (l_1, ..., l_d) uniformly from the
// (h+1)^d - 1 non-trivial tuples and reports their cell in that tuple's
// product grid through OLH — the oracle whose report size and variance
// are independent of the cell count, which here grows as a product over
// axes. The report is the sampled tuple plus the OLH (seed, perturbed
// cell) pair; every tuple grid shares one hash range g so the client
// does not need to know which grid the server will route to.
//
// Payload layouts (see envelope.h for the surrounding header):
//   kMultiDimReport       [dims u8][dims x level u8][seed u64][cell u32]
//   kMultiDimReportBatch  [dims u8][count varint]
//                           [count x (dims x level u8, seed u64, cell u32)]
// Unlike the 1-D batch messages, dims is hoisted to the batch header —
// that keeps every item the same fixed size (dims + 12 bytes), so the
// structural count-vs-bytes check stays exact. All parsers are total
// over adversarial bytes.

#ifndef LDPRANGE_PROTOCOL_MULTIDIM_PROTOCOL_H_
#define LDPRANGE_PROTOCOL_MULTIDIM_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/badic.h"
#include "core/multidim.h"
#include "frequency/olh.h"
#include "protocol/envelope.h"
#include "service/aggregator_server.h"

namespace ldp::protocol {

/// One multidim grid report: the sampled per-axis levels (levels[0] is
/// dimension 0; not all zero — the all-root tuple carries no report) and
/// the OLH (seed, perturbed cell) pair for that tuple's product grid.
struct MultiDimReport {
  std::vector<uint8_t> levels;
  uint64_t seed = 0;
  uint32_t cell = 0;

  bool operator==(const MultiDimReport&) const = default;
};

/// Serializes one report as a framed v2 kMultiDimReport message.
std::vector<uint8_t> SerializeMultiDimReport(const MultiDimReport& report);

/// Total parser; kBadPayload on a wrong tag, a dims outside
/// [1, kMaxWireDimensions], a size mismatch, or an all-root level tuple.
ParseError ParseMultiDimReport(std::span<const uint8_t> bytes,
                               MultiDimReport* report);

/// One framed v2 kMultiDimReportBatch message. Every report must carry
/// exactly `dims` levels; `dims` is taken as a parameter (not from the
/// first report) so an empty batch still frames.
std::vector<uint8_t> SerializeMultiDimReportBatch(
    uint32_t dims, std::span<const MultiDimReport> reports);

/// Parses a v2 batch message; per-item validation failures (an all-root
/// tuple) are skipped and counted in `malformed` (may be null),
/// structural failures reject the whole message.
ParseError ParseMultiDimReportBatch(std::span<const uint8_t> bytes,
                                    std::vector<MultiDimReport>* reports,
                                    uint64_t* malformed = nullptr);

/// Client-side encoder.
class MultiDimClient {
 public:
  MultiDimClient(uint64_t domain_per_dim, uint32_t dimensions, double eps,
                 uint64_t fanout = 2);

  const TreeShape& shape() const { return layout_.shape(); }
  uint32_t dimensions() const { return layout_.dims(); }
  /// The shared OLH hash range g (optimal for eps); the server must be
  /// built with the same eps to agree on it.
  uint64_t hash_range() const { return g_; }

  /// Randomizes one point (`coords` holds dimensions() values, each in
  /// [0, domain_per_dim)).
  MultiDimReport Encode(const uint64_t* coords, Rng& rng) const;
  std::vector<uint8_t> EncodeSerialized(const uint64_t* coords,
                                        Rng& rng) const;

  /// Batched encode over row-major points (coords.size() = n * d), one
  /// report per point, drawn exactly as the Encode loop would.
  std::vector<MultiDimReport> EncodeUsers(std::span<const uint64_t> coords,
                                          Rng& rng) const;

  /// Batched encode + one framed v2 batch message.
  std::vector<uint8_t> EncodeUsersSerialized(std::span<const uint64_t> coords,
                                             Rng& rng) const;

 private:
  double eps_;
  GridLayout layout_;
  uint64_t g_;
};

/// Server-side aggregator: one deferred-decode OLH oracle per non-trivial
/// level tuple, answered through core's GridEstimate.
/// Ingestion accounting, finalize discipline, and quantile search come
/// from service::AggregatorServer; RangeQuery answers are the axis-0
/// marginal (remaining axes spanning their full domain).
class MultiDimServer final : public service::AggregatorServer {
 public:
  MultiDimServer(
      uint64_t domain_per_dim, uint32_t dimensions, double eps,
      uint64_t fanout = 2,
      uint64_t max_total_cells = HierarchicalGrid::kDefaultCellBudget);

  std::string Name() const override;
  const TreeShape& shape() const { return layout_.shape(); }
  /// Per-axis domain (the AggregatorServer contract for multidim).
  uint64_t domain() const override { return shape().domain(); }
  uint32_t dimensions() const override { return layout_.dims(); }
  uint64_t hash_range() const { return g_; }

  /// Ingests one report; false (counted) on a dims mismatch, an
  /// out-of-range level, an all-root tuple, or a cell >= hash_range().
  bool Absorb(const MultiDimReport& report);
  bool AbsorbSerialized(std::span<const uint8_t> bytes) override;

  ParseError DoAbsorbBatchSerialized(std::span<const uint8_t> bytes,
                                   uint64_t* accepted) override;

  /// System allocations ever made by the per-tuple pending-report columns.
  /// Arena-backed appends make this flat per absorbed chunk at steady
  /// state — the zero-copy ingestion contract's test hook.
  uint64_t report_allocation_count() const;

  double BoxQuery(std::span<const AxisInterval> box) const override;
  /// Uncertainty is the Section 6 cross-product accounting: the summed
  /// OLH estimator variances of the covering cells.
  RangeEstimate BoxQueryWithUncertainty(
      std::span<const AxisInterval> box) const override;

  double RangeQuery(uint64_t a, uint64_t b) const override;
  RangeEstimate RangeQueryWithUncertainty(uint64_t a,
                                          uint64_t b) const override;
  /// Axis-0 marginal frequencies (length = domain()).
  std::vector<double> EstimateFrequencies() const override;

 private:
  /// Range checks + add for one report of this server's dimensionality
  /// (`levels` holds dimensions() bytes): the one fold behind Absorb and
  /// the batch slot loop. False (nothing added) on an out-of-range level,
  /// the all-root tuple, or a cell >= hash_range().
  bool Fold(const uint8_t* levels, uint64_t seed, uint32_t cell);

  void DoFinalize() override;
  service::StateKind state_kind() const override {
    return service::StateKind::kGrid;
  }
  uint64_t state_fanout() const override { return shape().fanout(); }
  double state_epsilon() const override { return eps_; }
  void AppendStateBody(std::vector<uint8_t>& out) const override;
  size_t StateBodyBytes() const override;
  bool RestoreStateBody(std::span<const uint8_t> body) override;
  std::unique_ptr<service::AggregatorServer> DoCloneEmpty() const override;
  service::MergeStatus DoMergeFrom(service::AggregatorServer& other) override;

  double eps_;
  uint64_t g_;
  uint64_t max_total_cells_;  // kept for CloneEmpty (merge-shard contract)
  GridLayout layout_;
  // One oracle per level tuple != all-zero, indexed like GridLayout's
  // tuples. Slot 0 stays null (the all-root cell is exact).
  std::vector<std::unique_ptr<OlhOracle>> oracles_;
  std::optional<GridEstimate> estimate_;
};

}  // namespace ldp::protocol

#endif  // LDPRANGE_PROTOCOL_MULTIDIM_PROTOCOL_H_
