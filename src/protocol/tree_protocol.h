// Deployable client/server split of the hierarchical-histogram mechanism
// with the HRR primitive ("TreeHRR" in the paper's Figure 4) — the
// low-communication HH variant a deployment would actually ship: the paper
// notes TreeHRRCI "requires vastly reduced communication for each user at
// the cost of only a slight increase in error" versus TreeOUECI.
//
// Each report: sampled tree level + one HRR coefficient sample for that
// level's one-hot node indicator, framed under the v2 envelope (18
// bytes). The server validates and aggregates per level; it debiases,
// applies Section 4.5 consistency and answers range / prefix / quantile
// queries through core's HierarchicalEstimate, the code
// HierarchicalMechanism runs, so its stddev is the per-node accounting of
// the nodes each query reads.

#ifndef LDPRANGE_PROTOCOL_TREE_PROTOCOL_H_
#define LDPRANGE_PROTOCOL_TREE_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/random.h"
#include "core/badic.h"
#include "core/hierarchical.h"
#include "frequency/hrr.h"
#include "protocol/envelope.h"
#include "service/aggregator_server.h"

namespace ldp::protocol {

/// An unserialized TreeHRR report.
struct TreeHrrReport {
  uint32_t level = 1;  // 1..height, sampled uniformly
  HrrReport inner;
};

/// Serializes one report: envelope + payload [level u8][index u64]
/// [sign u8], 18 bytes.
std::vector<uint8_t> SerializeTreeHrrReport(const TreeHrrReport& report);

/// Parses and validates one framed report with an explicit error code.
ParseError ParseTreeHrrReportDetailed(std::span<const uint8_t> bytes,
                                      TreeHrrReport* report);

/// Convenience wrapper: true iff ParseTreeHrrReportDetailed returns kOk.
bool ParseTreeHrrReport(std::span<const uint8_t> bytes,
                        TreeHrrReport* report);

/// One framed v2 batch message (kTreeHrrBatch):
/// payload = [count varint][count x ([level u8][index u64][sign u8])].
std::vector<uint8_t> SerializeTreeHrrReportBatch(
    std::span<const TreeHrrReport> reports);

/// Parses a v2 batch message; per-item validation failures are skipped
/// and counted in `malformed` (may be null), structural failures reject
/// the whole message.
ParseError ParseTreeHrrReportBatch(std::span<const uint8_t> bytes,
                                   std::vector<TreeHrrReport>* reports,
                                   uint64_t* malformed = nullptr);

/// Client-side encoder.
class TreeHrrClient {
 public:
  TreeHrrClient(uint64_t domain, uint64_t fanout, double eps);

  const TreeShape& shape() const { return shape_; }

  TreeHrrReport Encode(uint64_t value, Rng& rng) const;
  std::vector<uint8_t> EncodeSerialized(uint64_t value, Rng& rng) const;

  /// Batched encode (a simulation driver standing in for many devices):
  /// one report per value, drawn exactly as the Encode loop would.
  std::vector<TreeHrrReport> EncodeUsers(std::span<const uint64_t> values,
                                         Rng& rng) const;

  /// Batched encode + one framed v2 batch message.
  std::vector<uint8_t> EncodeUsersSerialized(std::span<const uint64_t> values,
                                             Rng& rng) const;

 private:
  TreeShape shape_;
  double eps_;
};

/// Server-side aggregator with optional constrained inference. Ingestion
/// accounting, finalize discipline, and quantile search come from
/// service::AggregatorServer.
class TreeHrrServer final : public service::AggregatorServer {
 public:
  TreeHrrServer(uint64_t domain, uint64_t fanout, double eps,
                bool consistency = true);

  std::string Name() const override { return "TreeHrr"; }
  const TreeShape& shape() const { return shape_; }
  uint64_t domain() const override { return shape_.domain(); }

  /// Ingests one report; false (counted) on out-of-range level/index.
  bool Absorb(const TreeHrrReport& report);
  bool AbsorbSerialized(std::span<const uint8_t> bytes) override;

  ParseError DoAbsorbBatchSerialized(std::span<const uint8_t> bytes,
                                   uint64_t* accepted) override;

  double RangeQuery(uint64_t a, uint64_t b) const override;
  /// HierarchicalEstimate's per-node accounting over the nodes the range
  /// decomposes into, each at its level's report count (Theorem 4.3 is
  /// the worst case; Lemma 4.6's factor applies under consistency).
  RangeEstimate RangeQueryWithUncertainty(uint64_t a,
                                          uint64_t b) const override;
  std::vector<double> EstimateFrequencies() const override;

  std::optional<HrrStateSize> StateBodySizeRange() const override;
  std::optional<HrrStateDecoder> StateBodyDecoder() override;

 private:
  /// Range checks: the level oracle `report` adds to, or nullptr when it
  /// is out of range. The one check behind Fold and the batch look-ahead.
  HrrOracle* Locate(const TreeHrrReport& report);
  /// Locate + add: the one fold behind Absorb and the batch slot loop.
  /// False (nothing added) when the report is out of range.
  bool Fold(const TreeHrrReport& report);

  void DoFinalize() override;
  service::StateKind state_kind() const override {
    return service::StateKind::kTree;
  }
  uint64_t state_fanout() const override { return shape_.fanout(); }
  double state_epsilon() const override { return eps_; }
  void AppendStateBody(std::vector<uint8_t>& out) const override;
  size_t StateBodyBytes() const override;
  std::unique_ptr<service::AggregatorServer> DoCloneEmpty() const override;
  service::MergeStatus DoMergeFrom(service::AggregatorServer& other) override;

  TreeShape shape_;
  double eps_;
  bool consistency_;
  HrrLevels levels_;
  std::optional<HierarchicalEstimate> estimate_;
};

}  // namespace ldp::protocol

#endif  // LDPRANGE_PROTOCOL_TREE_PROTOCOL_H_
