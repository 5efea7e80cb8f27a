// Deployable client/server split of the flat HRR point-query protocol —
// the frequency-oracle analogue of haar_protocol.h, useful when only
// point/short-range queries are needed (paper Section 4.2 shows flat wins
// there). Each report is one HRR coefficient sample, framed under the v2
// envelope (envelope.h). The server folds reports into one HrrOracle and
// answers through core's FlatEstimate — the estimator the paper
// simulations run — so its stddev is Fact 1's per-query accounting at the
// oracle's own report count.

#ifndef LDPRANGE_PROTOCOL_FLAT_PROTOCOL_H_
#define LDPRANGE_PROTOCOL_FLAT_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/random.h"
#include "core/flat.h"
#include "frequency/hrr.h"
#include "protocol/envelope.h"
#include "service/aggregator_server.h"

namespace ldp::protocol {

/// Serializes an HRR report: 8-byte envelope + payload [index u64]
/// [sign u8], 17 bytes.
std::vector<uint8_t> SerializeHrrReport(const HrrReport& report);

/// Parses + validates one framed report. Returns an explicit error code;
/// total over arbitrary input.
ParseError ParseHrrReportDetailed(std::span<const uint8_t> bytes,
                                  HrrReport* report);

/// Convenience wrapper: true iff ParseHrrReportDetailed returns kOk.
bool ParseHrrReport(std::span<const uint8_t> bytes, HrrReport* report);

/// Serializes many reports as one v2 batch message (kFlatHrrBatch):
/// payload = [count varint][count x ([index u64][sign u8])].
std::vector<uint8_t> SerializeHrrReportBatch(std::span<const HrrReport> reports);

/// Parses a v2 batch message. Valid items land in `reports`; items whose
/// slot decodes but fails validation (bad sign byte) are skipped and
/// counted in `malformed` (may be null). Structural failures (bad
/// framing, count/size mismatch) reject the whole message.
ParseError ParseHrrReportBatch(std::span<const uint8_t> bytes,
                               std::vector<HrrReport>* reports,
                               uint64_t* malformed = nullptr);

/// Client-side flat HRR encoder.
class FlatHrrClient {
 public:
  FlatHrrClient(uint64_t domain, double eps);

  uint64_t domain() const { return domain_; }
  uint64_t padded_domain() const { return padded_; }

  HrrReport Encode(uint64_t value, Rng& rng) const;
  std::vector<uint8_t> EncodeSerialized(uint64_t value, Rng& rng) const;

  /// Batched encode (a simulation driver standing in for many devices):
  /// one report per value, drawn exactly as the Encode loop would.
  std::vector<HrrReport> EncodeUsers(std::span<const uint64_t> values,
                                     Rng& rng) const;

  /// Batched encode + one framed v2 batch message.
  std::vector<uint8_t> EncodeUsersSerialized(std::span<const uint64_t> values,
                                             Rng& rng) const;

 private:
  uint64_t domain_;
  uint64_t padded_;
  double eps_;
};

/// Server-side flat HRR aggregator with O(1) post-Finalize range queries.
/// Ingestion accounting, finalize discipline, and quantile search come
/// from service::AggregatorServer.
class FlatHrrServer final : public service::AggregatorServer {
 public:
  FlatHrrServer(uint64_t domain, double eps);

  std::string Name() const override { return "FlatHrr"; }
  uint64_t domain() const override { return domain_; }

  /// Ingests one report; false (counted) when out of range.
  bool Absorb(const HrrReport& report);
  bool AbsorbSerialized(std::span<const uint8_t> bytes) override;

  ParseError DoAbsorbBatchSerialized(std::span<const uint8_t> bytes,
                                   uint64_t* accepted) override;

  double RangeQuery(uint64_t a, uint64_t b) const override;
  /// FlatEstimate's Fact 1 accounting: r times HRR's exact per-item
  /// variance at the accepted-report count; +inf before any report.
  RangeEstimate RangeQueryWithUncertainty(uint64_t a,
                                          uint64_t b) const override;
  std::vector<double> EstimateFrequencies() const override;

  std::optional<HrrStateSize> StateBodySizeRange() const override;
  std::optional<HrrStateDecoder> StateBodyDecoder() override;

 private:
  /// Range checks: the oracle `report` adds to, or nullptr when it is
  /// out of range. The one check behind Fold and the batch look-ahead.
  HrrOracle* Locate(const HrrReport& report);
  /// Locate + add: the one fold behind Absorb and the batch slot loop.
  /// False (nothing added) when the report is out of range.
  bool Fold(const HrrReport& report);

  void DoFinalize() override;
  service::StateKind state_kind() const override {
    return service::StateKind::kFlat;
  }
  double state_epsilon() const override { return eps_; }
  void AppendStateBody(std::vector<uint8_t>& out) const override;
  size_t StateBodyBytes() const override;
  std::unique_ptr<service::AggregatorServer> DoCloneEmpty() const override;
  service::MergeStatus DoMergeFrom(service::AggregatorServer& other) override;

  uint64_t domain_;
  double eps_;
  std::unique_ptr<HrrOracle> oracle_;
  std::optional<FlatEstimate> estimate_;
};

}  // namespace ldp::protocol

#endif  // LDPRANGE_PROTOCOL_FLAT_PROTOCOL_H_
