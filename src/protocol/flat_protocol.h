// Deployable client/server split of the flat HRR point-query protocol —
// the frequency-oracle analogue of haar_protocol.h, useful when only
// point/short-range queries are needed (paper Section 4.2 shows flat wins
// there). Each report is one HRR coefficient sample, framed under the
// versioned v2 envelope (envelope.h); the seed's unframed 10-byte v1
// format stays decodable so old captures still parse.

#ifndef LDPRANGE_PROTOCOL_FLAT_PROTOCOL_H_
#define LDPRANGE_PROTOCOL_FLAT_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/random.h"
#include "frequency/hrr.h"
#include "protocol/envelope.h"
#include "service/aggregator_server.h"

namespace ldp::protocol {

/// Serializes an HRR report. v2 (default): 8-byte envelope + payload
/// [index u64][sign u8], 17 bytes. v1: legacy [tag 0x01][index u64]
/// [sign u8], 10 bytes.
std::vector<uint8_t> SerializeHrrReport(const HrrReport& report,
                                        uint8_t wire_version = kWireVersionV2);

/// Parses + validates either wire version, routed by the leading bytes.
/// Returns an explicit error code; total over arbitrary input.
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

/// Client-side flat HRR encoder. Wire-version selection and downgrade
/// negotiation come from DowngradableClient.
class FlatHrrClient : public DowngradableClient {
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

  /// Batched encode + one framed v2 batch message (v2-only: the batch
  /// frame does not exist in v1).
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

  /// Batched ingestion; returns the number of accepted reports (rejects
  /// are counted per report, exactly as the Absorb loop would).
  uint64_t AbsorbBatch(std::span<const HrrReport> reports);

  ParseError DoAbsorbBatchSerialized(std::span<const uint8_t> bytes,
                                   uint64_t* accepted) override;

  double RangeQuery(uint64_t a, uint64_t b) const override;
  /// Uncertainty from Fact 1: a length-r range answers with variance
  /// r * V_F over the accepted-report population.
  RangeEstimate RangeQueryWithUncertainty(uint64_t a,
                                          uint64_t b) const override;
  std::vector<double> EstimateFrequencies() const override;

 private:
  /// Range checks + add: the one fold behind Absorb and the batch slot
  /// loop. False (nothing added) when the report is out of range.
  bool Fold(const HrrReport& report);

  void DoFinalize() override;
  service::StateKind state_kind() const override {
    return service::StateKind::kFlat;
  }
  double state_epsilon() const override { return eps_; }
  void AppendStateBody(std::vector<uint8_t>& out) const override;
  size_t StateBodyBytes() const override;
  bool RestoreStateBody(std::span<const uint8_t> body) override;
  std::unique_ptr<service::AggregatorServer> DoCloneEmpty() const override;
  service::MergeStatus DoMergeFrom(service::AggregatorServer& other) override;

  uint64_t domain_;
  uint64_t padded_;
  double eps_;
  std::unique_ptr<HrrOracle> oracle_;
  std::vector<double> frequencies_;
  std::vector<double> prefix_;
};

}  // namespace ldp::protocol

#endif  // LDPRANGE_PROTOCOL_FLAT_PROTOCOL_H_
