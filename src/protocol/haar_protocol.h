// Deployable client/server split of the paper's HaarHRR mechanism.
//
// HaarHrrMechanism simulates both protocol sides in one object — ideal for
// experiments. This module is the shape a production rollout needs:
//
//   * HaarHrrClient lives on the user's device, holds only public
//     parameters, and turns the private value into one serialized report
//     (level id + Hadamard coefficient index + 1 randomized sign bit,
//     framed under the v2 envelope — 18 bytes on the wire). The report is
//     eps-LDP before it leaves the device.
//   * HaarHrrServer ingests serialized reports — rejecting malformed or
//     out-of-range ones instead of crashing — and answers range / prefix /
//     quantile queries after Finalize().
//
// Only ingestion is protocol-specific: the server finalizes and answers
// through core's HaarHrrEstimate, the code HaarHrrMechanism runs, so on
// the same reports both give bit-identical values and stddevs
// (tests/protocol_test.cc).

#ifndef LDPRANGE_PROTOCOL_HAAR_PROTOCOL_H_
#define LDPRANGE_PROTOCOL_HAAR_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/random.h"
#include "core/haar_hrr.h"
#include "frequency/hrr.h"
#include "protocol/envelope.h"
#include "service/aggregator_server.h"

namespace ldp::protocol {

/// An unserialized HaarHRR report: which Haar level the user sampled and
/// their HRR report for that level's coefficient vector.
struct HaarHrrReport {
  uint32_t level = 1;  // 1 = finest detail level
  HrrReport inner;
};

/// Serializes one report: envelope + payload [level u8][index u64]
/// [sign u8], 18 bytes.
std::vector<uint8_t> SerializeHaarHrrReport(const HaarHrrReport& report);

/// Parses and validates one framed report with an explicit error code
/// (range checks against the tree shape happen server side).
ParseError ParseHaarHrrReportDetailed(std::span<const uint8_t> bytes,
                                      HaarHrrReport* report);

/// Convenience wrapper: true iff ParseHaarHrrReportDetailed returns kOk.
bool ParseHaarHrrReport(std::span<const uint8_t> bytes,
                        HaarHrrReport* report);

/// One framed v2 batch message (kHaarHrrBatch):
/// payload = [count varint][count x ([level u8][index u64][sign u8])].
std::vector<uint8_t> SerializeHaarHrrReportBatch(
    std::span<const HaarHrrReport> reports);

/// Parses a v2 batch message; per-item validation failures are skipped
/// and counted in `malformed` (may be null), structural failures reject
/// the whole message.
ParseError ParseHaarHrrReportBatch(std::span<const uint8_t> bytes,
                                   std::vector<HaarHrrReport>* reports,
                                   uint64_t* malformed = nullptr);

/// Client-side encoder (stateless between users).
class HaarHrrClient {
 public:
  HaarHrrClient(uint64_t domain, double eps);

  uint64_t domain() const { return domain_; }
  uint64_t padded_domain() const { return padded_; }
  uint32_t height() const { return height_; }

  /// Randomizes `value` in [0, domain) into a report. eps-LDP.
  HaarHrrReport Encode(uint64_t value, Rng& rng) const;

  /// Encode + serialize in one step.
  std::vector<uint8_t> EncodeSerialized(uint64_t value, Rng& rng) const;

  /// Batched encode (a simulation driver standing in for many devices):
  /// one report per value, drawn exactly as the Encode loop would.
  std::vector<HaarHrrReport> EncodeUsers(std::span<const uint64_t> values,
                                         Rng& rng) const;

  /// Batched encode + one framed v2 batch message.
  std::vector<uint8_t> EncodeUsersSerialized(std::span<const uint64_t> values,
                                             Rng& rng) const;

 private:
  uint64_t domain_;
  uint64_t padded_;
  uint32_t height_;
  double eps_;
};

/// Server-side aggregator. Ingestion accounting, finalize discipline, and
/// quantile search come from service::AggregatorServer.
class HaarHrrServer final : public service::AggregatorServer {
 public:
  HaarHrrServer(uint64_t domain, double eps);

  std::string Name() const override { return "HaarHrr"; }
  uint64_t domain() const override { return domain_; }

  /// Ingests one parsed report. Returns false (and counts a rejection)
  /// when the level or coefficient index is out of range.
  bool Absorb(const HaarHrrReport& report);

  bool AbsorbSerialized(std::span<const uint8_t> bytes) override;

  ParseError DoAbsorbBatchSerialized(std::span<const uint8_t> bytes,
                                   uint64_t* accepted) override;

  /// Estimated fraction of users in [a, b] (inclusive; b < domain).
  double RangeQuery(uint64_t a, uint64_t b) const override;
  /// HaarHrrEstimate's per-query accounting: the boundary coefficients
  /// the range reads, each at its level's report count (Eq. 3 is the
  /// worst case over ranges).
  RangeEstimate RangeQueryWithUncertainty(uint64_t a,
                                          uint64_t b) const override;

  /// Estimated per-item frequencies (length = domain).
  std::vector<double> EstimateFrequencies() const override;

  std::optional<HrrStateSize> StateBodySizeRange() const override;
  std::optional<HrrStateDecoder> StateBodyDecoder() override;

 private:
  /// Range checks + add: the one fold behind Absorb and the batch slot
  /// loop. False (nothing added) when the report is out of range.
  bool Fold(const HaarHrrReport& report);

  void DoFinalize() override;
  service::StateKind state_kind() const override {
    return service::StateKind::kHaar;
  }
  double state_epsilon() const override { return eps_; }
  void AppendStateBody(std::vector<uint8_t>& out) const override;
  size_t StateBodyBytes() const override;
  std::unique_ptr<service::AggregatorServer> DoCloneEmpty() const override;
  service::MergeStatus DoMergeFrom(service::AggregatorServer& other) override;

  uint64_t domain_;
  uint64_t padded_;
  uint32_t height_;
  double eps_;
  HrrLevels levels_;
  std::optional<HaarHrrEstimate> estimate_;
};

}  // namespace ldp::protocol

#endif  // LDPRANGE_PROTOCOL_HAAR_PROTOCOL_H_
