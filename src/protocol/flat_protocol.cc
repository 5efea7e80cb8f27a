#include "protocol/flat_protocol.h"

#include <cmath>
#include <limits>

#include "common/bit_util.h"
#include "common/check.h"
#include "core/variance.h"
#include "protocol/wire.h"

namespace ldp::protocol {

namespace {

constexpr uint8_t kFlatHrrTagV1 = 0x01;
constexpr size_t kItemSize = 9;  // [index u64][sign u8]

void AppendItem(std::vector<uint8_t>& out, const HrrReport& report) {
  AppendU64(out, report.coefficient_index);
  AppendU8(out, report.sign > 0 ? 1 : 0);
}

// Decodes one fixed-size item; false on a bad sign byte (the only
// value-level check the item layout admits).
bool ReadItem(WireReader& reader, HrrReport* report) {
  uint64_t index = 0;
  uint8_t sign = 0;
  if (!reader.ReadU64(&index) || !reader.ReadU8(&sign)) return false;
  if (sign > 1) return false;
  report->coefficient_index = index;
  report->sign = sign == 1 ? +1 : -1;
  return true;
}

ParseError ParseV1(std::span<const uint8_t> bytes, HrrReport* report) {
  if (bytes.size() < 1 + kItemSize) return ParseError::kTruncated;
  if (bytes[0] != kFlatHrrTagV1) return ParseError::kBadMagic;
  if (bytes.size() > 1 + kItemSize) return ParseError::kTrailingJunk;
  WireReader reader(bytes.subspan(1));
  HrrReport out;
  if (!ReadItem(reader, &out)) return ParseError::kBadPayload;
  *report = out;
  return ParseError::kOk;
}

}  // namespace

std::vector<uint8_t> SerializeHrrReport(const HrrReport& report,
                                        uint8_t wire_version) {
  std::vector<uint8_t> out;
  if (wire_version == kWireVersionV1) {
    out.reserve(1 + kItemSize);
    AppendU8(out, kFlatHrrTagV1);
  } else {
    LDP_CHECK_EQ(wire_version, kWireVersionV2);
    out.reserve(kEnvelopeHeaderSize + kItemSize);
    AppendEnvelopeHeader(out, MechanismTag::kFlatHrr, kItemSize);
  }
  AppendItem(out, report);
  return out;
}

ParseError ParseHrrReportDetailed(std::span<const uint8_t> bytes,
                                  HrrReport* report) {
  if (!LooksLikeEnvelope(bytes)) return ParseV1(bytes, report);
  Envelope env;
  ParseError err = DecodeEnvelope(bytes, &env);
  if (err != ParseError::kOk) return err;
  if (env.mechanism != MechanismTag::kFlatHrr) {
    return ParseError::kBadPayload;
  }
  if (env.payload.size() != kItemSize) return ParseError::kBadPayload;
  WireReader reader(env.payload);
  HrrReport out;
  if (!ReadItem(reader, &out)) return ParseError::kBadPayload;
  *report = out;
  return ParseError::kOk;
}

bool ParseHrrReport(std::span<const uint8_t> bytes, HrrReport* report) {
  return ParseHrrReportDetailed(bytes, report) == ParseError::kOk;
}

std::vector<uint8_t> SerializeHrrReportBatch(
    std::span<const HrrReport> reports) {
  std::vector<uint8_t> payload;
  payload.reserve(10 + reports.size() * kItemSize);
  AppendVarU64(payload, reports.size());
  for (const HrrReport& report : reports) {
    AppendItem(payload, report);
  }
  return EncodeEnvelope(MechanismTag::kFlatHrrBatch, payload);
}

ParseError ParseHrrReportBatch(std::span<const uint8_t> bytes,
                               std::vector<HrrReport>* reports,
                               uint64_t* malformed) {
  Envelope env;
  ParseError err = DecodeEnvelope(bytes, &env);
  if (err != ParseError::kOk) return err;
  if (env.mechanism != MechanismTag::kFlatHrrBatch) {
    return ParseError::kBadPayload;
  }
  WireReader reader(env.payload);
  uint64_t count = 0;
  if (!reader.ReadVarU64(&count)) return ParseError::kBadPayload;
  // Bound count before the exact-size check so count * kItemSize cannot
  // wrap; exact framing then bounds the reserve by bytes actually present.
  if (count > reader.Remaining() / kItemSize ||
      reader.Remaining() != count * kItemSize) {
    return ParseError::kBadPayload;
  }
  reports->clear();
  reports->reserve(count);
  uint64_t bad = 0;
  for (uint64_t i = 0; i < count; ++i) {
    // ReadItem consumes the full fixed-size slot before validating, so
    // the reader stays aligned across a malformed item.
    HrrReport report;
    if (ReadItem(reader, &report)) {
      reports->push_back(report);
    } else {
      ++bad;
    }
  }
  if (malformed != nullptr) *malformed = bad;
  return ParseError::kOk;
}

FlatHrrClient::FlatHrrClient(uint64_t domain, double eps)
    : domain_(domain), padded_(NextPowerOfTwo(domain)), eps_(eps) {
  LDP_CHECK_GE(domain, 2u);
  LDP_CHECK_MSG(eps > 0.0, "epsilon must be positive");
}

HrrReport FlatHrrClient::Encode(uint64_t value, Rng& rng) const {
  LDP_CHECK_LT(value, domain_);
  return HrrEncode(padded_, eps_, value, +1, rng);
}

std::vector<uint8_t> FlatHrrClient::EncodeSerialized(uint64_t value,
                                                     Rng& rng) const {
  return SerializeHrrReport(Encode(value, rng), wire_version_);
}

std::vector<HrrReport> FlatHrrClient::EncodeUsers(
    std::span<const uint64_t> values, Rng& rng) const {
  std::vector<HrrReport> reports;
  reports.reserve(values.size());
  for (uint64_t value : values) {
    reports.push_back(Encode(value, rng));
  }
  return reports;
}

std::vector<uint8_t> FlatHrrClient::EncodeUsersSerialized(
    std::span<const uint64_t> values, Rng& rng) const {
  LDP_CHECK_MSG(wire_version_ == kWireVersionV2,
                "batch framing requires wire v2");
  return SerializeHrrReportBatch(EncodeUsers(values, rng));
}

FlatHrrServer::FlatHrrServer(uint64_t domain, double eps)
    : domain_(domain),
      padded_(NextPowerOfTwo(domain)),
      eps_(eps),
      oracle_(std::make_unique<HrrOracle>(domain, eps)) {
  LDP_CHECK_GE(domain, 2u);
}

bool FlatHrrServer::Absorb(const HrrReport& report) {
  LDP_CHECK_MSG(!finalized_, "Absorb after Finalize");
  if (report.coefficient_index >= padded_ ||
      (report.sign != 1 && report.sign != -1)) {
    stats_.CountRejected();
    return false;
  }
  oracle_->AbsorbReport(report);
  stats_.CountAccepted();
  return true;
}

bool FlatHrrServer::AbsorbSerialized(std::span<const uint8_t> bytes) {
  HrrReport report;
  if (!ParseHrrReport(bytes, &report)) {
    stats_.CountRejected();
    return false;
  }
  return Absorb(report);
}

uint64_t FlatHrrServer::AbsorbBatch(std::span<const HrrReport> reports) {
  uint64_t accepted = 0;
  for (const HrrReport& report : reports) {
    if (Absorb(report)) ++accepted;
  }
  return accepted;
}

ParseError FlatHrrServer::DoAbsorbBatchSerialized(
    std::span<const uint8_t> bytes, uint64_t* accepted) {
  return IngestBatchMessage<HrrReport>(
      bytes,
      [](std::span<const uint8_t> b, std::vector<HrrReport>* r,
         uint64_t* m) { return ParseHrrReportBatch(b, r, m); },
      [this](std::span<const HrrReport> r) { return AbsorbBatch(r); },
      accepted);
}

void FlatHrrServer::AppendStateBody(std::vector<uint8_t>& out) const {
  oracle_->AppendState(out);
}

size_t FlatHrrServer::StateBodyBytes() const {
  return oracle_->StateBytes();
}

bool FlatHrrServer::RestoreStateBody(std::span<const uint8_t> body) {
  WireReader reader(body);
  return oracle_->RestoreState(reader) && reader.AtEnd();
}

std::unique_ptr<service::AggregatorServer> FlatHrrServer::DoCloneEmpty()
    const {
  return std::make_unique<FlatHrrServer>(domain_, eps_);
}

service::MergeStatus FlatHrrServer::DoMergeFrom(
    service::AggregatorServer& other) {
  // The base validated kind + configuration, and kFlat names exactly this
  // class, so the downcast is safe.
  auto& o = static_cast<FlatHrrServer&>(other);
  oracle_->MergeFromShard(*o.oracle_);
  return service::MergeStatus::kOk;
}

void FlatHrrServer::DoFinalize() {
  frequencies_ = oracle_->EstimateFractions();
  prefix_.assign(domain_ + 1, 0.0);
  for (uint64_t i = 0; i < domain_; ++i) {
    prefix_[i + 1] = prefix_[i] + frequencies_[i];
  }
}

double FlatHrrServer::RangeQuery(uint64_t a, uint64_t b) const {
  LDP_CHECK_MSG(finalized_, "RangeQuery before Finalize");
  LDP_CHECK_LE(a, b);
  LDP_CHECK_LT(b, domain_);
  return prefix_[b + 1] - prefix_[a];
}

RangeEstimate FlatHrrServer::RangeQueryWithUncertainty(uint64_t a,
                                                       uint64_t b) const {
  // No accepted reports: the estimate is vacuous, its uncertainty
  // infinite (the bounds are undefined at n = 0).
  double variance =
      accepted_reports() == 0
          ? std::numeric_limits<double>::infinity()
          : FlatRangeVarianceBound(b - a + 1, eps_,
                                   static_cast<double>(accepted_reports()));
  return RangeEstimate{RangeQuery(a, b), std::sqrt(variance)};
}

std::vector<double> FlatHrrServer::EstimateFrequencies() const {
  LDP_CHECK_MSG(finalized_, "EstimateFrequencies before Finalize");
  return frequencies_;
}

}  // namespace ldp::protocol
