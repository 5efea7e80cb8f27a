#include "protocol/flat_protocol.h"

#include "common/bit_util.h"
#include "common/check.h"
#include "protocol/wire.h"

namespace ldp::protocol {

namespace {

constexpr size_t kItemSize = 9;  // [index u64][sign u8]

void AppendItem(std::vector<uint8_t>& out, const HrrReport& report) {
  AppendU64(out, report.coefficient_index);
  AppendU8(out, report.sign > 0 ? 1 : 0);
}

// Decodes one fixed-size item slot; false on a bad sign byte (the only
// value-level check the item layout admits). The one decoder behind both
// single-report forms, the typed batch parser and the server's slot loop.
bool DecodeItem(const uint8_t* slot, HrrReport* report) {
  const uint8_t sign = slot[8];
  if (sign > 1) return false;
  report->coefficient_index = LoadU64Le(slot);
  report->sign = sign == 1 ? +1 : -1;
  return true;
}

}  // namespace

std::vector<uint8_t> SerializeHrrReport(const HrrReport& report) {
  std::vector<uint8_t> out;
  out.reserve(kEnvelopeHeaderSize + kItemSize);
  AppendEnvelopeHeader(out, MechanismTag::kFlatHrr, kItemSize);
  AppendItem(out, report);
  return out;
}

ParseError ParseHrrReportDetailed(std::span<const uint8_t> bytes,
                                  HrrReport* report) {
  Envelope env;
  ParseError err = DecodeEnvelope(bytes, &env);
  if (err != ParseError::kOk) return err;
  if (env.mechanism != MechanismTag::kFlatHrr) {
    return ParseError::kBadPayload;
  }
  if (env.payload.size() != kItemSize ||
      !DecodeItem(env.payload.data(), report)) {
    return ParseError::kBadPayload;
  }
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
  ReportBatch batch;
  ParseError err =
      OpenReportBatch(bytes, MechanismTag::kFlatHrrBatch, kItemSize, &batch);
  if (err != ParseError::kOk) return err;
  uint64_t bad = DecodeReportSlots(batch, DecodeItem, reports);
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
  return SerializeHrrReport(Encode(value, rng));
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
  return SerializeHrrReportBatch(EncodeUsers(values, rng));
}

FlatHrrServer::FlatHrrServer(uint64_t domain, double eps)
    : domain_(domain),
      padded_(NextPowerOfTwo(domain)),
      eps_(eps),
      oracle_(std::make_unique<HrrOracle>(domain, eps)) {
  LDP_CHECK_GE(domain, 2u);
}

bool FlatHrrServer::Fold(const HrrReport& report) {
  if (report.coefficient_index >= padded_ ||
      (report.sign != 1 && report.sign != -1)) {
    return false;
  }
  oracle_->AddValidatedReport(report);
  return true;
}

bool FlatHrrServer::Absorb(const HrrReport& report) {
  LDP_CHECK_MSG(!finalized_, "Absorb after Finalize");
  return CountReport(Fold(report));
}

bool FlatHrrServer::AbsorbSerialized(std::span<const uint8_t> bytes) {
  HrrReport report;
  if (!ParseHrrReport(bytes, &report)) {
    stats_.CountRejected();
    return false;
  }
  return Absorb(report);
}

ParseError FlatHrrServer::DoAbsorbBatchSerialized(
    std::span<const uint8_t> bytes, uint64_t* accepted) {
  ReportBatch batch;
  ParseError open =
      OpenReportBatch(bytes, MechanismTag::kFlatHrrBatch, kItemSize, &batch);
  return AbsorbReportSlots<HrrReport>(
      open, batch, DecodeItem,
      [this](const HrrReport& report) { return Fold(report); }, accepted);
}

void FlatHrrServer::AppendStateBody(std::vector<uint8_t>& out) const {
  oracle_->AppendState(out);
}

size_t FlatHrrServer::StateBodyBytes() const {
  return oracle_->StateBytes();
}

std::optional<HrrStateSize> FlatHrrServer::StateBodySizeRange() const {
  return oracle_->StateSizeRange();
}

std::optional<HrrStateDecoder> FlatHrrServer::StateBodyDecoder() {
  return HrrStateDecoder(*oracle_);
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

void FlatHrrServer::DoFinalize() { estimate_.emplace(*oracle_); }

double FlatHrrServer::RangeQuery(uint64_t a, uint64_t b) const {
  LDP_CHECK_MSG(finalized_, "RangeQuery before Finalize");
  return estimate_->RangeQuery(a, b);
}

RangeEstimate FlatHrrServer::RangeQueryWithUncertainty(uint64_t a,
                                                       uint64_t b) const {
  LDP_CHECK_MSG(finalized_, "RangeQuery before Finalize");
  return estimate_->RangeQueryWithUncertainty(a, b);
}

std::vector<double> FlatHrrServer::EstimateFrequencies() const {
  LDP_CHECK_MSG(finalized_, "EstimateFrequencies before Finalize");
  return estimate_->frequencies();
}

}  // namespace ldp::protocol
