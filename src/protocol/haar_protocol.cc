#include "protocol/haar_protocol.h"

#include "common/bit_util.h"
#include "common/check.h"
#include "protocol/wire.h"

namespace ldp::protocol {

namespace {

constexpr size_t kItemSize = 10;  // [level u8][index u64][sign u8]

// Sign byte encoding: 0 -> -1, 1 -> +1.
uint8_t SignToByte(int8_t sign) { return sign > 0 ? 1 : 0; }

void AppendItem(std::vector<uint8_t>& out, const HaarHrrReport& report) {
  AppendU8(out, static_cast<uint8_t>(report.level));
  AppendU64(out, report.inner.coefficient_index);
  AppendU8(out, SignToByte(report.inner.sign));
}

// Decodes one fixed-size item slot ([level u8][index u64][sign u8]);
// false on a bad sign byte or level 0. The one decoder behind both
// single-report forms, the typed batch parser and the server's slot loop.
bool DecodeItem(const uint8_t* slot, HaarHrrReport* report) {
  const uint8_t level = slot[0];
  const uint8_t sign = slot[9];
  if (sign > 1 || level == 0) return false;
  report->level = level;
  report->inner.coefficient_index = LoadU64Le(slot + 1);
  report->inner.sign = sign == 1 ? +1 : -1;
  return true;
}

}  // namespace

std::vector<uint8_t> SerializeHaarHrrReport(const HaarHrrReport& report) {
  std::vector<uint8_t> out;
  out.reserve(kEnvelopeHeaderSize + kItemSize);
  AppendEnvelopeHeader(out, MechanismTag::kHaarHrr, kItemSize);
  AppendItem(out, report);
  return out;
}

ParseError ParseHaarHrrReportDetailed(std::span<const uint8_t> bytes,
                                      HaarHrrReport* report) {
  Envelope env;
  ParseError err = DecodeEnvelope(bytes, &env);
  if (err != ParseError::kOk) return err;
  if (env.mechanism != MechanismTag::kHaarHrr) {
    return ParseError::kBadPayload;
  }
  if (env.payload.size() != kItemSize ||
      !DecodeItem(env.payload.data(), report)) {
    return ParseError::kBadPayload;
  }
  return ParseError::kOk;
}

bool ParseHaarHrrReport(std::span<const uint8_t> bytes,
                        HaarHrrReport* report) {
  return ParseHaarHrrReportDetailed(bytes, report) == ParseError::kOk;
}

std::vector<uint8_t> SerializeHaarHrrReportBatch(
    std::span<const HaarHrrReport> reports) {
  std::vector<uint8_t> payload;
  payload.reserve(10 + reports.size() * kItemSize);
  AppendVarU64(payload, reports.size());
  for (const HaarHrrReport& report : reports) {
    AppendItem(payload, report);
  }
  return EncodeEnvelope(MechanismTag::kHaarHrrBatch, payload);
}

ParseError ParseHaarHrrReportBatch(std::span<const uint8_t> bytes,
                                   std::vector<HaarHrrReport>* reports,
                                   uint64_t* malformed) {
  ReportBatch batch;
  ParseError err =
      OpenReportBatch(bytes, MechanismTag::kHaarHrrBatch, kItemSize, &batch);
  if (err != ParseError::kOk) return err;
  uint64_t bad = DecodeReportSlots(batch, DecodeItem, reports);
  if (malformed != nullptr) *malformed = bad;
  return ParseError::kOk;
}

HaarHrrClient::HaarHrrClient(uint64_t domain, double eps)
    : domain_(domain),
      padded_(NextPowerOfTwo(domain)),
      height_(Log2Floor(padded_)),
      eps_(eps) {
  LDP_CHECK_GE(domain, 2u);
  LDP_CHECK_MSG(eps > 0.0, "epsilon must be positive");
}

HaarHrrReport HaarHrrClient::Encode(uint64_t value, Rng& rng) const {
  LDP_CHECK_LT(value, domain_);
  HaarHrrReport report;
  report.level = 1 + static_cast<uint32_t>(rng.UniformInt(height_));
  HaarUserCoefficient view = HaarUserView(value, report.level);
  report.inner = HrrEncode(padded_ >> report.level, eps_, view.block,
                           view.sign, rng);
  return report;
}

std::vector<uint8_t> HaarHrrClient::EncodeSerialized(uint64_t value,
                                                     Rng& rng) const {
  return SerializeHaarHrrReport(Encode(value, rng));
}

std::vector<HaarHrrReport> HaarHrrClient::EncodeUsers(
    std::span<const uint64_t> values, Rng& rng) const {
  std::vector<HaarHrrReport> reports;
  reports.reserve(values.size());
  for (uint64_t value : values) {
    reports.push_back(Encode(value, rng));
  }
  return reports;
}

std::vector<uint8_t> HaarHrrClient::EncodeUsersSerialized(
    std::span<const uint64_t> values, Rng& rng) const {
  return SerializeHaarHrrReportBatch(EncodeUsers(values, rng));
}

HaarHrrServer::HaarHrrServer(uint64_t domain, double eps)
    : domain_(domain),
      padded_(NextPowerOfTwo(domain)),
      height_(Log2Floor(padded_)),
      eps_(eps) {
  LDP_CHECK_GE(domain, 2u);
  LDP_CHECK_MSG(eps > 0.0, "epsilon must be positive");
  for (uint32_t l = 1; l <= height_; ++l) {
    levels_.AddLevel(padded_ >> l, eps);
  }
}

bool HaarHrrServer::Fold(const HaarHrrReport& report) {
  if (report.level == 0 || report.level > height_ ||
      report.inner.coefficient_index >= (padded_ >> report.level) ||
      (report.inner.sign != 1 && report.inner.sign != -1)) {
    return false;
  }
  levels_[report.level - 1].AddValidatedReport(report.inner);
  return true;
}

bool HaarHrrServer::Absorb(const HaarHrrReport& report) {
  LDP_CHECK_MSG(!finalized_, "Absorb after Finalize");
  return CountReport(Fold(report));
}

bool HaarHrrServer::AbsorbSerialized(std::span<const uint8_t> bytes) {
  HaarHrrReport report;
  if (!ParseHaarHrrReport(bytes, &report)) {
    stats_.CountRejected();
    return false;
  }
  return Absorb(report);
}

ParseError HaarHrrServer::DoAbsorbBatchSerialized(
    std::span<const uint8_t> bytes, uint64_t* accepted) {
  ReportBatch batch;
  ParseError open =
      OpenReportBatch(bytes, MechanismTag::kHaarHrrBatch, kItemSize, &batch);
  return AbsorbReportSlots<HaarHrrReport>(
      open, batch, DecodeItem,
      [this](const HaarHrrReport& report) { return Fold(report); }, accepted);
}

void HaarHrrServer::AppendStateBody(std::vector<uint8_t>& out) const {
  levels_.AppendState(out);
}

size_t HaarHrrServer::StateBodyBytes() const { return levels_.StateBytes(); }

std::optional<HrrStateSize> HaarHrrServer::StateBodySizeRange() const {
  return levels_.StateSizeRange();
}

std::optional<HrrStateDecoder> HaarHrrServer::StateBodyDecoder() {
  return HrrStateDecoder(levels_);
}

std::unique_ptr<service::AggregatorServer> HaarHrrServer::DoCloneEmpty()
    const {
  return std::make_unique<HaarHrrServer>(domain_, eps_);
}

service::MergeStatus HaarHrrServer::DoMergeFrom(
    service::AggregatorServer& other) {
  levels_.MergeFromShard(static_cast<HaarHrrServer&>(other).levels_);
  return service::MergeStatus::kOk;
}

void HaarHrrServer::DoFinalize() {
  estimate_.emplace(domain_, levels_.Views());
}

double HaarHrrServer::RangeQuery(uint64_t a, uint64_t b) const {
  LDP_CHECK_MSG(finalized_, "RangeQuery before Finalize");
  return estimate_->RangeQuery(a, b);
}

RangeEstimate HaarHrrServer::RangeQueryWithUncertainty(uint64_t a,
                                                       uint64_t b) const {
  LDP_CHECK_MSG(finalized_, "RangeQuery before Finalize");
  return estimate_->RangeQueryWithUncertainty(a, b);
}

std::vector<double> HaarHrrServer::EstimateFrequencies() const {
  LDP_CHECK_MSG(finalized_, "EstimateFrequencies before Finalize");
  return estimate_->EstimateFrequencies();
}

}  // namespace ldp::protocol
