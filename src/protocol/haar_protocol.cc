#include "protocol/haar_protocol.h"

#include <cmath>
#include <limits>

#include "common/bit_util.h"
#include "common/check.h"
#include "core/variance.h"
#include "protocol/wire.h"

namespace ldp::protocol {

namespace {

constexpr uint8_t kHaarHrrTagV1 = 0x02;
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

ParseError ParseV1(std::span<const uint8_t> bytes, HaarHrrReport* report) {
  if (bytes.size() < 1 + kItemSize) return ParseError::kTruncated;
  if (bytes[0] != kHaarHrrTagV1) return ParseError::kBadMagic;
  if (bytes.size() > 1 + kItemSize) return ParseError::kTrailingJunk;
  if (!DecodeItem(bytes.data() + 1, report)) return ParseError::kBadPayload;
  return ParseError::kOk;
}

}  // namespace

std::vector<uint8_t> SerializeHaarHrrReport(const HaarHrrReport& report,
                                            uint8_t wire_version) {
  std::vector<uint8_t> out;
  if (wire_version == kWireVersionV1) {
    out.reserve(1 + kItemSize);
    AppendU8(out, kHaarHrrTagV1);
  } else {
    LDP_CHECK_EQ(wire_version, kWireVersionV2);
    out.reserve(kEnvelopeHeaderSize + kItemSize);
    AppendEnvelopeHeader(out, MechanismTag::kHaarHrr, kItemSize);
  }
  AppendItem(out, report);
  return out;
}

ParseError ParseHaarHrrReportDetailed(std::span<const uint8_t> bytes,
                                      HaarHrrReport* report) {
  if (!LooksLikeEnvelope(bytes)) return ParseV1(bytes, report);
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
  return SerializeHaarHrrReport(Encode(value, rng), wire_version_);
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
  LDP_CHECK_MSG(wire_version_ == kWireVersionV2,
                "batch framing requires wire v2");
  return SerializeHaarHrrReportBatch(EncodeUsers(values, rng));
}

HaarHrrServer::HaarHrrServer(uint64_t domain, double eps)
    : domain_(domain),
      padded_(NextPowerOfTwo(domain)),
      height_(Log2Floor(padded_)),
      eps_(eps) {
  LDP_CHECK_GE(domain, 2u);
  LDP_CHECK_MSG(eps > 0.0, "epsilon must be positive");
  level_oracles_.reserve(height_);
  for (uint32_t l = 1; l <= height_; ++l) {
    level_oracles_.push_back(
        std::make_unique<HrrOracle>(padded_ >> l, eps));
  }
}

bool HaarHrrServer::Fold(const HaarHrrReport& report) {
  if (report.level == 0 || report.level > height_ ||
      report.inner.coefficient_index >= (padded_ >> report.level) ||
      (report.inner.sign != 1 && report.inner.sign != -1)) {
    return false;
  }
  level_oracles_[report.level - 1]->AddValidatedReport(report.inner);
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

uint64_t HaarHrrServer::AbsorbBatch(std::span<const HaarHrrReport> reports) {
  uint64_t accepted = 0;
  for (const HaarHrrReport& report : reports) {
    if (Absorb(report)) ++accepted;
  }
  return accepted;
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
  // [levels varint][levels x HrrOracle record, finest (l = 1) first].
  AppendVarU64(out, level_oracles_.size());
  for (const auto& oracle : level_oracles_) {
    oracle->AppendState(out);
  }
}

size_t HaarHrrServer::StateBodyBytes() const {
  size_t bytes = VarU64Size(level_oracles_.size());
  for (const auto& oracle : level_oracles_) bytes += oracle->StateBytes();
  return bytes;
}

bool HaarHrrServer::RestoreStateBody(std::span<const uint8_t> body) {
  WireReader reader(body);
  uint64_t levels = 0;
  if (!reader.ReadVarU64(&levels)) return false;
  // The level count is a cross-check against this server's own shape,
  // never an allocation size.
  if (levels != level_oracles_.size()) return false;
  for (auto& oracle : level_oracles_) {
    if (!oracle->RestoreState(reader)) return false;
  }
  return reader.AtEnd();
}

std::unique_ptr<service::AggregatorServer> HaarHrrServer::DoCloneEmpty()
    const {
  return std::make_unique<HaarHrrServer>(domain_, eps_);
}

service::MergeStatus HaarHrrServer::DoMergeFrom(
    service::AggregatorServer& other) {
  auto& o = static_cast<HaarHrrServer&>(other);
  for (size_t l = 0; l < level_oracles_.size(); ++l) {
    level_oracles_[l]->MergeFromShard(*o.level_oracles_[l]);
  }
  return service::MergeStatus::kOk;
}

void HaarHrrServer::DoFinalize() {
  coefficients_.height = height_;
  coefficients_.average = 1.0 / std::sqrt(static_cast<double>(padded_));
  coefficients_.detail.resize(height_);
  for (uint32_t l = 1; l <= height_; ++l) {
    std::vector<double> g = level_oracles_[l - 1]->EstimateFractions();
    double scale = std::exp2(-0.5 * static_cast<double>(l));
    for (double& v : g) {
      v *= scale;
    }
    coefficients_.detail[l - 1] = std::move(g);
  }
}

double HaarHrrServer::RangeQuery(uint64_t a, uint64_t b) const {
  LDP_CHECK_MSG(finalized_, "RangeQuery before Finalize");
  LDP_CHECK_LE(a, b);
  LDP_CHECK_LT(b, domain_);
  return HaarRangeEstimate(coefficients_, padded_, a, b);
}

RangeEstimate HaarHrrServer::RangeQueryWithUncertainty(uint64_t a,
                                                       uint64_t b) const {
  // No accepted reports: the estimate is vacuous, its uncertainty
  // infinite (the bounds are undefined at n = 0).
  double variance =
      accepted_reports() == 0
          ? std::numeric_limits<double>::infinity()
          : HaarRangeVarianceBound(padded_, eps_,
                                   static_cast<double>(accepted_reports()));
  return RangeEstimate{RangeQuery(a, b), std::sqrt(variance)};
}

std::vector<double> HaarHrrServer::EstimateFrequencies() const {
  LDP_CHECK_MSG(finalized_, "EstimateFrequencies before Finalize");
  std::vector<double> leaves = HaarInverse(coefficients_);
  leaves.resize(domain_);
  return leaves;
}

}  // namespace ldp::protocol
