#include "protocol/tree_protocol.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/bit_util.h"
#include "common/check.h"
#include "core/consistency.h"
#include "core/variance.h"
#include "protocol/wire.h"

namespace ldp::protocol {

namespace {

constexpr uint8_t kTreeHrrTagV1 = 0x03;
constexpr size_t kItemSize = 10;  // [level u8][index u64][sign u8]

void AppendItem(std::vector<uint8_t>& out, const TreeHrrReport& report) {
  AppendU8(out, static_cast<uint8_t>(report.level));
  AppendU64(out, report.inner.coefficient_index);
  AppendU8(out, report.inner.sign > 0 ? 1 : 0);
}

// Decodes one fixed-size item, consuming the full slot before validating
// so batch readers stay aligned across a malformed item.
bool ReadItem(WireReader& reader, TreeHrrReport* report) {
  uint8_t level = 0;
  uint64_t index = 0;
  uint8_t sign = 0;
  if (!reader.ReadU8(&level) || !reader.ReadU64(&index) ||
      !reader.ReadU8(&sign)) {
    return false;
  }
  if (sign > 1 || level == 0) return false;
  report->level = level;
  report->inner.coefficient_index = index;
  report->inner.sign = sign == 1 ? +1 : -1;
  return true;
}

ParseError ParseV1(std::span<const uint8_t> bytes, TreeHrrReport* report) {
  if (bytes.size() < 1 + kItemSize) return ParseError::kTruncated;
  if (bytes[0] != kTreeHrrTagV1) return ParseError::kBadMagic;
  if (bytes.size() > 1 + kItemSize) return ParseError::kTrailingJunk;
  WireReader reader(bytes.subspan(1));
  TreeHrrReport out;
  if (!ReadItem(reader, &out)) return ParseError::kBadPayload;
  *report = out;
  return ParseError::kOk;
}

}  // namespace

std::vector<uint8_t> SerializeTreeHrrReport(const TreeHrrReport& report,
                                            uint8_t wire_version) {
  std::vector<uint8_t> out;
  if (wire_version == kWireVersionV1) {
    out.reserve(1 + kItemSize);
    AppendU8(out, kTreeHrrTagV1);
  } else {
    LDP_CHECK_EQ(wire_version, kWireVersionV2);
    out.reserve(kEnvelopeHeaderSize + kItemSize);
    AppendEnvelopeHeader(out, MechanismTag::kTreeHrr, kItemSize);
  }
  AppendItem(out, report);
  return out;
}

ParseError ParseTreeHrrReportDetailed(std::span<const uint8_t> bytes,
                                      TreeHrrReport* report) {
  if (!LooksLikeEnvelope(bytes)) return ParseV1(bytes, report);
  Envelope env;
  ParseError err = DecodeEnvelope(bytes, &env);
  if (err != ParseError::kOk) return err;
  if (env.mechanism != MechanismTag::kTreeHrr) {
    return ParseError::kBadPayload;
  }
  if (env.payload.size() != kItemSize) return ParseError::kBadPayload;
  WireReader reader(env.payload);
  TreeHrrReport out;
  if (!ReadItem(reader, &out)) return ParseError::kBadPayload;
  *report = out;
  return ParseError::kOk;
}

bool ParseTreeHrrReport(std::span<const uint8_t> bytes,
                        TreeHrrReport* report) {
  return ParseTreeHrrReportDetailed(bytes, report) == ParseError::kOk;
}

std::vector<uint8_t> SerializeTreeHrrReportBatch(
    std::span<const TreeHrrReport> reports) {
  std::vector<uint8_t> payload;
  payload.reserve(10 + reports.size() * kItemSize);
  AppendVarU64(payload, reports.size());
  for (const TreeHrrReport& report : reports) {
    AppendItem(payload, report);
  }
  return EncodeEnvelope(MechanismTag::kTreeHrrBatch, payload);
}

ParseError ParseTreeHrrReportBatch(std::span<const uint8_t> bytes,
                                   std::vector<TreeHrrReport>* reports,
                                   uint64_t* malformed) {
  Envelope env;
  ParseError err = DecodeEnvelope(bytes, &env);
  if (err != ParseError::kOk) return err;
  if (env.mechanism != MechanismTag::kTreeHrrBatch) {
    return ParseError::kBadPayload;
  }
  WireReader reader(env.payload);
  uint64_t count = 0;
  if (!reader.ReadVarU64(&count)) return ParseError::kBadPayload;
  if (count > reader.Remaining() / kItemSize ||
      reader.Remaining() != count * kItemSize) {
    return ParseError::kBadPayload;
  }
  reports->clear();
  reports->reserve(count);
  uint64_t bad = 0;
  for (uint64_t i = 0; i < count; ++i) {
    TreeHrrReport report;
    if (ReadItem(reader, &report)) {
      reports->push_back(report);
    } else {
      ++bad;
    }
  }
  if (malformed != nullptr) *malformed = bad;
  return ParseError::kOk;
}

TreeHrrClient::TreeHrrClient(uint64_t domain, uint64_t fanout, double eps)
    : shape_(domain, fanout), eps_(eps) {
  LDP_CHECK_MSG(eps > 0.0, "epsilon must be positive");
}

TreeHrrReport TreeHrrClient::Encode(uint64_t value, Rng& rng) const {
  LDP_CHECK_LT(value, shape_.domain());
  TreeHrrReport report;
  report.level = 1 + static_cast<uint32_t>(rng.UniformInt(shape_.height()));
  uint64_t node = shape_.NodeContaining(report.level, value);
  uint64_t padded = NextPowerOfTwo(shape_.NodesAtLevel(report.level));
  report.inner = HrrEncode(padded, eps_, node, +1, rng);
  return report;
}

std::vector<uint8_t> TreeHrrClient::EncodeSerialized(uint64_t value,
                                                     Rng& rng) const {
  return SerializeTreeHrrReport(Encode(value, rng), wire_version_);
}

std::vector<TreeHrrReport> TreeHrrClient::EncodeUsers(
    std::span<const uint64_t> values, Rng& rng) const {
  std::vector<TreeHrrReport> reports;
  reports.reserve(values.size());
  for (uint64_t value : values) {
    reports.push_back(Encode(value, rng));
  }
  return reports;
}

std::vector<uint8_t> TreeHrrClient::EncodeUsersSerialized(
    std::span<const uint64_t> values, Rng& rng) const {
  LDP_CHECK_MSG(wire_version_ == kWireVersionV2,
                "batch framing requires wire v2");
  return SerializeTreeHrrReportBatch(EncodeUsers(values, rng));
}

TreeHrrServer::TreeHrrServer(uint64_t domain, uint64_t fanout, double eps,
                             bool consistency)
    : shape_(domain, fanout), eps_(eps), consistency_(consistency) {
  LDP_CHECK_MSG(eps > 0.0, "epsilon must be positive");
  level_oracles_.reserve(shape_.height());
  for (uint32_t l = 1; l <= shape_.height(); ++l) {
    level_oracles_.push_back(
        std::make_unique<HrrOracle>(shape_.NodesAtLevel(l), eps));
  }
}

bool TreeHrrServer::Absorb(const TreeHrrReport& report) {
  LDP_CHECK_MSG(!finalized_, "Absorb after Finalize");
  if (report.level == 0 || report.level > shape_.height() ||
      (report.inner.sign != 1 && report.inner.sign != -1)) {
    stats_.CountRejected();
    return false;
  }
  HrrOracle& oracle = *level_oracles_[report.level - 1];
  if (report.inner.coefficient_index >= oracle.padded_domain()) {
    stats_.CountRejected();
    return false;
  }
  oracle.AbsorbReport(report.inner);
  stats_.CountAccepted();
  return true;
}

bool TreeHrrServer::AbsorbSerialized(std::span<const uint8_t> bytes) {
  TreeHrrReport report;
  if (!ParseTreeHrrReport(bytes, &report)) {
    stats_.CountRejected();
    return false;
  }
  return Absorb(report);
}

uint64_t TreeHrrServer::AbsorbBatch(std::span<const TreeHrrReport> reports) {
  uint64_t accepted = 0;
  for (const TreeHrrReport& report : reports) {
    if (Absorb(report)) ++accepted;
  }
  return accepted;
}

ParseError TreeHrrServer::DoAbsorbBatchSerialized(
    std::span<const uint8_t> bytes, uint64_t* accepted) {
  return IngestBatchMessage<TreeHrrReport>(
      bytes,
      [](std::span<const uint8_t> b, std::vector<TreeHrrReport>* r,
         uint64_t* m) { return ParseTreeHrrReportBatch(b, r, m); },
      [this](std::span<const TreeHrrReport> r) { return AbsorbBatch(r); },
      accepted);
}

void TreeHrrServer::AppendStateBody(std::vector<uint8_t>& out) const {
  // [levels varint][levels x HrrOracle record, level 1 first].
  AppendVarU64(out, level_oracles_.size());
  for (const auto& oracle : level_oracles_) {
    oracle->AppendState(out);
  }
}

size_t TreeHrrServer::StateBodyBytes() const {
  size_t bytes = VarU64Size(level_oracles_.size());
  for (const auto& oracle : level_oracles_) bytes += oracle->StateBytes();
  return bytes;
}

bool TreeHrrServer::RestoreStateBody(std::span<const uint8_t> body) {
  WireReader reader(body);
  uint64_t levels = 0;
  if (!reader.ReadVarU64(&levels)) return false;
  // Cross-check against this server's own shape, never an allocation size.
  if (levels != level_oracles_.size()) return false;
  for (auto& oracle : level_oracles_) {
    if (!oracle->RestoreState(reader)) return false;
  }
  return reader.AtEnd();
}

std::unique_ptr<service::AggregatorServer> TreeHrrServer::DoCloneEmpty()
    const {
  return std::make_unique<TreeHrrServer>(shape_.domain(), shape_.fanout(),
                                         eps_, consistency_);
}

service::MergeStatus TreeHrrServer::DoMergeFrom(
    service::AggregatorServer& other) {
  auto& o = static_cast<TreeHrrServer&>(other);
  // Consistency is a finalize-time post-processing switch, not aggregate
  // state, but merged shards must agree on how they will be finalized.
  if (o.consistency_ != consistency_) {
    return service::MergeStatus::kConfigMismatch;
  }
  for (size_t l = 0; l < level_oracles_.size(); ++l) {
    level_oracles_[l]->MergeFromShard(*o.level_oracles_[l]);
  }
  return service::MergeStatus::kOk;
}

void TreeHrrServer::DoFinalize() {
  const uint32_t h = shape_.height();
  estimates_.assign(h + 1, {});
  estimates_[0] = {1.0};  // root known exactly in the local model
  for (uint32_t l = 1; l <= h; ++l) {
    estimates_[l] = level_oracles_[l - 1]->EstimateFractions();
  }
  if (consistency_) {
    EnforceHierarchicalConsistency(estimates_, shape_.fanout());
  }
}

double TreeHrrServer::RangeQuery(uint64_t a, uint64_t b) const {
  LDP_CHECK_MSG(finalized_, "RangeQuery before Finalize");
  LDP_CHECK_LE(a, b);
  LDP_CHECK_LT(b, shape_.domain());
  double total = 0.0;
  for (const TreeNode& node : shape_.Decompose(a, b)) {
    total += estimates_[node.level][node.index];
  }
  return total;
}

RangeEstimate TreeHrrServer::RangeQueryWithUncertainty(uint64_t a,
                                                       uint64_t b) const {
  double n = static_cast<double>(accepted_reports());
  // The bounds are stated for r >= 2 (log_B(1) = 0 would degenerate);
  // answer point queries with the length-2 envelope, a slight
  // over-estimate. No accepted reports: infinite uncertainty (the
  // bounds are undefined at n = 0).
  uint64_t r = std::max<uint64_t>(b - a + 1, 2);
  double variance;
  if (accepted_reports() == 0) {
    variance = std::numeric_limits<double>::infinity();
  } else if (consistency_) {
    variance = HhConsistentRangeVarianceBound(shape_.domain(),
                                              shape_.fanout(), r, eps_, n);
  } else {
    variance =
        HhRangeVarianceBound(shape_.domain(), shape_.fanout(), r, eps_, n);
  }
  return RangeEstimate{RangeQuery(a, b), std::sqrt(variance)};
}

std::vector<double> TreeHrrServer::EstimateFrequencies() const {
  LDP_CHECK_MSG(finalized_, "EstimateFrequencies before Finalize");
  const std::vector<double>& leaves = estimates_[shape_.height()];
  return std::vector<double>(leaves.begin(),
                             leaves.begin() + shape_.domain());
}

}  // namespace ldp::protocol
