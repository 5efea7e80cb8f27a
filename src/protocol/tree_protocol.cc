#include "protocol/tree_protocol.h"

#include "common/bit_util.h"
#include "common/check.h"
#include "protocol/wire.h"

namespace ldp::protocol {

namespace {

constexpr size_t kItemSize = 10;  // [level u8][index u64][sign u8]

void AppendItem(std::vector<uint8_t>& out, const TreeHrrReport& report) {
  AppendU8(out, static_cast<uint8_t>(report.level));
  AppendU64(out, report.inner.coefficient_index);
  AppendU8(out, report.inner.sign > 0 ? 1 : 0);
}

// Decodes one fixed-size item slot ([level u8][index u64][sign u8]);
// false on a bad sign byte or level 0. The one decoder behind both
// single-report forms, the typed batch parser and the server's slot loop.
bool DecodeItem(const uint8_t* slot, TreeHrrReport* report) {
  const uint8_t level = slot[0];
  const uint8_t sign = slot[9];
  if (sign > 1 || level == 0) return false;
  report->level = level;
  report->inner.coefficient_index = LoadU64Le(slot + 1);
  report->inner.sign = sign == 1 ? +1 : -1;
  return true;
}

}  // namespace

std::vector<uint8_t> SerializeTreeHrrReport(const TreeHrrReport& report) {
  std::vector<uint8_t> out;
  out.reserve(kEnvelopeHeaderSize + kItemSize);
  AppendEnvelopeHeader(out, MechanismTag::kTreeHrr, kItemSize);
  AppendItem(out, report);
  return out;
}

ParseError ParseTreeHrrReportDetailed(std::span<const uint8_t> bytes,
                                      TreeHrrReport* report) {
  Envelope env;
  ParseError err = DecodeEnvelope(bytes, &env);
  if (err != ParseError::kOk) return err;
  if (env.mechanism != MechanismTag::kTreeHrr) {
    return ParseError::kBadPayload;
  }
  if (env.payload.size() != kItemSize ||
      !DecodeItem(env.payload.data(), report)) {
    return ParseError::kBadPayload;
  }
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
  ReportBatch batch;
  ParseError err =
      OpenReportBatch(bytes, MechanismTag::kTreeHrrBatch, kItemSize, &batch);
  if (err != ParseError::kOk) return err;
  uint64_t bad = DecodeReportSlots(batch, DecodeItem, reports);
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
  return SerializeTreeHrrReport(Encode(value, rng));
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
  return SerializeTreeHrrReportBatch(EncodeUsers(values, rng));
}

TreeHrrServer::TreeHrrServer(uint64_t domain, uint64_t fanout, double eps,
                             bool consistency)
    : shape_(domain, fanout), eps_(eps), consistency_(consistency) {
  LDP_CHECK_MSG(eps > 0.0, "epsilon must be positive");
  for (uint32_t l = 1; l <= shape_.height(); ++l) {
    levels_.AddLevel(shape_.NodesAtLevel(l), eps);
  }
}

HrrOracle* TreeHrrServer::Locate(const TreeHrrReport& report) {
  if (report.level == 0 || report.level > shape_.height() ||
      (report.inner.sign != 1 && report.inner.sign != -1)) {
    return nullptr;
  }
  HrrOracle& oracle = levels_[report.level - 1];
  if (report.inner.coefficient_index >= oracle.padded_domain()) {
    return nullptr;
  }
  return &oracle;
}

bool TreeHrrServer::Fold(const TreeHrrReport& report) {
  HrrOracle* oracle = Locate(report);
  if (oracle == nullptr) return false;
  oracle->AddValidatedReport(report.inner);
  return true;
}

bool TreeHrrServer::Absorb(const TreeHrrReport& report) {
  LDP_CHECK_MSG(!finalized_, "Absorb after Finalize");
  return CountReport(Fold(report));
}

bool TreeHrrServer::AbsorbSerialized(std::span<const uint8_t> bytes) {
  TreeHrrReport report;
  if (!ParseTreeHrrReport(bytes, &report)) {
    stats_.CountRejected();
    return false;
  }
  return Absorb(report);
}

ParseError TreeHrrServer::DoAbsorbBatchSerialized(
    std::span<const uint8_t> bytes, uint64_t* accepted) {
  ReportBatch batch;
  ParseError open =
      OpenReportBatch(bytes, MechanismTag::kTreeHrrBatch, kItemSize, &batch);
  auto fold = [this](const TreeHrrReport& report) { return Fold(report); };
  if (!levels_.look_ahead()) {
    return AbsorbReportSlots<TreeHrrReport>(open, batch, DecodeItem, fold,
                                            accepted);
  }
  return AbsorbReportSlots<TreeHrrReport>(
      open, batch, DecodeItem, fold, accepted,
      [this](const TreeHrrReport& report) -> const void* {
        const HrrOracle* oracle = Locate(report);
        return oracle == nullptr
                   ? nullptr
                   : oracle->SumAddress(report.inner.coefficient_index);
      });
}

void TreeHrrServer::AppendStateBody(std::vector<uint8_t>& out) const {
  levels_.AppendState(out);
}

size_t TreeHrrServer::StateBodyBytes() const { return levels_.StateBytes(); }

std::optional<HrrStateSize> TreeHrrServer::StateBodySizeRange() const {
  return levels_.StateSizeRange();
}

std::optional<HrrStateDecoder> TreeHrrServer::StateBodyDecoder() {
  return HrrStateDecoder(levels_);
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
  levels_.MergeFromShard(o.levels_);
  return service::MergeStatus::kOk;
}

void TreeHrrServer::DoFinalize() {
  estimate_.emplace(shape_, levels_.Views(), consistency_);
}

double TreeHrrServer::RangeQuery(uint64_t a, uint64_t b) const {
  LDP_CHECK_MSG(finalized_, "RangeQuery before Finalize");
  return estimate_->RangeQuery(a, b);
}

RangeEstimate TreeHrrServer::RangeQueryWithUncertainty(uint64_t a,
                                                       uint64_t b) const {
  LDP_CHECK_MSG(finalized_, "RangeQuery before Finalize");
  return estimate_->RangeQueryWithUncertainty(a, b);
}

std::vector<double> TreeHrrServer::EstimateFrequencies() const {
  LDP_CHECK_MSG(finalized_, "EstimateFrequencies before Finalize");
  return estimate_->EstimateFrequencies();
}

}  // namespace ldp::protocol
