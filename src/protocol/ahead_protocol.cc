#include "protocol/ahead_protocol.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"
#include "core/consistency.h"
#include "frequency/grr.h"
#include "protocol/wire.h"

namespace ldp::protocol {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr size_t kItemSize = 10;  // [phase u8][level u8][node u64]

void AppendItem(std::vector<uint8_t>& out, const AheadWireReport& report) {
  AppendU8(out, report.phase);
  AppendU8(out, static_cast<uint8_t>(report.level));
  AppendU64(out, report.node);
}

// Decodes one fixed-size item slot ([phase u8][level u8][node u64]);
// false on an unknown phase or level 0. The one decoder behind the
// single-report parser, the typed batch parser and the server's slot loop.
bool DecodeItem(const uint8_t* slot, AheadWireReport* report) {
  const uint8_t phase = slot[0];
  const uint8_t level = slot[1];
  if ((phase != 1 && phase != 2) || level == 0) return false;
  report->phase = phase;
  report->level = level;
  report->node = LoadU64Le(slot + 2);
  return true;
}

}  // namespace

std::vector<uint8_t> SerializeAheadReport(const AheadWireReport& report) {
  std::vector<uint8_t> out;
  out.reserve(kEnvelopeHeaderSize + kItemSize);
  AppendEnvelopeHeader(out, MechanismTag::kAheadReport, kItemSize);
  AppendItem(out, report);
  return out;
}

ParseError ParseAheadReportDetailed(std::span<const uint8_t> bytes,
                                    AheadWireReport* report) {
  Envelope env;
  ParseError err = DecodeEnvelope(bytes, &env);
  if (err != ParseError::kOk) return err;
  if (env.mechanism != MechanismTag::kAheadReport) {
    return ParseError::kBadPayload;
  }
  if (env.payload.size() != kItemSize ||
      !DecodeItem(env.payload.data(), report)) {
    return ParseError::kBadPayload;
  }
  return ParseError::kOk;
}

bool ParseAheadReport(std::span<const uint8_t> bytes,
                      AheadWireReport* report) {
  return ParseAheadReportDetailed(bytes, report) == ParseError::kOk;
}

std::vector<uint8_t> SerializeAheadReportBatch(
    std::span<const AheadWireReport> reports) {
  std::vector<uint8_t> payload;
  payload.reserve(10 + reports.size() * kItemSize);
  AppendVarU64(payload, reports.size());
  for (const AheadWireReport& report : reports) {
    AppendItem(payload, report);
  }
  return EncodeEnvelope(MechanismTag::kAheadReportBatch, payload);
}

ParseError ParseAheadReportBatch(std::span<const uint8_t> bytes,
                                 std::vector<AheadWireReport>* reports,
                                 uint64_t* malformed) {
  ReportBatch batch;
  ParseError err = OpenReportBatch(bytes, MechanismTag::kAheadReportBatch,
                                   kItemSize, &batch);
  if (err != ParseError::kOk) return err;
  uint64_t bad = DecodeReportSlots(batch, DecodeItem, reports);
  if (malformed != nullptr) *malformed = bad;
  return ParseError::kOk;
}

std::vector<uint8_t> SerializeAheadTree(uint64_t domain, uint64_t fanout,
                                        const AdaptiveTree& tree) {
  std::vector<TreeNode> splits = tree.SplitNodes();
  std::vector<uint8_t> payload;
  AppendVarU64(payload, domain);
  AppendVarU64(payload, fanout);
  AppendVarU64(payload, splits.size());
  for (const TreeNode& s : splits) {
    AppendU8(payload, static_cast<uint8_t>(s.level));
    AppendVarU64(payload, s.index);
  }
  return EncodeEnvelope(MechanismTag::kAheadTree, payload);
}

ParseError ParseAheadTree(std::span<const uint8_t> bytes, uint64_t* domain,
                          uint64_t* fanout,
                          std::optional<AdaptiveTree>* tree) {
  Envelope env;
  ParseError err = DecodeEnvelope(bytes, &env);
  if (err != ParseError::kOk) return err;
  if (env.mechanism != MechanismTag::kAheadTree) {
    return ParseError::kBadPayload;
  }
  WireReader reader(env.payload);
  uint64_t d = 0;
  uint64_t b = 0;
  uint64_t count = 0;
  if (!reader.ReadVarU64(&d) || !reader.ReadVarU64(&b) ||
      !reader.ReadVarU64(&count)) {
    return ParseError::kBadPayload;
  }
  if (d < 2 || b < 2 || d > kMaxAheadTreeDomain ||
      b > kMaxAheadTreeFanout) {
    return ParseError::kBadPayload;
  }
  // Two bytes minimum per split entry; rejects forged counts before any
  // allocation sized by them. The node cap bounds what reconstruction may
  // allocate (every split contributes `fanout` children).
  if (count > reader.Remaining() / 2) return ParseError::kBadPayload;
  if (count > (kMaxAheadTreeNodes - 1) / b) return ParseError::kBadPayload;
  std::vector<TreeNode> splits;
  splits.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint8_t level = 0;
    uint64_t index = 0;
    if (!reader.ReadU8(&level) || !reader.ReadVarU64(&index)) {
      return ParseError::kBadPayload;
    }
    splits.push_back(TreeNode{level, index});
  }
  if (!reader.AtEnd()) return ParseError::kBadPayload;
  TreeShape shape(d, b);
  std::optional<AdaptiveTree> parsed =
      AdaptiveTree::TryFromSplits(shape, splits);
  if (!parsed.has_value()) return ParseError::kBadPayload;
  *domain = d;
  *fanout = b;
  *tree = std::move(parsed);
  return ParseError::kOk;
}

// --- AheadClient ----------------------------------------------------------

AheadClient::AheadClient(uint64_t domain, uint64_t fanout, double eps)
    : shape_(domain, fanout), eps_(eps) {
  LDP_CHECK_MSG(eps > 0.0, "epsilon must be positive");
}

const AdaptiveTree& AheadClient::tree() const {
  LDP_CHECK_MSG(tree_.has_value(), "no tree installed");
  return *tree_;
}

AheadWireReport AheadClient::EncodePhase1(uint64_t value, Rng& rng) const {
  LDP_CHECK_LT(value, shape_.domain());
  AheadWireReport report;
  report.phase = 1;
  report.level =
      1 + static_cast<uint32_t>(rng.UniformInt(shape_.height()));
  uint64_t node = shape_.NodeContaining(report.level, value);
  report.node =
      GrrPerturb(node, shape_.NodesAtLevel(report.level), eps_, rng);
  return report;
}

std::vector<uint8_t> AheadClient::EncodePhase1Serialized(uint64_t value,
                                                         Rng& rng) const {
  return SerializeAheadReport(EncodePhase1(value, rng));
}

bool AheadClient::AbsorbTreeDescription(std::span<const uint8_t> bytes) {
  uint64_t domain = 0;
  uint64_t fanout = 0;
  std::optional<AdaptiveTree> tree;
  if (ParseAheadTree(bytes, &domain, &fanout, &tree) != ParseError::kOk) {
    return false;
  }
  if (domain != shape_.domain() || fanout != shape_.fanout()) return false;
  tree_ = std::move(tree);
  return true;
}

void AheadClient::SetTree(AdaptiveTree tree) {
  LDP_CHECK(tree.shape().domain() == shape_.domain());
  LDP_CHECK(tree.shape().fanout() == shape_.fanout());
  tree_ = std::move(tree);
}

AheadWireReport AheadClient::EncodePhase2(uint64_t value, Rng& rng) const {
  LDP_CHECK_LT(value, shape_.domain());
  LDP_CHECK_MSG(tree_.has_value(), "phase 2 requires the tree broadcast");
  AheadWireReport report;
  report.phase = 2;
  report.level =
      1 + static_cast<uint32_t>(rng.UniformInt(tree_->num_levels()));
  uint64_t frontier = tree_->FrontierIndex(report.level, value);
  report.node = GrrPerturb(frontier, tree_->FrontierSize(report.level),
                           eps_, rng);
  return report;
}

std::vector<uint8_t> AheadClient::EncodePhase2Serialized(uint64_t value,
                                                         Rng& rng) const {
  return SerializeAheadReport(EncodePhase2(value, rng));
}

std::vector<AheadWireReport> AheadClient::EncodePhase2Users(
    std::span<const uint64_t> values, Rng& rng) const {
  std::vector<AheadWireReport> reports;
  reports.reserve(values.size());
  for (uint64_t value : values) {
    reports.push_back(EncodePhase2(value, rng));
  }
  return reports;
}

std::vector<uint8_t> AheadClient::EncodePhase2UsersSerialized(
    std::span<const uint64_t> values, Rng& rng) const {
  return SerializeAheadReportBatch(EncodePhase2Users(values, rng));
}

// --- AheadServer ----------------------------------------------------------

AheadServer::AheadServer(uint64_t domain, uint64_t fanout, double eps,
                         const AheadServerConfig& config)
    : shape_(domain, fanout),
      eps_(eps),
      config_(config),
      max_depth_(ResolveAheadDepthCap(shape_, config.max_depth)) {
  LDP_CHECK_MSG(eps > 0.0, "epsilon must be positive");
  for (uint32_t l = 1; l <= shape_.height(); ++l) {
    phase1_counts_.emplace_back(shape_.NodesAtLevel(l), 0);
  }
}

const AdaptiveTree& AheadServer::tree() const {
  LDP_CHECK_MSG(tree_.has_value(), "tree not built yet");
  return *tree_;
}

AheadServer::OpenEra AheadServer::open_era() {
  // Phase-1 reports after the tree broadcast are stale: accepting them
  // would let a client influence a decomposition other clients already
  // encode against. Phase-2 reports before it have no frontier to land in.
  if (tree_.has_value()) return OpenEra{2, level_counts_, &phase2_reports_};
  return OpenEra{1, phase1_counts_, &phase1_reports_};
}

bool AheadServer::Fold(const OpenEra& era, const AheadWireReport& report) {
  if (report.phase != era.phase || report.level == 0 ||
      report.level > era.levels.size()) {
    return false;
  }
  std::vector<uint64_t>& counts = era.levels[report.level - 1];
  if (report.node >= counts.size()) return false;
  ++counts[report.node];
  return true;
}

bool AheadServer::Absorb(const AheadWireReport& report) {
  LDP_CHECK_MSG(!finalized_, "Absorb after Finalize");
  OpenEra era = open_era();
  if (!CountReport(Fold(era, report))) return false;
  ++*era.reports;
  return true;
}

bool AheadServer::AbsorbSerialized(std::span<const uint8_t> bytes) {
  AheadWireReport report;
  if (!ParseAheadReport(bytes, &report)) {
    stats_.CountRejected();
    return false;
  }
  return Absorb(report);
}

ParseError AheadServer::DoAbsorbBatchSerialized(std::span<const uint8_t> bytes,
                                                uint64_t* accepted) {
  ReportBatch batch;
  ParseError open = OpenReportBatch(bytes, MechanismTag::kAheadReportBatch,
                                    kItemSize, &batch);
  // The era (and with it every level's node bound) is resolved once per
  // batch, not per report.
  const OpenEra era = open_era();
  uint64_t folded = 0;
  ParseError err = AbsorbReportSlots<AheadWireReport>(
      open, batch, DecodeItem,
      [&era](const AheadWireReport& report) { return Fold(era, report); },
      &folded);
  *era.reports += folded;
  if (accepted != nullptr) *accepted = folded;
  return err;
}

std::vector<uint8_t> AheadServer::BuildTree() {
  if (tree_.has_value()) return tree_message_;
  // Debias each complete-tree level's GRR tallies, then smooth with the
  // Section 4.5 constrained inference (the same embedded-HH_B shape the
  // in-process mechanism uses for phase 1).
  std::vector<std::vector<double>> estimates(shape_.height() + 1);
  estimates[0] = {1.0};
  for (uint32_t l = 1; l <= shape_.height(); ++l) {
    const std::vector<uint64_t>& counts = phase1_counts_[l - 1];
    uint64_t n_l = 0;
    for (uint64_t c : counts) n_l += c;
    estimates[l] = GrrDebias(counts, n_l, eps_);
  }
  EnforceHierarchicalConsistency(estimates, shape_.fanout());
  // AHEAD's split rule, as in AheadMechanism::Finalize. The server cannot
  // know the phase-2 population before broadcasting the tree, so it
  // assumes the deployment sends phases of comparable size
  // (threshold_scale is the tuning knob when that is off); the
  // oracle-shared bound V_F stands in for the frontier-size-dependent GRR
  // variance.
  AdoptTree(GrowAheadTree(
      shape_, max_depth_, eps_, config_.threshold_scale, phase1_reports_,
      phase1_reports_,
      [&](const TreeNode& n) { return estimates[n.level][n.index]; }));
  return tree_message_;
}

std::optional<AdaptiveTree> AheadServer::ParseOwnTree(
    std::span<const uint8_t> bytes) const {
  uint64_t domain = 0;
  uint64_t fanout = 0;
  std::optional<AdaptiveTree> tree;
  if (ParseAheadTree(bytes, &domain, &fanout, &tree) != ParseError::kOk ||
      domain != shape_.domain() || fanout != shape_.fanout()) {
    return std::nullopt;
  }
  return tree;
}

void AheadServer::AdoptTree(AdaptiveTree tree) {
  tree_message_ = SerializeAheadTree(shape_.domain(), shape_.fanout(), tree);
  tree_ = std::move(tree);
  level_counts_.clear();
  for (uint32_t l = 1; l <= tree_->num_levels(); ++l) {
    level_counts_.emplace_back(tree_->FrontierSize(l), 0);
  }
}

bool AheadServer::InstallTree(std::span<const uint8_t> bytes) {
  if (finalized_) return false;
  std::optional<AdaptiveTree> tree = ParseOwnTree(bytes);
  if (!tree.has_value()) return false;
  // Compared in canonical form, however the incoming bytes ordered their
  // splits.
  if (tree_.has_value()) {
    return SerializeAheadTree(shape_.domain(), shape_.fanout(), *tree) ==
           tree_message_;
  }
  AdoptTree(std::move(*tree));
  return true;
}

void AheadServer::AppendStateBody(std::vector<uint8_t>& out) const {
  // [p1 varint][p2 varint][height varint]
  // [per complete level: NodesAtLevel(l) x count u64]
  // [tree u8][tree? length-prefixed kAheadTree bytes
  //           + per frontier level: FrontierSize(l) x count u64]
  AppendVarU64(out, phase1_reports_);
  AppendVarU64(out, phase2_reports_);
  AppendVarU64(out, shape_.height());
  for (const std::vector<uint64_t>& level : phase1_counts_) {
    AppendU64Array(out, level);
  }
  AppendU8(out, tree_.has_value() ? 1 : 0);
  if (tree_.has_value()) {
    AppendLengthPrefixedBytes(out, tree_message_);
    for (const std::vector<uint64_t>& level : level_counts_) {
      AppendU64Array(out, level);
    }
  }
}

size_t AheadServer::StateBodyBytes() const {
  auto count_bytes = [](const std::vector<std::vector<uint64_t>>& levels) {
    size_t bytes = 0;
    for (const std::vector<uint64_t>& level : levels) bytes += 8 * level.size();
    return bytes;
  };
  size_t bytes = VarU64Size(phase1_reports_) + VarU64Size(phase2_reports_) +
                 VarU64Size(shape_.height()) + count_bytes(phase1_counts_) + 1;
  if (tree_.has_value()) {
    bytes += 4 + tree_message_.size() + count_bytes(level_counts_);
  }
  return bytes;
}

bool AheadServer::RestoreStateBody(std::span<const uint8_t> body) {
  WireReader reader(body);
  uint64_t p1 = 0;
  uint64_t p2 = 0;
  uint64_t height = 0;
  if (!reader.ReadVarU64(&p1) || !reader.ReadVarU64(&p2) ||
      !reader.ReadVarU64(&height)) {
    return false;
  }
  // Cross-check against this server's own shape, never an allocation size.
  if (height != shape_.height()) return false;
  for (std::vector<uint64_t>& level : phase1_counts_) {
    if (!reader.ReadU64Array(level.size(), level.data())) return false;
  }
  uint8_t has_tree = 0;
  if (!reader.ReadU8(&has_tree)) return false;
  if (has_tree > 1) return false;
  // A tree-less server cannot have absorbed phase-2 reports.
  if (has_tree == 0 && p2 != 0) return false;
  if (has_tree == 1) {
    std::span<const uint8_t> tree_bytes;
    if (!reader.ReadLengthPrefixedBytes(&tree_bytes)) return false;
    std::optional<AdaptiveTree> tree = ParseOwnTree(tree_bytes);
    if (!tree.has_value()) return false;
    // Frontier sizes come from the parsed tree, whose node count
    // ParseAheadTree capped (kMaxAheadTreeNodes).
    AdoptTree(std::move(*tree));
    // Canonical-form check: the embedded bytes must equal the tree's BFS
    // re-serialization, so restored state re-serializes identically and
    // merges compare trees by bytes.
    if (!std::ranges::equal(tree_message_, tree_bytes)) return false;
    for (std::vector<uint64_t>& level : level_counts_) {
      if (!reader.ReadU64Array(level.size(), level.data())) return false;
    }
  }
  phase1_reports_ = p1;
  phase2_reports_ = p2;
  return reader.AtEnd();
}

std::unique_ptr<service::AggregatorServer> AheadServer::DoCloneEmpty() const {
  return std::make_unique<AheadServer>(shape_.domain(), shape_.fanout(), eps_,
                                       config_);
}

service::MergeStatus AheadServer::DoMergeFrom(
    service::AggregatorServer& other) {
  auto& o = static_cast<AheadServer&>(other);
  // Post-processing knobs are not aggregate state, but merged shards must
  // agree on how the combined aggregate will be finalized.
  if (o.config_.threshold_scale != config_.threshold_scale ||
      o.max_depth_ != max_depth_ ||
      o.config_.consistency != config_.consistency ||
      o.config_.nonnegativity != config_.nonnegativity) {
    return service::MergeStatus::kConfigMismatch;
  }
  if (tree_.has_value() && o.tree_.has_value()) {
    // Phase-2 reports are encoded against one specific decomposition;
    // counts over two different trees can never be summed.
    if (tree_message_ != o.tree_message_) {
      return service::MergeStatus::kStateMismatch;
    }
    for (size_t l = 0; l < level_counts_.size(); ++l) {
      for (size_t j = 0; j < level_counts_[l].size(); ++j) {
        level_counts_[l][j] += o.level_counts_[l][j];
      }
    }
  } else if (o.tree_.has_value()) {
    // This side never closed phase 1: adopt the shard's tree and frontier
    // counts wholesale (consumes the source, per the merge contract).
    tree_ = std::move(o.tree_);
    tree_message_ = std::move(o.tree_message_);
    level_counts_ = std::move(o.level_counts_);
  }
  for (size_t l = 0; l < phase1_counts_.size(); ++l) {
    for (size_t j = 0; j < phase1_counts_[l].size(); ++j) {
      phase1_counts_[l][j] += o.phase1_counts_[l][j];
    }
  }
  phase1_reports_ += o.phase1_reports_;
  phase2_reports_ += o.phase2_reports_;
  return service::MergeStatus::kOk;
}

void AheadServer::DoFinalize() {
  if (!tree_.has_value()) BuildTree();
  const uint32_t num_levels = tree_->num_levels();
  std::vector<std::vector<double>> level_estimates(num_levels);
  std::vector<double> level_vars(num_levels, kInf);
  for (uint32_t l = 0; l < num_levels; ++l) {
    uint64_t n_l = 0;
    for (uint64_t c : level_counts_[l]) n_l += c;
    level_estimates[l] = GrrDebias(level_counts_[l], n_l, eps_);
    level_vars[l] =
        GrrLowFrequencyVariance(level_counts_[l].size(), eps_, n_l);
  }
  estimate_.emplace(*tree_, level_estimates, level_vars, config_.consistency,
                    config_.nonnegativity);
}

double AheadServer::RangeQuery(uint64_t a, uint64_t b) const {
  return RangeQueryWithUncertainty(a, b).value;
}

RangeEstimate AheadServer::RangeQueryWithUncertainty(uint64_t a,
                                                     uint64_t b) const {
  LDP_CHECK_MSG(finalized_, "RangeQuery before Finalize");
  LDP_CHECK_LT(b, shape_.domain());
  return estimate_->RangeQueryWithUncertainty(a, b);
}

std::vector<double> AheadServer::EstimateFrequencies() const {
  LDP_CHECK_MSG(finalized_, "EstimateFrequencies before Finalize");
  return estimate_->LeafFrequencies(shape_.domain());
}

}  // namespace ldp::protocol
