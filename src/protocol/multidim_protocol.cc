#include "protocol/multidim_protocol.h"

#include <memory>

#include "common/check.h"
#include "protocol/oracle_wire.h"
#include "protocol/wire.h"

namespace ldp::protocol {

namespace {

constexpr size_t kItemTail = 12;  // [seed u64][cell u32]

void AppendItem(std::vector<uint8_t>& out, const MultiDimReport& report) {
  for (uint8_t level : report.levels) {
    AppendU8(out, level);
  }
  AppendU64(out, report.seed);
  AppendU32(out, report.cell);
}

// One decoded item slot: the level tuple (borrowed from the slot, dims
// bytes) and the OLH (seed, perturbed cell) pair.
struct MultiDimItem {
  const uint8_t* levels = nullptr;
  uint64_t seed = 0;
  uint32_t cell = 0;
};

// Decodes one fixed-size item slot ([dims x level u8][seed u64][cell u32]);
// false on the all-root tuple, which carries no oracle report. The one
// decoder behind the single-report parser, the typed batch parser and the
// server's slot loop.
bool DecodeItem(const uint8_t* slot, uint32_t dims, MultiDimItem* item) {
  bool nontrivial = false;
  for (uint32_t dim = 0; dim < dims; ++dim) nontrivial |= slot[dim] != 0;
  if (!nontrivial) return false;
  item->levels = slot;
  item->seed = LoadU64Le(slot + dims);
  item->cell = LoadU32Le(slot + dims + 8);
  return true;
}

// DecodeItem into an owning MultiDimReport (the typed parsers' form).
bool DecodeReport(const uint8_t* slot, uint32_t dims, MultiDimReport* report) {
  MultiDimItem item;
  if (!DecodeItem(slot, dims, &item)) return false;
  report->levels.assign(item.levels, item.levels + dims);
  report->seed = item.seed;
  report->cell = item.cell;
  return true;
}

// OpenReportBatch for kMultiDimReportBatch, whose payload leads with the
// dims byte that sizes every item: dims is read first (the byte right
// behind the envelope header), then the frame around it is validated.
ParseError OpenMultiDimBatch(std::span<const uint8_t> bytes, uint32_t* dims,
                             ReportBatch* batch) {
  const uint8_t d =
      bytes.size() > kEnvelopeHeaderSize ? bytes[kEnvelopeHeaderSize] : 0;
  ParseError err = OpenReportBatch(bytes, MechanismTag::kMultiDimReportBatch,
                                   size_t{d} + kItemTail, batch,
                                   /*header_size=*/1);
  if (err != ParseError::kOk) return err;
  if (d == 0 || d > kMaxWireDimensions) return ParseError::kBadPayload;
  *dims = d;
  return ParseError::kOk;
}

// The grid layout both wire ends build: dims and levels travel as u8.
GridLayout WireLayout(uint64_t domain_per_dim, uint32_t dims, uint64_t fanout,
                      uint64_t max_total_cells) {
  LDP_CHECK_LE(dims, kMaxWireDimensions);
  GridLayout layout(TreeShape(domain_per_dim, fanout), dims, max_total_cells);
  LDP_CHECK_LE(layout.shape().height(), 255u);
  return layout;
}

}  // namespace

std::vector<uint8_t> SerializeMultiDimReport(const MultiDimReport& report) {
  const size_t dims = report.levels.size();
  LDP_CHECK_GE(dims, size_t{1});
  LDP_CHECK_LE(dims, size_t{kMaxWireDimensions});
  std::vector<uint8_t> payload;
  payload.reserve(1 + dims + kItemTail);
  AppendU8(payload, static_cast<uint8_t>(dims));
  AppendItem(payload, report);
  return EncodeEnvelope(MechanismTag::kMultiDimReport, payload);
}

ParseError ParseMultiDimReport(std::span<const uint8_t> bytes,
                               MultiDimReport* report) {
  Envelope env;
  ParseError err = DecodeEnvelope(bytes, &env);
  if (err != ParseError::kOk) return err;
  if (env.mechanism != MechanismTag::kMultiDimReport) {
    return ParseError::kBadPayload;
  }
  if (env.payload.empty()) return ParseError::kBadPayload;
  const uint8_t dims = env.payload[0];
  if (dims == 0 || dims > kMaxWireDimensions ||
      env.payload.size() != 1 + size_t{dims} + kItemTail ||
      !DecodeReport(env.payload.data() + 1, dims, report)) {
    return ParseError::kBadPayload;
  }
  return ParseError::kOk;
}

std::vector<uint8_t> SerializeMultiDimReportBatch(
    uint32_t dims, std::span<const MultiDimReport> reports) {
  LDP_CHECK_GE(dims, 1u);
  LDP_CHECK_LE(dims, kMaxWireDimensions);
  std::vector<uint8_t> payload;
  payload.reserve(11 + reports.size() * (dims + kItemTail));
  AppendU8(payload, static_cast<uint8_t>(dims));
  AppendVarU64(payload, reports.size());
  for (const MultiDimReport& report : reports) {
    LDP_CHECK_EQ(report.levels.size(), size_t{dims});
    AppendItem(payload, report);
  }
  return EncodeEnvelope(MechanismTag::kMultiDimReportBatch, payload);
}

ParseError ParseMultiDimReportBatch(std::span<const uint8_t> bytes,
                                    std::vector<MultiDimReport>* reports,
                                    uint64_t* malformed) {
  uint32_t dims = 0;
  ReportBatch batch;
  ParseError err = OpenMultiDimBatch(bytes, &dims, &batch);
  if (err != ParseError::kOk) return err;
  uint64_t bad = DecodeReportSlots(
      batch,
      [dims](const uint8_t* slot, MultiDimReport* report) {
        return DecodeReport(slot, dims, report);
      },
      reports);
  if (malformed != nullptr) *malformed = bad;
  return ParseError::kOk;
}

MultiDimClient::MultiDimClient(uint64_t domain_per_dim, uint32_t dimensions,
                               double eps, uint64_t fanout)
    : eps_(eps),
      layout_(WireLayout(domain_per_dim, dimensions, fanout,
                         HierarchicalGrid::kDefaultCellBudget)),
      g_(OlhOptimalHashRange(eps)) {
  LDP_CHECK_MSG(eps > 0.0, "epsilon must be positive");
}

MultiDimReport MultiDimClient::Encode(const uint64_t* coords,
                                      Rng& rng) const {
  for (uint32_t dim = 0; dim < layout_.dims(); ++dim) {
    LDP_CHECK_LT(coords[dim], layout_.shape().domain());
  }
  // Uniform level tuple skipping the all-root tuple 0, then the OLH
  // randomizer for that tuple's grid — the same draw order as
  // HierarchicalGrid::EncodePoint (tuple pick, then oracle).
  const uint64_t tuple = layout_.SampleTuple(rng);
  MultiDimReport report;
  report.levels.resize(layout_.dims());
  layout_.TupleLevels(tuple, report.levels.data());
  OlhWireReport olh = EncodeOlhReport(layout_.TupleCells(tuple), eps_,
                                      layout_.CellOf(tuple, coords), rng, g_);
  report.seed = olh.seed;
  report.cell = static_cast<uint32_t>(olh.cell);
  return report;
}

std::vector<uint8_t> MultiDimClient::EncodeSerialized(const uint64_t* coords,
                                                      Rng& rng) const {
  return SerializeMultiDimReport(Encode(coords, rng));
}

std::vector<MultiDimReport> MultiDimClient::EncodeUsers(
    std::span<const uint64_t> coords, Rng& rng) const {
  const uint32_t dims = layout_.dims();
  LDP_CHECK_EQ(coords.size() % dims, size_t{0});
  std::vector<MultiDimReport> reports;
  reports.reserve(coords.size() / dims);
  for (size_t i = 0; i < coords.size(); i += dims) {
    reports.push_back(Encode(coords.data() + i, rng));
  }
  return reports;
}

std::vector<uint8_t> MultiDimClient::EncodeUsersSerialized(
    std::span<const uint64_t> coords, Rng& rng) const {
  return SerializeMultiDimReportBatch(layout_.dims(),
                                      EncodeUsers(coords, rng));
}

MultiDimServer::MultiDimServer(uint64_t domain_per_dim, uint32_t dimensions,
                               double eps, uint64_t fanout,
                               uint64_t max_total_cells)
    : eps_(eps),
      g_(OlhOptimalHashRange(eps)),
      max_total_cells_(max_total_cells),
      layout_(WireLayout(domain_per_dim, dimensions, fanout, max_total_cells)) {
  LDP_CHECK_MSG(eps > 0.0, "epsilon must be positive");
  oracles_.resize(layout_.tuple_count());
  for (uint64_t t = 1; t < layout_.tuple_count(); ++t) {
    oracles_[t] = std::make_unique<OlhOracle>(layout_.TupleCells(t), eps, g_,
                                              OlhDecode::kDeferred);
  }
}

std::string MultiDimServer::Name() const {
  return "MultiDim" + std::to_string(layout_.dims()) + "D";
}

uint64_t MultiDimServer::report_allocation_count() const {
  uint64_t total = 0;
  for (const auto& oracle : oracles_) {
    if (oracle != nullptr) total += oracle->pending_allocation_count();
  }
  return total;
}

bool MultiDimServer::Fold(const uint8_t* levels, uint64_t seed,
                          uint32_t cell) {
  uint64_t tuple = 0;
  if (cell >= g_ || !layout_.TupleOf(levels, &tuple)) return false;
  oracles_[tuple]->AppendPendingReport(seed, cell);
  return true;
}

bool MultiDimServer::Absorb(const MultiDimReport& report) {
  LDP_CHECK_MSG(!finalized_, "Absorb after Finalize");
  return CountReport(report.levels.size() == layout_.dims() &&
                     Fold(report.levels.data(), report.seed, report.cell));
}

bool MultiDimServer::AbsorbSerialized(std::span<const uint8_t> bytes) {
  MultiDimReport report;
  if (ParseMultiDimReport(bytes, &report) != ParseError::kOk) {
    stats_.CountRejected();
    return false;
  }
  return Absorb(report);
}

ParseError MultiDimServer::DoAbsorbBatchSerialized(
    std::span<const uint8_t> bytes, uint64_t* accepted) {
  uint32_t dims = 0;
  ReportBatch batch;
  ParseError open = OpenMultiDimBatch(bytes, &dims, &batch);
  // A structurally valid batch for another dimensionality has every item
  // rejected, exactly as the Absorb loop would.
  const bool own_dims = dims == layout_.dims();
  return AbsorbReportSlots<MultiDimItem>(
      open, batch,
      [dims](const uint8_t* slot, MultiDimItem* item) {
        return DecodeItem(slot, dims, item);
      },
      [this, own_dims](const MultiDimItem& item) {
        return own_dims && Fold(item.levels, item.seed, item.cell);
      },
      accepted);
}

void MultiDimServer::AppendStateBody(std::vector<uint8_t>& out) const {
  // [tuples varint][per non-trivial tuple (t = 1..): OlhOracle record].
  AppendVarU64(out, layout_.tuple_count());
  for (uint64_t t = 1; t < layout_.tuple_count(); ++t) {
    oracles_[t]->AppendState(out);
  }
}

size_t MultiDimServer::StateBodyBytes() const {
  size_t bytes = VarU64Size(layout_.tuple_count());
  for (uint64_t t = 1; t < layout_.tuple_count(); ++t) {
    bytes += oracles_[t]->StateBytes();
  }
  return bytes;
}

bool MultiDimServer::RestoreStateBody(std::span<const uint8_t> body) {
  WireReader reader(body);
  uint64_t tuples = 0;
  if (!reader.ReadVarU64(&tuples)) return false;
  // Cross-check against this server's own grid family, never an
  // allocation size.
  if (tuples != layout_.tuple_count()) return false;
  for (uint64_t t = 1; t < layout_.tuple_count(); ++t) {
    if (!oracles_[t]->RestoreState(reader)) return false;
  }
  return reader.AtEnd();
}

std::unique_ptr<service::AggregatorServer> MultiDimServer::DoCloneEmpty()
    const {
  return std::make_unique<MultiDimServer>(domain(), layout_.dims(), eps_,
                                          shape().fanout(), max_total_cells_);
}

service::MergeStatus MultiDimServer::DoMergeFrom(
    service::AggregatorServer& other) {
  auto& o = static_cast<MultiDimServer&>(other);
  for (uint64_t t = 1; t < layout_.tuple_count(); ++t) {
    oracles_[t]->MergeFrom(*o.oracles_[t]);
  }
  return service::MergeStatus::kOk;
}

void MultiDimServer::DoFinalize() {
  // Tuple by tuple, in order; each OLH decode fans out internally.
  GridEstimate& estimate = estimate_.emplace(layout_);
  for (uint64_t t = 1; t < layout_.tuple_count(); ++t) {
    estimate.SetTuple(t, oracles_[t]->EstimateFractions(),
                      oracles_[t]->EstimatorVariance());
  }
}

double MultiDimServer::BoxQuery(std::span<const AxisInterval> box) const {
  LDP_CHECK_MSG(finalized_, "BoxQuery before Finalize");
  return estimate_->BoxQuery(box);
}

RangeEstimate MultiDimServer::BoxQueryWithUncertainty(
    std::span<const AxisInterval> box) const {
  LDP_CHECK_MSG(finalized_, "BoxQuery before Finalize");
  return estimate_->BoxQueryWithUncertainty(box);
}

double MultiDimServer::RangeQuery(uint64_t a, uint64_t b) const {
  return RangeQueryWithUncertainty(a, b).value;
}

RangeEstimate MultiDimServer::RangeQueryWithUncertainty(uint64_t a,
                                                        uint64_t b) const {
  std::vector<AxisInterval> box(layout_.dims(),
                                AxisInterval{0, domain() - 1});
  box[0] = AxisInterval{a, b};
  return BoxQueryWithUncertainty(box);
}

std::vector<double> MultiDimServer::EstimateFrequencies() const {
  LDP_CHECK_MSG(finalized_, "EstimateFrequencies before Finalize");
  std::vector<double> est(domain(), 0.0);
  for (uint64_t z = 0; z < domain(); ++z) {
    est[z] = RangeQuery(z, z);
  }
  return est;
}

}  // namespace ldp::protocol
