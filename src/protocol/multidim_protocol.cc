#include "protocol/multidim_protocol.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/bit_util.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "protocol/oracle_wire.h"
#include "protocol/wire.h"

namespace ldp::protocol {

namespace {

constexpr size_t kItemTail = 12;  // [seed u64][cell u32]

// Chunked deterministic parallel encode, mirroring the kEncodeChunk /
// ChunkSeed scheme of core/range_mechanism.cc: every chunk draws from its
// own seed-derived Rng into its own output slots, so the result cannot
// depend on how chunks land on workers.
constexpr uint64_t kEncodeChunk = uint64_t{1} << 14;

uint64_t ChunkSeed(uint64_t seed, uint64_t chunk) {
  return Mix64(seed + 0x9E3779B97F4A7C15ULL * (chunk + 1));
}

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
    : dims_(dimensions),
      eps_(eps),
      shape_(domain_per_dim, fanout),
      g_(OlhOptimalHashRange(eps)) {
  LDP_CHECK_MSG(eps > 0.0, "epsilon must be positive");
  LDP_CHECK_GE(dims_, 1u);
  LDP_CHECK_LE(dims_, kMaxWireDimensions);
  LDP_CHECK_LE(shape_.height(), 255u);  // levels travel as u8
  uint64_t total = 0;
  LDP_CHECK_MSG(GridCellsWithinBudget(shape_, dims_,
                                      HierarchicalGrid::kDefaultCellBudget,
                                      &total),
                "multidim grid cell budget exceeded; reduce D or d");
  const uint64_t radix = uint64_t{shape_.height()} + 1;
  tuple_count_ = IntPow(radix, dims_);
  tuple_cells_.assign(tuple_count_, 1);
  for (uint64_t t = 1; t < tuple_count_; ++t) {
    uint64_t rest = t;
    uint64_t cells = 1;
    for (uint32_t dim = 0; dim < dims_; ++dim) {
      cells *= shape_.NodesAtLevel(static_cast<uint32_t>(rest % radix));
      rest /= radix;
    }
    tuple_cells_[t] = cells;
  }
}

MultiDimReport MultiDimClient::Encode(const uint64_t* coords,
                                      Rng& rng) const {
  const uint64_t radix = uint64_t{shape_.height()} + 1;
  for (uint32_t dim = 0; dim < dims_; ++dim) {
    LDP_CHECK_LT(coords[dim], shape_.domain());
  }
  // Uniform level tuple skipping the all-root tuple 0, then the OLH
  // randomizer for that tuple's grid — the same draw order as
  // HierarchicalGrid::EncodePoint (tuple pick, then oracle).
  uint64_t tuple = 1 + rng.UniformInt(tuple_count_ - 1);
  MultiDimReport report;
  report.levels.resize(dims_);
  uint64_t rest = tuple;
  uint64_t cell = 0;
  uint64_t cell_stride = 1;
  for (uint32_t dim = 0; dim < dims_; ++dim) {
    uint32_t level = static_cast<uint32_t>(rest % radix);
    rest /= radix;
    report.levels[dim] = static_cast<uint8_t>(level);
    cell += shape_.NodeContaining(level, coords[dim]) * cell_stride;
    cell_stride *= shape_.NodesAtLevel(level);
  }
  OlhWireReport olh =
      EncodeOlhReport(tuple_cells_[tuple], eps_, cell, rng, g_);
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
  LDP_CHECK_EQ(coords.size() % dims_, size_t{0});
  std::vector<MultiDimReport> reports;
  reports.reserve(coords.size() / dims_);
  for (size_t i = 0; i < coords.size(); i += dims_) {
    reports.push_back(Encode(coords.data() + i, rng));
  }
  return reports;
}

std::vector<uint8_t> MultiDimClient::EncodeUsersSerialized(
    std::span<const uint64_t> coords, Rng& rng) const {
  return SerializeMultiDimReportBatch(dims_, EncodeUsers(coords, rng));
}

std::vector<MultiDimReport> MultiDimClient::EncodeUsersSharded(
    std::span<const uint64_t> coords, uint64_t seed,
    unsigned threads) const {
  LDP_CHECK_EQ(coords.size() % dims_, size_t{0});
  const uint64_t n = coords.size() / dims_;
  std::vector<MultiDimReport> reports(n);
  if (n == 0) return reports;
  if (threads == 0) threads = HardwareThreads();
  const uint64_t num_chunks = (n + kEncodeChunk - 1) / kEncodeChunk;
  auto encode_chunk = [&](uint64_t chunk) {
    Rng rng(ChunkSeed(seed, chunk));
    const uint64_t begin = chunk * kEncodeChunk;
    const uint64_t end = std::min(n, begin + kEncodeChunk);
    for (uint64_t i = begin; i < end; ++i) {
      reports[i] = Encode(coords.data() + i * dims_, rng);
    }
  };
  if (threads <= 1 || num_chunks == 1) {
    for (uint64_t chunk = 0; chunk < num_chunks; ++chunk) {
      encode_chunk(chunk);
    }
  } else {
    ParallelFor(num_chunks, threads,
                [&](unsigned, uint64_t begin, uint64_t end) {
                  for (uint64_t chunk = begin; chunk < end; ++chunk) {
                    encode_chunk(chunk);
                  }
                });
  }
  return reports;
}

MultiDimServer::MultiDimServer(uint64_t domain_per_dim, uint32_t dimensions,
                               double eps, uint64_t fanout,
                               uint64_t max_total_cells)
    : dims_(dimensions),
      eps_(eps),
      shape_(domain_per_dim, fanout),
      g_(OlhOptimalHashRange(eps)),
      max_total_cells_(max_total_cells) {
  LDP_CHECK_MSG(eps > 0.0, "epsilon must be positive");
  LDP_CHECK_GE(dims_, 1u);
  LDP_CHECK_LE(dims_, kMaxWireDimensions);
  LDP_CHECK_LE(shape_.height(), 255u);
  uint64_t total = 0;
  LDP_CHECK_MSG(
      GridCellsWithinBudget(shape_, dims_, max_total_cells, &total),
      "MultiDimServer cell budget exceeded; reduce D, d or raise "
      "max_total_cells");
  const uint64_t radix = uint64_t{shape_.height()} + 1;
  tuple_count_ = IntPow(radix, dims_);
  oracles_.resize(tuple_count_);
  for (uint64_t t = 1; t < tuple_count_; ++t) {
    uint64_t rest = t;
    uint64_t cells = 1;
    for (uint32_t dim = 0; dim < dims_; ++dim) {
      cells *= shape_.NodesAtLevel(static_cast<uint32_t>(rest % radix));
      rest /= radix;
    }
    oracles_[t] =
        std::make_unique<OlhOracle>(cells, eps, g_, OlhDecode::kDeferred);
  }
}

std::string MultiDimServer::Name() const {
  return "MultiDim" + std::to_string(dims_) + "D";
}

std::span<const uint8_t> MultiDimServer::AcceptedWireVersions() const {
  static constexpr uint8_t kV2Only[] = {kWireVersionV2};
  return kV2Only;
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
  if (cell >= g_) return false;
  const uint64_t radix = uint64_t{shape_.height()} + 1;
  uint64_t tuple = 0;
  uint64_t tuple_stride = 1;
  for (uint32_t dim = 0; dim < dims_; ++dim) {
    if (levels[dim] > shape_.height()) return false;
    tuple += uint64_t{levels[dim]} * tuple_stride;
    tuple_stride *= radix;
  }
  if (tuple == 0) return false;  // the all-root tuple carries no report
  oracles_[tuple]->AppendPendingReport(seed, cell);
  return true;
}

bool MultiDimServer::Absorb(const MultiDimReport& report) {
  LDP_CHECK_MSG(!finalized_, "Absorb after Finalize");
  return CountReport(report.levels.size() == dims_ &&
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

uint64_t MultiDimServer::AbsorbBatch(
    std::span<const MultiDimReport> reports) {
  uint64_t accepted = 0;
  for (const MultiDimReport& report : reports) {
    if (Absorb(report)) ++accepted;
  }
  return accepted;
}

ParseError MultiDimServer::DoAbsorbBatchSerialized(
    std::span<const uint8_t> bytes, uint64_t* accepted) {
  uint32_t dims = 0;
  ReportBatch batch;
  ParseError open = OpenMultiDimBatch(bytes, &dims, &batch);
  // A structurally valid batch for another dimensionality has every item
  // rejected, exactly as the Absorb loop would.
  const bool own_dims = dims == dims_;
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
  AppendVarU64(out, tuple_count_);
  for (uint64_t t = 1; t < tuple_count_; ++t) {
    oracles_[t]->AppendState(out);
  }
}

size_t MultiDimServer::StateBodyBytes() const {
  size_t bytes = VarU64Size(tuple_count_);
  for (uint64_t t = 1; t < tuple_count_; ++t) {
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
  if (tuples != tuple_count_) return false;
  for (uint64_t t = 1; t < tuple_count_; ++t) {
    if (!oracles_[t]->RestoreState(reader)) return false;
  }
  return reader.AtEnd();
}

std::unique_ptr<service::AggregatorServer> MultiDimServer::DoCloneEmpty()
    const {
  return std::make_unique<MultiDimServer>(shape_.domain(), dims_, eps_,
                                          shape_.fanout(), max_total_cells_);
}

service::MergeStatus MultiDimServer::DoMergeFrom(
    service::AggregatorServer& other) {
  auto& o = static_cast<MultiDimServer&>(other);
  for (uint64_t t = 1; t < tuple_count_; ++t) {
    oracles_[t]->MergeFrom(*o.oracles_[t]);
  }
  return service::MergeStatus::kOk;
}

void MultiDimServer::DoFinalize() {
  estimates_.assign(tuple_count_, {});
  estimates_[0] = {1.0};  // the all-root cell is the whole space
  for (uint64_t t = 1; t < tuple_count_; ++t) {
    estimates_[t] = oracles_[t]->EstimateFractions();
  }
}

double MultiDimServer::BoxQuery(std::span<const AxisInterval> box) const {
  LDP_CHECK_MSG(finalized_, "BoxQuery before Finalize");
  double total = 0.0;
  VisitGridBoxCells(shape_, dims_, box, [&](uint64_t tuple, uint64_t cell) {
    total += estimates_[tuple][cell];
  });
  return total;
}

RangeEstimate MultiDimServer::BoxQueryWithUncertainty(
    std::span<const AxisInterval> box) const {
  LDP_CHECK_MSG(finalized_, "BoxQuery before Finalize");
  double total = 0.0;
  double variance = 0.0;
  VisitGridBoxCells(shape_, dims_, box, [&](uint64_t tuple, uint64_t cell) {
    total += estimates_[tuple][cell];
    if (tuple != 0) variance += oracles_[tuple]->EstimatorVariance();
  });
  return RangeEstimate{total, std::sqrt(variance)};
}

double MultiDimServer::RangeQuery(uint64_t a, uint64_t b) const {
  std::vector<AxisInterval> box(dims_,
                                AxisInterval{0, shape_.domain() - 1});
  box[0] = AxisInterval{a, b};
  return BoxQuery(box);
}

RangeEstimate MultiDimServer::RangeQueryWithUncertainty(uint64_t a,
                                                        uint64_t b) const {
  std::vector<AxisInterval> box(dims_,
                                AxisInterval{0, shape_.domain() - 1});
  box[0] = AxisInterval{a, b};
  return BoxQueryWithUncertainty(box);
}

std::vector<double> MultiDimServer::EstimateFrequencies() const {
  LDP_CHECK_MSG(finalized_, "EstimateFrequencies before Finalize");
  std::vector<double> est(shape_.domain(), 0.0);
  for (uint64_t z = 0; z < shape_.domain(); ++z) {
    est[z] = RangeQuery(z, z);
  }
  return est;
}

}  // namespace ldp::protocol
