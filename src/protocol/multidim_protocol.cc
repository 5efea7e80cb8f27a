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

// Decodes one fixed-size item, consuming the full slot before validating
// so batch readers stay aligned across a malformed item.
bool ReadItem(WireReader& reader, uint32_t dims, MultiDimReport* report) {
  report->levels.resize(dims);
  bool nontrivial = false;
  for (uint32_t dim = 0; dim < dims; ++dim) {
    uint8_t level = 0;
    if (!reader.ReadU8(&level)) return false;
    report->levels[dim] = level;
    if (level != 0) nontrivial = true;
  }
  if (!reader.ReadU64(&report->seed) || !reader.ReadU32(&report->cell)) {
    return false;
  }
  return nontrivial;
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
  WireReader reader(env.payload);
  uint8_t dims = 0;
  if (!reader.ReadU8(&dims)) return ParseError::kBadPayload;
  if (dims == 0 || dims > kMaxWireDimensions) return ParseError::kBadPayload;
  if (env.payload.size() != 1 + size_t{dims} + kItemTail) {
    return ParseError::kBadPayload;
  }
  MultiDimReport out;
  if (!ReadItem(reader, dims, &out)) return ParseError::kBadPayload;
  *report = std::move(out);
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
  Envelope env;
  ParseError err = DecodeEnvelope(bytes, &env);
  if (err != ParseError::kOk) return err;
  if (env.mechanism != MechanismTag::kMultiDimReportBatch) {
    return ParseError::kBadPayload;
  }
  WireReader reader(env.payload);
  uint8_t dims = 0;
  uint64_t count = 0;
  if (!reader.ReadU8(&dims)) return ParseError::kBadPayload;
  if (dims == 0 || dims > kMaxWireDimensions) return ParseError::kBadPayload;
  if (!reader.ReadVarU64(&count)) return ParseError::kBadPayload;
  const uint64_t item_size = uint64_t{dims} + kItemTail;
  if (count > reader.Remaining() / item_size ||
      reader.Remaining() != count * item_size) {
    return ParseError::kBadPayload;
  }
  reports->clear();
  reports->reserve(count);
  uint64_t bad = 0;
  for (uint64_t i = 0; i < count; ++i) {
    MultiDimReport report;
    if (ReadItem(reader, dims, &report)) {
      reports->push_back(std::move(report));
    } else {
      ++bad;
    }
  }
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

bool MultiDimServer::Absorb(const MultiDimReport& report) {
  LDP_CHECK_MSG(!finalized_, "Absorb after Finalize");
  if (report.levels.size() != dims_ || report.cell >= g_) {
    stats_.CountRejected();
    return false;
  }
  const uint64_t radix = uint64_t{shape_.height()} + 1;
  uint64_t tuple = 0;
  uint64_t tuple_stride = 1;
  for (uint32_t dim = 0; dim < dims_; ++dim) {
    const uint8_t level = report.levels[dim];
    if (level > shape_.height()) {
      stats_.CountRejected();
      return false;
    }
    tuple += uint64_t{level} * tuple_stride;
    tuple_stride *= radix;
  }
  if (tuple == 0) {  // the all-root tuple carries no oracle report
    stats_.CountRejected();
    return false;
  }
  oracles_[tuple]->AbsorbReport(report.seed, report.cell);
  stats_.CountAccepted();
  return true;
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
  LDP_CHECK_MSG(!finalized_, "Absorb after Finalize");
  // In-place ingestion: items are decoded directly out of the caller's
  // buffer (a streamed chunk's bytes) and appended straight into the
  // per-tuple oracles' arena-backed report columns. No MultiDimReport is
  // materialized and no per-report vector grows — the only allocations on
  // this path are amortized arena blocks, flat per chunk at steady state.
  // Accounting is identical to the Parse-then-Absorb route: a structural
  // failure rejects the whole message; per-item failures (all-root tuple,
  // bad level, cell >= g, foreign dims) are counted individually.
  if (accepted != nullptr) *accepted = 0;
  Envelope env;
  ParseError err = DecodeEnvelope(bytes, &env);
  if (err == ParseError::kOk &&
      env.mechanism != MechanismTag::kMultiDimReportBatch) {
    err = ParseError::kBadPayload;
  }
  WireReader reader(env.payload);
  uint8_t dims = 0;
  uint64_t count = 0;
  if (err == ParseError::kOk) {
    if (!reader.ReadU8(&dims) || dims == 0 || dims > kMaxWireDimensions ||
        !reader.ReadVarU64(&count)) {
      err = ParseError::kBadPayload;
    } else {
      const uint64_t item_size = uint64_t{dims} + kItemTail;
      if (count > reader.Remaining() / item_size ||
          reader.Remaining() != count * item_size) {
        err = ParseError::kBadPayload;
      }
    }
  }
  if (err != ParseError::kOk) {
    stats_.CountRejected();
    return err;
  }
  if (dims != dims_) {
    // Structurally valid batch for another dimensionality: every item is
    // rejected, exactly as the Absorb loop would have.
    stats_.CountRejected(count);
    return ParseError::kOk;
  }
  const uint64_t radix = uint64_t{shape_.height()} + 1;
  uint64_t ok = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t tuple = 0;
    uint64_t tuple_stride = 1;
    bool levels_ok = true;
    for (uint32_t dim = 0; dim < dims_; ++dim) {
      uint8_t level = 0;
      levels_ok = reader.ReadU8(&level) && levels_ok;
      if (level > shape_.height()) {
        levels_ok = false;
      } else {
        tuple += uint64_t{level} * tuple_stride;
        tuple_stride *= radix;
      }
    }
    uint64_t seed = 0;
    uint32_t cell = 0;
    // The size pre-check guarantees every fixed-width read succeeds.
    LDP_CHECK(reader.ReadU64(&seed) && reader.ReadU32(&cell));
    if (!levels_ok || tuple == 0 || cell >= g_) {
      stats_.CountRejected();
      continue;
    }
    oracles_[tuple]->AbsorbReport(seed, cell);
    stats_.CountAccepted();
    ++ok;
  }
  if (accepted != nullptr) *accepted = ok;
  return ParseError::kOk;
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
