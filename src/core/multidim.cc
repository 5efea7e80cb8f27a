#include "core/multidim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/bit_util.h"
#include "common/check.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "frequency/grr.h"
#include "frequency/olh.h"
#include "frequency/olh_support_scan.h"
#include "frequency/oue.h"
#include "frequency/sue.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"

namespace ldp {

bool GridOracleDeferrable(OracleKind kind) {
  switch (kind) {
    case OracleKind::kOueSimulated:
    case OracleKind::kSueSimulated:
    case OracleKind::kGrr:
    case OracleKind::kOlh:
      return true;
    case OracleKind::kOue:
    case OracleKind::kSue:
    case OracleKind::kHrr:
      return false;
  }
  return false;
}

namespace {

// Fills `offsets` with the flat address of each tuple's first cell (plus
// the total); false when the non-trivial tuples' cells exceed
// `max_total_cells` or a count overflows.
bool TupleOffsets(const TreeShape& shape, uint32_t dims,
                  uint64_t max_total_cells, std::vector<uint64_t>* offsets) {
  const uint64_t radix = uint64_t{shape.height()} + 1;
  uint64_t tuple_count = 1;
  for (uint32_t dim = 0; dim < dims; ++dim) {
    if (__builtin_mul_overflow(tuple_count, radix, &tuple_count)) {
      return false;
    }
  }
  // Every non-trivial tuple carries at least fanout >= 2 cells, so more
  // tuples than budget/2 already exceeds the budget; this also bounds the
  // enumeration below.
  if (tuple_count - 1 > max_total_cells / 2) return false;
  offsets->assign(tuple_count + 1, 0);
  (*offsets)[1] = 1;  // the all-root cell
  for (uint64_t t = 1; t < tuple_count; ++t) {
    uint64_t rest = t;
    uint64_t cells = 1;
    for (uint32_t dim = 0; dim < dims; ++dim) {
      const auto level = static_cast<uint32_t>(rest % radix);
      rest /= radix;
      if (__builtin_mul_overflow(cells, shape.NodesAtLevel(level), &cells)) {
        return false;
      }
    }
    uint64_t* next = &(*offsets)[t + 1];
    if (__builtin_add_overflow((*offsets)[t], cells, next) ||
        *next - 1 > max_total_cells) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool GridLayout::Fits(const TreeShape& shape, uint32_t dims,
                      uint64_t max_total_cells) {
  std::vector<uint64_t> offsets;
  return dims >= 1 && TupleOffsets(shape, dims, max_total_cells, &offsets);
}

GridLayout::GridLayout(const TreeShape& shape, uint32_t dims,
                       uint64_t max_total_cells)
    : shape_(shape), dims_(dims), radix_(uint64_t{shape.height()} + 1) {
  LDP_CHECK_GE(dims_, 1u);
  LDP_CHECK_MSG(TupleOffsets(shape_, dims_, max_total_cells, &offsets_),
                "grid cell budget exceeded; reduce D, d or raise "
                "max_total_cells");
}

uint64_t GridLayout::CellOf(uint64_t tuple, const uint64_t* coords) const {
  uint64_t cell = 0;
  uint64_t cell_stride = 1;
  for (uint32_t dim = 0; dim < dims_; ++dim) {
    const auto level = static_cast<uint32_t>(tuple % radix_);
    tuple /= radix_;
    cell += shape_.NodeContaining(level, coords[dim]) * cell_stride;
    cell_stride *= shape_.NodesAtLevel(level);
  }
  return cell;
}

void GridLayout::TupleLevels(uint64_t tuple, uint8_t* levels) const {
  for (uint32_t dim = 0; dim < dims_; ++dim) {
    levels[dim] = static_cast<uint8_t>(tuple % radix_);
    tuple /= radix_;
  }
}

template <typename CellVisitor>
void GridLayout::VisitBoxCells(std::span<const AxisInterval> box,
                               CellVisitor&& visit) const {
  LDP_CHECK_EQ(box.size(), static_cast<size_t>(dims_));
  std::vector<std::vector<TreeNode>> axis_nodes(dims_);
  for (uint32_t dim = 0; dim < dims_; ++dim) {
    LDP_CHECK_LE(box[dim].lo, box[dim].hi);
    LDP_CHECK_LT(box[dim].hi, shape_.domain());
    axis_nodes[dim] = shape_.Decompose(box[dim].lo, box[dim].hi);
  }
  // Walk the cross product of the per-axis decompositions.
  std::vector<size_t> pick(dims_, 0);
  for (;;) {
    uint64_t tuple = 0;
    uint64_t cell = 0;
    uint64_t cell_stride = 1;
    uint64_t tuple_stride = 1;
    for (uint32_t dim = 0; dim < dims_; ++dim) {
      const TreeNode& node = axis_nodes[dim][pick[dim]];
      tuple += static_cast<uint64_t>(node.level) * tuple_stride;
      tuple_stride *= radix_;
      cell += node.index * cell_stride;
      cell_stride *= shape_.NodesAtLevel(node.level);
    }
    visit(tuple, offsets_[tuple] + cell);
    // Advance the odometer.
    uint32_t dim = 0;
    for (; dim < dims_; ++dim) {
      if (++pick[dim] < axis_nodes[dim].size()) break;
      pick[dim] = 0;
    }
    if (dim == dims_) break;
  }
}

GridEstimate::GridEstimate(const GridLayout& layout)
    : layout_(layout),
      values_(new double[layout.offsets_.back()]),
      tuple_variance_(layout.tuple_count(), 0.0) {
  values_[0] = 1.0;  // the all-root cell is the whole space
}

void GridEstimate::SetTuple(uint64_t t, std::span<const double> estimates,
                            double variance) {
  std::span<double> cells = Tuple(t);
  LDP_CHECK_EQ(estimates.size(), cells.size());
  std::copy(estimates.begin(), estimates.end(), cells.begin());
  tuple_variance_[t] = variance;
}

RangeEstimate GridEstimate::BoxQueryWithUncertainty(
    std::span<const AxisInterval> box) const {
  double total = 0.0;
  double variance = 0.0;
  layout_.VisitBoxCells(box, [&](uint64_t tuple, uint64_t address) {
    total += values_[address];
    if (tuple != 0) variance += tuple_variance_[tuple];
  });
  return RangeEstimate{total, std::sqrt(variance)};
}

HierarchicalGrid::HierarchicalGrid(uint64_t domain_per_dim,
                                   uint32_t dimensions, double eps,
                                   const HierarchicalGridConfig& config,
                                   uint64_t max_total_cells)
    : MechanismBase(domain_per_dim, eps),
      config_(config),
      max_total_cells_(max_total_cells),
      layout_(TreeShape(domain_per_dim, config.fanout), dimensions,
              max_total_cells) {
  deferred_ = config_.decode == GridDecode::kDeferred &&
              GridOracleDeferrable(config_.oracle);
  if (config_.oracle == OracleKind::kOlh) {
    olh_g_ = OlhOptimalHashRange(eps_);
  }
  const uint64_t tuples = layout_.tuple_count();
  if (deferred_) {
    // No oracles: ingestion records into the arena columns and Finalize
    // decodes straight into the estimate. The record format needs tuple
    // and cell to fit u32; both are bounded by the cell budget (<= 2^26).
    LDP_CHECK_LE(tuples, uint64_t{1} << 32);
    tuple_reports_.assign(tuples, 0);
  } else {
    grids_.resize(tuples);
    for (uint64_t t = 1; t < tuples; ++t) {
      grids_[t] = MakeOracle(config_.oracle, layout_.TupleCells(t), eps_);
    }
  }
}

std::unique_ptr<HierarchicalGrid> HierarchicalGrid::Create(
    uint64_t domain_per_dim, uint32_t dimensions, double eps,
    const HierarchicalGridConfig& config, uint64_t max_total_cells,
    std::string* error) {
  auto fail = [&](const char* message) -> std::unique_ptr<HierarchicalGrid> {
    if (error != nullptr) *error = message;
    return nullptr;
  };
  if (domain_per_dim < 2) return fail("domain_per_dim must be >= 2");
  if (dimensions < 1) return fail("dimensions must be >= 1");
  if (!(eps > 0.0)) return fail("epsilon must be positive");
  if (config.fanout < 2) return fail("fanout must be >= 2");
  if (!GridLayout::Fits(TreeShape(domain_per_dim, config.fanout),
                        dimensions, max_total_cells)) {
    return fail(
        "cell budget exceeded: the (h+1)^d level-tuple grids need more "
        "cells than max_total_cells; reduce D, d or raise max_total_cells");
  }
  return std::make_unique<HierarchicalGrid>(domain_per_dim, dimensions, eps,
                                            config, max_total_cells);
}

std::string HierarchicalGrid::Name() const {
  std::string name = "HH";
  name += std::to_string(dimensions());
  name += "D";
  name += std::to_string(config_.fanout);
  name += "-";
  name += OracleKindName(config_.oracle);
  return name;
}

double HierarchicalGrid::ReportBits() const {
  // A user reports their sampled level tuple plus one oracle report for
  // that tuple's grid; tuples are sampled uniformly. Deferred mode has no
  // oracle objects, so the per-kind report size is computed analytically
  // (matching the corresponding oracle's ReportBits exactly).
  const uint64_t tuples = layout_.tuple_count();
  double bits = 0.0;
  for (uint64_t t = 1; t < tuples; ++t) {
    if (!deferred_) {
      bits += grids_[t]->ReportBits();
      continue;
    }
    switch (config_.oracle) {
      case OracleKind::kOueSimulated:
      case OracleKind::kSueSimulated:
        bits += static_cast<double>(layout_.TupleCells(t));
        break;
      case OracleKind::kGrr:
        bits += static_cast<double>(Log2Ceil(layout_.TupleCells(t)));
        break;
      case OracleKind::kOlh:
        bits += 64.0 + static_cast<double>(Log2Ceil(olh_g_));
        break;
      default:
        LDP_CHECK_MSG(false, "non-deferrable kind in deferred grid");
    }
  }
  double tuple_id_bits = static_cast<double>(Log2Ceil(tuples - 1));
  return tuple_id_bits + bits / static_cast<double>(tuples - 1);
}

void HierarchicalGrid::EncodePoint(const uint64_t* coords, Rng& rng) {
  LDP_CHECK_MSG(!finalized_, "EncodePoint after Finalize");
  for (uint32_t dim = 0; dim < layout_.dims(); ++dim) {
    LDP_CHECK_LT(coords[dim], domain_);
  }
  // Uniform level tuple, skipping the all-root tuple 0, then the user's
  // cell within that tuple's grid.
  const uint64_t tuple = layout_.SampleTuple(rng);
  uint64_t cell = layout_.CellOf(tuple, coords);
  if (!deferred_) {
    grids_[tuple]->SubmitValue(cell, rng);
    ++users_;
    return;
  }
  // Deferred: perform the oracle's CLIENT-side randomization now (drawing
  // from `rng` exactly as SubmitValue would, so both modes consume one
  // identical stream) and append the compact record; the aggregate-side
  // decode runs once, at Finalize.
  switch (config_.oracle) {
    case OracleKind::kOueSimulated:
    case OracleKind::kSueSimulated:
      // The §5 simulated paths draw no per-user randomness.
      break;
    case OracleKind::kGrr:
      cell = GrrPerturb(cell, layout_.TupleCells(tuple), eps_, rng);
      break;
    case OracleKind::kOlh: {
      uint64_t seed = rng.Next();
      uint64_t h = SeededHash(seed, cell, olh_g_);
      cell = GrrPerturb(h, olh_g_, eps_, rng);
      rec_seeds_.PushBack(seed);
      break;
    }
    default:
      LDP_CHECK_MSG(false, "non-deferrable kind in deferred grid");
  }
  rec_tuples_.PushBack(static_cast<uint32_t>(tuple));
  rec_cells_.PushBack(static_cast<uint32_t>(cell));
  ++tuple_reports_[tuple];
  ++users_;
}

void HierarchicalGrid::EncodePoints(std::span<const uint64_t> coords,
                                    Rng& rng) {
  LDP_CHECK_MSG(!finalized_, "EncodePoints after Finalize");
  const uint32_t dims = layout_.dims();
  LDP_CHECK_EQ(coords.size() % dims, size_t{0});
  // Same draw order as the EncodePoint loop (tuple pick, then submit).
  for (size_t i = 0; i < coords.size(); i += dims) {
    EncodePoint(coords.data() + i, rng);
  }
}

std::unique_ptr<MechanismBase> HierarchicalGrid::CloneEmptyBase() const {
  return std::make_unique<HierarchicalGrid>(domain_, layout_.dims(), eps_,
                                            config_, max_total_cells_);
}

void HierarchicalGrid::MergeFromBase(const MechanismBase& other) {
  const auto* o = dynamic_cast<const HierarchicalGrid*>(&other);
  LDP_CHECK_MSG(o != nullptr, "MergeFromBase requires a HierarchicalGrid");
  LDP_CHECK_MSG(!finalized_ && !o->finalized_,
                "cannot merge finalized mechanisms");
  LDP_CHECK(o->domain_ == domain_);
  LDP_CHECK(o->layout_.dims() == layout_.dims());
  LDP_CHECK(o->config_.fanout == config_.fanout);
  LDP_CHECK(o->config_.oracle == config_.oracle);
  LDP_CHECK(o->deferred_ == deferred_);
  if (deferred_) {
    // O(1) in the record count: the columns adopt the shard's arena
    // blocks. This consumes the shard's records — allowed by the sharding
    // contract (a merged shard is discarded, exactly like OlhOracle's
    // pending queue).
    auto* shard = const_cast<HierarchicalGrid*>(o);
    rec_tuples_.Adopt(std::move(shard->rec_tuples_));
    rec_cells_.Adopt(std::move(shard->rec_cells_));
    rec_seeds_.Adopt(std::move(shard->rec_seeds_));
    for (uint64_t t = 1; t < layout_.tuple_count(); ++t) {
      tuple_reports_[t] += o->tuple_reports_[t];
    }
  } else {
    for (uint64_t t = 1; t < layout_.tuple_count(); ++t) {
      grids_[t]->MergeFrom(*o->grids_[t]);
    }
  }
  users_ += o->users_;
}

void HierarchicalGrid::Finalize(Rng& rng) {
  LDP_CHECK_MSG(!finalized_, "Finalize called twice");
  // Fork one decode stream per tuple, in tuple order, in both modes: tuple
  // t's noise comes from Rng(seeds[t]) regardless of mode, thread count,
  // or which worker runs it, which is what makes the modes bit-identical.
  std::vector<uint64_t> seeds(layout_.tuple_count(), 0);
  for (uint64_t t = 1; t < seeds.size(); ++t) seeds[t] = rng.Next();
  const unsigned threads =
      finalize_threads_ != 0 ? finalize_threads_ : HardwareThreads();
  if (deferred_) {
    FinalizeDeferred(seeds, threads);
  } else {
    FinalizeEager(seeds, threads);
  }
  finalized_ = true;
}

void HierarchicalGrid::FinalizeEager(std::span<const uint64_t> seeds,
                                     unsigned threads) {
  GridEstimate& estimate = estimate_.emplace(layout_);
  ParallelFor(seeds.size() - 1, threads,
              [&](unsigned, uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) {
      const uint64_t t = i + 1;
      // OLH oracles would otherwise fan out their own decode inside this
      // already-parallel loop; keep each tuple's scan on its worker.
      if (auto* olh = dynamic_cast<OlhOracle*>(grids_[t].get())) {
        olh->set_decode_threads(1);
      }
      Rng tuple_rng(seeds[t]);
      grids_[t]->Finalize(tuple_rng);
      estimate.SetTuple(t, grids_[t]->EstimateFractions(),
                        grids_[t]->EstimatorVariance());
    }
  });
}

void HierarchicalGrid::FinalizeDeferred(std::span<const uint64_t> seeds,
                                        unsigned threads) {
  // Global-registry timing: the deferred decode is the grid's dominant
  // finalize cost and the subject of the CI perf gate.
  static obs::LatencyHistogram* const scan_ns =
      &obs::MetricsRegistry::Global().GetHistogram("grid.deferred_scan_ns");
  obs::ScopedTimer scan_timer(scan_ns, "grid.deferred_scan");
  // Each tuple's decode writes its slice of the estimate's write-once
  // buffer exactly once.
  GridEstimate& estimate = estimate_.emplace(layout_);
  const uint64_t tuple_count = seeds.size();

  // Partition the records by tuple (counting sort off the per-tuple report
  // totals maintained at ingest): after this every tuple's cells (and
  // seeds, for OLH) sit in one contiguous slice, so the per-tuple decode
  // below is a single linear scan.
  const uint64_t n_records = rec_tuples_.size();
  LDP_CHECK(rec_cells_.size() == n_records);
  const bool olh = config_.oracle == OracleKind::kOlh;
  std::vector<uint64_t> rec_offset(tuple_count + 1, 0);
  for (uint64_t t = 0; t < tuple_count; ++t) {
    rec_offset[t + 1] = rec_offset[t] + tuple_reports_[t];
  }
  LDP_CHECK(rec_offset[tuple_count] == n_records);
  std::vector<uint32_t> cells_by_tuple(n_records);
  std::vector<uint64_t> seeds_by_tuple(olh ? n_records : 0);
  {
    std::vector<uint64_t> cursor(rec_offset.begin(), rec_offset.end() - 1);
    const auto tuple_chunks = rec_tuples_.Chunks();
    const auto cell_chunks = rec_cells_.Chunks();
    const auto seed_chunks = rec_seeds_.Chunks();
    LDP_CHECK(cell_chunks.size() == tuple_chunks.size());
    LDP_CHECK(!olh || seed_chunks.size() == tuple_chunks.size());
    for (size_t s = 0; s < tuple_chunks.size(); ++s) {
      const uint32_t* tuples = tuple_chunks[s].data;
      const uint32_t* cells = cell_chunks[s].data;
      const uint64_t* sds = olh ? seed_chunks[s].data : nullptr;
      LDP_CHECK(cell_chunks[s].size == tuple_chunks[s].size);
      for (uint64_t i = 0; i < tuple_chunks[s].size; ++i) {
        const uint64_t pos = cursor[tuples[i]]++;
        cells_by_tuple[pos] = cells[i];
        if (olh) seeds_by_tuple[pos] = sds[i];
      }
    }
  }

  // One decode per tuple, sharded over tuples: histogram (or support-scan)
  // the tuple's slice, then fuse the aggregate noise draw with the
  // debiased estimate — arithmetic identical to the corresponding
  // oracle's Finalize + EstimateFractions. Per-tuple Rng(seeds[t]) makes
  // the result independent of the sharding.
  ParallelFor(tuple_count - 1, threads,
              [&](unsigned, uint64_t begin, uint64_t end) {
    // Per-worker count scratch, reused across the worker's tuples and
    // first-touched here (NUMA: pages live on the node that scans them).
    std::vector<uint64_t> counts;
    for (uint64_t i = begin; i < end; ++i) {
      const uint64_t t = i + 1;
      const uint64_t cells_t = layout_.TupleCells(t);
      const uint64_t n_t = tuple_reports_[t];
      double* const est = estimate.Tuple(t).data();
      if (n_t == 0) {
        // An empty oracle estimates all zeros with infinite variance.
        std::fill(est, est + cells_t, 0.0);
        estimate.SetTupleVariance(t, std::numeric_limits<double>::infinity());
        continue;
      }
      const uint32_t* slice = cells_by_tuple.data() + rec_offset[t];
      const double dn = static_cast<double>(n_t);
      Rng tuple_rng(seeds[t]);
      switch (config_.oracle) {
        case OracleKind::kOueSimulated: {
          counts.assign(cells_t, 0);
          for (uint64_t r = 0; r < n_t; ++r) ++counts[slice[r]];
          const OueAggregateNoiser noiser(n_t, eps_);
          for (uint64_t j = 0; j < cells_t; ++j) {
            est[j] = noiser.Estimate(noiser.NoisyCount(counts[j], tuple_rng));
          }
          estimate.SetTupleVariance(t, OracleVariance(eps_, dn));
          break;
        }
        case OracleKind::kSueSimulated: {
          counts.assign(cells_t, 0);
          for (uint64_t r = 0; r < n_t; ++r) ++counts[slice[r]];
          const SueAggregateNoiser noiser(n_t, eps_);
          for (uint64_t j = 0; j < cells_t; ++j) {
            est[j] = noiser.Estimate(noiser.NoisyCount(counts[j], tuple_rng));
          }
          estimate.SetTupleVariance(t, SueVariance(eps_, dn));
          break;
        }
        case OracleKind::kGrr: {
          counts.assign(cells_t, 0);
          for (uint64_t r = 0; r < n_t; ++r) ++counts[slice[r]];
          // Expression-for-expression GrrDebias (frequency/grr.cc), writing
          // into the flat buffer instead of a returned vector.
          const double p = GrrTruthProbability(cells_t, eps_);
          const double q = (1.0 - p) / (static_cast<double>(cells_t) - 1.0);
          for (uint64_t j = 0; j < cells_t; ++j) {
            est[j] = (static_cast<double>(counts[j]) / dn - q) / (p - q);
          }
          estimate.SetTupleVariance(
              t, GrrLowFrequencyVariance(cells_t, eps_, n_t));
          break;
        }
        case OracleKind::kOlh: {
          counts.assign(cells_t, 0);
          OlhAccumulateSupport(seeds_by_tuple.data() + rec_offset[t], slice,
                               n_t, olh_g_, cells_t, counts.data());
          const double p = GrrTruthProbability(olh_g_, eps_);
          const double q = 1.0 / static_cast<double>(olh_g_);
          for (uint64_t j = 0; j < cells_t; ++j) {
            est[j] = (static_cast<double>(counts[j]) / dn - q) / (p - q);
          }
          estimate.SetTupleVariance(
              t, q * (1.0 - q) / (dn * (p - q) * (p - q)));
          break;
        }
        default:
          LDP_CHECK_MSG(false, "non-deferrable kind in deferred grid");
      }
    }
  });
  // Retain the arena blocks: a reused mechanism (or the next session on a
  // merged aggregate) refills them without new system allocations.
  rec_tuples_.Clear();
  rec_cells_.Clear();
  rec_seeds_.Clear();
}

double HierarchicalGrid::BoxQuery(std::span<const AxisInterval> box) const {
  LDP_CHECK_MSG(finalized_, "BoxQuery before Finalize");
  return estimate_->BoxQuery(box);
}

RangeEstimate HierarchicalGrid::BoxQueryWithUncertainty(
    std::span<const AxisInterval> box) const {
  LDP_CHECK_MSG(finalized_, "BoxQuery before Finalize");
  return estimate_->BoxQueryWithUncertainty(box);
}

}  // namespace ldp
