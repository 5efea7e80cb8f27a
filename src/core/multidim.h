// Multidimensional hierarchical range queries (paper Section 6).
//
// The 1-D hierarchical decomposition extends to [D]^d by crossing the
// per-dimension B-adic trees: each user samples a LEVEL TUPLE
// (l_1, ..., l_d) uniformly from the (h+1)^d - 1 tuples other than the
// all-root tuple (whose single cell is the whole space, known exactly) and
// reports the one-hot indicator of their cell in the product grid
// B^{l_1} x ... x B^{l_d} through a frequency oracle. An axis-aligned box
// query decomposes into the cross product of the per-axis B-adic
// decompositions — O(log_B^d D) cells — giving the paper's log^{2d} D
// variance scaling for d dimensions.
//
// Memory grows as (D·B/(B-1))^d — per the paper, beyond d = 2..3 coarser
// gridding is preferable; a guard rejects configurations whose total cell
// count would exceed an explicit budget (typed error via Create(), CHECK
// in the constructor).
//
// Two decode strategies (GridDecode in the config):
//  * kDeferred (default) — ingestion appends compact (tuple, cell[, seed])
//    records into arena-backed columns and Finalize runs one sharded pass:
//    records are partitioned by tuple (counting sort), then a ParallelFor
//    over tuples histograms each tuple's contiguous slice and fuses the
//    aggregate noise draw with the debiased estimate. No per-tuple oracle
//    objects exist at all — construction stops zeroing O(total_cells)
//    count vectors, ingest touches 8-16 bytes per report, and the decode
//    is one cache-blocked scan per tuple.
//  * kEager — one FrequencyOracle per tuple, reports folded into oracle
//    state at ingest, Finalize per oracle; the reference implementation.
// Both modes consume identical client-side Rng streams at ingest and fork
// one decode stream per tuple (in tuple order) at Finalize, so their
// estimates are BIT-IDENTICAL to each other and across thread counts.
// Both decode into one GridEstimate over one GridLayout, the two types the
// wire client and server (protocol/multidim_protocol.h) share with them.
// Deferral covers kOueSimulated, kSueSimulated, kGrr and kOlh; the
// per-user-exact kinds (kOue, kSue, kHrr) randomize each report at
// submission time and silently fall back to eager.

#ifndef LDPRANGE_CORE_MULTIDIM_H_
#define LDPRANGE_CORE_MULTIDIM_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/check.h"
#include "common/random.h"
#include "core/badic.h"
#include "core/range_mechanism.h"
#include "frequency/frequency_oracle.h"

namespace ldp {

/// When the grid turns ingested reports into estimates (see file comment).
enum class GridDecode {
  kDeferred,
  kEager,
};

/// Configuration for the multidimensional hierarchical mechanisms.
struct HierarchicalGridConfig {
  uint64_t fanout = 2;
  OracleKind oracle = OracleKind::kOueSimulated;
  GridDecode decode = GridDecode::kDeferred;
};

/// True when `kind` can be decoded at Finalize time from recorded
/// (tuple, cell[, seed]) reports — i.e. its client-side randomization and
/// aggregate state fit the deferred grid's record format.
bool GridOracleDeferrable(OracleKind kind);

/// The level-tuple grid of Section 6, the one layout behind the simulation
/// (HierarchicalGrid) and the wire client and server
/// (protocol/multidim_protocol.h). Tuples are the (h+1)^d per-axis level
/// combinations, flattened little-endian in mixed radix h+1 (dimension 0
/// least significant); tuple 0 is the all-root tuple, whose one cell is the
/// whole space. A tuple's cells flatten the same way (dimension 0 fastest),
/// and every cell of every tuple has one flat address, tuple by tuple.
class GridLayout {
 public:
  /// Whether `dims`-dimensional grids with `shape` on every axis fit:
  /// dims >= 1 and at most `max_total_cells` cells over the non-trivial
  /// tuples (overflow-safe).
  static bool Fits(const TreeShape& shape, uint32_t dims,
                   uint64_t max_total_cells);

  /// The layout; CHECK-fails where Fits() is false.
  GridLayout(const TreeShape& shape, uint32_t dims, uint64_t max_total_cells);

  const TreeShape& shape() const { return shape_; }
  uint32_t dims() const { return dims_; }
  /// (h+1)^d, the all-root tuple included.
  uint64_t tuple_count() const { return offsets_.size() - 1; }
  /// Cells of the non-trivial tuples (what the grid's memory grows with).
  uint64_t total_cells() const { return offsets_.back() - 1; }
  uint64_t TupleCells(uint64_t tuple) const {
    return offsets_[tuple + 1] - offsets_[tuple];
  }

  /// A user's tuple: one draw, uniform over the non-trivial tuples.
  uint64_t SampleTuple(Rng& rng) const {
    return 1 + rng.UniformInt(tuple_count() - 1);
  }

  /// The cell of `tuple`'s grid that contains the point `coords`
  /// (dims() coordinates, each in [0, D)).
  uint64_t CellOf(uint64_t tuple, const uint64_t* coords) const;

  /// Writes `tuple`'s per-axis levels (dims() bytes; h <= 255).
  void TupleLevels(uint64_t tuple, uint8_t* levels) const;

  /// The tuple of per-axis `levels` (dims() bytes). False on a level past
  /// the tree height or the all-root tuple, which carries no report.
  bool TupleOf(const uint8_t* levels, uint64_t* tuple) const {
    uint64_t t = 0;
    uint64_t stride = 1;
    for (uint32_t dim = 0; dim < dims_; ++dim) {
      if (levels[dim] > shape_.height()) return false;
      t += uint64_t{levels[dim]} * stride;
      stride *= radix_;
    }
    *tuple = t;
    return t != 0;
  }

 private:
  friend class GridEstimate;

  /// Walks the O(log_B^d D) cells covering the axis-aligned box, the cross
  /// product of the per-axis B-adic decompositions: visit(tuple, address).
  template <typename CellVisitor>
  void VisitBoxCells(std::span<const AxisInterval> box,
                     CellVisitor&& visit) const;

  TreeShape shape_;
  uint32_t dims_;
  uint64_t radix_;  // h + 1
  // offsets_[t] = address of tuple t's first cell; the last entry is the
  // number of cells over all tuples.
  std::vector<uint64_t> offsets_;
};

/// The finalized half of the grid: one estimate per cell of every tuple,
/// in one write-once buffer addressed by GridLayout, and each tuple's
/// per-cell variance. HierarchicalGrid (both decode modes) and the wire
/// server (protocol/multidim_protocol.h) both answer through it.
class GridEstimate {
 public:
  /// The all-root cell is 1 with variance 0. Every other cell is left
  /// for a decode to write once, one tuple at a time, through Tuple() or
  /// SetTuple(): the buffer is never zero-filled, since a pass over the
  /// ~total_cells doubles the decode overwrites anyway is a measurable
  /// slice of Finalize at grid scale.
  explicit GridEstimate(const GridLayout& layout);

  /// Tuple t's cells (t >= 1).
  std::span<double> Tuple(uint64_t t) {
    return {values_.get() + layout_.offsets_[t], layout_.TupleCells(t)};
  }
  void SetTupleVariance(uint64_t t, double variance) {
    tuple_variance_[t] = variance;
  }
  /// Copies a decoded tuple in: `estimates` holds TupleCells(t) values.
  void SetTuple(uint64_t t, std::span<const double> estimates,
                double variance);

  double BoxQuery(std::span<const AxisInterval> box) const {
    return BoxQueryWithUncertainty(box).value;
  }

  /// The sum over the box's covering cells and, from the same walk, their
  /// summed tuple variances (the Section 6 analogue of Theorem 4.3's
  /// accounting; the all-root cell is exact, an empty tuple +inf).
  RangeEstimate BoxQueryWithUncertainty(
      std::span<const AxisInterval> box) const;

 private:
  GridLayout layout_;
  std::unique_ptr<double[]> values_;
  std::vector<double> tuple_variance_;
};

/// General d-dimensional hierarchical grids ("for d-dimensional data we
/// achieve variance depending on log^{2d} D", paper Section 6), on the
/// dimension-aware MechanismBase contract: points are spans of d
/// coordinates, queries axis-aligned boxes, with batched
/// (EncodePoints) and sharded (EncodePointsSharded via
/// CloneEmptyBase/MergeFromBase) ingestion.
class HierarchicalGrid : public MechanismBase {
 public:
  /// Default cap on the summed oracle domains (the memory guard).
  static constexpr uint64_t kDefaultCellBudget = uint64_t{1} << 26;

  /// `max_total_cells` caps the summed oracle domains; over-budget
  /// configurations CHECK-fail (use Create() for a typed error instead).
  HierarchicalGrid(uint64_t domain_per_dim, uint32_t dimensions, double eps,
                   const HierarchicalGridConfig& config,
                   uint64_t max_total_cells = kDefaultCellBudget);

  /// Validating factory: returns nullptr and fills `*error` (when non-null)
  /// instead of crashing when the configuration is invalid or its total
  /// cell count exceeds `max_total_cells` (overflow-safe accounting).
  static std::unique_ptr<HierarchicalGrid> Create(
      uint64_t domain_per_dim, uint32_t dimensions, double eps,
      const HierarchicalGridConfig& config,
      uint64_t max_total_cells = kDefaultCellBudget,
      std::string* error = nullptr);

  uint64_t domain_per_dim() const { return domain_; }
  /// Total cells across all level tuples (the memory footprint driver).
  uint64_t total_cells() const { return layout_.total_cells(); }

  uint32_t dimensions() const override { return layout_.dims(); }
  uint64_t user_count() const override { return users_; }
  /// The decode strategy in effect (config request, possibly downgraded
  /// to kEager for non-deferrable oracle kinds).
  GridDecode decode_mode() const {
    return deferred_ ? GridDecode::kDeferred : GridDecode::kEager;
  }
  /// Thread count for Finalize's per-tuple fan-out (0 = one per hardware
  /// core, the default). Estimates are bit-identical for every value.
  void set_finalize_threads(unsigned threads) { finalize_threads_ = threads; }
  /// System allocations ever made by the deferred record columns (flat
  /// across ingest/finalize sessions at steady state; test hook).
  uint64_t record_allocation_count() const {
    return rec_tuples_.allocation_count() + rec_cells_.allocation_count() +
           rec_seeds_.allocation_count();
  }
  std::string Name() const override;
  double ReportBits() const override;
  void EncodePoint(const uint64_t* coords, Rng& rng) override;
  void EncodePoints(std::span<const uint64_t> coords, Rng& rng) override;
  std::unique_ptr<MechanismBase> CloneEmptyBase() const override;
  void MergeFromBase(const MechanismBase& other) override;
  void Finalize(Rng& rng) override;
  double BoxQuery(std::span<const AxisInterval> box) const override;
  RangeEstimate BoxQueryWithUncertainty(
      std::span<const AxisInterval> box) const override;

 private:
  // Decode tuple t from Rng(seeds[t]) into *estimate_ on `threads` workers.
  void FinalizeEager(std::span<const uint64_t> seeds, unsigned threads);
  void FinalizeDeferred(std::span<const uint64_t> seeds, unsigned threads);

  HierarchicalGridConfig config_;
  uint64_t max_total_cells_;
  GridLayout layout_;  // identical shape in every dimension
  bool deferred_ = false;  // resolved decode mode (see GridOracleDeferrable)
  unsigned finalize_threads_ = 0;
  uint64_t olh_g_ = 0;  // shared OLH hash range (kOlh only)
  // One oracle per level tuple != all-zero, indexed like GridLayout's
  // tuples. Empty in deferred mode — the whole point: no O(total_cells)
  // oracle state exists until Finalize.
  std::vector<std::unique_ptr<FrequencyOracle>> grids_;
  // Deferred-mode record columns, structure-of-arrays on arenas: the
  // sampled tuple, the (client-randomized where applicable) cell, and for
  // kOlh the public hash seed. Identical append schedules keep their chunk
  // boundaries paired.
  ArenaColumn<uint32_t> rec_tuples_;
  ArenaColumn<uint32_t> rec_cells_;
  ArenaColumn<uint64_t> rec_seeds_;
  // Reports per tuple (deferred mode; an eager oracle tracks its own).
  std::vector<uint64_t> tuple_reports_;
  uint64_t users_ = 0;
  bool finalized_ = false;
  std::optional<GridEstimate> estimate_;
};

/// Two-dimensional convenience wrapper (paper Section 6's d = 2 case):
/// exactly HierarchicalGrid with d = 2 plus (x, y) / rectangle shorthands.
class Hierarchical2D final : public HierarchicalGrid {
 public:
  Hierarchical2D(uint64_t domain_per_dim, double eps,
                 const HierarchicalGridConfig& config)
      : HierarchicalGrid(domain_per_dim, 2, eps, config) {}

  /// Client side: randomize the point (x, y), x, y in [0, D).
  void EncodeUser(uint64_t x, uint64_t y, Rng& rng) {
    const uint64_t point[2] = {x, y};
    EncodePoint(point, rng);
  }

  /// Estimated fraction of users in the rectangle
  /// [ax, bx] x [ay, by] (inclusive).
  double RangeQuery(uint64_t ax, uint64_t bx, uint64_t ay,
                    uint64_t by) const {
    const AxisInterval box[2] = {{ax, bx}, {ay, by}};
    return BoxQuery(box);
  }
};

}  // namespace ldp

#endif  // LDPRANGE_CORE_MULTIDIM_H_
