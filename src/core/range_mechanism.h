// Common interface for LDP range-query mechanisms (paper Sections 4, 6).
//
// Protocol shape shared by every mechanism:
//   1. each user calls EncodePoint() / EncodeUser() once with their private
//      value — the only step that sees private data, and the only one that
//      consumes privacy budget (each mechanism is eps-LDP end to end);
//   2. the aggregator calls Finalize() once, which debiases the collected
//      noisy reports into an internal estimate structure;
//   3. any number of BoxQuery / RangeQuery / PrefixQuery / PointQuery /
//      QuantileQuery calls read the estimates (pure post-processing, free
//      under DP).
//
// The abstraction is dimension-aware: a user's point is a span of d
// coordinates and a query is an axis-aligned box of d inclusive intervals
// (paper Section 6 extends the 1-D decomposition to d dimensions). The 1-D
// mechanisms keep their classic value/interval API via RangeMechanism,
// which adapts it onto the point/box interface.

#ifndef LDPRANGE_CORE_RANGE_MECHANISM_H_
#define LDPRANGE_CORE_RANGE_MECHANISM_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/random.h"

namespace ldp {

/// A range answer with its predicted sampling uncertainty: the true value
/// lies within value +/- k*stddev with the usual Gaussian coverage (the
/// estimate is a sum of many independent user contributions).
struct RangeEstimate {
  double value = 0.0;
  double stddev = 0.0;
};

/// One inclusive per-axis interval of an axis-aligned box query.
struct AxisInterval {
  uint64_t lo = 0;
  uint64_t hi = 0;

  friend bool operator==(const AxisInterval&, const AxisInterval&) = default;
};

/// Abstract dimension-aware LDP range-query mechanism: points are spans of
/// dimensions() coordinates, queries are axis-aligned boxes.
class MechanismBase {
 public:
  virtual ~MechanismBase() = default;

  MechanismBase(const MechanismBase&) = delete;
  MechanismBase& operator=(const MechanismBase&) = delete;

  /// Per-axis domain size D; every coordinate lives in [0, D).
  uint64_t domain_size() const { return domain_; }

  /// Privacy parameter of the whole protocol.
  double epsilon() const { return eps_; }

  /// Number of axes d. Points carry d coordinates, boxes d intervals.
  virtual uint32_t dimensions() const = 0;

  /// Number of users encoded so far.
  virtual uint64_t user_count() const = 0;

  /// Short identifier used in benchmark tables, e.g. "HHc8-OUE", "HaarHRR".
  virtual std::string Name() const = 0;

  /// Average per-user report size in bits.
  virtual double ReportBits() const = 0;

  /// Client side: randomize the point `coords` (dimensions() values, each
  /// in [0, D)) and fold the report into the aggregator state.
  virtual void EncodePoint(const uint64_t* coords, Rng& rng) = 0;

  /// Batched client side: `coords` is a row-major n x dimensions() block of
  /// coordinates, encoded in order and drawing from `rng` exactly as the
  /// equivalent EncodePoint loop would (bit-identical for the same Rng
  /// stream). For multi-threaded ingestion see EncodePointsSharded().
  virtual void EncodePoints(std::span<const uint64_t> coords, Rng& rng);

  /// Fresh mechanism with identical parameters and empty aggregate state
  /// (per-thread sharding). Returns nullptr when the mechanism does not
  /// support sharded ingestion.
  virtual std::unique_ptr<MechanismBase> CloneEmptyBase() const;

  /// Adds another shard's pre-Finalize aggregate state into this one. The
  /// other mechanism must come from CloneEmptyBase() on a compatible
  /// instance.
  virtual void MergeFromBase(const MechanismBase& other);

  /// Server side: debias aggregates and build the query structure. Must be
  /// called exactly once, after all users and before any query.
  virtual void Finalize(Rng& rng) = 0;

  /// Estimated fraction of users inside the axis-aligned box (box.size()
  /// == dimensions(), inclusive per-axis bounds). Estimates are unbiased
  /// but may fall outside [0, 1].
  virtual double BoxQuery(std::span<const AxisInterval> box) const = 0;

  /// BoxQuery plus the analytically-derived standard deviation of the
  /// estimate (from each mechanism's exact variance accounting).
  virtual RangeEstimate BoxQueryWithUncertainty(
      std::span<const AxisInterval> box) const = 0;

 protected:
  MechanismBase(uint64_t domain, double eps);

  uint64_t domain_;
  double eps_;
};

/// Abstract 1-D LDP range-query mechanism: the classic value/interval API,
/// adapted onto the point/box interface (a value is a 1-coordinate point,
/// an interval a 1-axis box).
class RangeMechanism : public MechanismBase {
 public:
  /// Client side: randomize `value` (in [0, D)) and fold the report into
  /// the aggregator state.
  virtual void EncodeUser(uint64_t value, Rng& rng) = 0;

  /// Batched client side: encodes `values` in order, drawing from `rng`
  /// exactly as the equivalent EncodeUser loop would (bit-identical for
  /// the same Rng stream). Mechanism overrides route the batch through the
  /// oracles' SubmitBatch fast paths. For multi-threaded ingestion see
  /// EncodePointsSharded() (a 1-D value is a 1-coordinate point).
  virtual void EncodeUsers(std::span<const uint64_t> values, Rng& rng);

  /// Fresh mechanism with identical parameters and empty aggregate state
  /// (per-thread sharding). Returns nullptr when the mechanism does not
  /// support sharded ingestion; the paper's three mechanism families all
  /// do.
  virtual std::unique_ptr<RangeMechanism> CloneEmpty() const;

  /// Adds another shard's pre-Finalize aggregate state into this one. The
  /// other mechanism must come from CloneEmpty() on a compatible instance.
  virtual void MergeFrom(const RangeMechanism& other);

  /// Estimated fraction of users with value in the inclusive range [a, b].
  /// Estimates are unbiased but may fall outside [0, 1].
  virtual double RangeQuery(uint64_t a, uint64_t b) const = 0;

  /// RangeQuery plus the analytically-derived standard deviation of the
  /// estimate: the variance of exactly the terms the answer sums, each at
  /// its own report count (for consistency-processed hierarchies the
  /// Lemma 4.6 B/(B+1) factor is applied per node, making the reported
  /// stddev a slight over-estimate). Never NaN: +inf where the answer
  /// reads a level with no reports, 0 where it is exact. Every family
  /// computes it in its *Estimate type, which the wire servers
  /// (src/protocol) answer through as well.
  virtual RangeEstimate RangeQueryWithUncertainty(uint64_t a,
                                                  uint64_t b) const = 0;

  /// Estimated fraction of users with value <= b.
  double PrefixQuery(uint64_t b) const { return RangeQuery(0, b); }

  /// Estimated fraction of users with value exactly z.
  double PointQuery(uint64_t z) const { return RangeQuery(z, z); }

  /// Estimated per-item frequency vector (length D).
  virtual std::vector<double> EstimateFrequencies() const = 0;

  /// The phi-quantile: smallest item whose estimated prefix mass reaches
  /// phi, found by binary search over prefix queries (paper Section 4.7).
  uint64_t QuantileQuery(double phi) const;

  // Point/box adapters: a 1-D mechanism is a MechanismBase with d = 1.
  uint32_t dimensions() const final { return 1; }
  void EncodePoint(const uint64_t* coords, Rng& rng) final;
  void EncodePoints(std::span<const uint64_t> coords, Rng& rng) final;
  std::unique_ptr<MechanismBase> CloneEmptyBase() const final;
  void MergeFromBase(const MechanismBase& other) final;
  double BoxQuery(std::span<const AxisInterval> box) const final;
  RangeEstimate BoxQueryWithUncertainty(
      std::span<const AxisInterval> box) const final;

 protected:
  RangeMechanism(uint64_t domain, double eps);
};

/// Multi-threaded batched ingestion: encodes the row-major n x dimensions()
/// coordinate block `coords` into `mechanism` using up to `threads` workers
/// (0 = one per hardware core), each working on a CloneEmptyBase() fork
/// that is merged back when its share is done.
///
/// Determinism contract: the user stream is split into fixed-size logical
/// chunks (on user boundaries), and chunk c always draws from its own Rng
/// forked deterministically from (`seed`, c) — independent of how chunks
/// land on threads. All mechanism aggregates are integer counters, so the
/// final state is bit-identical for every thread count, including
/// threads == 1. (The stream differs from the single-Rng EncodePoints()
/// path, whose draws are sequential; estimates agree statistically, not
/// bitwise.)
void EncodePointsSharded(MechanismBase& mechanism,
                         std::span<const uint64_t> coords, uint64_t seed,
                         unsigned threads = 0);

}  // namespace ldp

#endif  // LDPRANGE_CORE_RANGE_MECHANISM_H_
