// The one server interface behind every LDP aggregator in this repo.
//
// The paper's aggregator is a single logical service: it absorbs noisy
// reports off the wire and answers range queries. This interface is that
// shape, extracted from the four mechanism servers that used to be
// copy-alike siblings (FlatHrrServer, HaarHrrServer, TreeHrrServer,
// AheadServer). Everything a deployment routes by — serialized ingestion,
// accept/reject accounting, finalize-once discipline,
// range/frequency/quantile queries — lives here; subclasses only supply
// the mechanism-specific decode + aggregate, and answer through their
// family's estimator.
//
// The streaming service (service/aggregator_service.h) hosts any number
// of AggregatorServer instances and drives them entirely through this
// interface, which is what lets one ingestion/query plane serve all four
// mechanism families (and the next one) without per-mechanism plumbing.

#ifndef LDPRANGE_SERVICE_AGGREGATOR_SERVER_H_
#define LDPRANGE_SERVICE_AGGREGATOR_SERVER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/prefetch.h"
#include "core/range_mechanism.h"
#include "frequency/hrr.h"
#include "obs/metrics.h"
#include "protocol/envelope.h"
#include "protocol/wire.h"
#include "service/server_stats.h"
#include "service/state_wire.h"

namespace ldp::service {

/// Abstract wire-facing LDP aggregator: serialized reports in, range
/// estimates out. Lifecycle: any number of Absorb* calls, exactly one
/// Finalize(), then any number of queries (pure post-processing).
class AggregatorServer {
 public:
  virtual ~AggregatorServer() = default;

  AggregatorServer(const AggregatorServer&) = delete;
  AggregatorServer& operator=(const AggregatorServer&) = delete;

  /// Short mechanism identifier for logs and bench tables ("FlatHrr",
  /// "HaarHrr", "TreeHrr", "Ahead").
  virtual std::string Name() const = 0;

  /// Domain size D; queries address values in [0, D). Per-axis for
  /// multidim servers (dimensions() > 1).
  virtual uint64_t domain() const = 0;

  /// Number of axes the server's mechanism covers; 1 for the classic 1-D
  /// servers. Boxes handed to BoxQuery* carry dimensions() intervals.
  virtual uint32_t dimensions() const { return 1; }

  /// Parses + ingests one serialized report; false (counted as a
  /// rejection) on any parse or range failure. Total over arbitrary
  /// bytes — a server must reject garbage, never crash on it.
  virtual bool AbsorbSerialized(std::span<const uint8_t> bytes) = 0;

  /// Parses + ingests one framed v2 batch message in a single pass over
  /// its report slots (AbsorbReportSlots). On kOk, per-item
  /// malformed/out-of-range reports are counted as rejections and
  /// `accepted` (may be null) receives the number absorbed; a structural
  /// failure counts one rejection for the whole message. Decisions and
  /// state are exactly those of the typed Parse*ReportBatch followed by
  /// per-report Absorb; the counters move once per batch. Non-virtual:
  /// the base times every call into absorb_batch_latency() around the
  /// mechanism-specific DoAbsorbBatchSerialized.
  protocol::ParseError AbsorbBatchSerialized(std::span<const uint8_t> bytes,
                                             uint64_t* accepted = nullptr);

  /// How far ahead, in report slots, a batch absorb that looks ahead
  /// (AbsorbReportSlots) resolves and prefetches a counter. Set by
  /// BM_AbsorbBatch (bench/bench_micro_wire.cc).
  static constexpr uint64_t kLookAheadSlots = 64;

  /// Debiases the aggregate and builds the query structure. Must be
  /// called exactly once, after all reports and before any query.
  void Finalize();
  bool finalized() const { return finalized_; }

  /// Estimated fraction of users with value in the inclusive range
  /// [a, b]; requires a <= b < domain() and a finalized server.
  virtual double RangeQuery(uint64_t a, uint64_t b) const = 0;

  /// RangeQuery plus the mechanism's analytic uncertainty for that range:
  /// the variance of exactly the terms the answer sums, each at its own
  /// report count. Every server answers through its family's core/
  /// estimator, the stddev the paper simulations measure: +inf where an
  /// answer reads a level with no reports, 0 where it is exact (the Haar
  /// full domain, the tree root, the grid's whole space); AHEAD sums its
  /// per-node accounting. The wire query plane ships this as (estimate,
  /// variance) pairs. Pure virtual on purpose: a defaulted 0 (or even
  /// +inf) here would let a new mechanism silently ship a wrong confidence
  /// bound — deciding it is part of implementing a server.
  virtual RangeEstimate RangeQueryWithUncertainty(uint64_t a,
                                                  uint64_t b) const = 0;

  /// Axis-aligned box query (box.size() == dimensions(), inclusive
  /// per-axis bounds). The default forwards 1-axis boxes to RangeQuery,
  /// so every 1-D server answers dimensions() == 1 box queries; multidim
  /// servers override.
  virtual double BoxQuery(std::span<const AxisInterval> box) const;
  virtual RangeEstimate BoxQueryWithUncertainty(
      std::span<const AxisInterval> box) const;

  /// Estimated per-item frequency vector (length = domain()).
  virtual std::vector<double> EstimateFrequencies() const = 0;

  /// Serializes this server's complete partial-aggregate state as one
  /// framed kStateSnapshot message (service/state_wire.h): configuration
  /// header + canonical mechanism state body. Call on a quiesced,
  /// *unfinalized* server — the snapshot is the shard's hand-off to a
  /// query node, taken after ingestion drains and instead of finalizing
  /// locally. Canonical: a restored snapshot re-serializes to the same
  /// bytes. One buffer write: the frame is sized once from
  /// StateBodyBytes(), the envelope and snapshot headers and the body are
  /// written into it in place, and the payload length is patched last.
  /// Timed into snapshot_serialize_latency().
  std::vector<uint8_t> SerializeState() const;

  /// Merges one serialized kStateSnapshot into this server. Total over
  /// adversarial bytes: parses + validates the snapshot against this
  /// server's kind and exact configuration (eps by f64 bit pattern),
  /// restores the body into a fresh empty clone, and folds the clone in
  /// via MergeFrom — so a snapshot that fails mid-restore never leaves
  /// partial state behind. Returns a typed MergeStatus; kOk means the
  /// state and its accept/reject accounting were absorbed.
  MergeStatus MergeSerializedState(std::span<const uint8_t> snapshot);

  /// The validate half of MergeSerializedState: kOk when a parsed
  /// snapshot header names this server's kind and exact configuration
  /// (eps by f64 bit pattern), else kMechanismMismatch or
  /// kConfigMismatch.
  MergeStatus CheckSnapshotHeader(const StateSnapshotHeader& header) const;

  /// The clone half: restores `header.body` (of a snapshot whose header
  /// passed CheckSnapshotHeader) into CloneForSnapshot(header), WITHOUT
  /// touching this server. kOk with the clone in `*shard`, or
  /// kMalformedSnapshot. The service merge plane buffers these per
  /// fan-in group, then reduces them pairwise once every shard has
  /// arrived.
  MergeStatus RestoreShard(const StateSnapshotHeader& header,
                           std::unique_ptr<AggregatorServer>* shard) const;

  /// A fresh, empty clone carrying `header`'s accept/reject accounting:
  /// where every restore starts. RestoreShard fills it from a whole body;
  /// the query node's snapshot intake fills it from the socket through
  /// StateBodyDecoder().
  std::unique_ptr<AggregatorServer> CloneForSnapshot(
      const StateSnapshotHeader& header) const;

  /// The state-body sizes this server's configuration serializes to,
  /// when configuration alone fixes them up to the report-count varints
  /// (flat, haar, tree: HRR arrays). nullopt for bodies sized by data
  /// (AHEAD's tree, the grid's pending OLH reports): those restore from a
  /// complete buffer only.
  virtual std::optional<HrrStateSize> StateBodySizeRange() const {
    return std::nullopt;
  }

  /// The incremental decoder into this server's state arrays, for servers
  /// with a StateBodySizeRange(). Call it on a fresh CloneForSnapshot()
  /// only: the decoder writes the arrays in place.
  virtual std::optional<HrrStateDecoder> StateBodyDecoder() {
    return std::nullopt;
  }

  /// A fresh, empty server with this server's exact configuration — the
  /// merge-shard contract (mirrors FrequencyOracle::CloneEmpty).
  std::unique_ptr<AggregatorServer> CloneEmpty() const { return DoCloneEmpty(); }

  /// Folds `other`'s aggregate state and ingestion accounting into this
  /// server. Both must be unfinalized and identically configured. May
  /// consume `other` (OLH pending queues splice in O(1); an HRR level
  /// with no reports yet adopts other's sums in O(1)) — merge a shard
  /// once, then discard it. Aggregates are integer sums, so the result is
  /// bit-identical for every merge order and pairing.
  MergeStatus MergeFrom(AggregatorServer& other);

  /// Smallest item whose estimated prefix mass reaches phi — the binary
  /// search every server used to reimplement (paper Section 4.7).
  uint64_t QuantileQuery(double phi) const;

  /// Shared ingestion accounting. accepted_reports()/rejected_reports()
  /// are the historical accessors; stats() is a coherent value snapshot
  /// of the live counters (lock-free — safe to call while another thread
  /// is absorbing; exact once ingestion for this server quiesces). Batch
  /// ingestion counts once per batch, so a concurrent reader sees the
  /// counters move by whole batches.
  ServerStats stats() const { return stats_.Snapshot(); }
  uint64_t accepted_reports() const { return stats_.accepted(); }
  uint64_t rejected_reports() const { return stats_.rejected(); }

  /// Stage latency histograms, recorded by the base around every
  /// AbsorbBatchSerialized call, the one DoFinalize and every
  /// SerializeState — nanoseconds, snapshotted lock-free for the
  /// service's stats plane.
  obs::HistogramSnapshot absorb_batch_latency() const {
    return absorb_batch_ns_.Snapshot();
  }
  obs::HistogramSnapshot finalize_latency() const {
    return finalize_ns_.Snapshot();
  }
  obs::HistogramSnapshot snapshot_serialize_latency() const {
    return snapshot_serialize_ns_.Snapshot();
  }

 protected:
  AggregatorServer() = default;

  /// Mechanism-specific finalize body; the base enforces the once-only
  /// discipline around it.
  virtual void DoFinalize() = 0;

  /// Mechanism-specific batch ingestion body behind AbsorbBatchSerialized
  /// (which documents the contract and owns the timing).
  virtual protocol::ParseError DoAbsorbBatchSerialized(
      std::span<const uint8_t> bytes, uint64_t* accepted) = 0;

  /// Which StateKind this server's snapshots carry.
  virtual StateKind state_kind() const = 0;

  /// The tree fanout named in the snapshot header; 0 for mechanisms
  /// without one (flat, haar — whose dyadic structure is implied by the
  /// domain).
  virtual uint64_t state_fanout() const { return 0; }

  /// The privacy budget named in the snapshot header. Compared by f64 bit
  /// pattern on merge: servers that disagree in the last ulp ran
  /// different mechanisms.
  virtual double state_epsilon() const = 0;

  /// Appends the mechanism-specific state body (everything beyond the
  /// snapshot header) in its canonical form.
  virtual void AppendStateBody(std::vector<uint8_t>& out) const = 0;

  /// Exact number of bytes AppendStateBody appends right now — what
  /// SerializeState sizes its one buffer from (and CHECKs against).
  virtual size_t StateBodyBytes() const = 0;

  /// Restores a state body into this (freshly cloned, empty) server.
  /// Total over adversarial bytes: false on any truncation, forged
  /// count, or cross-check failure — the caller discards the clone then,
  /// so partially-written state never escapes. The default feeds the
  /// whole body to StateBodyDecoder(), so flat, haar and tree restore on
  /// the query node's snapshot-intake path; servers without a decoder
  /// (AHEAD, grid) override it.
  virtual bool RestoreStateBody(std::span<const uint8_t> body);

  /// CloneEmpty body: a fresh default-state instance of the concrete
  /// class with identical configuration.
  virtual std::unique_ptr<AggregatorServer> DoCloneEmpty() const = 0;

  /// MergeFrom body: fold `other`'s aggregate (already validated to be
  /// the same concrete class and configuration; may consume it). Returns
  /// kStateMismatch when the states themselves disagree (two different
  /// AHEAD trees); the base handles the accept/reject accounting.
  virtual MergeStatus DoMergeFrom(AggregatorServer& other) = 0;

  /// Absorb's accounting after a family's Fold: one report accepted or
  /// rejected. Returns `folded`.
  bool CountReport(bool folded) {
    if (folded) {
      stats_.CountAccepted();
    } else {
      stats_.CountRejected();
    }
    return folded;
  }

  /// The batch-absorb loop every server shares. `open` is the server's
  /// OpenReportBatch result for the message: a structural failure rejects
  /// the whole message (one rejection). Otherwise every fixed-width slot
  /// is decoded in place by `decode` (the family's DecodeItem,
  /// bool(const uint8_t* slot, Report*)) and folded into the aggregate by
  /// `fold` (bool(const Report&): range checks + add), with the counts
  /// kept locally — the counters move once per batch, by its totals.
  /// `accepted` (may be null) receives the number folded.
  ///
  /// `locate` is the look-ahead of a family whose counters spill out of
  /// cache, or nullptr (the plain loop) for every other server. It is
  /// the range-check half of `fold` (const void*(const Report&)): the
  /// counter the fold of a decoded report would add to, or nullptr where
  /// the fold would reject it. While the loop folds slot i it decodes and
  /// locates slot i + kLookAheadSlots, when that slot is inside the batch,
  /// and prefetches the counter, so each report's cache miss overlaps the
  /// decode and add of the reports before it; a prologue does the same
  /// for the first kLookAheadSlots slots. A prefetch is only a hint: the
  /// adds, their order and the counts are those of the plain loop.
  template <typename Report, typename DecodeFn, typename FoldFn,
            typename LocateFn = std::nullptr_t>
  protocol::ParseError AbsorbReportSlots(protocol::ParseError open,
                                         const protocol::ReportBatch& batch,
                                         DecodeFn decode, FoldFn fold,
                                         uint64_t* accepted,
                                         LocateFn locate = nullptr) {
    LDP_CHECK_MSG(!finalized_, "Absorb after Finalize");
    if (accepted != nullptr) *accepted = 0;
    if (open != protocol::ParseError::kOk) {
      stats_.CountRejected();
      return open;
    }
    constexpr bool kLookAhead = !std::is_same_v<LocateFn, std::nullptr_t>;
    // Locals, not `batch`'s fields: `batch` escaped into OpenReportBatch,
    // so the compiler would assume each add into the sums may rewrite it
    // and reload the fields from memory after every report.
    const uint64_t count = batch.count;
    const size_t item_size = batch.item_size;
    const uint8_t* slot = batch.slots;
    uint64_t ok = 0;
    if constexpr (kLookAhead) {
      const uint64_t warm = std::min(count, kLookAheadSlots);
      for (uint64_t i = 0; i < warm; ++i) {
        PrefetchSlot<Report>(slot + i * item_size, decode, locate);
      }
    }
    for (uint64_t i = 0; i < count; ++i, slot += item_size) {
      if constexpr (kLookAhead) {
        if (i + kLookAheadSlots < count) {
          PrefetchSlot<Report>(slot + kLookAheadSlots * item_size, decode,
                               locate);
        }
      }
      Report report;
      if (decode(slot, &report) && fold(report)) ++ok;
    }
    stats_.CountAccepted(ok);
    stats_.CountRejected(count - ok);
    if (accepted != nullptr) *accepted = ok;
    return protocol::ParseError::kOk;
  }

  ServerCounters stats_;
  bool finalized_ = false;

 private:
  /// One look-ahead step of AbsorbReportSlots: prefetches the counter the
  /// fold of `slot` will add to; nothing for a slot it will reject.
  template <typename Report, typename DecodeFn, typename LocateFn>
  [[gnu::always_inline]] static void PrefetchSlot(const uint8_t* slot,
                                                  DecodeFn& decode,
                                                  LocateFn& locate) {
    Report report;
    if (!decode(slot, &report)) return;
    if (const void* counter = locate(report)) PrefetchForWrite(counter);
  }

  obs::LatencyHistogram absorb_batch_ns_;
  obs::LatencyHistogram finalize_ns_;
  // Mutable: SerializeState is logically read-only; the histogram is
  // lock-free instrumentation, not server state.
  mutable obs::LatencyHistogram snapshot_serialize_ns_;
};

}  // namespace ldp::service

#endif  // LDPRANGE_SERVICE_AGGREGATOR_SERVER_H_
