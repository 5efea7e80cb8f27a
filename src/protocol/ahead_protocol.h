// Deployable client/server split of the AHEAD adaptive mechanism
// (core/ahead.h) — the first protocol here whose *message domain changes
// mid-collection*: the tree the phase-2 reports are encoded against does
// not exist until the server has seen phase 1.
//
// Exchange:
//   1. Phase-1 clients sample a level of the *complete* B-ary tree
//      uniformly and ship a GRR report over that level's nodes
//      ([phase=1][level][perturbed node index]) — an HH_B-style
//      hierarchical histogram, so every candidate node's mass is
//      estimated at its own granularity with constant variance (a flat
//      phase-1 histogram would drown shallow nodes in summed cell
//      noise).
//   2. The server ends phase 1 with BuildTree(), deriving the adaptive
//      decomposition from the debiased, consistency-smoothed phase-1
//      estimates, and broadcasts it as a kAheadTree message (the
//      canonical split-node set).
//   3. Phase-2 clients absorb the tree, sample a frontier level uniformly
//      and ship a GRR report over that frontier
//      ([phase=2][level][perturbed frontier index]).
//   4. The server debiases per level, combines carried-leaf estimates by
//      inverse variance, runs the irregular-tree constrained inference,
//      and serves range / frequency / quantile queries.
//
// GRR is the inner oracle on the wire: its report *is* a single node id,
// which keeps every AHEAD report a fixed 10-byte payload (and batch items
// realignable); the in-process simulation (core/ahead.h) runs better
// oracles for large domains. All AHEAD messages are v2-only — the
// mechanism postdates the envelope, there is no legacy unframed form.
//
// Every parser is total over adversarial bytes: forged phases, forged
// node ids (out of the coarse domain or a frontier), reports for the
// wrong phase era, and malformed tree descriptions (orphan or duplicate
// splits, out-of-range coordinates) are rejected with explicit errors and
// counted, never crashed on.

#ifndef LDPRANGE_PROTOCOL_AHEAD_PROTOCOL_H_
#define LDPRANGE_PROTOCOL_AHEAD_PROTOCOL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/random.h"
#include "core/ahead.h"
#include "core/badic.h"
#include "protocol/envelope.h"
#include "service/aggregator_server.h"

namespace ldp::protocol {

/// One unserialized AHEAD report. `level` is 1-based in both phases: for
/// phase 1 it indexes a complete-tree level and `node` is a GRR-perturbed
/// node index at that level; for phase 2 it indexes an adaptive-tree
/// frontier and `node` a GRR-perturbed index into it.
struct AheadWireReport {
  uint8_t phase = 1;
  uint32_t level = 1;
  uint64_t node = 0;

  bool operator==(const AheadWireReport&) const = default;
};

/// Serializes one report under the v2 envelope (kAheadReport, 10-byte
/// payload [phase u8][level u8][node u64]).
std::vector<uint8_t> SerializeAheadReport(const AheadWireReport& report);

/// Parses one report with an explicit error code; structural validity
/// (known phase, nonzero level) is enforced here, level/node range
/// validation happens server-side where the domains are known.
ParseError ParseAheadReportDetailed(std::span<const uint8_t> bytes,
                                    AheadWireReport* report);

/// Convenience wrapper: true iff ParseAheadReportDetailed returns kOk.
bool ParseAheadReport(std::span<const uint8_t> bytes,
                      AheadWireReport* report);

/// One framed batch (kAheadReportBatch):
/// payload = [count varint][count x ([phase u8][level u8][node u64])].
std::vector<uint8_t> SerializeAheadReportBatch(
    std::span<const AheadWireReport> reports);

/// Parses a batch; per-item validation failures are skipped and counted
/// in `malformed` (may be null), structural failures reject the message.
ParseError ParseAheadReportBatch(std::span<const uint8_t> bytes,
                                 std::vector<AheadWireReport>* reports,
                                 uint64_t* malformed = nullptr);

/// Hard caps ParseAheadTree enforces before reconstructing anything, so a
/// forged kAheadTree message cannot drive the shape math into overflow or
/// the node allocation into attacker-chosen sizes. Generous for every
/// real deployment (the paper's largest domain is 2^22).
inline constexpr uint64_t kMaxAheadTreeDomain = uint64_t{1} << 32;
inline constexpr uint64_t kMaxAheadTreeFanout = 1024;
inline constexpr uint64_t kMaxAheadTreeNodes = uint64_t{1} << 22;

/// Serializes an adaptive tree as its canonical BFS split-node set under
/// a kAheadTree envelope (the server -> client phase transition message).
std::vector<uint8_t> SerializeAheadTree(uint64_t domain, uint64_t fanout,
                                        const AdaptiveTree& tree);

/// Parses + validates a kAheadTree message. On success `*domain` /
/// `*fanout` carry the advertised shape and `*tree` the reconstructed
/// decomposition; any structural violation (see AdaptiveTree::
/// TryFromSplits) is kBadPayload.
ParseError ParseAheadTree(std::span<const uint8_t> bytes, uint64_t* domain,
                          uint64_t* fanout,
                          std::optional<AdaptiveTree>* tree);

/// Client-side encoder for both phases.
class AheadClient {
 public:
  AheadClient(uint64_t domain, uint64_t fanout, double eps);

  const TreeShape& shape() const { return shape_; }
  bool has_tree() const { return tree_.has_value(); }
  const AdaptiveTree& tree() const;

  /// Phase 1: sample a complete-tree level uniformly, GRR over its nodes.
  AheadWireReport EncodePhase1(uint64_t value, Rng& rng) const;
  std::vector<uint8_t> EncodePhase1Serialized(uint64_t value, Rng& rng) const;

  /// Installs the server's tree broadcast; false (tree unchanged) when
  /// the message is malformed or disagrees with this client's
  /// domain/fanout.
  bool AbsorbTreeDescription(std::span<const uint8_t> bytes);

  /// In-process handoff for tests and simulations.
  void SetTree(AdaptiveTree tree);

  /// Phase 2 (requires the tree): sample a level, GRR over its frontier.
  AheadWireReport EncodePhase2(uint64_t value, Rng& rng) const;
  std::vector<uint8_t> EncodePhase2Serialized(uint64_t value, Rng& rng) const;

  /// Batched phase-2 encode: one report per value, drawn exactly as the
  /// EncodePhase2 loop would, framed as one kAheadReportBatch message.
  std::vector<AheadWireReport> EncodePhase2Users(
      std::span<const uint64_t> values, Rng& rng) const;
  std::vector<uint8_t> EncodePhase2UsersSerialized(
      std::span<const uint64_t> values, Rng& rng) const;

 private:
  TreeShape shape_;
  double eps_;
  std::optional<AdaptiveTree> tree_;
};

/// Post-processing knobs of the server pipeline (the wire analogue of the
/// corresponding AheadConfig fields).
struct AheadServerConfig {
  double threshold_scale = 1.0;  // <= 0 forces a full split to max_depth
  uint32_t max_depth = 0;        // 0 = the full tree height
  bool consistency = true;
  bool nonnegativity = true;
};

/// Server-side aggregator: phase-1 per-level GRR histograms ->
/// BuildTree() -> phase-2 per-frontier GRR aggregation -> Finalize() ->
/// queries. Ingestion accounting, finalize discipline, and quantile
/// search come from service::AggregatorServer.
class AheadServer final : public service::AggregatorServer {
 public:
  AheadServer(uint64_t domain, uint64_t fanout, double eps,
              const AheadServerConfig& config = {});

  std::string Name() const override { return "Ahead"; }
  const TreeShape& shape() const { return shape_; }
  uint64_t domain() const override { return shape_.domain(); }
  bool tree_built() const { return tree_.has_value(); }
  const AdaptiveTree& tree() const;

  /// AHEAD messages are v2-only (the mechanism postdates the envelope).
  std::span<const uint8_t> AcceptedWireVersions() const override;

  /// Ingests one report; false (counted in rejected_reports) on a phase
  /// that does not match the current era — phase 2 before BuildTree,
  /// phase 1 after — or an out-of-range node id.
  bool Absorb(const AheadWireReport& report);
  bool AbsorbSerialized(std::span<const uint8_t> bytes) override;

  ParseError DoAbsorbBatchSerialized(std::span<const uint8_t> bytes,
                                   uint64_t* accepted) override;

  /// Ends phase 1: derives the adaptive tree from the debiased coarse
  /// histogram and returns the serialized kAheadTree broadcast. Idempotent
  /// after the first call (returns the same message).
  std::vector<uint8_t> BuildTree();

  /// Installs a kAheadTree broadcast produced by *another* server's
  /// BuildTree() — the distributed two-phase handoff: the query node
  /// builds the tree once, and each shard's fresh phase-2 server adopts
  /// it instead of deriving its own from phase-1 reports it never saw.
  /// Returns false (state unchanged) on malformed bytes, a domain/fanout
  /// mismatch, or a *different* tree already in place; idempotent when
  /// the identical tree is already installed. Must precede Finalize.
  bool InstallTree(std::span<const uint8_t> bytes);

  uint64_t phase1_reports() const { return phase1_reports_; }
  uint64_t phase2_reports() const { return phase2_reports_; }

  double RangeQuery(uint64_t a, uint64_t b) const override;
  /// The exact per-node variance accounting of the adaptive estimate
  /// (not a worst-case envelope — AHEAD tracks its node variances).
  RangeEstimate RangeQueryWithUncertainty(uint64_t a,
                                          uint64_t b) const override;
  std::vector<double> EstimateFrequencies() const override;

 private:
  /// The open phase era: phase 1 until the tree exists, phase 2 after.
  /// `levels` is that phase's count table, one vector per level sized to
  /// the level's node bound — NodesAtLevel(l) in phase 1, FrontierSize(l)
  /// in phase 2 — so a fold range-checks against the table itself.
  struct OpenEra {
    uint8_t phase;
    std::span<std::vector<uint64_t>> levels;
    uint64_t* reports;  // phase1_reports_ or phase2_reports_
  };
  OpenEra open_era();

  /// Range checks + add: the one fold behind Absorb and the batch slot
  /// loop. False (nothing added) for a report of the other phase era or
  /// an out-of-range level/node. The era's report counter is the
  /// caller's to bump.
  static bool Fold(const OpenEra& era, const AheadWireReport& report);

  /// Builds the tree if phase 1 was never closed, then debiases and
  /// post-processes.
  void DoFinalize() override;
  service::StateKind state_kind() const override {
    return service::StateKind::kAhead;
  }
  uint64_t state_fanout() const override { return shape_.fanout(); }
  double state_epsilon() const override { return eps_; }
  void AppendStateBody(std::vector<uint8_t>& out) const override;
  size_t StateBodyBytes() const override;
  bool RestoreStateBody(std::span<const uint8_t> body) override;
  std::unique_ptr<service::AggregatorServer> DoCloneEmpty() const override;
  service::MergeStatus DoMergeFrom(service::AggregatorServer& other) override;

  TreeShape shape_;
  double eps_;
  AheadServerConfig config_;
  uint32_t max_depth_;
  // phase1_counts_[l-1] = GRR tallies over complete-tree level l.
  std::vector<std::vector<uint64_t>> phase1_counts_;
  std::vector<std::vector<uint64_t>> level_counts_;  // per frontier level
  std::optional<AdaptiveTree> tree_;
  std::vector<uint8_t> tree_message_;
  uint64_t phase1_reports_ = 0;
  uint64_t phase2_reports_ = 0;
  std::vector<double> node_values_;
  std::vector<double> node_variances_;
};

}  // namespace ldp::protocol

#endif  // LDPRANGE_PROTOCOL_AHEAD_PROTOCOL_H_
