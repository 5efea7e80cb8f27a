// Hierarchical Histograms under LDP (paper Sections 4.3–4.5).
//
// Each user views their value as a root-to-leaf path in a complete B-ary
// tree over the domain, samples ONE level uniformly at random (Lemma 4.4
// shows uniform sampling minimizes the variance sum), and reports their
// one-hot node-indicator vector for that level through a frequency oracle.
// The aggregator debiases per level, obtaining for every tree node an
// unbiased estimate of the *fraction* of the population in its block, and
// answers a range query by summing the nodes of its B-adic decomposition —
// at most 2(B-1) nodes per level (Theorem 4.3: Var <= (2B-1) V_F h alpha).
//
// Level sampling — not budget splitting — is the paper's key departure from
// the centralized literature: splitting eps across h levels costs a factor
// h^2, sampling only h. (The ablation bench quantifies this.)
//
// Optional constrained inference (consistency.h) implements Section 4.5 and
// is what the paper's "HHc_B" rows use.

#ifndef LDPRANGE_CORE_HIERARCHICAL_H_
#define LDPRANGE_CORE_HIERARCHICAL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/badic.h"
#include "core/range_mechanism.h"
#include "frequency/frequency_oracle.h"

namespace ldp {

/// How the privacy budget is spread over tree levels.
enum class BudgetStrategy {
  /// Each user samples ONE level and spends the whole eps there — the
  /// paper's choice, with error proportional to h (Theorem 4.3).
  kSampling,
  /// Each user reports at EVERY level with eps/h each (the centralized
  /// idiom, by sequential composition). Kept as an ablation: the paper
  /// shows this costs a factor ~h^2 locally.
  kSplitting,
};

/// Configuration for the HH_B mechanism.
struct HierarchicalConfig {
  uint64_t fanout = 4;                          // B
  OracleKind oracle = OracleKind::kOueSimulated;  // per-level primitive F
  bool consistency = true;                      // apply Section 4.5 CI
  BudgetStrategy budget = BudgetStrategy::kSampling;
  /// Per-level sampling weights; empty = uniform (the optimum, Lemma 4.4).
  /// Index 0 corresponds to tree level 1 (the root needs no reports).
  /// Only meaningful under kSampling.
  std::vector<double> level_weights;
};

/// The finalized half of HH_B: per-level node fractions (after Section 4.5
/// consistency when enabled) and each level's per-node variance.
/// HierarchicalMechanism and the wire server (protocol/tree_protocol.h)
/// both answer through it.
class HierarchicalEstimate {
 public:
  /// Debiases the Finalize()d level oracles of `shape` (levels[l-1] covers
  /// tree level l), then runs constrained inference when `consistency` is
  /// set. The root fraction is known exactly.
  HierarchicalEstimate(const TreeShape& shape,
                       std::span<const FrequencyOracle* const> levels,
                       bool consistency);

  /// Estimated fraction of users in [a, b] (a <= b < domain): the sum of
  /// its B-adic decomposition.
  double RangeQuery(uint64_t a, uint64_t b) const {
    return RangeQueryWithUncertainty(a, b).value;
  }

  /// The value and, from the same Decompose, its variance: the per-node
  /// variances of the nodes summed (Theorem 4.3's accounting), each at its
  /// level's report count and, after constrained inference, times the
  /// Lemma 4.6 bound B/(B+1). The root is exact; a level with no reports
  /// is +inf.
  RangeEstimate RangeQueryWithUncertainty(uint64_t a, uint64_t b) const;

  double NodeEstimate(const TreeNode& node) const;

  /// The leaf level cut to the domain.
  std::vector<double> EstimateFrequencies() const;

 private:
  TreeShape shape_;
  // estimates_[l] = per-node fractions at depth l; estimates_[0] = {1}.
  std::vector<std::vector<double>> estimates_;
  // node_variance_[l] = variance of one depth-l node; 0 for the root.
  std::vector<double> node_variance_;
};

/// Hierarchical histogram mechanism HH_B / HHc_B.
class HierarchicalMechanism final : public RangeMechanism {
 public:
  HierarchicalMechanism(uint64_t domain, double eps,
                        const HierarchicalConfig& config);

  const TreeShape& shape() const { return shape_; }
  bool consistency_enabled() const { return config_.consistency; }

  uint64_t user_count() const override { return users_; }
  std::string Name() const override;
  double ReportBits() const override;
  void EncodeUser(uint64_t value, Rng& rng) override;
  void EncodeUsers(std::span<const uint64_t> values, Rng& rng) override;
  std::unique_ptr<RangeMechanism> CloneEmpty() const override;
  void MergeFrom(const RangeMechanism& other) override;
  void Finalize(Rng& rng) override;
  double RangeQuery(uint64_t a, uint64_t b) const override;
  RangeEstimate RangeQueryWithUncertainty(uint64_t a,
                                          uint64_t b) const override;
  std::vector<double> EstimateFrequencies() const override;

  /// Post-Finalize estimate for one tree node's population fraction.
  double NodeEstimate(const TreeNode& node) const;

  /// Number of users that sampled tree level l (1-based; post-encode).
  uint64_t LevelReportCount(uint32_t level) const;

 private:
  HierarchicalConfig config_;
  TreeShape shape_;
  // level_oracles_[l-1] covers tree level l (domain B^l), l = 1..height.
  std::vector<std::unique_ptr<FrequencyOracle>> level_oracles_;
  std::vector<double> sampling_weights_;
  uint64_t users_ = 0;
  bool finalized_ = false;
  std::optional<HierarchicalEstimate> estimate_;
};

}  // namespace ldp

#endif  // LDPRANGE_CORE_HIERARCHICAL_H_
