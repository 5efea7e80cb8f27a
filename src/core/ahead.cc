#include "core/ahead.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/bit_util.h"
#include "common/check.h"
#include "core/consistency.h"

namespace ldp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

uint32_t ResolveAheadDepthCap(const TreeShape& shape, uint32_t max_depth) {
  if (max_depth == 0 || max_depth > shape.height()) return shape.height();
  return max_depth;
}

std::string AheadMethodName(const AheadConfig& config) {
  std::string name = "AHEAD";
  name += std::to_string(config.fanout);
  if (config.oracle != OracleKind::kOueSimulated) {
    name += "-";
    name += OracleKindName(config.oracle);
  }
  return name;
}

// --- AdaptiveTree ---------------------------------------------------------

AdaptiveTree AdaptiveTree::Grow(
    const TreeShape& shape, uint32_t max_depth,
    const std::function<bool(const TreeNode&)>& should_split) {
  AdaptiveTree tree(shape);
  max_depth = ResolveAheadDepthCap(shape, max_depth);
  AdaptiveNode root;
  root.node = TreeNode{0, 0};
  root.block_start = 0;
  root.block_end = shape.padded_domain();
  tree.nodes_.push_back(root);
  // Scanning the growing vector in order IS the BFS: children are appended
  // strictly after their parent, level by level, left to right.
  for (uint32_t i = 0; i < tree.nodes_.size(); ++i) {
    // Copy, not reference: push_back below may reallocate nodes_.
    AdaptiveNode n = tree.nodes_[i];
    bool split = n.node.level == 0 ||
                 (n.node.level < max_depth && n.block_length() > 1 &&
                  should_split(n.node));
    if (!split) continue;
    uint64_t child_len = n.block_length() / shape.fanout();
    tree.nodes_[i].first_child = static_cast<uint32_t>(tree.nodes_.size());
    tree.nodes_[i].num_children = static_cast<uint32_t>(shape.fanout());
    for (uint64_t c = 0; c < shape.fanout(); ++c) {
      AdaptiveNode child;
      child.node =
          TreeNode{n.node.level + 1, n.node.index * shape.fanout() + c};
      child.block_start = n.block_start + c * child_len;
      child.block_end = child.block_start + child_len;
      child.parent = static_cast<int64_t>(i);
      tree.nodes_.push_back(child);
    }
  }
  tree.BuildFrontiers();
  return tree;
}

std::optional<AdaptiveTree> AdaptiveTree::TryFromSplits(
    const TreeShape& shape, std::span<const TreeNode> splits) {
  if (splits.empty()) return std::nullopt;
  if (splits[0] != TreeNode{0, 0}) return std::nullopt;
  for (size_t i = 0; i < splits.size(); ++i) {
    const TreeNode& s = splits[i];
    // A split node must have children inside the tree.
    if (s.level >= shape.height()) return std::nullopt;
    if (s.index >= shape.NodesAtLevel(s.level)) return std::nullopt;
    // Canonical BFS order: strictly sorted by (level, index).
    if (i > 0) {
      const TreeNode& prev = splits[i - 1];
      if (s.level < prev.level ||
          (s.level == prev.level && s.index <= prev.index)) {
        return std::nullopt;
      }
    }
  }
  auto is_split = [&](const TreeNode& n) {
    return std::binary_search(
        splits.begin(), splits.end(), n, [](const TreeNode& a, const TreeNode& b) {
          return a.level < b.level ||
                 (a.level == b.level && a.index < b.index);
        });
  };
  // Every non-root split must hang off a split parent, or it would be
  // unreachable (a forged wire message).
  for (const TreeNode& s : splits) {
    if (s.level == 0) continue;
    if (!is_split(TreeNode{s.level - 1, s.index / shape.fanout()})) {
      return std::nullopt;
    }
  }
  AdaptiveTree tree = Grow(shape, shape.height(), is_split);
  size_t internal = 0;
  for (const AdaptiveNode& n : tree.nodes_) {
    if (!n.is_leaf()) ++internal;
  }
  if (internal != splits.size()) return std::nullopt;
  return tree;
}

void AdaptiveTree::BuildFrontiers() {
  uint32_t num_levels = 1;
  for (const AdaptiveNode& n : nodes_) {
    if (!n.is_leaf()) num_levels = std::max(num_levels, n.node.level + 1);
  }
  frontiers_.clear();
  starts_.clear();
  std::vector<uint32_t> frontier;
  for (uint32_t c = 0; c < nodes_[0].num_children; ++c) {
    frontier.push_back(nodes_[0].first_child + c);
  }
  for (uint32_t l = 1; l <= num_levels; ++l) {
    std::vector<uint64_t> starts;
    starts.reserve(frontier.size());
    for (uint32_t idx : frontier) starts.push_back(nodes_[idx].block_start);
    frontiers_.push_back(frontier);
    starts_.push_back(std::move(starts));
    if (l == num_levels) break;
    // Frontier l+1: split nodes sitting exactly at depth l hand over to
    // their children; leaves are carried down unchanged. Left-to-right
    // order is preserved because children replace their parent in place.
    std::vector<uint32_t> next;
    next.reserve(frontier.size());
    for (uint32_t idx : frontier) {
      const AdaptiveNode& n = nodes_[idx];
      if (!n.is_leaf() && n.node.level == l) {
        for (uint32_t c = 0; c < n.num_children; ++c) {
          next.push_back(n.first_child + c);
        }
      } else {
        next.push_back(idx);
      }
    }
    frontier = std::move(next);
  }
}

std::vector<TreeNode> AdaptiveTree::SplitNodes() const {
  std::vector<TreeNode> splits;
  for (const AdaptiveNode& n : nodes_) {
    if (!n.is_leaf()) splits.push_back(n.node);
  }
  return splits;
}

uint64_t AdaptiveTree::FrontierSize(uint32_t level) const {
  LDP_CHECK_GE(level, 1u);
  LDP_CHECK_LE(level, num_levels());
  return frontiers_[level - 1].size();
}

uint32_t AdaptiveTree::FrontierNode(uint32_t level, uint64_t j) const {
  LDP_CHECK_GE(level, 1u);
  LDP_CHECK_LE(level, num_levels());
  LDP_CHECK_LT(j, frontiers_[level - 1].size());
  return frontiers_[level - 1][j];
}

uint64_t AdaptiveTree::FrontierIndex(uint32_t level, uint64_t z) const {
  LDP_CHECK_GE(level, 1u);
  LDP_CHECK_LE(level, num_levels());
  LDP_CHECK_LT(z, shape_.padded_domain());
  const std::vector<uint64_t>& starts = starts_[level - 1];
  // Last element whose block starts at or before z; the frontier
  // partitions the padded domain, so this element contains z.
  auto it = std::upper_bound(starts.begin(), starts.end(), z);
  return static_cast<uint64_t>(it - starts.begin()) - 1;
}

std::pair<uint32_t, uint32_t> AdaptiveTree::NodeLevelRange(uint32_t i) const {
  LDP_CHECK_LT(i, nodes_.size());
  LDP_CHECK_GE(i, 1u);  // the root reports nowhere
  const AdaptiveNode& n = nodes_[i];
  if (n.is_leaf()) return {n.node.level, num_levels()};
  return {n.node.level, n.node.level};
}

std::vector<int64_t> AdaptiveTree::ParentIndices() const {
  std::vector<int64_t> parents;
  parents.reserve(nodes_.size());
  for (const AdaptiveNode& n : nodes_) parents.push_back(n.parent);
  return parents;
}

// --- AheadEstimate and the split rule ------------------------------------

AheadEstimate::AheadEstimate(
    const AdaptiveTree& tree,
    std::span<const std::vector<double>> level_estimates,
    std::span<const double> level_variances, bool consistency,
    bool nonnegativity)
    : tree_(&tree) {
  LDP_CHECK_EQ(level_estimates.size(), size_t{tree.num_levels()});
  LDP_CHECK_EQ(level_variances.size(), size_t{tree.num_levels()});
  const std::vector<AdaptiveNode>& nodes = tree.nodes();
  values_.assign(nodes.size(), 0.0);
  variances_.assign(nodes.size(), kInf);
  values_[0] = 1.0;  // the root mass is known exactly
  variances_[0] = 0.0;
  for (uint32_t i = 1; i < nodes.size(); ++i) {
    auto [lo, hi] = tree.NodeLevelRange(i);
    double weight_sum = 0.0;
    double weighted = 0.0;
    for (uint32_t l = lo; l <= hi; ++l) {
      double var = level_variances[l - 1];
      if (!std::isfinite(var) || var <= 0.0) continue;
      uint64_t j = tree.FrontierIndex(l, nodes[i].block_start);
      double w = 1.0 / var;
      weight_sum += w;
      weighted += w * level_estimates[l - 1][j];
    }
    if (weight_sum > 0.0) {
      values_[i] = weighted / weight_sum;
      variances_[i] = 1.0 / weight_sum;
    }
  }
  std::vector<int64_t> parents = tree.ParentIndices();
  if (consistency) {
    EnforceAdaptiveConsistency(parents, values_, variances_,
                               /*root_pin=*/1.0);
  }
  if (nonnegativity) {
    NonNegativeRescaleTopDown(parents, values_);
  }
}

double AheadEstimate::NodeValue(uint32_t i) const {
  LDP_CHECK_LT(i, values_.size());
  return values_[i];
}

double AheadEstimate::NodeVariance(uint32_t i) const {
  LDP_CHECK_LT(i, variances_.size());
  return variances_[i];
}

namespace {

void AccumulateRange(const AdaptiveTree& tree,
                     std::span<const double> node_values,
                     std::span<const double> node_variances, uint32_t i,
                     uint64_t a, uint64_t b, double& value,
                     double& variance) {
  const AdaptiveNode& n = tree.nodes()[i];
  uint64_t start = n.block_start;
  uint64_t end = n.block_end - 1;  // inclusive
  if (b < start || a > end) return;
  if (a <= start && end <= b) {
    value += node_values[i];
    if (std::isfinite(node_variances[i])) variance += node_variances[i];
    return;
  }
  if (n.is_leaf()) {
    // Partial overlap below the leaf's resolution: uniform-within-leaf.
    uint64_t lo = std::max(a, start);
    uint64_t hi = std::min(b, end);
    double frac = static_cast<double>(hi - lo + 1) /
                  static_cast<double>(n.block_length());
    value += node_values[i] * frac;
    if (std::isfinite(node_variances[i])) {
      variance += node_variances[i] * frac * frac;
    }
    return;
  }
  for (uint32_t c = 0; c < n.num_children; ++c) {
    AccumulateRange(tree, node_values, node_variances, n.first_child + c, a,
                    b, value, variance);
  }
}

}  // namespace

RangeEstimate AheadEstimate::RangeQueryWithUncertainty(uint64_t a,
                                                       uint64_t b) const {
  LDP_CHECK_LE(a, b);
  LDP_CHECK_LT(b, tree_->shape().padded_domain());
  double value = 0.0;
  double variance = 0.0;
  AccumulateRange(*tree_, values_, variances_, 0, a, b, value, variance);
  return RangeEstimate{value, std::sqrt(variance)};
}

std::vector<double> AheadEstimate::LeafFrequencies(uint64_t domain) const {
  std::vector<double> freqs(domain, 0.0);
  for (uint32_t i = 0; i < tree_->nodes().size(); ++i) {
    const AdaptiveNode& n = tree_->nodes()[i];
    if (!n.is_leaf()) continue;
    double per_cell = values_[i] / static_cast<double>(n.block_length());
    uint64_t end = std::min(n.block_end, domain);
    for (uint64_t z = n.block_start; z < end; ++z) {
      freqs[z] = per_cell;
    }
  }
  return freqs;
}

AdaptiveTree GrowAheadTree(
    const TreeShape& shape, uint32_t depth_cap, double eps,
    double threshold_scale, uint64_t phase1_reports, uint64_t phase2_reports,
    const std::function<double(const TreeNode&)>& node_mass) {
  double level_reports =
      std::max(1.0, static_cast<double>(phase2_reports) / depth_cap);
  double theta =
      threshold_scale * 2.0 * std::sqrt(OracleVariance(eps, level_reports));
  bool no_signal = phase1_reports == 0;
  return AdaptiveTree::Grow(shape, depth_cap, [&](const TreeNode& n) {
    if (threshold_scale <= 0.0 || no_signal) return true;
    return node_mass(n) > theta;
  });
}

// --- AheadMechanism -------------------------------------------------------

AheadMechanism::AheadMechanism(uint64_t domain, double eps,
                               const AheadConfig& config)
    : RangeMechanism(domain, eps),
      config_(config),
      shape_(domain, config.fanout),
      max_depth_(ResolveAheadDepthCap(shape_, config.max_depth)) {
  LDP_CHECK_GE(config.fanout, 2u);
  LDP_CHECK_MSG(
      config.phase1_fraction > 0.0 && config.phase1_fraction < 1.0,
      "phase1_fraction must be in (0, 1)");
  HierarchicalConfig phase1_config;
  phase1_config.fanout = config_.fanout;
  phase1_config.oracle = config_.oracle;
  phase1_config.consistency = true;
  phase1_tree_ =
      std::make_unique<HierarchicalMechanism>(domain, eps, phase1_config);
  phase2_counts_.assign(domain, 0);
}

std::string AheadMechanism::Name() const { return AheadMethodName(config_); }

double AheadMechanism::ReportBits() const {
  // A phase-1 user ships one HH-style level-sampled report; a phase-2
  // user ships a sampled level id plus one frontier-oracle report. Before
  // Finalize the tree (and thus the frontier sizes) is unknown, so the
  // phase-2 term falls back to the phase-1 size — an upper bound, since
  // every frontier is at most the complete level it prunes.
  double phase1_bits = phase1_tree_->ReportBits();
  double phase2_bits = phase1_bits;
  if (finalized_) {
    const uint32_t num_levels = tree_->num_levels();
    double oracle_bits = 0.0;
    for (uint32_t l = 1; l <= num_levels; ++l) {
      oracle_bits +=
          MakeOracle(config_.oracle, tree_->FrontierSize(l), eps_)
              ->ReportBits();
    }
    phase2_bits = static_cast<double>(Log2Ceil(num_levels)) +
                  oracle_bits / num_levels;
  }
  return config_.phase1_fraction * phase1_bits +
         (1.0 - config_.phase1_fraction) * phase2_bits;
}

void AheadMechanism::EncodeUser(uint64_t value, Rng& rng) {
  LDP_CHECK_LT(value, domain_);
  LDP_CHECK_MSG(!finalized_, "EncodeUser after Finalize");
  // The phase coin is the user's own: drawn from their private stream, so
  // the partition is oblivious to the data and to the shard layout.
  if (rng.Bernoulli(config_.phase1_fraction)) {
    phase1_tree_->EncodeUser(value, rng);
    ++phase1_users_;
  } else {
    ++phase2_counts_[value];
    ++phase2_users_;
  }
  ++users_;
}

void AheadMechanism::EncodeUsers(std::span<const uint64_t> values, Rng& rng) {
  LDP_CHECK_MSG(!finalized_, "EncodeUsers after Finalize");
  // Same draw order as the EncodeUser loop (coin, then submit), with the
  // finalized check hoisted out of the hot loop.
  for (uint64_t value : values) {
    LDP_CHECK_LT(value, domain_);
    if (rng.Bernoulli(config_.phase1_fraction)) {
      phase1_tree_->EncodeUser(value, rng);
      ++phase1_users_;
    } else {
      ++phase2_counts_[value];
      ++phase2_users_;
    }
  }
  users_ += values.size();
}

std::unique_ptr<RangeMechanism> AheadMechanism::CloneEmpty() const {
  return std::make_unique<AheadMechanism>(domain_, eps_, config_);
}

void AheadMechanism::MergeFrom(const RangeMechanism& other) {
  const auto* o = dynamic_cast<const AheadMechanism*>(&other);
  LDP_CHECK_MSG(o != nullptr, "MergeFrom requires an AheadMechanism");
  LDP_CHECK_MSG(!finalized_ && !o->finalized_,
                "cannot merge finalized mechanisms");
  LDP_CHECK(o->domain_ == domain_);
  LDP_CHECK(o->config_.fanout == config_.fanout);
  LDP_CHECK(o->config_.oracle == config_.oracle);
  LDP_CHECK(o->config_.phase1_fraction == config_.phase1_fraction);
  phase1_tree_->MergeFrom(*o->phase1_tree_);
  for (uint64_t z = 0; z < domain_; ++z) {
    phase2_counts_[z] += o->phase2_counts_[z];
  }
  users_ += o->users_;
  phase1_users_ += o->phase1_users_;
  phase2_users_ += o->phase2_users_;
}

void AheadMechanism::Finalize(Rng& rng) {
  LDP_CHECK_MSG(!finalized_, "Finalize called twice");

  // Phase 1 decode: finalize the embedded HH_B, giving every candidate
  // node an own-granularity mass estimate (constant variance per node —
  // the property the split decisions depend on).
  phase1_tree_->Finalize(rng);

  // Adaptive decomposition, judged at the phase-2 population each
  // frontier's estimates will actually come from.
  tree_ = GrowAheadTree(
      shape_, max_depth_, eps_, config_.threshold_scale, phase1_users_,
      phase2_users_,
      [&](const TreeNode& n) { return phase1_tree_->NodeEstimate(n); });

  // Phase 2: simulate the level-sampled reports over the frontiers (the
  // kOueSimulated idiom — the aggregate noise is drawn here rather than
  // per user, which is what keeps ingestion O(1)/user and shard-order
  // independent).
  const uint32_t num_levels = tree_->num_levels();
  std::vector<std::unique_ptr<FrequencyOracle>> level_oracles;
  level_oracles.reserve(num_levels);
  for (uint32_t l = 1; l <= num_levels; ++l) {
    level_oracles.push_back(
        MakeOracle(config_.oracle, tree_->FrontierSize(l), eps_));
  }
  std::vector<uint64_t> cell_frontier(num_levels);
  for (uint64_t z = 0; z < domain_; ++z) {
    uint64_t count = phase2_counts_[z];
    if (count == 0) continue;
    for (uint32_t l = 1; l <= num_levels; ++l) {
      cell_frontier[l - 1] = tree_->FrontierIndex(l, z);
    }
    for (uint64_t u = 0; u < count; ++u) {
      uint32_t pick = static_cast<uint32_t>(rng.UniformInt(num_levels));
      level_oracles[pick]->SubmitValue(cell_frontier[pick], rng);
    }
  }
  std::vector<std::vector<double>> level_estimates(num_levels);
  std::vector<double> level_vars(num_levels, kInf);
  for (uint32_t l = 0; l < num_levels; ++l) {
    level_oracles[l]->Finalize(rng);
    if (level_oracles[l]->report_count() > 0) {
      level_estimates[l] = level_oracles[l]->EstimateFractions();
      level_vars[l] = level_oracles[l]->EstimatorVariance();
    } else {
      level_estimates[l].assign(tree_->FrontierSize(l + 1), 0.0);
    }
  }

  estimate_.emplace(*tree_, level_estimates, level_vars, config_.consistency,
                    config_.nonnegativity);
  finalized_ = true;
}

const AdaptiveTree& AheadMechanism::tree() const {
  LDP_CHECK_MSG(finalized_, "tree() before Finalize");
  return *tree_;
}

double AheadMechanism::NodeEstimate(uint32_t i) const {
  LDP_CHECK_MSG(finalized_, "NodeEstimate before Finalize");
  return estimate_->NodeValue(i);
}

double AheadMechanism::NodeVariance(uint32_t i) const {
  LDP_CHECK_MSG(finalized_, "NodeVariance before Finalize");
  return estimate_->NodeVariance(i);
}

double AheadMechanism::RangeQuery(uint64_t a, uint64_t b) const {
  return RangeQueryWithUncertainty(a, b).value;
}

RangeEstimate AheadMechanism::RangeQueryWithUncertainty(uint64_t a,
                                                        uint64_t b) const {
  LDP_CHECK_MSG(finalized_, "RangeQuery before Finalize");
  LDP_CHECK_LT(b, domain_);
  return estimate_->RangeQueryWithUncertainty(a, b);
}

std::vector<double> AheadMechanism::EstimateFrequencies() const {
  LDP_CHECK_MSG(finalized_, "EstimateFrequencies before Finalize");
  return estimate_->LeafFrequencies(domain_);
}

}  // namespace ldp
