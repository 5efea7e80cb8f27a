#include "core/consistency.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/parallel.h"

namespace ldp {

namespace {

// Threads for one level step of either pass, which ParallelFor splits over
// the parents: each parent reads and writes only itself and its own
// children, so the split cannot change the result. A step whose child level
// holds at least 2^18 nodes fans out over HardwareThreads(); smaller ones
// (every level of AHEAD's BuildTree among them) run on the caller's thread
// and spawn nothing.
unsigned LevelThreads(size_t children) {
  constexpr size_t kParallelFloor = size_t{1} << 18;
  return children >= kParallelFloor ? HardwareThreads() : 1;
}

void CheckShape(const std::vector<std::vector<double>>& levels,
                uint64_t fanout) {
  LDP_CHECK(!levels.empty());
  LDP_CHECK_EQ(levels[0].size(), size_t{1});
  for (size_t l = 1; l < levels.size(); ++l) {
    LDP_CHECK_EQ(levels[l].size(), levels[l - 1].size() * fanout);
  }
}

}  // namespace

void WeightedAverageBottomUp(std::vector<std::vector<double>>& levels,
                             uint64_t fanout) {
  CheckShape(levels, fanout);
  const size_t height = levels.size() - 1;
  const double b = static_cast<double>(fanout);
  // Leaves (height i = 1) keep their raw estimates; walk upward. A node at
  // tree depth l has height i = height - l + 1, so B^{i-1} = B^{height-l}.
  for (size_t l = height; l-- > 0;) {
    double bi_minus1 = std::pow(b, static_cast<double>(height - l));
    double bi = bi_minus1 * b;
    double self_w = (bi - bi_minus1) / (bi - 1.0);
    double child_w = (bi_minus1 - 1.0) / (bi - 1.0);
    std::vector<double>& level = levels[l];
    const std::vector<double>& child = levels[l + 1];
    ParallelFor(level.size(), LevelThreads(child.size()),
                [&](unsigned, uint64_t k0, uint64_t k1) {
      for (size_t k = k0; k < k1; ++k) {
        double child_sum = 0.0;
        for (uint64_t c = 0; c < fanout; ++c) {
          child_sum += child[k * fanout + c];
        }
        level[k] = self_w * level[k] + child_w * child_sum;
      }
    });
  }
}

void MeanConsistencyTopDown(std::vector<std::vector<double>>& levels,
                            uint64_t fanout,
                            std::optional<double> root_pin) {
  CheckShape(levels, fanout);
  const double b = static_cast<double>(fanout);
  // In the local model the root fraction is exactly 1 (every user's
  // root-to-leaf path includes the root), so callers pin it; the
  // centralized baselines keep the stage-1 estimate instead.
  if (root_pin.has_value()) {
    levels[0][0] = *root_pin;
  }
  for (size_t l = 0; l + 1 < levels.size(); ++l) {
    const std::vector<double>& level = levels[l];
    std::vector<double>& child = levels[l + 1];
    ParallelFor(level.size(), LevelThreads(child.size()),
                [&](unsigned, uint64_t k0, uint64_t k1) {
      for (size_t k = k0; k < k1; ++k) {
        double child_sum = 0.0;
        for (uint64_t c = 0; c < fanout; ++c) {
          child_sum += child[k * fanout + c];
        }
        double adjust = (level[k] - child_sum) / b;
        for (uint64_t c = 0; c < fanout; ++c) {
          child[k * fanout + c] += adjust;
        }
      }
    });
  }
}

void EnforceHierarchicalConsistency(std::vector<std::vector<double>>& levels,
                                    uint64_t fanout,
                                    std::optional<double> root_pin) {
  WeightedAverageBottomUp(levels, fanout);
  MeanConsistencyTopDown(levels, fanout, root_pin);
}

namespace {

// Derives per-node child lists from the parent array, validating the
// topological-order contract as it goes.
std::vector<std::vector<uint32_t>> ChildLists(
    std::span<const int64_t> parents) {
  LDP_CHECK(!parents.empty());
  LDP_CHECK_EQ(parents[0], int64_t{-1});
  std::vector<std::vector<uint32_t>> children(parents.size());
  for (size_t i = 1; i < parents.size(); ++i) {
    LDP_CHECK_GE(parents[i], int64_t{0});
    LDP_CHECK_LT(parents[i], static_cast<int64_t>(i));
    children[parents[i]].push_back(static_cast<uint32_t>(i));
  }
  return children;
}

// 1/v with the conventions the passes need: an exactly-known value (v = 0)
// gets infinite weight, a report-free node (v = +inf) gets zero weight.
double InverseWeight(double v) {
  if (v <= 0.0) return std::numeric_limits<double>::infinity();
  if (!std::isfinite(v)) return 0.0;
  return 1.0 / v;
}

}  // namespace

void EnforceAdaptiveConsistency(std::span<const int64_t> parents,
                                std::vector<double>& values,
                                std::vector<double>& variances,
                                std::optional<double> root_pin) {
  LDP_CHECK_EQ(values.size(), parents.size());
  LDP_CHECK_EQ(variances.size(), parents.size());
  std::vector<std::vector<uint32_t>> children = ChildLists(parents);

  // Stage 1: bottom-up inverse-variance averaging. Reverse topological
  // order means every child's combined (value, variance) is final before
  // its parent reads it.
  for (size_t i = parents.size(); i-- > 0;) {
    if (children[i].empty()) continue;
    double child_sum = 0.0;
    double child_var = 0.0;
    for (uint32_t c : children[i]) {
      child_sum += values[c];
      child_var += variances[c];
    }
    double w_self = InverseWeight(variances[i]);
    double w_child = InverseWeight(child_var);
    if (std::isinf(w_self)) continue;  // exactly known; children defer
    if (std::isinf(w_child)) {
      values[i] = child_sum;
      variances[i] = 0.0;
    } else if (w_self + w_child > 0.0) {
      values[i] =
          (w_self * values[i] + w_child * child_sum) / (w_self + w_child);
      variances[i] = 1.0 / (w_self + w_child);
    }
    // w_self == w_child == 0: no information on either side; keep as is.
  }

  // Stage 2: top-down mean consistency, mismatch distributed in
  // proportion to child variance (a high-variance child absorbs more of
  // the correction; equal variances reduce to Hay et al.'s 1/B shares).
  if (root_pin.has_value()) {
    values[0] = *root_pin;
    variances[0] = 0.0;
  }
  for (size_t i = 0; i < parents.size(); ++i) {
    if (children[i].empty()) continue;
    double child_sum = 0.0;
    double child_var = 0.0;
    bool finite_vars = true;
    for (uint32_t c : children[i]) {
      child_sum += values[c];
      child_var += variances[c];
      finite_vars = finite_vars && std::isfinite(variances[c]);
    }
    double mismatch = values[i] - child_sum;
    if (mismatch == 0.0) continue;
    if (finite_vars && child_var > 0.0) {
      for (uint32_t c : children[i]) {
        values[c] += mismatch * (variances[c] / child_var);
      }
    } else {
      double share = mismatch / static_cast<double>(children[i].size());
      for (uint32_t c : children[i]) values[c] += share;
    }
  }
}

void NonNegativeRescaleTopDown(std::span<const int64_t> parents,
                               std::vector<double>& values) {
  LDP_CHECK_EQ(values.size(), parents.size());
  std::vector<std::vector<uint32_t>> children = ChildLists(parents);
  values[0] = std::max(values[0], 0.0);
  for (size_t i = 0; i < parents.size(); ++i) {
    if (children[i].empty()) continue;
    double target = values[i];  // >= 0 by induction down the tree
    double positive = 0.0;
    for (uint32_t c : children[i]) {
      values[c] = std::max(values[c], 0.0);
      positive += values[c];
    }
    if (positive > 0.0) {
      double scale = target / positive;
      for (uint32_t c : children[i]) values[c] *= scale;
    } else if (target > 0.0) {
      double share = target / static_cast<double>(children[i].size());
      for (uint32_t c : children[i]) values[c] = share;
    }
  }
}

}  // namespace ldp
