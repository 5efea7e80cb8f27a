// Constrained-inference post-processing for hierarchical histograms
// (paper Section 4.5, adapting Hay et al., VLDB 2010 to the local model).
//
// The HH tree is redundant: a parent's fraction should equal the sum of its
// children's. Replacing the raw per-node estimates by the least-squares
// solution under those constraints (a) never hurts and provably shrinks the
// per-node variance by at least a factor B/(B+1) (Lemma 4.6), and (b) makes
// every way of assembling a range answer agree. Hay et al.'s two linear
// passes compute the exact least-squares solution:
//
//   Stage 1 (weighted averaging, bottom-up):
//     fbar(v) = (B^i - B^{i-1})/(B^i - 1) * f(v)
//             + (B^{i-1} - 1)/(B^i - 1)  * sum_children fbar(u)
//     where i is the node's height (leaves have i = 1, so fbar = f there).
//
//   Stage 2 (mean consistency, top-down):
//     fhat(v) = fbar(v) + (1/B) * [ fhat(parent) - sum_siblings fbar(u) ]
//
// Local-model departures from Hay et al. (paper "Key difference" box): the
// tree stores *fractions* (level sampling makes per-level counts random),
// and the root is pinned to exactly 1 — in the local model the root's value
// is known a priori, every user's path contains it.

// The irregular-tree entry points at the bottom generalize both passes to
// AHEAD-style adaptive trees (core/ahead.h), where leaves occur at mixed
// depths and per-node estimator variances differ: the fixed (B^i - B^{i-1})
// / (B^i - 1) weights above are exactly the inverse-variance weights when
// every node has the same variance, so the generalization replaces them by
// explicit 1/Var weights and reduces to Hay et al. on a complete tree.

#ifndef LDPRANGE_CORE_CONSISTENCY_H_
#define LDPRANGE_CORE_CONSISTENCY_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace ldp {

/// In-place constrained inference over per-level node estimates.
/// `levels[l]` holds the B^l node estimates at depth l; `levels[0]` must be
/// the single root entry. After the call, every parent equals the sum of
/// its children exactly.
///
/// `root_pin`: when set, the root is fixed to this exactly-known value
/// before the top-down pass — the local model pins it to 1 (every user's
/// path contains the root); the centralized baselines leave it unset and
/// keep the root's weighted-average estimate (Hay et al.'s original form).
///
/// Both passes go level by level; a level step whose child level holds at
/// least 2^18 nodes is split over HardwareThreads() by parent (each parent
/// touches only itself and its own children), smaller ones run on the
/// caller's thread. The result is bit-identical to the serial passes.
void EnforceHierarchicalConsistency(std::vector<std::vector<double>>& levels,
                                    uint64_t fanout,
                                    std::optional<double> root_pin = 1.0);

/// Stage 1 only (exposed for tests): bottom-up weighted averaging.
void WeightedAverageBottomUp(std::vector<std::vector<double>>& levels,
                             uint64_t fanout);

/// Stage 2 only (exposed for tests): top-down mean consistency.
void MeanConsistencyTopDown(std::vector<std::vector<double>>& levels,
                            uint64_t fanout,
                            std::optional<double> root_pin = 1.0);

/// Constrained inference over an *irregular* tree given as parent indices:
/// `parents[i]` is the index of node i's parent, -1 for the root (node 0),
/// and nodes are topologically ordered (parents[i] < i — BFS order works).
/// `values[i]` / `variances[i]` hold each node's raw estimate and its
/// estimator variance (+inf for a node with no reports, 0 for an exactly
/// known value).
///
/// Bottom-up, each internal node is replaced by the inverse-variance
/// weighted average of its own estimate and its children's sum (the GLS
/// combination; identical to Hay et al.'s weights when variances are
/// uniform), with `variances` updated to the combined values. Top-down,
/// the parent/children mismatch is redistributed onto the children
/// proportionally to their variance (equal shares when uniform), after
/// which every parent equals the sum of its children exactly. `root_pin`
/// as in EnforceHierarchicalConsistency.
void EnforceAdaptiveConsistency(std::span<const int64_t> parents,
                                std::vector<double>& values,
                                std::vector<double>& variances,
                                std::optional<double> root_pin = 1.0);

/// Non-negativity projection for an irregular tree (same `parents` layout):
/// clamps negatives to zero top-down and rescales each sibling family so it
/// still sums to its parent, preserving the consistency invariant. The one
/// post-processing step here that is *not* unbiased; callers gate it on a
/// config knob.
void NonNegativeRescaleTopDown(std::span<const int64_t> parents,
                               std::vector<double>& values);

}  // namespace ldp

#endif  // LDPRANGE_CORE_CONSISTENCY_H_
