#include "core/consistency.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "decode_reference.h"

namespace ldp {
namespace {

// Builds a random "noisy tree" around a ground-truth distribution:
// truth[l][k] is the exact fraction, noise sigma per node.
std::vector<std::vector<double>> NoisyTree(
    const std::vector<std::vector<double>>& truth, double sigma, Rng& rng) {
  std::vector<std::vector<double>> levels = truth;
  for (auto& level : levels) {
    for (double& v : level) {
      v += sigma * rng.Gaussian();
    }
  }
  return levels;
}

// Exact fractions for a simple skewed distribution on B^h leaves.
std::vector<std::vector<double>> ExactTree(uint64_t fanout, uint32_t height) {
  uint64_t leaves = 1;
  for (uint32_t l = 0; l < height; ++l) leaves *= fanout;
  std::vector<double> leaf(leaves);
  double total = 0.0;
  for (uint64_t z = 0; z < leaves; ++z) {
    leaf[z] = 1.0 / static_cast<double>(z + 1);
    total += leaf[z];
  }
  for (double& v : leaf) v /= total;
  std::vector<std::vector<double>> levels(height + 1);
  levels[height] = leaf;
  for (uint32_t l = height; l-- > 0;) {
    levels[l].assign(levels[l + 1].size() / fanout, 0.0);
    for (size_t k = 0; k < levels[l].size(); ++k) {
      for (uint64_t c = 0; c < fanout; ++c) {
        levels[l][k] += levels[l + 1][k * fanout + c];
      }
    }
  }
  return levels;
}

TEST(Consistency, NoOpOnAlreadyConsistentTree) {
  auto levels = ExactTree(2, 4);
  auto copy = levels;
  EnforceHierarchicalConsistency(levels, 2);
  for (size_t l = 0; l < levels.size(); ++l) {
    for (size_t k = 0; k < levels[l].size(); ++k) {
      EXPECT_NEAR(levels[l][k], copy[l][k], 1e-12) << "l=" << l << " k=" << k;
    }
  }
}

class ConsistencyPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>> {};

TEST_P(ConsistencyPropertyTest, ParentsEqualChildSumsAfterwards) {
  auto [fanout, height] = GetParam();
  Rng rng(fanout * 100 + height);
  auto levels = NoisyTree(ExactTree(fanout, height), 0.05, rng);
  EnforceHierarchicalConsistency(levels, fanout);
  EXPECT_DOUBLE_EQ(levels[0][0], 1.0);
  for (size_t l = 0; l + 1 < levels.size(); ++l) {
    for (size_t k = 0; k < levels[l].size(); ++k) {
      double child_sum = 0.0;
      for (uint64_t c = 0; c < fanout; ++c) {
        child_sum += levels[l + 1][k * fanout + c];
      }
      EXPECT_NEAR(levels[l][k], child_sum, 1e-9) << "l=" << l << " k=" << k;
    }
  }
}

TEST_P(ConsistencyPropertyTest, UnbiasedAroundTruth) {
  auto [fanout, height] = GetParam();
  auto truth = ExactTree(fanout, height);
  Rng rng(999 + fanout);
  const int trials = 400;
  // Average the post-processed leaf 0 estimate over noise draws.
  RunningStat leaf0;
  for (int t = 0; t < trials; ++t) {
    auto levels = NoisyTree(truth, 0.05, rng);
    EnforceHierarchicalConsistency(levels, fanout);
    leaf0.Add(levels[height][0]);
  }
  EXPECT_NEAR(leaf0.mean(), truth[height][0], 0.01);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConsistencyPropertyTest,
    ::testing::Values(std::make_tuple(uint64_t{2}, uint32_t{3}),
                      std::make_tuple(uint64_t{2}, uint32_t{6}),
                      std::make_tuple(uint64_t{4}, uint32_t{3}),
                      std::make_tuple(uint64_t{8}, uint32_t{2}),
                      std::make_tuple(uint64_t{16}, uint32_t{2})));

TEST(Consistency, ReducesLeafVarianceByLemma46Factor) {
  // Lemma 4.6: least-squares estimates cut per-node variance to at most
  // B/(B+1) of the raw variance. Measure on i.i.d. unit noise.
  const uint64_t fanout = 4;
  const uint32_t height = 3;
  auto truth = ExactTree(fanout, height);
  Rng rng(12345);
  const double sigma = 1.0;
  const int trials = 800;
  RunningStat raw_err;
  RunningStat ci_err;
  for (int t = 0; t < trials; ++t) {
    auto levels = NoisyTree(truth, sigma, rng);
    raw_err.Add(levels[height][5] - truth[height][5]);
    EnforceHierarchicalConsistency(levels, fanout);
    ci_err.Add(levels[height][5] - truth[height][5]);
  }
  double bound = static_cast<double>(fanout) / (fanout + 1.0);
  EXPECT_LT(ci_err.variance(), bound * sigma * sigma * 1.1);
  EXPECT_LT(ci_err.variance(), raw_err.variance());
}

TEST(Consistency, RootPinOverridesEstimate) {
  auto levels = ExactTree(2, 2);
  levels[0][0] = 0.7;  // corrupt the root
  EnforceHierarchicalConsistency(levels, 2, /*root_pin=*/1.0);
  EXPECT_DOUBLE_EQ(levels[0][0], 1.0);
  double leaf_sum = 0.0;
  for (double v : levels[2]) leaf_sum += v;
  EXPECT_NEAR(leaf_sum, 1.0, 1e-12);
}

TEST(Consistency, UnpinnedRootKeepsWeightedAverage) {
  Rng rng(5);
  auto levels = NoisyTree(ExactTree(2, 3), 0.1, rng);
  auto stage1 = levels;
  WeightedAverageBottomUp(stage1, 2);
  double averaged_root = stage1[0][0];
  EnforceHierarchicalConsistency(levels, 2, /*root_pin=*/std::nullopt);
  EXPECT_NEAR(levels[0][0], averaged_root, 1e-12);
}

TEST(Consistency, MeanConsistencyDistributesResidualEqually) {
  // One parent (=1), two children summing to 0.5: each child gains 0.25.
  std::vector<std::vector<double>> levels = {{1.0}, {0.3, 0.2}};
  MeanConsistencyTopDown(levels, 2);
  EXPECT_NEAR(levels[1][0], 0.3 + 0.25, 1e-12);
  EXPECT_NEAR(levels[1][1], 0.2 + 0.25, 1e-12);
}

TEST(Consistency, WeightedAverageLeavesLeavesUntouched) {
  Rng rng(6);
  auto levels = NoisyTree(ExactTree(4, 2), 0.1, rng);
  auto leaves_before = levels[2];
  WeightedAverageBottomUp(levels, 4);
  EXPECT_EQ(levels[2], leaves_before);
}

TEST(Consistency, ParallelLevelsMatchSerialReference) {
  // 2^20 leaves puts the two lowest level steps above the 2^18 parallel
  // floor for both fanouts; the levels above stay serial.
  for (auto [fanout, height] : {std::make_tuple(uint64_t{2}, uint32_t{20}),
                                std::make_tuple(uint64_t{4}, uint32_t{10})}) {
    Rng rng(fanout);
    const auto noisy = NoisyTree(ExactTree(fanout, height), 1e-3, rng);
    for (std::optional<double> root_pin : {std::optional<double>(1.0),
                                           std::optional<double>()}) {
      auto levels = noisy;
      auto expected = noisy;
      EnforceHierarchicalConsistency(levels, fanout, root_pin);
      testing_reference::SerialConsistency(expected, fanout, root_pin);
      for (size_t l = 0; l < levels.size(); ++l) {
        EXPECT_EQ(std::memcmp(levels[l].data(), expected[l].data(),
                              levels[l].size() * sizeof(double)),
                  0)
            << "B=" << fanout << " level=" << l
            << " pinned=" << root_pin.has_value();
      }
    }
  }
}

TEST(Consistency, RejectsMalformedShape) {
  std::vector<std::vector<double>> bad = {{1.0}, {0.5, 0.5, 0.5}};
  EXPECT_DEATH(EnforceHierarchicalConsistency(bad, 2), "");
}

}  // namespace
}  // namespace ldp
