#include "frequency/hrr.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "frequency/frequency_oracle.h"

namespace ldp {
namespace {

TEST(Hrr, KeepProbability) {
  HrrOracle oracle(8, std::log(3.0));
  EXPECT_NEAR(oracle.KeepProbability(), 0.75, 1e-12);
}

TEST(Hrr, PadsToNextPowerOfTwo) {
  HrrOracle oracle(100, 1.0);
  EXPECT_EQ(oracle.padded_domain(), 128u);
  EXPECT_EQ(oracle.domain_size(), 100u);
  EXPECT_EQ(oracle.EstimateFractions().size(), 100u);
}

TEST(Hrr, NoiselessRecoversDistribution) {
  // Huge eps: the reported coefficient is never flipped. With many users
  // the sampled-coefficient average converges to the true spectrum.
  Rng rng(1);
  HrrOracle oracle(8, 60.0);
  for (int i = 0; i < 60000; ++i) {
    oracle.SubmitValue(i % 2 == 0 ? 1 : 6, rng);
  }
  std::vector<double> est = oracle.EstimateFractions();
  EXPECT_NEAR(est[1], 0.5, 0.03);
  EXPECT_NEAR(est[6], 0.5, 0.03);
  EXPECT_NEAR(est[0], 0.0, 0.03);
  EXPECT_NEAR(est[4], 0.0, 0.03);
}

TEST(Hrr, EstimatesAreUnbiased) {
  const uint64_t d = 16;
  const double eps = 1.1;
  const int trials = 250;
  const int n = 2000;
  std::vector<double> mean(d, 0.0);
  Rng rng(2);
  for (int t = 0; t < trials; ++t) {
    HrrOracle oracle(d, eps);
    for (int i = 0; i < n; ++i) {
      oracle.SubmitValue(i % 4 == 0 ? 3 : 12, rng);
    }
    std::vector<double> est = oracle.EstimateFractions();
    for (uint64_t z = 0; z < d; ++z) {
      mean[z] += est[z] / trials;
    }
  }
  EXPECT_NEAR(mean[3], 0.25, 0.03);
  EXPECT_NEAR(mean[12], 0.75, 0.03);
  EXPECT_NEAR(mean[7], 0.0, 0.03);
}

TEST(Hrr, EmpiricalVarianceMatchesExactFormula) {
  // HRR's exact per-item variance is (e^eps+1)^2 / (N (e^eps-1)^2): the
  // perturbation variance the paper analyzes plus the coefficient-index
  // sampling term. Verify the exact formula, and that it sits within a
  // constant of the paper's shared bound V_F.
  const uint64_t d = 16;
  const double eps = 1.1;
  const int trials = 500;
  const int n = 500;
  RunningStat est_cold;
  Rng rng(3);
  for (int t = 0; t < trials; ++t) {
    HrrOracle oracle(d, eps);
    for (int i = 0; i < n; ++i) {
      oracle.SubmitValue(2, rng);
    }
    est_cold.Add(oracle.EstimateFractions()[9]);
  }
  double exact = HrrExactVariance(eps, n);
  EXPECT_NEAR(est_cold.variance(), exact, 0.2 * exact);
  double vf = OracleVariance(eps, n);
  EXPECT_GT(est_cold.variance(), vf);        // strictly above the bound
  EXPECT_LT(est_cold.variance(), 1.6 * vf);  // ... but by < 2x at eps=1.1
}

TEST(Hrr, ExactVarianceConvergesToSharedBoundAtSmallEps) {
  double ratio_small = HrrExactVariance(0.05, 1000) /
                       OracleVariance(0.05, 1000);
  double ratio_large = HrrExactVariance(2.0, 1000) /
                       OracleVariance(2.0, 1000);
  EXPECT_NEAR(ratio_small, 1.0, 0.01);
  EXPECT_GT(ratio_large, 1.5);
}

TEST(Hrr, SignedSubmissionsEstimateSignedHistogram) {
  // Mixing +e_1 and -e_3 with equal mass: the estimated "fractions" should
  // be +0.5 at 1 and -0.5 at 3 — exactly what HaarHRR's levels need.
  Rng rng(4);
  HrrOracle oracle(8, 60.0);
  for (int i = 0; i < 60000; ++i) {
    if (i % 2 == 0) {
      oracle.SubmitSignedValue(1, +1, rng);
    } else {
      oracle.SubmitSignedValue(3, -1, rng);
    }
  }
  std::vector<double> est = oracle.EstimateFractions();
  EXPECT_NEAR(est[1], 0.5, 0.03);
  EXPECT_NEAR(est[3], -0.5, 0.03);
  EXPECT_NEAR(est[0], 0.0, 0.03);
}

TEST(Hrr, DomainOneIsBinaryRandomizedResponse) {
  // The top Haar level has a single coefficient; HRR over a domain of one
  // item degenerates to 1-bit RR on the sign, as the paper notes.
  Rng rng(5);
  HrrOracle oracle(1, 1.0);
  EXPECT_EQ(oracle.padded_domain(), 1u);
  for (int i = 0; i < 3000; ++i) {
    oracle.SubmitSignedValue(0, (i % 4 == 0) ? -1 : +1, rng);
  }
  // True signed mean: 0.75 * (+1) + 0.25 * (-1) = 0.5.
  EXPECT_NEAR(oracle.EstimateFractions()[0], 0.5, 0.1);
}

TEST(Hrr, ReportLdpRatioIsExactlyExpEps) {
  // Any report (j, s) has probability p or (1-p) of matching the true
  // coefficient sign; the likelihood ratio between any two inputs is at
  // most p/(1-p) = e^eps.
  const double eps = 1.3;
  HrrOracle oracle(8, eps);
  double p = oracle.KeepProbability();
  EXPECT_NEAR(p / (1 - p), std::exp(eps), 1e-9);
}

TEST(Hrr, MergeMatchesSequential) {
  Rng rng1(6);
  Rng rng2(6);
  HrrOracle sequential(8, 1.0);
  HrrOracle shard_a(8, 1.0);
  HrrOracle shard_b(8, 1.0);
  for (int i = 0; i < 200; ++i) {
    sequential.SubmitValue(i % 8, rng1);
  }
  for (int i = 0; i < 200; ++i) {
    (i < 100 ? shard_a : shard_b).SubmitValue(i % 8, rng2);
  }
  shard_a.MergeFrom(shard_b);
  std::vector<double> a = shard_a.EstimateFractions();
  std::vector<double> s = sequential.EstimateFractions();
  for (uint64_t z = 0; z < 8; ++z) {
    EXPECT_DOUBLE_EQ(a[z], s[z]);
  }
  // The consuming merge into an empty oracle adopts the shard's sums:
  // bit-identical to adding them, and the shard is left empty.
  std::vector<uint8_t> merged_state;
  shard_a.AppendState(merged_state);
  HrrOracle adopted(8, 1.0);
  adopted.MergeFromShard(shard_a);
  std::vector<uint8_t> adopted_state;
  adopted.AppendState(adopted_state);
  EXPECT_EQ(adopted_state, merged_state);
  EXPECT_EQ(adopted.EstimateFractions(), a);
  EXPECT_EQ(shard_a.report_count(), 0u);
}

TEST(Hrr, ReportBitsIsLogDPlusOne) {
  HrrOracle oracle(1 << 16, 1.0);
  EXPECT_DOUBLE_EQ(oracle.ReportBits(), 17.0);
}

}  // namespace
}  // namespace ldp
