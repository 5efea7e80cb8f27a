#include "frequency/hadamard.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/cpu_dispatch.h"
#include "common/random.h"
#include "decode_reference.h"

namespace ldp {
namespace {

TEST(Hadamard, MatchesPaperFigure1ForD8) {
  // Paper Figure 1 lists the (scaled) D=8 Hadamard matrix; verify the
  // distinctive rows.
  const int expected[8][8] = {
      {1, 1, 1, 1, 1, 1, 1, 1},   {1, -1, 1, -1, 1, -1, 1, -1},
      {1, 1, -1, -1, 1, 1, -1, -1}, {1, -1, -1, 1, 1, -1, -1, 1},
      {1, 1, 1, 1, -1, -1, -1, -1}, {1, -1, 1, -1, -1, 1, -1, 1},
      {1, 1, -1, -1, -1, -1, 1, 1}, {1, -1, -1, 1, -1, 1, 1, -1}};
  for (uint64_t i = 0; i < 8; ++i) {
    for (uint64_t j = 0; j < 8; ++j) {
      EXPECT_EQ(HadamardEntry(i, j), expected[i][j])
          << "i=" << i << " j=" << j;
    }
  }
}

TEST(Hadamard, TransformOfBasisVectorIsMatrixColumn) {
  const size_t d = 16;
  for (uint64_t v = 0; v < d; ++v) {
    std::vector<double> x(d, 0.0);
    x[v] = 1.0;
    FastWalshHadamard(x);
    for (uint64_t j = 0; j < d; ++j) {
      EXPECT_DOUBLE_EQ(x[j], HadamardEntry(v, j));
    }
  }
}

TEST(Hadamard, InvolutionUpToD) {
  Rng rng(5);
  const size_t d = 64;
  std::vector<double> x(d);
  for (double& v : x) {
    v = rng.UniformDouble() - 0.5;
  }
  std::vector<double> original = x;
  FastWalshHadamard(x);
  FastWalshHadamard(x);
  for (size_t i = 0; i < d; ++i) {
    EXPECT_NEAR(x[i], static_cast<double>(d) * original[i], 1e-9);
  }
}

TEST(Hadamard, ParsevalEnergyConservation) {
  Rng rng(6);
  const size_t d = 32;
  std::vector<double> x(d);
  double energy = 0.0;
  for (double& v : x) {
    v = rng.Gaussian();
    energy += v * v;
  }
  FastWalshHadamard(x);
  double spectral = 0.0;
  for (double v : x) {
    spectral += v * v;
  }
  // Unnormalized transform scales energy by D.
  EXPECT_NEAR(spectral, static_cast<double>(d) * energy, 1e-8 * spectral);
}

TEST(Hadamard, SizeOneIsIdentity) {
  std::vector<double> x = {3.25};
  FastWalshHadamard(x);
  EXPECT_DOUBLE_EQ(x[0], 3.25);
}

TEST(Hadamard, BlockedMatchesRadix2ReferenceOnEveryTier) {
  // Non-integer inputs make every addition round, so any reordering of a
  // butterfly or of the passes would show. 2^0..2^21 crosses the 4096-
  // element block (phase 2 appears at 2^13, with an odd and an even
  // number of its passes) and the 2^18 parallel floor.
  Rng rng(21);
  std::vector<std::vector<double>> inputs;
  std::vector<std::vector<double>> expected;
  for (int m = 0; m <= 21; ++m) {
    std::vector<double> x(size_t{1} << m);
    for (double& v : x) v = rng.UniformDouble() - 0.5;
    inputs.push_back(x);
    testing_reference::Radix2Fwht(x);
    expected.push_back(std::move(x));
  }
  for (SimdTier tier : CompiledSimdTiers()) {
    ASSERT_TRUE(SetSimdTierOverride(SimdTierName(tier)));
    for (size_t m = 0; m < inputs.size(); ++m) {
      std::vector<double> x = inputs[m];
      FastWalshHadamard(x);
      EXPECT_EQ(std::memcmp(x.data(), expected[m].data(),
                            x.size() * sizeof(double)),
                0)
          << "tier=" << SimdTierName(tier) << " n=2^" << m;
    }
  }
  ASSERT_TRUE(SetSimdTierOverride("auto"));
}

TEST(Hadamard, ScaledTransformMatchesConvertTransformScale) {
  // The HRR decode path: int64 sums in, one scale per final value.
  Rng rng(22);
  const double scale = 1.0 / 3.0;
  for (int m : {0, 3, 12, 13, 14, 19}) {
    const size_t n = size_t{1} << m;
    std::vector<int64_t> sums(n);
    for (int64_t& s : sums) s = rng.UniformIntInRange(-1000, 1000);
    std::vector<double> expected(sums.begin(), sums.end());
    testing_reference::Radix2Fwht(expected);
    for (double& v : expected) v *= scale;
    std::vector<double> out(n);
    ScaledWalshHadamard(sums, scale, out);
    EXPECT_EQ(std::memcmp(out.data(), expected.data(), n * sizeof(double)),
              0)
        << "n=2^" << m;
  }
}

TEST(Hadamard, RowsAreOrthogonal) {
  const uint64_t d = 16;
  for (uint64_t i = 0; i < d; ++i) {
    for (uint64_t j = 0; j < d; ++j) {
      int dot = 0;
      for (uint64_t k = 0; k < d; ++k) {
        dot += HadamardEntry(i, k) * HadamardEntry(j, k);
      }
      EXPECT_EQ(dot, i == j ? static_cast<int>(d) : 0);
    }
  }
}

}  // namespace
}  // namespace ldp
