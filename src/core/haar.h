// Discrete Haar Transform utilities (paper Section 4.6).
//
// We use the orthonormal convention: for a leaf vector x of length D = 2^h,
// the transform keeps one "average" coefficient c0 = sum(x)/sqrt(D) and, for
// each level l = 1..h (l = 1 finest), D/2^l "detail" coefficients
//
//   c_{l,k} = 2^{-l/2} * ( S_L - S_R )
//
// where S_L / S_R sum x over the left / right half of the k-th block of
// length 2^l. The transform is its own inverse (orthonormal), and a range
// query's answer is a sparse linear functional of the coefficients: a block
// fully inside or outside the range has weight zero, so only the <= 2 blocks
// per level cut by the range boundaries contribute, with weight
// 2^{-l/2} (O_L - O_R) (paper's error analysis).

#ifndef LDPRANGE_CORE_HAAR_H_
#define LDPRANGE_CORE_HAAR_H_

#include <cstdint>
#include <vector>

namespace ldp {

/// Orthonormal Haar coefficients of a power-of-two-length vector.
struct HaarCoefficients {
  /// Number of levels h = log2(D).
  uint32_t height = 0;
  /// c0 = sum(x) / sqrt(D).
  double average = 0.0;
  /// detail[l-1][k] = c_{l,k}; level l has D / 2^l entries.
  std::vector<std::vector<double>> detail;
};

/// Forward transform. `leaves.size()` must be a power of two (>= 1).
HaarCoefficients HaarForward(const std::vector<double>& leaves);

/// Inverse transform (exact up to floating-point rounding).
std::vector<double> HaarInverse(const HaarCoefficients& coefficients);

/// The single nonzero detail coefficient position of a one-hot input e_z at
/// level l: block index z >> l, sign +1 if z falls in the block's left half.
struct HaarUserCoefficient {
  uint64_t block;
  int sign;
};
HaarUserCoefficient HaarUserView(uint64_t z, uint32_t level);

/// Weight of detail coefficient (level, block) in the range query [a, b]:
/// 2^{-level/2} * (|[a,b] ∩ left half| - |[a,b] ∩ right half|).
double HaarRangeWeight(uint32_t level, uint64_t block, uint64_t a, uint64_t b);

/// Range mass reconstruction from (possibly noisy) coefficients: combines
/// the average coefficient with the <= 2 boundary-cut detail coefficients
/// per level. `padded_domain` = 2^coefficients.height; requires
/// a <= b < padded_domain. HaarHrrEstimate sums its answers in the same
/// order, so the two agree bit for bit.
double HaarRangeEstimate(const HaarCoefficients& coefficients,
                         uint64_t padded_domain, uint64_t a, uint64_t b);

}  // namespace ldp

#endif  // LDPRANGE_CORE_HAAR_H_
