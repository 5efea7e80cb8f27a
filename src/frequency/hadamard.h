// Fast Walsh–Hadamard transform.
//
// The Hadamard matrix phi of dimension D (a power of two) has entries
// phi[i][j] = (-1)^{<i,j>} where <i,j> counts the 1-bits that i and j share
// (paper Figure 1, scaled by sqrt(D)). The transform is involutive up to a
// factor of D: FWHT(FWHT(x)) = D * x. HRR decodes all frequencies with one
// O(D log D) transform instead of O(N D) work (paper Section 3.2).
//
// The transform is cache-blocked. Phase 1 runs every pass with stride below
// 4096 inside each 4096-element (32 KiB) block, the first three fused on
// groups of 8; phase 2 runs the remaining passes fused radix 4 over ranges
// of columns (offsets within a block), which those passes never mix. The
// pass kernels are compiled once per SimdTier and dispatched at runtime
// (common/cpu_dispatch.h). From 2^18 elements up both phases fan out over
// HardwareThreads(); smaller transforms run on the caller's thread.
//
// Every butterfly still combines the same two values as the textbook
// one-pass-at-a-time radix-2 loop, and every element sees the passes in
// ascending order, so the output is bit-identical to that loop's for any
// input, on every tier and at every thread count.

#ifndef LDPRANGE_FREQUENCY_HADAMARD_H_
#define LDPRANGE_FREQUENCY_HADAMARD_H_

#include <cstdint>
#include <span>
#include <vector>

namespace ldp {

/// In-place unnormalized fast Walsh–Hadamard transform. Requires data.size()
/// to be a power of two.
void FastWalshHadamard(std::vector<double>& data);

/// out = scale * FWHT(sums) as one transform: the int64 -> double
/// conversion happens as phase 1 loads each block, and `scale` multiplies
/// each final value once, so the result is bit-identical to converting,
/// calling FastWalshHadamard and then scaling element by element. Requires
/// sums.size() == out.size(), a power of two. HRR decodes through this
/// with the debias factor as `scale` (frequency/hrr.h).
void ScaledWalshHadamard(std::span<const int64_t> sums, double scale,
                         std::span<double> out);

/// Single entry of the (unnormalized, +/-1) Hadamard matrix.
int HadamardEntry(uint64_t i, uint64_t j);

}  // namespace ldp

#endif  // LDPRANGE_FREQUENCY_HADAMARD_H_
