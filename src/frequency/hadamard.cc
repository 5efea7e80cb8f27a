#include "frequency/hadamard.h"

#include <bit>
#include <type_traits>

#include "common/bit_util.h"
#include "common/check.h"
#include "common/cpu_dispatch.h"
#include "common/parallel.h"

namespace ldp {

namespace {

// Passes with stride below kBlock run inside each block of kBlock elements
// (32 KiB, L1-resident through all of them); the passes above it sweep the
// whole vector, fused radix 4.
constexpr size_t kBlock = 4096;

// Transforms of at least this many elements fan both phases out over
// HardwareThreads(); smaller ones (every HaarHRR level at D = 2^16) run on
// the caller's thread and spawn nothing.
constexpr size_t kParallelFloor = size_t{1} << 18;

// Phase 2 hands each worker a column range in whole 64-byte lines.
constexpr size_t kColumnGrain = 8;

// The pass kernels (see hadamard_passes.inc), compiled once per SIMD tier
// and selected at runtime through ResolvedSimdTier() — the manual-dispatch
// layer of common/cpu_dispatch.h, so --dispatch= overrides apply.
#define LDP_FWHT_NS scalar
#define LDP_FWHT_TARGET
#include "frequency/hadamard_passes.inc"

#if LDP_SIMD_MANUAL_X86
#define LDP_FWHT_NS avx2
#define LDP_FWHT_TARGET __attribute__((target("avx2")))
#include "frequency/hadamard_passes.inc"

#define LDP_FWHT_NS avx512
#define LDP_FWHT_TARGET \
  __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl")))
#include "frequency/hadamard_passes.inc"
#endif  // LDP_SIMD_MANUAL_X86

// One tier's kernels for a transform whose source holds `Src`.
template <typename Src>
struct Kernels {
  void (*block)(const Src*, double*, size_t, double);
  void (*columns)(double*, size_t, size_t, size_t, double);
};

template <typename Src>
Kernels<Src> TierKernels() {
#if LDP_SIMD_MANUAL_X86
  switch (ResolvedSimdTier()) {
    case SimdTier::kAvx512:
      return {&avx512::TransformBlock<Src>, &avx512::TransformColumns};
    case SimdTier::kAvx2:
      return {&avx2::TransformBlock<Src>, &avx2::TransformColumns};
    default:
      break;
  }
#endif
  return {&scalar::TransformBlock<Src>, &scalar::TransformColumns};
}

// out = scale * FWHT(in), in == out for the in-place transform. Phase 1
// loads and transforms each kBlock block through the passes below kBlock;
// phase 2 runs the passes above it over column ranges and applies `scale`
// on the last one.
template <typename Src>
void Transform(const Src* in, double* out, size_t n, double scale) {
  LDP_CHECK_MSG(IsPowerOfTwo(n), "FWHT requires a power-of-two length");
  const Kernels<Src> kernels = TierKernels<Src>();
  if (n <= kBlock) {
    kernels.block(in, out, n, scale);
    return;
  }
  const unsigned threads = n >= kParallelFloor ? HardwareThreads() : 1;
  ParallelFor(n / kBlock, threads, [&](unsigned, uint64_t b0, uint64_t b1) {
    for (uint64_t b = b0; b < b1; ++b) {
      kernels.block(in + b * kBlock, out + b * kBlock, kBlock, 1.0);
    }
  });
  ParallelFor(kBlock / kColumnGrain, threads,
              [&](unsigned, uint64_t g0, uint64_t g1) {
                kernels.columns(out, n, g0 * kColumnGrain,
                                g1 * kColumnGrain, scale);
              });
}

}  // namespace

void FastWalshHadamard(std::vector<double>& data) {
  Transform<double>(data.data(), data.data(), data.size(), 1.0);
}

void ScaledWalshHadamard(std::span<const int64_t> sums, double scale,
                         std::span<double> out) {
  LDP_CHECK_EQ(sums.size(), out.size());
  Transform<int64_t>(sums.data(), out.data(), out.size(), scale);
}

int HadamardEntry(uint64_t i, uint64_t j) { return HadamardSign(i, j); }

}  // namespace ldp
