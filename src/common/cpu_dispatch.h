// Runtime CPU dispatch for hot kernels.
//
// SimdTier is an explicit manual dispatch layer for the heavy decode
// kernels: the OLH support scan (which also serves the deferred multidim
// decode) and the fast Walsh–Hadamard passes behind every HRR decode. Each
// kernel is compiled once per tier with __attribute__((target(...))) and
// selected through ResolvedSimdTier(), which honors the --dispatch= flag /
// LDP_DISPATCH env override and logs the selected tier once at first use:
//
//   ldp [info] simd dispatch tier=avx512 (detected=avx512, override=auto)
//
// Tiers: scalar < avx2 < avx512 on x86-64 (on AVX-512 the 64-bit
// multiplies of the seeded hash map directly onto vpmullq, which is what
// makes the OLH support scan vectorize at all); neon < sve on aarch64
// (NEON is the aarch64 baseline, so its "variant" is the portable body; an
// SVE tier exists when the build targets SVE). An override above what the
// CPU supports clamps to the detected tier, so the resolved tier is always
// safe to execute. The choice is visible and can be overridden at runtime,
// and it works under clang and the sanitizers alike (no ifunc resolvers).
//
// The checked-in build stays portable: no -march flags leak into the
// global build, every variant carries its own target attribute, and
// kernels are plain portable C++ compiled per tier (no intrinsics).

#ifndef LDPRANGE_COMMON_CPU_DISPATCH_H_
#define LDPRANGE_COMMON_CPU_DISPATCH_H_

#include <span>
#include <string_view>

// True when this translation unit can compile per-tier x86 variants with
// __attribute__((target(...))) — GCC and clang, any sanitizer (manual
// dispatch needs no ifunc).
#if defined(__x86_64__) && defined(__GNUC__)
#define LDP_SIMD_MANUAL_X86 1
#else
#define LDP_SIMD_MANUAL_X86 0
#endif

namespace ldp {

/// Vector-width tier a kernel variant is compiled for, in ascending order
/// within each ISA family.
enum class SimdTier : int {
  kScalar = 0,  // portable baseline (x86-64 SSE2)
  kAvx2 = 1,
  kAvx512 = 2,  // AVX-512 F/BW/DQ/VL (x86-64-v4 feature set)
  kNeon = 3,    // aarch64 baseline
  kSve = 4,
};

/// Canonical lowercase tier name ("scalar", "avx2", "avx512", "neon",
/// "sve").
std::string_view SimdTierName(SimdTier tier);

/// The tiers this binary carries kernel variants for, ascending. Always
/// contains the platform baseline.
std::span<const SimdTier> CompiledSimdTiers();

/// Best compiled tier the running CPU supports.
SimdTier DetectedSimdTier();

/// The tier kernels actually dispatch to: DetectedSimdTier() unless
/// lowered by SetSimdTierOverride() / the LDP_DISPATCH environment
/// variable. Logs one `simd dispatch` line (obs/log.h, level info,
/// silenceable via LDP_LOG_LEVEL) on first call.
SimdTier ResolvedSimdTier();

/// Overrides the dispatch tier by name ("scalar", "avx2", "avx512",
/// "neon", "sve"), or restores auto-detection with "auto". Unknown names
/// and tiers this binary has no variants for return false; a tier above
/// what the CPU supports is accepted but clamps to the detected tier.
/// Benches expose this as --dispatch=.
bool SetSimdTierOverride(std::string_view name);

}  // namespace ldp

#endif  // LDPRANGE_COMMON_CPU_DISPATCH_H_
