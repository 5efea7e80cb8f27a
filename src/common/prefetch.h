// Software prefetch: the one cache hint behind the batch-absorb look-ahead
// (AggregatorServer::AbsorbReportSlots, service/aggregator_server.h).
//
// always_inline is load-bearing. GCC's IPA pure-const pass treats a
// function whose only effect is __builtin_prefetch as pure, so an
// out-of-line wrapper whose call has no used result is deleted at -O1
// and above, and the prefetch with it. Forced inline, the builtin lands
// in the caller's body, where it stays. CI disassembles the flat, haar
// and tree protocol objects of the release build and fails if their
// batch absorb holds no prefetch instruction.

#ifndef LDPRANGE_COMMON_PREFETCH_H_
#define LDPRANGE_COMMON_PREFETCH_H_

namespace ldp {

/// Asks for the cache line holding `address`, which the caller will read
/// and write soon. A hint only: it never faults and changes no value.
[[gnu::always_inline]] inline void PrefetchForWrite(const void* address) {
#if defined(__GNUC__)
  __builtin_prefetch(address, /*rw=*/1, /*locality=*/3);
#else
  (void)address;
#endif
}

}  // namespace ldp

#endif  // LDPRANGE_COMMON_PREFETCH_H_
