// Transparent huge pages for the state-sized arrays.
//
// A D = 2^20, B = 4 TreeHRR server holds 11.2 MB of sums, and the fan-in
// path writes a snapshot frame of that size per shard and restores a
// clone of it on the query node every round. glibc maps each such buffer
// afresh, so on 4 KiB pages every one costs ~2,700 page faults, and the
// absorb into the sums misses the TLB on nearly every report. On 2 MiB
// pages the same buffer takes a handful of faults, and each 2 MiB is one
// TLB entry.
//
// The advice is a hint: madvise(MADV_HUGEPAGE) changes no byte, and the
// kernel may ignore it. With THP set to `never` it does nothing, with
// `always` it is redundant, and in `madvise` mode (the common default) it
// is what turns huge pages on for these arrays.

#ifndef LDPRANGE_COMMON_HUGE_PAGES_H_
#define LDPRANGE_COMMON_HUGE_PAGES_H_

#include <cstddef>

namespace ldp {

/// The transparent huge page size of x86-64 and of 4 KiB-page aarch64.
inline constexpr size_t kHugePageBytes = size_t{2} << 20;

/// Advises the whole 2 MiB pages inside [data, data + bytes) for huge
/// pages; a range that holds none is left alone, so nothing below 2 MiB
/// is ever advised. Call it on a std::vector's storage after reserve and
/// before the first write (reserve, advise, then resize or append), so
/// the first touch already faults huge pages. The partial pages at
/// either end stay on 4 KiB pages. A refusal is ignored.
void AdviseHugePages(void* data, size_t bytes);

}  // namespace ldp

#endif  // LDPRANGE_COMMON_HUGE_PAGES_H_
