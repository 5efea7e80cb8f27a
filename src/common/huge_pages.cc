#include "common/huge_pages.h"

#include <sys/mman.h>

#include <cstdint>

namespace ldp {

void AdviseHugePages(void* data, size_t bytes) {
  const uintptr_t begin = reinterpret_cast<uintptr_t>(data);
  const uintptr_t first = (begin + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  const uintptr_t last = (begin + bytes) & ~(kHugePageBytes - 1);
  if (data == nullptr || last <= first) return;
  ::madvise(reinterpret_cast<void*>(first), last - first, MADV_HUGEPAGE);
}

}  // namespace ldp
