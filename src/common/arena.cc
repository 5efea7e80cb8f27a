#include "common/arena.h"

namespace ldp {

void* Arena::Allocate(size_t bytes, size_t alignment) {
  LDP_DCHECK(alignment != 0 && (alignment & (alignment - 1)) == 0);
  if (bytes == 0) bytes = 1;
  // Advance over retained blocks (after a Reset) until one fits; a block
  // big enough for any aligned request is accepted so a repeated
  // allocation sequence re-carves the same blocks with no system calls.
  while (cursor_ < blocks_.size()) {
    Block& block = blocks_[cursor_];
    uintptr_t base_addr = reinterpret_cast<uintptr_t>(block.data.get());
    size_t aligned = static_cast<size_t>(
        ((base_addr + offset_ + alignment - 1) &
         ~static_cast<uintptr_t>(alignment - 1)) -
        base_addr);
    if (aligned + bytes <= block.capacity) {
      offset_ = aligned + bytes;
      return block.data.get() + aligned;
    }
    ++cursor_;
    offset_ = 0;
  }
  // No retained block fits: grow. Oversized requests get an exact block so
  // a huge Reserve cannot poison the doubling schedule.
  size_t capacity = std::max(bytes + alignment, next_block_bytes_);
  next_block_bytes_ = std::min(next_block_bytes_ * 2, kMaxBlockBytes);
  Block block;
  // Uninitialized: each page is first touched by the append that fills
  // it, so a block's unused doubling slack costs no page faults.
  block.data = std::make_unique_for_overwrite<std::byte[]>(capacity);
  block.capacity = capacity;
  bytes_reserved_ += capacity;
  ++block_allocations_;
  blocks_.push_back(std::move(block));
  cursor_ = blocks_.size() - 1;
  std::byte* base = blocks_[cursor_].data.get();
  // operator new storage is suitably aligned for every fundamental type;
  // the fixup below only matters for over-aligned requests.
  uintptr_t base_addr = reinterpret_cast<uintptr_t>(base);
  uintptr_t aligned_addr =
      (base_addr + alignment - 1) & ~static_cast<uintptr_t>(alignment - 1);
  size_t aligned = static_cast<size_t>(aligned_addr - base_addr);
  offset_ = aligned + bytes;
  return base + aligned;
}

void Arena::Reset() {
  cursor_ = 0;
  offset_ = 0;
}

void Arena::AdoptBlocks(Arena&& other) {
  if (other.blocks_.empty()) {
    other.Reset();
    return;
  }
  // The adopted blocks hold live data, so they must sit in the consumed
  // prefix [0, cursor_); they become reusable after the next Reset().
  blocks_.insert(blocks_.begin() + static_cast<ptrdiff_t>(cursor_),
                 std::make_move_iterator(other.blocks_.begin()),
                 std::make_move_iterator(other.blocks_.end()));
  cursor_ += other.blocks_.size();
  bytes_reserved_ += other.bytes_reserved_;
  block_allocations_ += other.block_allocations_;
  other.blocks_.clear();
  other.cursor_ = 0;
  other.offset_ = 0;
  other.bytes_reserved_ = 0;
  other.block_allocations_ = 0;
}

}  // namespace ldp
