// Arena allocation for report buffers.
//
// The ingestion hot path appends millions of small fixed-size records
// (pending OLH reports, deferred multidim grid records) into per-shard
// buffers that are later scanned once and thrown away. std::vector is the
// wrong tool twice over: geometric growth re-copies every record already
// ingested (O(N) extra traffic per session), and clear() hands the pages
// back so the next session pays the page faults again. An arena fixes both:
//
//   * Arena       — a bump allocator over a chain of geometrically growing
//                   blocks. Allocation never moves existing bytes; Reset()
//                   retains the blocks so a reused arena reaches steady
//                   state with zero further system allocations.
//   * ArenaColumn — a typed append-only column on its own arena: push_back
//                   into the current chunk, chunk-at-a-time iteration for
//                   the decode kernels, and O(1) Adopt() so the sharded
//                   clone/merge contract splices shard buffers instead of
//                   copying them.
//
// Blocks are allocated uninitialized, so a page is first touched by the
// append that fills it: a fresh block costs page faults only for the
// records written into it, not for its doubling slack. NUMA note: that
// first touch is by the thread that appends (ParallelFor workers each own
// a shard column), so on multi-node machines the records live on the node
// that will usually scan them.
//
// Neither class is thread-safe; one writer per arena, the same contract as
// the oracles they back.

#ifndef LDPRANGE_COMMON_ARENA_H_
#define LDPRANGE_COMMON_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace ldp {

/// Chained bump allocator. All memory is released at destruction; Reset()
/// rewinds the cursor but keeps every block for reuse.
class Arena {
 public:
  /// First block size; later blocks double up to kMaxBlockBytes.
  static constexpr size_t kDefaultFirstBlockBytes = size_t{1} << 16;
  static constexpr size_t kMaxBlockBytes = size_t{1} << 24;

  explicit Arena(size_t first_block_bytes = kDefaultFirstBlockBytes)
      : next_block_bytes_(first_block_bytes == 0 ? kDefaultFirstBlockBytes
                                                 : first_block_bytes) {}

  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of uninitialized storage aligned to `alignment` (a
  /// power of two). Never relocates previous allocations.
  void* Allocate(size_t bytes, size_t alignment);

  /// Rewinds to empty while retaining every block: the next allocation
  /// sequence re-carves the same memory with no system allocation (the
  /// session-reuse fast path).
  void Reset();

  /// Takes ownership of `other`'s blocks without touching their contents —
  /// pointers into `other` stay valid and are now kept alive by this arena.
  /// The adopted blocks are treated as fully consumed (they become
  /// available for reuse only after Reset()). `other` is left empty.
  void AdoptBlocks(Arena&& other);

  /// Total capacity of all blocks owned by this arena.
  size_t bytes_reserved() const { return bytes_reserved_; }

  /// Number of blocks ever requested from the system allocator — including
  /// by arenas later adopted into this one. Flat across Reset()/re-fill
  /// cycles once steady state is reached; the zero-copy tests assert on it.
  uint64_t block_allocations() const { return block_allocations_; }

  size_t block_count() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    size_t capacity = 0;
  };

  // Blocks [0, cursor_) are consumed; cursor_ is the block being bumped.
  std::vector<Block> blocks_;
  size_t cursor_ = 0;
  size_t offset_ = 0;
  size_t next_block_bytes_;
  size_t bytes_reserved_ = 0;
  uint64_t block_allocations_ = 0;
};

/// Append-only typed column over a private Arena. The element sequence is
/// stored as a list of contiguous chunks whose element-count boundaries
/// follow a fixed schedule (kFirstChunkElems doubling to kMaxChunkElems),
/// so two columns driven by the same append sequence have identical chunk
/// boundaries — the pairing the structure-of-arrays decode kernels rely on.
template <typename T>
class ArenaColumn {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(std::is_trivially_destructible_v<T>);

 public:
  static constexpr uint64_t kFirstChunkElems = 1024;
  static constexpr uint64_t kMaxChunkElems = uint64_t{1} << 20;

  /// One contiguous run of elements, for chunk-at-a-time kernels.
  struct Chunk {
    const T* data;
    uint64_t size;
  };

  ArenaColumn() = default;
  ArenaColumn(ArenaColumn&&) = default;
  ArenaColumn& operator=(ArenaColumn&&) = default;

  void PushBack(const T& value) {
    if (tail_size_ == tail_capacity_) Grow();
    tail_[tail_size_++] = value;
  }

  void Append(const T* values, uint64_t count) {
    while (count > 0) {
      if (tail_size_ == tail_capacity_) Grow();
      uint64_t take = std::min(count, tail_capacity_ - tail_size_);
      std::memcpy(tail_ + tail_size_, values, take * sizeof(T));
      tail_size_ += take;
      values += take;
      count -= take;
    }
  }

  uint64_t size() const { return sealed_elems_ + tail_size_; }
  bool empty() const { return size() == 0; }

  /// Growth hint: makes the next chunk large enough for `expected` more
  /// elements (clamped to kMaxChunkElems), so long pre-sized ingests skip
  /// the doubling ramp. Existing chunk boundaries are unaffected.
  void Reserve(uint64_t expected) {
    uint64_t room = tail_capacity_ - tail_size_;
    if (expected <= room) return;
    uint64_t want = std::min(expected - room, kMaxChunkElems);
    if (want > next_chunk_elems_) next_chunk_elems_ = want;
  }

  /// Empties the column but keeps the arena blocks: a refill of the same
  /// shape performs no system allocations (see Arena::Reset()).
  void Clear() {
    sealed_.clear();
    sealed_elems_ = 0;
    tail_ = nullptr;
    tail_size_ = 0;
    tail_capacity_ = 0;
    next_chunk_elems_ = kFirstChunkElems;
    arena_.Reset();
  }

  /// Splices `other`'s elements after this column's, O(1) in the element
  /// count: chunk descriptors and arena blocks move, bytes do not. `other`
  /// is left empty (its retained blocks move too — reuse continues here).
  void Adopt(ArenaColumn&& other) {
    SealTail();
    other.SealTail();
    if (sealed_.empty()) {
      sealed_ = std::move(other.sealed_);
    } else {
      sealed_.insert(sealed_.end(), other.sealed_.begin(), other.sealed_.end());
    }
    sealed_elems_ += other.sealed_elems_;
    arena_.AdoptBlocks(std::move(other.arena_));
    other.sealed_.clear();
    other.sealed_elems_ = 0;
    other.next_chunk_elems_ = kFirstChunkElems;
  }

  /// Invokes fn(chunk) over every chunk in element order.
  template <typename Fn>
  void ForEachChunk(Fn&& fn) const {
    for (const Chunk& c : sealed_) fn(c);
    if (tail_size_ > 0) fn(Chunk{tail_, tail_size_});
  }

  /// Chunk list including the open tail; boundary indices are identical
  /// across columns driven by the same append sequence.
  std::vector<Chunk> Chunks() const {
    std::vector<Chunk> out(sealed_.begin(), sealed_.end());
    if (tail_size_ > 0) out.push_back(Chunk{tail_, tail_size_});
    return out;
  }

  /// System allocations ever made for this column (test hook; see
  /// Arena::block_allocations()).
  uint64_t allocation_count() const { return arena_.block_allocations(); }

 private:
  void SealTail() {
    if (tail_size_ > 0) {
      sealed_.push_back(Chunk{tail_, tail_size_});
      sealed_elems_ += tail_size_;
    }
    tail_ = nullptr;
    tail_size_ = 0;
    tail_capacity_ = 0;
  }

  void Grow() {
    SealTail();
    uint64_t elems = next_chunk_elems_;
    tail_ = static_cast<T*>(arena_.Allocate(elems * sizeof(T), alignof(T)));
    tail_capacity_ = elems;
    tail_size_ = 0;
    next_chunk_elems_ = std::min(elems * 2, kMaxChunkElems);
  }

  Arena arena_;
  std::vector<Chunk> sealed_;
  uint64_t sealed_elems_ = 0;
  T* tail_ = nullptr;
  uint64_t tail_size_ = 0;
  uint64_t tail_capacity_ = 0;
  uint64_t next_chunk_elems_ = kFirstChunkElems;
};

}  // namespace ldp

#endif  // LDPRANGE_COMMON_ARENA_H_
