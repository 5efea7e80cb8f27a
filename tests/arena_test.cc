#include "common/arena.h"

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cstdint>
#include <numeric>
#include <vector>

// Sanitizer allocators touch shadow pages of what they hand out, so a
// page-fault count says nothing about the arena under them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define LDP_FAULT_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define LDP_FAULT_COUNTING 0
#else
#define LDP_FAULT_COUNTING 1
#endif
#else
#define LDP_FAULT_COUNTING 1
#endif

namespace ldp {
namespace {

uint64_t MinorFaults() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_minflt);
}

TEST(Arena, AllocationsDoNotRelocate) {
  Arena arena(64);
  std::vector<uint64_t*> ptrs;
  for (int i = 0; i < 1000; ++i) {
    auto* p = static_cast<uint64_t*>(
        arena.Allocate(sizeof(uint64_t), alignof(uint64_t)));
    *p = static_cast<uint64_t>(i);
    ptrs.push_back(p);
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(*ptrs[i], static_cast<uint64_t>(i));
  }
}

TEST(Arena, RespectsAlignment) {
  Arena arena(64);
  arena.Allocate(1, 1);
  for (size_t align : {2, 4, 8, 16, 64}) {
    void* p = arena.Allocate(3, align);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u) << align;
    arena.Allocate(1, 1);  // de-align the cursor again
  }
}

TEST(Arena, ResetReusesBlocksWithoutNewAllocations) {
  Arena arena(1 << 10);
  auto fill = [&] {
    for (int i = 0; i < 4096; ++i) {
      arena.Allocate(16, 8);
    }
  };
  fill();
  uint64_t allocs = arena.block_allocations();
  EXPECT_GT(allocs, 0u);
  for (int round = 0; round < 5; ++round) {
    arena.Reset();
    fill();
    EXPECT_EQ(arena.block_allocations(), allocs) << "round " << round;
  }
}

TEST(Arena, OversizedRequestGetsDedicatedBlock) {
  Arena arena(64);
  void* p = arena.Allocate(1 << 20, 8);
  ASSERT_NE(p, nullptr);
  EXPECT_GE(arena.bytes_reserved(), size_t{1} << 20);
}

TEST(Arena, FreshBlockIsFaultedInOnlyWhereWritten) {
#if !LDP_FAULT_COUNTING
  GTEST_SKIP() << "page-fault counting disabled under sanitizers";
#else
  // A block is not zero-filled when it is allocated: its pages are
  // faulted in by the appends that write them. Zero-filling this 8 MiB
  // block would fault in all 2,048 of its 4 KiB pages.
  constexpr size_t kBytes = size_t{8} << 20;
  constexpr size_t kPage = 4096;
  Arena arena;
  const uint64_t before = MinorFaults();
  auto* block = static_cast<uint8_t*>(arena.Allocate(kBytes, 1));
  EXPECT_LT(MinorFaults() - before, 64u);
  for (size_t i = 0; i < kBytes; i += kPage) {
    block[i] = static_cast<uint8_t>(i / kPage);
  }
  for (size_t i = 0; i < kBytes; i += kPage) {
    ASSERT_EQ(block[i], static_cast<uint8_t>(i / kPage)) << i;
  }
#endif
}

TEST(Arena, AdoptBlocksKeepsDataAliveAndEmptiesSource) {
  Arena source(128);
  auto* p = static_cast<uint64_t*>(source.Allocate(sizeof(uint64_t), 8));
  *p = 0xDEADBEEFu;
  uint64_t source_allocs = source.block_allocations();

  Arena target(128);
  target.Allocate(24, 8);
  uint64_t target_allocs = target.block_allocations();
  target.AdoptBlocks(std::move(source));

  EXPECT_EQ(*p, 0xDEADBEEFu);
  EXPECT_EQ(target.block_allocations(), source_allocs + target_allocs);
  EXPECT_EQ(source.bytes_reserved(), 0u);
  EXPECT_EQ(source.block_count(), 0u);
  // Adopted blocks are consumed until Reset, after which they are reusable.
  uint64_t before = target.block_allocations();
  target.Reset();
  for (int i = 0; i < 4; ++i) target.Allocate(16, 8);
  EXPECT_EQ(target.block_allocations(), before);
}

TEST(ArenaColumn, PushBackAndIterateInOrder) {
  ArenaColumn<uint32_t> column;
  constexpr uint64_t kCount = 100000;
  for (uint64_t i = 0; i < kCount; ++i) {
    column.PushBack(static_cast<uint32_t>(i * 7));
  }
  ASSERT_EQ(column.size(), kCount);
  uint64_t next = 0;
  column.ForEachChunk([&](ArenaColumn<uint32_t>::Chunk chunk) {
    for (uint64_t i = 0; i < chunk.size; ++i, ++next) {
      ASSERT_EQ(chunk.data[i], static_cast<uint32_t>(next * 7));
    }
  });
  EXPECT_EQ(next, kCount);
}

TEST(ArenaColumn, AppendMatchesPushBack) {
  std::vector<uint64_t> values(50000);
  std::iota(values.begin(), values.end(), 17);
  ArenaColumn<uint64_t> pushed;
  ArenaColumn<uint64_t> appended;
  for (uint64_t v : values) pushed.PushBack(v);
  appended.Append(values.data(), values.size());
  ASSERT_EQ(pushed.size(), appended.size());
  std::vector<uint64_t> a, b;
  pushed.ForEachChunk([&](ArenaColumn<uint64_t>::Chunk c) {
    a.insert(a.end(), c.data, c.data + c.size);
  });
  appended.ForEachChunk([&](ArenaColumn<uint64_t>::Chunk c) {
    b.insert(b.end(), c.data, c.data + c.size);
  });
  EXPECT_EQ(a, values);
  EXPECT_EQ(b, values);
}

// Two columns driven by the same append sequence must expose identical
// chunk boundaries — the decode kernels zip structure-of-arrays columns
// chunk by chunk.
TEST(ArenaColumn, ParallelColumnsShareChunkBoundaries) {
  ArenaColumn<uint64_t> seeds;
  ArenaColumn<uint32_t> cells;
  for (uint64_t i = 0; i < 70000; ++i) {
    seeds.PushBack(i);
    cells.PushBack(static_cast<uint32_t>(i));
  }
  auto a = seeds.Chunks();
  auto b = cells.Chunks();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].size, b[i].size) << i;
  }
}

// The session-reuse contract: Clear() keeps the blocks, so refilling to the
// same size performs no further system allocations.
TEST(ArenaColumn, ClearRetainsMemoryAcrossSessions) {
  ArenaColumn<uint64_t> column;
  auto fill = [&] {
    for (uint64_t i = 0; i < 200000; ++i) column.PushBack(i);
  };
  fill();
  uint64_t allocs = column.allocation_count();
  for (int session = 0; session < 3; ++session) {
    column.Clear();
    EXPECT_EQ(column.size(), 0u);
    fill();
    EXPECT_EQ(column.size(), 200000u);
    EXPECT_EQ(column.allocation_count(), allocs) << "session " << session;
  }
}

TEST(ArenaColumn, AdoptSplicesElementsInOrder) {
  ArenaColumn<uint32_t> left;
  ArenaColumn<uint32_t> right;
  for (uint32_t i = 0; i < 5000; ++i) left.PushBack(i);
  for (uint32_t i = 5000; i < 12000; ++i) right.PushBack(i);
  left.Adopt(std::move(right));
  ASSERT_EQ(left.size(), 12000u);
  EXPECT_EQ(right.size(), 0u);
  uint32_t next = 0;
  left.ForEachChunk([&](ArenaColumn<uint32_t>::Chunk chunk) {
    for (uint64_t i = 0; i < chunk.size; ++i, ++next) {
      ASSERT_EQ(chunk.data[i], next);
    }
  });
  EXPECT_EQ(next, 12000u);
  // Appending after an adopt keeps working and stays ordered.
  left.PushBack(12000);
  EXPECT_EQ(left.size(), 12001u);
}

TEST(ArenaColumn, AdoptIsAllocationFree) {
  ArenaColumn<uint64_t> target;
  ArenaColumn<uint64_t> shard;
  for (uint64_t i = 0; i < 100000; ++i) shard.PushBack(i);
  uint64_t total = target.allocation_count() + shard.allocation_count();
  target.Adopt(std::move(shard));
  // Block allocations transfer; none are added by the splice itself.
  EXPECT_EQ(target.allocation_count(), total);
}

TEST(ArenaColumn, ReserveSkipsDoublingRamp) {
  ArenaColumn<uint64_t> column;
  column.Reserve(300000);
  for (uint64_t i = 0; i < 300000; ++i) column.PushBack(i);
  // One block for the reserved chunk (kMaxChunkElems caps a chunk at 2^20
  // elements, so 300k fits in one).
  EXPECT_LE(column.allocation_count(), 2u);
}

}  // namespace
}  // namespace ldp
