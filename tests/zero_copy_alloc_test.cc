// The zero-copy ingestion contract, asserted at the allocator: absorbing a
// streamed report chunk walks its fixed-width report slots in place and
// folds each report straight into the aggregate — HRR coefficient sums
// (flat, haar, tree), AHEAD node tallies, or the multidim per-tuple arena
// columns — so at steady state (arenas warmed by earlier chunks) a chunk's
// absorption performs ZERO heap allocations, for every server kind: no
// staging std::vector of decoded reports, no second copy of the chunk
// payload. The same holds one layer up: a kStreamChunk message routed
// through AggregatorService::HandleMessage is admitted and absorbed from
// the caller's bytes, with no copy of its batch, no queue entry and no
// dedupe node.
//
// This file overrides the global operator new/delete to count allocations,
// so it deliberately contains ONLY these tests. The override is disabled
// under AddressSanitizer (it would bypass ASan's allocator instrumentation);
// the test skips itself there — the equivalent arena-level assertions run
// in every build via multidim_test and olh_test.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/random.h"
#include "protocol/ahead_protocol.h"
#include "protocol/flat_protocol.h"
#include "protocol/haar_protocol.h"
#include "protocol/multidim_protocol.h"
#include "protocol/tree_protocol.h"
#include "service/aggregator_service.h"
#include "service/stream_wire.h"

#if defined(__SANITIZE_ADDRESS__)
#define LDP_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define LDP_ALLOC_COUNTING 0
#else
#define LDP_ALLOC_COUNTING 1
#endif
#else
#define LDP_ALLOC_COUNTING 1
#endif

#if LDP_ALLOC_COUNTING

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif  // LDP_ALLOC_COUNTING

namespace ldp {
namespace {

using protocol::MultiDimReport;
using protocol::MultiDimServer;
using protocol::ParseError;

// One server kind and a 64-report chunk it accepts in full.
struct ChunkCase {
  std::string name;
  std::unique_ptr<service::AggregatorServer> server;
  std::vector<uint8_t> chunk;
};

std::vector<ChunkCase> AllChunkCases() {
  Rng rng(9);
  std::vector<uint64_t> values(64);
  for (size_t i = 0; i < values.size(); ++i) values[i] = (i * 37) % 64;
  std::vector<ChunkCase> cases;
  cases.push_back(
      {"flat", std::make_unique<protocol::FlatHrrServer>(64, 1.0),
       protocol::FlatHrrClient(64, 1.0).EncodeUsersSerialized(values, rng)});
  cases.push_back(
      {"haar", std::make_unique<protocol::HaarHrrServer>(64, 1.0),
       protocol::HaarHrrClient(64, 1.0).EncodeUsersSerialized(values, rng)});
  cases.push_back({"tree",
                   std::make_unique<protocol::TreeHrrServer>(64, 4, 1.0),
                   protocol::TreeHrrClient(64, 4, 1.0)
                       .EncodeUsersSerialized(values, rng)});
  protocol::AheadClient ahead(64, 4, 1.0);
  std::vector<protocol::AheadWireReport> phase1;
  for (uint64_t v : values) phase1.push_back(ahead.EncodePhase1(v, rng));
  cases.push_back({"ahead_phase1",
                   std::make_unique<protocol::AheadServer>(64, 4, 1.0),
                   protocol::SerializeAheadReportBatch(phase1)});
  auto phase2 = std::make_unique<protocol::AheadServer>(64, 4, 1.0);
  ahead.AbsorbTreeDescription(phase2->BuildTree());
  cases.push_back({"ahead_phase2", std::move(phase2),
                   ahead.EncodePhase2UsersSerialized(values, rng)});
  // All 64 grid reports for level tuple (1, 0), so the arena ramp is
  // confined to one oracle's columns and warms up quickly.
  auto grid = std::make_unique<MultiDimServer>(/*domain_per_dim=*/8,
                                               /*dimensions=*/2, /*eps=*/1.0);
  std::vector<MultiDimReport> reports(64);
  for (size_t i = 0; i < reports.size(); ++i) {
    reports[i].levels = {1, 0};
    reports[i].seed = 0x9E3779B97F4A7C15ULL * (i + 1);
    reports[i].cell = static_cast<uint32_t>(i % grid->hash_range());
  }
  cases.push_back({"grid", std::move(grid),
                   protocol::SerializeMultiDimReportBatch(2, reports)});
  return cases;
}

TEST(ZeroCopyIngestion, SteadyStateChunkAbsorbIsAllocationFree) {
#if !LDP_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  for (ChunkCase& c : AllChunkCases()) {
    SCOPED_TRACE(c.name);
    // Warmup: the first chunks carve the grid oracle's first arena blocks
    // (the other kinds fold into state sized at construction).
    for (int i = 0; i < 2; ++i) {
      uint64_t accepted = 0;
      ASSERT_EQ(c.server->AbsorbBatchSerialized(c.chunk, &accepted),
                ParseError::kOk);
      ASSERT_EQ(accepted, 64u);
    }
    auto* grid = dynamic_cast<MultiDimServer*>(c.server.get());
    const uint64_t arena_allocs =
        grid != nullptr ? grid->report_allocation_count() : 0;

    // Steady state: 8 more chunks (512 reports, well inside the grid's
    // first 1024-element chunk pair) must not allocate AT ALL.
    const uint64_t heap_before =
        g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 8; ++i) {
      uint64_t accepted = 0;
      ASSERT_EQ(c.server->AbsorbBatchSerialized(c.chunk, &accepted),
                ParseError::kOk);
      ASSERT_EQ(accepted, 64u);
    }
    const uint64_t heap_after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(heap_after - heap_before, 0u)
        << "absorbing a streamed chunk allocated on the heap: batch "
           "ingestion must fold reports in place, not stage or copy them";
    if (grid != nullptr) {
      EXPECT_EQ(grid->report_allocation_count(), arena_allocs);
    }
    EXPECT_EQ(c.server->accepted_reports(), 10u * 64u);
  }
#endif
}

TEST(ZeroCopyIngestion, RoutedChunkIsAbsorbedInPlace) {
#if !LDP_ALLOC_COUNTING
  GTEST_SKIP() << "allocation counting disabled under sanitizers";
#else
  constexpr uint64_t kWarmup = 2;
  constexpr uint64_t kRouted = 8;
  constexpr uint64_t kSession = 1;
  for (ChunkCase& c : AllChunkCases()) {
    SCOPED_TRACE(c.name);
    service::AggregatorService svc;
    const uint64_t server_id = svc.AddServer(std::move(c.server));
    svc.HandleMessage(service::SerializeStreamBegin({kSession, server_id}));
    std::vector<std::vector<uint8_t>> messages;
    for (uint64_t seq = 0; seq < kWarmup + kRouted; ++seq) {
      messages.push_back(service::SerializeStreamChunk(kSession, seq, c.chunk));
    }
    // Warmup: the session's dedupe bitmap and the grid's first arena
    // blocks.
    for (uint64_t seq = 0; seq < kWarmup; ++seq) {
      svc.HandleMessage(messages[seq]);
    }
    ASSERT_EQ(svc.stats().chunks_absorbed, kWarmup);

    std::array<uint64_t, kRouted> absorbed{};
    const uint64_t heap_before =
        g_allocations.load(std::memory_order_relaxed);
    for (uint64_t i = 0; i < kRouted; ++i) {
      svc.HandleMessage(messages[kWarmup + i]);
      absorbed[i] = svc.stats().chunks_absorbed;
    }
    const uint64_t heap_after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(heap_after - heap_before, 0u)
        << "routing a streamed chunk allocated on the heap: the service "
           "must absorb the batch from the caller's bytes";
    for (uint64_t i = 0; i < kRouted; ++i) {
      EXPECT_EQ(absorbed[i], kWarmup + i + 1) << "chunk " << i
                                              << " was not absorbed in its "
                                                 "own HandleMessage call";
    }
    EXPECT_EQ(svc.registry().GetGauge("service.queue_depth").value(), 0);
    EXPECT_EQ(svc.server(server_id).accepted_reports(),
              (kWarmup + kRouted) * 64u);
  }
#endif
}

}  // namespace
}  // namespace ldp
