// Streamed vs one-shot ingestion: what does the service layer cost?
//
// The claim: at D = 2^16, streaming a population as kStreamChunk messages
// through AggregatorService (session bookkeeping, the per-server strand,
// the chunk copy out of the message) lands within 10% of the bare
// AbsorbBatchSerialized loop on the same chunk bytes — the stream framing
// adds ~18 bytes and one map lookup per multi-thousand-report chunk, so
// the absorb work dominates. BM_OneShotBatch is the reference. Chunk
// bytes are pre-encoded outside the timed region (client-side encode cost
// is the same on both paths and is measured by bench_ingest_throughput).

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/random.h"
#include "protocol/tree_protocol.h"
#include "service/aggregator_service.h"
#include "service/server_factory.h"
#include "service/stream_wire.h"

namespace {

using namespace ldp;  // NOLINT(build/namespaces)

constexpr double kEps = 1.1;
constexpr uint64_t kReportsPerChunk = 8192;

service::ServerSpec TreeSpec(uint64_t domain) {
  service::ServerSpec spec;
  spec.kind = service::ServerKind::kTree;
  spec.domain = domain;
  spec.eps = kEps;
  spec.fanout = 4;
  return spec;
}

// Pre-encodes `num_chunks` kTreeHrrBatch messages of kReportsPerChunk
// reports each.
std::vector<std::vector<uint8_t>> MakeChunks(uint64_t domain,
                                             int64_t num_chunks) {
  protocol::TreeHrrClient client(domain, /*fanout=*/4, kEps);
  Rng rng(42);
  std::vector<uint64_t> values(kReportsPerChunk);
  std::vector<std::vector<uint8_t>> chunks;
  chunks.reserve(num_chunks);
  for (int64_t c = 0; c < num_chunks; ++c) {
    for (uint64_t i = 0; i < kReportsPerChunk; ++i) {
      values[i] = (c * kReportsPerChunk + i * 2654435761u) % domain;
    }
    chunks.push_back(client.EncodeUsersSerialized(values, rng));
  }
  return chunks;
}

// Reference: the in-process batch loop, no service in the path. The
// server lives outside the timed region (both paths ingest into a
// long-lived aggregator; counters just grow across iterations).
void BM_OneShotBatch(benchmark::State& state) {
  uint64_t domain = state.range(0);
  int64_t num_chunks = state.range(1);
  std::vector<std::vector<uint8_t>> chunks = MakeChunks(domain, num_chunks);
  std::unique_ptr<service::AggregatorServer> server =
      service::MakeAggregatorServer(TreeSpec(domain));
  for (auto _ : state) {
    for (const std::vector<uint8_t>& chunk : chunks) {
      server->AbsorbBatchSerialized(chunk);
    }
    benchmark::DoNotOptimize(server->accepted_reports());
  }
  state.SetItemsProcessed(state.iterations() * num_chunks *
                          kReportsPerChunk);
}
BENCHMARK(BM_OneShotBatch)
    ->Args({1 << 12, 8})
    ->Args({1 << 16, 8})
    ->Args({1 << 16, 32})
    ->UseRealTime();

// Streamed: the same chunk bytes through the live service, one fresh
// session per iteration (steady-state serving; the service and server are
// long-lived). The service absorbs each chunk inside HandleMessage, on
// this thread.
void BM_StreamedChunks(benchmark::State& state) {
  uint64_t domain = state.range(0);
  int64_t num_chunks = state.range(1);
  std::vector<std::vector<uint8_t>> chunks = MakeChunks(domain, num_chunks);
  service::AggregatorService svc;
  uint64_t id =
      svc.AddServer(service::MakeAggregatorServer(TreeSpec(domain)));
  uint64_t session = 0;
  for (auto _ : state) {
    ++session;
    svc.HandleMessage(service::SerializeStreamBegin({session, id}));
    for (int64_t c = 0; c < num_chunks; ++c) {
      svc.HandleMessage(service::SerializeStreamChunk(
          session, static_cast<uint64_t>(c), chunks[c]));
    }
    svc.HandleMessage(service::SerializeStreamEnd(
        {session, static_cast<uint64_t>(num_chunks), 0}));
    benchmark::DoNotOptimize(svc.server(id).accepted_reports());
  }
  state.SetItemsProcessed(state.iterations() * num_chunks *
                          kReportsPerChunk);
}
BENCHMARK(BM_StreamedChunks)
    ->Args({1 << 12, 8})
    ->Args({1 << 16, 8})
    ->Args({1 << 16, 32})
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
