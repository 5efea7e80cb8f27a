// Microbenchmarks for the wire serialization layer: what does the v2
// envelope (envelope.h) cost per report, and what does batch framing
// save? Batch sizes match the ingest baselines (BENCH_baseline.json:
// 32768 and 262144 users). The batch frame (one 8-byte header + count
// varint amortized over the whole batch, one allocation) is the
// deployment shape; the per-report path — one envelope per 9-byte
// payload, which no batch caller ships — pays real overhead. The last
// group, BM_AbsorbBatch, times the servers' batch absorb of framed
// chunks, the layer behind the look-ahead floor and distance.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "protocol/envelope.h"
#include "protocol/flat_protocol.h"
#include "protocol/haar_protocol.h"
#include "protocol/tree_protocol.h"
#include "protocol/wire.h"
#include "service/aggregator_server.h"

namespace {

using namespace ldp;  // NOLINT(build/namespaces)

constexpr double kEps = 1.1;
constexpr uint64_t kDomain = 1 << 16;

std::vector<HrrReport> MakeReports(int64_t n) {
  protocol::FlatHrrClient client(kDomain, kEps);
  Rng rng(1);
  std::vector<uint64_t> values(n);
  for (int64_t i = 0; i < n; ++i) {
    values[i] = static_cast<uint64_t>(i) % kDomain;
  }
  return client.EncodeUsers(values, rng);
}

// --- encode: per-report vs batch framing --------------------------------

void BM_WireEncodeReportsV2(benchmark::State& state) {
  std::vector<HrrReport> reports = MakeReports(state.range(0));
  for (auto _ : state) {
    for (const HrrReport& report : reports) {
      benchmark::DoNotOptimize(protocol::SerializeHrrReport(report));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WireEncodeReportsV2)->Arg(32768)->Arg(262144);

// One envelope for the whole batch: the deployment shape for PR 2's
// EncodeUsers path.
void BM_WireEncodeBatchV2(benchmark::State& state) {
  std::vector<HrrReport> reports = MakeReports(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol::SerializeHrrReportBatch(reports));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WireEncodeBatchV2)->Arg(32768)->Arg(262144);

// --- decode: per-report vs batch parsing --------------------------------

void BM_WireDecodeReportsV2(benchmark::State& state) {
  std::vector<HrrReport> reports = MakeReports(state.range(0));
  std::vector<std::vector<uint8_t>> wire;
  wire.reserve(reports.size());
  for (const HrrReport& report : reports) {
    wire.push_back(protocol::SerializeHrrReport(report));
  }
  for (auto _ : state) {
    HrrReport out;
    for (const std::vector<uint8_t>& bytes : wire) {
      benchmark::DoNotOptimize(protocol::ParseHrrReport(bytes, &out));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WireDecodeReportsV2)->Arg(32768)->Arg(262144);

void BM_WireDecodeBatchV2(benchmark::State& state) {
  std::vector<uint8_t> framed =
      protocol::SerializeHrrReportBatch(MakeReports(state.range(0)));
  for (auto _ : state) {
    std::vector<HrrReport> out;
    benchmark::DoNotOptimize(protocol::ParseHrrReportBatch(framed, &out));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WireDecodeBatchV2)->Arg(32768)->Arg(262144);

// --- envelope frame alone (header encode + full header validation) -------

void BM_WireEnvelopeFrameOnly(benchmark::State& state) {
  std::vector<uint8_t> payload(9, 0xAB);
  for (auto _ : state) {
    std::vector<uint8_t> msg =
        protocol::EncodeEnvelope(protocol::MechanismTag::kFlatHrr, payload);
    protocol::Envelope env;
    benchmark::DoNotOptimize(protocol::DecodeEnvelope(msg, &env));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireEnvelopeFrameOnly);

// --- batch absorb: BM_AbsorbBatch/<family>/<log2 D> ---------------------
//
// AbsorbBatchSerialized of pre-encoded 2000-report chunks (the chunk size
// of the bench/e2e workloads) into one flat, haar or tree (B = 4) server,
// at D = 2^16, 2^18 and 2^20: sums arrays of 0.5-0.7 MiB, 2-2.7 MiB and
// 8-11 MiB in all, on both sides of kHrrLookAheadFloor (1 MiB) and of a
// core's L2. The figure that set the floor and
// AggregatorServer::kLookAheadSlots. time_per_report is the wall time
// per absorbed report. The server keeps absorbing across iterations, as
// a shard does for its whole window, cycling through 256 chunks (512k
// reports), so a counter is rarely hit again while its line is still
// cached, as with fresh reports.

constexpr uint64_t kChunkReports = 2000;
constexpr size_t kChunks = 256;

struct AbsorbSetup {
  std::unique_ptr<service::AggregatorServer> server;
  std::vector<std::vector<uint8_t>> chunks;
};

template <typename Client>
std::vector<std::vector<uint8_t>> EncodeChunks(const Client& client,
                                               uint64_t domain) {
  Rng rng(7);
  std::vector<uint64_t> values(kChunkReports);
  std::vector<std::vector<uint8_t>> chunks;
  for (size_t c = 0; c < kChunks; ++c) {
    for (uint64_t& value : values) value = rng.UniformInt(domain);
    chunks.push_back(client.EncodeUsersSerialized(values, rng));
  }
  return chunks;
}

AbsorbSetup MakeAbsorbSetup(std::string_view family, uint64_t domain) {
  if (family == "flat") {
    return {std::make_unique<protocol::FlatHrrServer>(domain, kEps),
            EncodeChunks(protocol::FlatHrrClient(domain, kEps), domain)};
  }
  if (family == "haar") {
    return {std::make_unique<protocol::HaarHrrServer>(domain, kEps),
            EncodeChunks(protocol::HaarHrrClient(domain, kEps), domain)};
  }
  return {std::make_unique<protocol::TreeHrrServer>(domain, 4, kEps),
          EncodeChunks(protocol::TreeHrrClient(domain, 4, kEps), domain)};
}

void BM_AbsorbBatch(benchmark::State& state, std::string_view family,
                    uint32_t log2_domain) {
  AbsorbSetup setup = MakeAbsorbSetup(family, uint64_t{1} << log2_domain);
  size_t next = 0;
  for (auto _ : state) {
    uint64_t accepted = 0;
    setup.server->AbsorbBatchSerialized(setup.chunks[next], &accepted);
    benchmark::DoNotOptimize(accepted);
    benchmark::ClobberMemory();
    next = next + 1 == setup.chunks.size() ? 0 : next + 1;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kChunkReports));
  state.counters["time_per_report"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kChunkReports,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

const bool kAbsorbBatchRegistered = [] {
  for (std::string_view family : {"flat", "haar", "tree"}) {
    for (uint32_t log2_domain : {16u, 18u, 20u}) {
      const std::string name = "BM_AbsorbBatch/" + std::string(family) +
                               "/" + std::to_string(log2_domain);
      benchmark::RegisterBenchmark(name.c_str(), BM_AbsorbBatch, family,
                                   log2_domain);
    }
  }
  return true;
}();

}  // namespace

BENCHMARK_MAIN();
