// Microbenchmarks for the wire serialization layer: what does the v2
// envelope (envelope.h) cost per report, and what does batch framing
// save? Batch sizes match the ingest baselines (BENCH_baseline.json:
// 32768 and 262144 users). The batch frame (one 8-byte header + count
// varint amortized over the whole batch, one allocation) is the
// deployment shape; the per-report path — one envelope per 9-byte
// payload, which no batch caller ships — pays real overhead.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/random.h"
#include "protocol/envelope.h"
#include "protocol/flat_protocol.h"
#include "protocol/wire.h"

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

}  // namespace

BENCHMARK_MAIN();
