// Microbenchmarks for the frequency-oracle building blocks, backing the
// paper's cost claims (Sections 1 and 5): per-user encoding is cheap for
// every oracle; OUE's cost is O(D) per user; OLH decoding is O(D) per
// report (the reason the paper drops it beyond D = 2^8); HRR decoding is
// one O(D log D) transform regardless of N.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/random.h"
#include "frequency/frequency_oracle.h"
#include "frequency/hadamard.h"
#include "frequency/hrr.h"
#include "frequency/olh.h"
#include "frequency/oue.h"

namespace {

using namespace ldp;  // NOLINT(build/namespaces)

constexpr double kEps = 1.1;

void BM_GrrEncode(benchmark::State& state) {
  uint64_t d = state.range(0);
  auto oracle = MakeOracle(OracleKind::kGrr, d, kEps);
  Rng rng(1);
  uint64_t v = 0;
  for (auto _ : state) {
    oracle->SubmitValue(v++ % d, rng);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GrrEncode)->Arg(1 << 8)->Arg(1 << 16);

void BM_OueExactEncode(benchmark::State& state) {
  uint64_t d = state.range(0);
  auto oracle = MakeOracle(OracleKind::kOue, d, kEps);
  Rng rng(1);
  uint64_t v = 0;
  for (auto _ : state) {
    oracle->SubmitValue(v++ % d, rng);  // O(D) bit flips per user
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OueExactEncode)->Arg(1 << 8)->Arg(1 << 12);

void BM_OueSimulatedEncode(benchmark::State& state) {
  uint64_t d = state.range(0);
  auto oracle = MakeOracle(OracleKind::kOueSimulated, d, kEps);
  Rng rng(1);
  uint64_t v = 0;
  for (auto _ : state) {
    oracle->SubmitValue(v++ % d, rng);  // O(1): the paper's §5 shortcut
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OueSimulatedEncode)->Arg(1 << 8)->Arg(1 << 20);

void BM_OueSimulatedSubmitBatch(benchmark::State& state) {
  // The batch path collapses the per-report virtual dispatch into one
  // count loop.
  uint64_t d = state.range(0);
  constexpr uint64_t kBatch = 4096;
  std::vector<uint64_t> values(kBatch);
  for (uint64_t i = 0; i < kBatch; ++i) values[i] = i % d;
  auto oracle = MakeOracle(OracleKind::kOueSimulated, d, kEps);
  Rng rng(1);
  for (auto _ : state) {
    oracle->SubmitBatch(values, rng);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_OueSimulatedSubmitBatch)->Arg(1 << 8)->Arg(1 << 20);

void BM_OlhEncodeAndFold(benchmark::State& state) {
  uint64_t d = state.range(0);
  // Eager mode: the O(D) support decode runs inside every SubmitValue —
  // the textbook per-report cost the deferred path amortizes away (see
  // bench_ingest_throughput for the full comparison).
  OlhOracle oracle(d, kEps, /*g_override=*/0, OlhDecode::kEager);
  Rng rng(1);
  uint64_t v = 0;
  for (auto _ : state) {
    oracle.SubmitValue(v++ % d, rng);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OlhEncodeAndFold)->Arg(1 << 8)->Arg(1 << 12);

void BM_OlhSubmitBatchDeferred(benchmark::State& state) {
  // Deferred mode ingest: O(1) per report; the support scan is paid once
  // at Finalize. Fresh oracle per iteration so pending reports do not
  // accumulate across the benchmark run.
  uint64_t d = state.range(0);
  constexpr uint64_t kBatch = 4096;
  std::vector<uint64_t> values(kBatch);
  for (uint64_t i = 0; i < kBatch; ++i) values[i] = i % d;
  Rng rng(1);
  for (auto _ : state) {
    state.PauseTiming();
    OlhOracle oracle(d, kEps);
    state.ResumeTiming();
    oracle.SubmitBatch(values, rng);
    benchmark::DoNotOptimize(oracle.pending_reports());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_OlhSubmitBatchDeferred)->Arg(1 << 8)->Arg(1 << 16);

void BM_OlhDeferredDecode(benchmark::State& state) {
  // The one-time cache-blocked support scan over all pending reports.
  uint64_t d = state.range(0);
  constexpr uint64_t kReports = 4096;
  std::vector<uint64_t> values(kReports);
  for (uint64_t i = 0; i < kReports; ++i) values[i] = i % d;
  for (auto _ : state) {
    state.PauseTiming();
    OlhOracle oracle(d, kEps);
    oracle.set_decode_threads(1);
    Rng rng(1);
    oracle.SubmitBatch(values, rng);
    state.ResumeTiming();
    Rng frng(2);
    oracle.Finalize(frng);
    benchmark::DoNotOptimize(oracle.SupportCounts().data());
  }
  state.SetItemsProcessed(state.iterations() * kReports);
}
BENCHMARK(BM_OlhDeferredDecode)->Arg(1 << 8)->Arg(1 << 12);

void BM_HrrEncode(benchmark::State& state) {
  uint64_t d = state.range(0);
  auto oracle = MakeOracle(OracleKind::kHrr, d, kEps);
  Rng rng(1);
  uint64_t v = 0;
  for (auto _ : state) {
    oracle->SubmitValue(v++ % d, rng);  // O(1) per user
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HrrEncode)->Arg(1 << 8)->Arg(1 << 20);

void BM_HrrDecode(benchmark::State& state) {
  uint64_t d = state.range(0);
  HrrOracle oracle(d, kEps);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    oracle.SubmitValue(i % d, rng);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.EstimateFractions());
  }
  state.SetComplexityN(d);
}
BENCHMARK(BM_HrrDecode)->Arg(1 << 8)->Arg(1 << 16)->Arg(1 << 20);

void BM_OueDecode(benchmark::State& state) {
  uint64_t d = state.range(0);
  OueOracle oracle(d, kEps, OueOracle::Mode::kSimulated);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    oracle.SubmitValue(i % d, rng);
  }
  oracle.Finalize(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.EstimateFractions());
  }
}
BENCHMARK(BM_OueDecode)->Arg(1 << 8)->Arg(1 << 20);

void BM_FastWalshHadamard(benchmark::State& state) {
  uint64_t d = state.range(0);
  Rng rng(1);
  std::vector<double> data(d);
  for (double& v : data) {
    v = rng.UniformDouble();
  }
  for (auto _ : state) {
    std::vector<double> copy = data;
    FastWalshHadamard(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetComplexityN(d);
}
BENCHMARK(BM_FastWalshHadamard)
    ->Arg(1 << 10)
    ->Arg(1 << 16)
    ->Arg(1 << 18)
    ->Arg(1 << 20);

}  // namespace

BENCHMARK_MAIN();
