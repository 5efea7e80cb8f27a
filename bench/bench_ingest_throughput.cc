// Report-ingestion throughput: the batched/sharded pipeline this library
// uses to absorb millions of user reports, versus the textbook one-report-
// at-a-time baseline.
//
// The headline comparison is OLH ingestion + finalize, whose O(N*D) support
// scan is the aggregation bottleneck the paper flags (Section 3.2):
//   * Eager          — the seed implementation: a full O(D) domain scan per
//                      report inside SubmitValue, single thread.
//   * DeferredSingle — reports are only appended at ingest; Finalize runs
//                      one cache-blocked, branchless support scan on one
//                      thread.
//   * DeferredSharded — the same scan parallelized over reports with
//                      per-thread support accumulators (one per hardware
//                      core).
// All three produce bit-identical support counts (tests/olh_test.cc).
//
// The mechanism-level benches measure the end-to-end EncodeUsers batch path
// and sharded EncodePointsSharded ingestion for the paper's three mechanism
// families (BM_MechanismEncodeUsersSharded keeps its name, so recorded
// baselines still match).
//
// Release-mode numbers for this binary are checked in as
// BENCH_baseline.json (see bench/run_baselines.sh); later PRs claim
// speedups against those. CI runs only the */1024 cases as a smoke test.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "common/random.h"
#include "core/method.h"
#include "frequency/olh.h"

namespace {

using namespace ldp;  // NOLINT(build/namespaces)

constexpr double kEps = 1.1;  // the paper's default, g = e^eps + 1 = 4

// A fixed pseudo-random population over [0, d): ingestion cost does not
// depend on the value distribution, only on N and D.
std::vector<uint64_t> MakeValues(uint64_t n, uint64_t d) {
  std::vector<uint64_t> values(n);
  Rng rng(7);
  for (uint64_t& v : values) {
    v = rng.UniformInt(d);
  }
  return values;
}

enum class OlhVariant { kEager, kDeferredSingle, kDeferredSharded };

void RunOlhIngest(benchmark::State& state, OlhVariant variant) {
  const uint64_t d = state.range(0);
  const uint64_t n = state.range(1);
  const std::vector<uint64_t> values = MakeValues(n, d);
  for (auto _ : state) {
    OlhOracle oracle(d, kEps, /*g_override=*/0,
                     variant == OlhVariant::kEager ? OlhDecode::kEager
                                                   : OlhDecode::kDeferred);
    oracle.set_decode_threads(
        variant == OlhVariant::kDeferredSharded ? 0 : 1);
    Rng rng(42);
    oracle.SubmitBatch(values, rng);
    oracle.Finalize(rng);
    benchmark::DoNotOptimize(oracle.SupportCounts().data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["threads"] = static_cast<double>(
      variant == OlhVariant::kDeferredSharded ? HardwareThreads() : 1);
}

void BM_OlhIngestFinalize_Eager(benchmark::State& state) {
  RunOlhIngest(state, OlhVariant::kEager);
}
void BM_OlhIngestFinalize_DeferredSingle(benchmark::State& state) {
  RunOlhIngest(state, OlhVariant::kDeferredSingle);
}
void BM_OlhIngestFinalize_DeferredSharded(benchmark::State& state) {
  RunOlhIngest(state, OlhVariant::kDeferredSharded);
}

// {D, N}. The acceptance case is D = 2^16; the 1024 rows are the CI smoke
// (fast enough for every variant). N is kept moderate because the eager
// baseline is O(N*D).
#define OLH_INGEST_ARGS \
  ->Args({1 << 10, 1 << 12})->Args({1 << 16, 1 << 11})->Unit(benchmark::kMillisecond)

BENCHMARK(BM_OlhIngestFinalize_Eager) OLH_INGEST_ARGS;
BENCHMARK(BM_OlhIngestFinalize_DeferredSingle) OLH_INGEST_ARGS;
BENCHMARK(BM_OlhIngestFinalize_DeferredSharded) OLH_INGEST_ARGS;

// Ingest-only view (no finalize): what a live collection endpoint pays per
// report while the stream is still open.
void BM_OlhSubmitBatch_Deferred(benchmark::State& state) {
  const uint64_t d = state.range(0);
  const uint64_t n = state.range(1);
  const std::vector<uint64_t> values = MakeValues(n, d);
  for (auto _ : state) {
    OlhOracle oracle(d, kEps);
    Rng rng(42);
    oracle.SubmitBatch(values, rng);
    benchmark::DoNotOptimize(oracle.pending_reports());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_OlhSubmitBatch_Deferred)
    ->Args({1 << 10, 1 << 15})
    ->Args({1 << 16, 1 << 15})
    ->Unit(benchmark::kMillisecond);

MethodSpec MechanismSpec(int id) {
  switch (id) {
    case 0:
      return MethodSpec::Flat(OracleKind::kOueSimulated);
    case 1:
      return MethodSpec::Hh(4, OracleKind::kOueSimulated, true);
    default:
      return MethodSpec::Haar();
  }
}

void RunMechanismIngest(benchmark::State& state, bool sharded) {
  const uint64_t d = state.range(0);
  const uint64_t n = state.range(1);
  const MethodSpec spec = MechanismSpec(static_cast<int>(state.range(2)));
  const std::vector<uint64_t> values = MakeValues(n, d);
  for (auto _ : state) {
    auto mech = MakeMechanism(spec, d, kEps);
    if (sharded) {
      EncodePointsSharded(*mech, values, /*seed=*/42, /*threads=*/0);
    } else {
      Rng rng(42);
      mech->EncodeUsers(values, rng);
    }
    benchmark::DoNotOptimize(mech->user_count());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.SetLabel(spec.Name());
}

void BM_MechanismEncodeUsers(benchmark::State& state) {
  RunMechanismIngest(state, /*sharded=*/false);
}
void BM_MechanismEncodeUsersSharded(benchmark::State& state) {
  RunMechanismIngest(state, /*sharded=*/true);
}

// {D, N, spec id}.
#define MECH_INGEST_ARGS                                            \
  ->Args({1 << 10, 1 << 15, 0})->Args({1 << 10, 1 << 15, 1})        \
      ->Args({1 << 10, 1 << 15, 2})->Args({1 << 16, 1 << 18, 1})    \
      ->Args({1 << 16, 1 << 18, 2})->Unit(benchmark::kMillisecond)

BENCHMARK(BM_MechanismEncodeUsers) MECH_INGEST_ARGS;
BENCHMARK(BM_MechanismEncodeUsersSharded) MECH_INGEST_ARGS;

}  // namespace

BENCHMARK_MAIN();
