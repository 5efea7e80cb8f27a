#include "frequency/olh.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/bit_util.h"
#include "common/check.h"
#include "common/cpu_dispatch.h"
#include "common/hash.h"
#include "common/parallel.h"
#include "frequency/grr.h"
#include "frequency/olh_support_scan.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"
#include "protocol/wire.h"

namespace ldp {

namespace {

// Local always-inlined copy of Mix64 (common/hash.cc). It must mirror that
// definition bit for bit — the Olh.DeferredMatchesEagerSupport test guards
// the pairing. The duplication is deliberate: the deferred kernel's
// throughput lives or dies on this inlining into the blocked loop, while
// hash.cc keeps the out-of-line definition the eager baseline calls.
inline uint64_t DecodeMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

// The support-scan kernel (see olh_support_scan.inc for the body and its
// blocking scheme), compiled once per SIMD tier and selected at runtime
// through ResolvedSimdTier() — the manual-dispatch layer of
// common/cpu_dispatch.h, so --dispatch= overrides apply and the variants
// exist under clang and sanitizers too.
#define LDP_SCAN_TARGET
#define LDP_SCAN_NAME AccumulateSupportScalar
#include "frequency/olh_support_scan.inc"

#if LDP_SIMD_MANUAL_X86
#define LDP_SCAN_TARGET __attribute__((target("avx2,fma")))
#define LDP_SCAN_NAME AccumulateSupportAvx2
#include "frequency/olh_support_scan.inc"

#define LDP_SCAN_TARGET \
  __attribute__((target("avx512f,avx512bw,avx512dq,avx512vl")))
#define LDP_SCAN_NAME AccumulateSupportAvx512
#include "frequency/olh_support_scan.inc"
#endif  // LDP_SIMD_MANUAL_X86

}  // namespace

void OlhAccumulateSupport(const uint64_t* seeds, const uint32_t* cells,
                          uint64_t n, uint64_t g, uint64_t domain,
                          uint64_t* support) {
#if LDP_SIMD_MANUAL_X86
  switch (ResolvedSimdTier()) {
    case SimdTier::kAvx512:
      AccumulateSupportAvx512(seeds, cells, n, g, domain, support);
      return;
    case SimdTier::kAvx2:
      AccumulateSupportAvx2(seeds, cells, n, g, domain, support);
      return;
    default:
      break;
  }
#endif
  AccumulateSupportScalar(seeds, cells, n, g, domain, support);
}

uint64_t OlhOptimalHashRange(double eps) {
  // Clamp before rounding: std::llround(std::exp(eps)) overflows long long
  // for eps >~ 44 (undefined behavior). Also catches a non-finite e^eps.
  double e = std::exp(eps);
  if (!(e < static_cast<double>(kOlhMaxHashRange))) {
    return kOlhMaxHashRange;
  }
  // Clamp again after rounding: e just below 2^24 can round up and the +1
  // overshoot the ceiling.
  uint64_t g = static_cast<uint64_t>(std::llround(e)) + 1;
  if (g > kOlhMaxHashRange) g = kOlhMaxHashRange;
  return g < 2 ? 2 : g;
}

OlhOracle::OlhOracle(uint64_t domain, double eps, uint64_t g_override,
                     OlhDecode decode)
    : FrequencyOracle(domain, eps),
      g_(g_override != 0 ? g_override : OlhOptimalHashRange(eps)),
      decode_(decode),
      support_(domain, 0) {
  LDP_CHECK_GE(domain, 2u);
  LDP_CHECK_GE(g_, 2u);
  LDP_CHECK_LE(g_, kOlhMaxHashRange);
}

double OlhOracle::ReportBits() const {
  // seed (64 bits) + perturbed cell index.
  return 64.0 + static_cast<double>(Log2Ceil(g_));
}

double OlhOracle::EstimatorVariance() const {
  if (reports_ == 0) return std::numeric_limits<double>::infinity();
  // Var = q'(1-q')/(n (p - 1/g)^2) with q' = 1/g the support-collision
  // rate for a non-held item; equals V_F at the optimal g.
  double p = GrrTruthProbability(g_, eps_);
  double q = 1.0 / static_cast<double>(g_);
  double n = static_cast<double>(reports_);
  return q * (1.0 - q) / (n * (p - q) * (p - q));
}

void OlhOracle::IngestValue(uint64_t value, Rng& rng) {
  LDP_CHECK_LT(value, domain_);
  uint64_t seed = rng.Next();
  uint64_t h = SeededHash(seed, value, g_);
  uint64_t reported = GrrPerturb(h, g_, eps_, rng);
  if (decode_ == OlhDecode::kEager) {
    // Aggregation: every item that the sampled hash sends to the reported
    // cell gains one unit of support. This is the O(D)-per-report decode
    // the paper flags as OLH's scaling bottleneck.
    for (uint64_t j = 0; j < domain_; ++j) {
      if (SeededHash(seed, j, g_) == reported) {
        ++support_[j];
      }
    }
  } else {
    pending_seeds_.PushBack(seed);
    pending_cells_.PushBack(static_cast<uint32_t>(reported));
  }
  ++reports_;
}

void OlhOracle::AbsorbReport(uint64_t seed, uint32_t cell) {
  LDP_CHECK_LT(cell, g_);
  if (decode_ == OlhDecode::kDeferred) {
    AppendPendingReport(seed, cell);
    return;
  }
  for (uint64_t j = 0; j < domain_; ++j) {
    if (SeededHash(seed, j, g_) == cell) {
      ++support_[j];
    }
  }
  ++reports_;
}

void OlhOracle::SubmitValue(uint64_t value, Rng& rng) {
  IngestValue(value, rng);
}

void OlhOracle::SubmitBatch(std::span<const uint64_t> values, Rng& rng) {
  ReserveReports(values.size());
  for (uint64_t value : values) {
    IngestValue(value, rng);
  }
}

void OlhOracle::ReserveReports(uint64_t expected) {
  if (decode_ == OlhDecode::kEager) return;
  // Arena columns never relocate, so this is purely a chunk-sizing hint
  // that skips the doubling ramp for pre-sized ingests.
  pending_seeds_.Reserve(expected);
  pending_cells_.Reserve(expected);
}

void OlhOracle::DecodePending() const {
  std::lock_guard<std::mutex> lock(decode_mu_);
  const uint64_t n = pending_seeds_.size();
  if (n == 0) return;
  LDP_CHECK(pending_cells_.size() == n);
  // Process-wide histogram: OLH decodes happen on library threads with no
  // service in sight, so the global registry is the only natural home.
  static obs::LatencyHistogram* const scan_ns =
      &obs::MetricsRegistry::Global().GetHistogram("olh.support_scan_ns");
  obs::ScopedTimer timer(scan_ns, "olh.support_scan");
  // The two columns follow the same append schedule, so their chunk
  // boundaries pair up — zip them into (seeds, cells) segments indexed by
  // the global report position.
  struct Segment {
    const uint64_t* seeds;
    const uint32_t* cells;
    uint64_t begin;  // global index of the segment's first report
    uint64_t size;
  };
  const auto seed_chunks = pending_seeds_.Chunks();
  const auto cell_chunks = pending_cells_.Chunks();
  LDP_CHECK(seed_chunks.size() == cell_chunks.size());
  std::vector<Segment> segments;
  segments.reserve(seed_chunks.size());
  uint64_t offset = 0;
  for (size_t s = 0; s < seed_chunks.size(); ++s) {
    LDP_CHECK(seed_chunks[s].size == cell_chunks[s].size);
    segments.push_back({seed_chunks[s].data, cell_chunks[s].data, offset,
                        seed_chunks[s].size});
    offset += seed_chunks[s].size;
  }
  // Scans the reports in global range [lo, hi) into `support`. Per-segment
  // kernel calls accumulate independent integer counts, so splitting at
  // chunk boundaries cannot change the result.
  auto scan_range = [&](uint64_t lo, uint64_t hi, uint64_t* support) {
    for (const Segment& seg : segments) {
      uint64_t b = std::max(lo, seg.begin);
      uint64_t e = std::min(hi, seg.begin + seg.size);
      if (b >= e) continue;
      OlhAccumulateSupport(seg.seeds + (b - seg.begin),
                           seg.cells + (b - seg.begin), e - b, g_, domain_,
                           support);
    }
  };
  unsigned threads =
      decode_threads_ != 0 ? decode_threads_ : HardwareThreads();
  // Don't fan out for small decodes: each worker costs a thread spawn plus
  // a domain-sized accumulator, which would dominate tiny report queues —
  // and callers like the experiment harness finalize many small oracles
  // from already-parallel trials.
  constexpr uint64_t kMinReportsPerThread = 4096;
  unsigned chunks = static_cast<unsigned>(std::min<uint64_t>(
      std::max(1u, threads), std::max<uint64_t>(1, n / kMinReportsPerThread)));
  if (chunks <= 1) {
    scan_range(0, n, support_.data());
  } else {
    // One support accumulator per chunk (the CloneEmpty/MergeFrom sharding
    // contract, specialized to the raw count vector), first-touched by its
    // worker so the pages stay node-local; the final sums are integer adds,
    // so the result is bit-identical for every thread count.
    std::vector<std::vector<uint64_t>> shard(chunks);
    ParallelFor(n, chunks, [&](unsigned chunk, uint64_t begin, uint64_t end) {
      shard[chunk].assign(domain_, 0);
      scan_range(begin, end, shard[chunk].data());
    });
    for (const std::vector<uint64_t>& s : shard) {
      for (uint64_t j = 0; j < domain_; ++j) {
        support_[j] += s[j];
      }
    }
  }
  // Clear() retains the arena blocks: the next ingest/decode cycle of this
  // session refills them with no system allocation.
  pending_seeds_.Clear();
  pending_cells_.Clear();
}

void OlhOracle::Finalize(Rng& /*rng*/) { DecodePending(); }

const std::vector<uint64_t>& OlhOracle::SupportCounts() const {
  DecodePending();
  return support_;
}

std::vector<double> OlhOracle::EstimateFractions() const {
  DecodePending();
  std::vector<double> est(domain_, 0.0);
  if (reports_ == 0) return est;
  double p = GrrTruthProbability(g_, eps_);
  double q = 1.0 / static_cast<double>(g_);
  double n = static_cast<double>(reports_);
  for (uint64_t j = 0; j < domain_; ++j) {
    est[j] = (static_cast<double>(support_[j]) / n - q) / (p - q);
  }
  return est;
}

std::unique_ptr<FrequencyOracle> OlhOracle::CloneEmpty() const {
  return std::make_unique<OlhOracle>(domain_, eps_, g_, decode_);
}

void OlhOracle::MergeFrom(const FrequencyOracle& other) {
  CheckMergeCompatible(other);
  const auto* o = dynamic_cast<const OlhOracle*>(&other);
  LDP_CHECK_MSG(o != nullptr, "MergeFrom requires an OlhOracle");
  LDP_CHECK(o->g_ == g_);
  for (uint64_t j = 0; j < domain_; ++j) {
    support_[j] += o->support_[j];
  }
  // Splice the shard's undecoded reports in O(1): the columns adopt the
  // shard's arena blocks, no bytes are copied. This consumes the source's
  // pending queue — allowed by the merge contract (shards are merged once
  // and then discarded).
  pending_seeds_.Adopt(std::move(o->pending_seeds_));
  pending_cells_.Adopt(std::move(o->pending_cells_));
  reports_ += o->reports_;
}

void OlhOracle::AppendState(std::vector<uint8_t>& out) const {
  std::lock_guard<std::mutex> lock(decode_mu_);
  const uint64_t pending = pending_seeds_.size();
  const uint64_t decoded = reports_ - pending;
  protocol::AppendVarU64(out, reports_);
  protocol::AppendU8(out, decoded > 0 ? 1 : 0);
  if (decoded > 0) protocol::AppendU64Array(out, support_);
  protocol::AppendVarU64(out, pending);
  // The two columns follow the same append schedule (see DecodePending),
  // so zipping paired chunks walks the reports in ingest order.
  const auto seed_chunks = pending_seeds_.Chunks();
  const auto cell_chunks = pending_cells_.Chunks();
  LDP_CHECK(seed_chunks.size() == cell_chunks.size());
  for (size_t s = 0; s < seed_chunks.size(); ++s) {
    LDP_CHECK(seed_chunks[s].size == cell_chunks[s].size);
    for (uint64_t i = 0; i < seed_chunks[s].size; ++i) {
      protocol::AppendU64(out, seed_chunks[s].data[i]);
      protocol::AppendU32(out, cell_chunks[s].data[i]);
    }
  }
}

size_t OlhOracle::StateBytes() const {
  std::lock_guard<std::mutex> lock(decode_mu_);
  const uint64_t pending = pending_seeds_.size();
  // Mirrors AppendState: the support section is present exactly when
  // some report has been decoded; each pending record is 8 + 4 bytes.
  return protocol::VarU64Size(reports_) + 1 +
         (reports_ > pending ? 8 * support_.size() : 0) +
         protocol::VarU64Size(pending) + 12 * pending;
}

bool OlhOracle::RestoreState(protocol::WireReader& reader) {
  uint64_t reports = 0;
  uint8_t decoded_flag = 0;
  if (!reader.ReadVarU64(&reports) || !reader.ReadU8(&decoded_flag)) {
    return false;
  }
  if (decoded_flag > 1) return false;
  // support_ is sized by this oracle's own configuration (domain_),
  // never by a wire value.
  if (decoded_flag == 1 &&
      !reader.ReadU64Array(support_.size(), support_.data())) {
    return false;
  }
  uint64_t pending = 0;
  if (!reader.ReadVarU64(&pending)) return false;
  if (pending > reports) return false;
  // Canonical-flag rule: the support section is present exactly when some
  // report has already been decoded into it.
  if ((decoded_flag == 1) != (reports - pending > 0)) return false;
  // Floor check: each pending report costs 12 bytes on the wire, so a
  // forged count beyond what the buffer can hold fails before any append
  // drives allocation. (Division avoids overflow on adversarial counts.)
  constexpr uint64_t kPendingWireBytes = 12;
  if (pending > reader.Remaining() / kPendingWireBytes) return false;
  pending_seeds_.Reserve(pending);
  pending_cells_.Reserve(pending);
  for (uint64_t i = 0; i < pending; ++i) {
    uint64_t seed = 0;
    uint32_t cell = 0;
    if (!reader.ReadU64(&seed) || !reader.ReadU32(&cell)) return false;
    if (cell >= g_) return false;
    pending_seeds_.PushBack(seed);
    pending_cells_.PushBack(cell);
  }
  reports_ = reports;
  return true;
}

}  // namespace ldp
