#include "core/range_mechanism.h"

#include <algorithm>
#include <mutex>

#include "common/check.h"
#include "common/hash.h"
#include "common/parallel.h"

namespace ldp {

MechanismBase::MechanismBase(uint64_t domain, double eps)
    : domain_(domain), eps_(eps) {
  LDP_CHECK_GE(domain, 2u);
  LDP_CHECK_MSG(eps > 0.0, "epsilon must be positive");
}

void MechanismBase::EncodePoints(std::span<const uint64_t> coords, Rng& rng) {
  const size_t d = dimensions();
  LDP_CHECK_EQ(coords.size() % d, 0u);
  for (size_t i = 0; i < coords.size(); i += d) {
    EncodePoint(coords.data() + i, rng);
  }
}

std::unique_ptr<MechanismBase> MechanismBase::CloneEmptyBase() const {
  return nullptr;
}

void MechanismBase::MergeFromBase(const MechanismBase& /*other*/) {
  LDP_CHECK_MSG(false, "this mechanism does not support sharded ingestion");
}

RangeMechanism::RangeMechanism(uint64_t domain, double eps)
    : MechanismBase(domain, eps) {}

void RangeMechanism::EncodeUsers(std::span<const uint64_t> values, Rng& rng) {
  for (uint64_t value : values) {
    EncodeUser(value, rng);
  }
}

std::unique_ptr<RangeMechanism> RangeMechanism::CloneEmpty() const {
  return nullptr;
}

void RangeMechanism::MergeFrom(const RangeMechanism& /*other*/) {
  LDP_CHECK_MSG(false, "this mechanism does not support sharded ingestion");
}

void RangeMechanism::EncodePoint(const uint64_t* coords, Rng& rng) {
  EncodeUser(coords[0], rng);
}

void RangeMechanism::EncodePoints(std::span<const uint64_t> coords,
                                  Rng& rng) {
  EncodeUsers(coords, rng);
}

std::unique_ptr<MechanismBase> RangeMechanism::CloneEmptyBase() const {
  return CloneEmpty();
}

void RangeMechanism::MergeFromBase(const MechanismBase& other) {
  const auto* o = dynamic_cast<const RangeMechanism*>(&other);
  LDP_CHECK_MSG(o != nullptr, "MergeFromBase requires a RangeMechanism");
  MergeFrom(*o);
}

double RangeMechanism::BoxQuery(std::span<const AxisInterval> box) const {
  LDP_CHECK_EQ(box.size(), size_t{1});
  return RangeQuery(box[0].lo, box[0].hi);
}

RangeEstimate RangeMechanism::BoxQueryWithUncertainty(
    std::span<const AxisInterval> box) const {
  LDP_CHECK_EQ(box.size(), size_t{1});
  return RangeQueryWithUncertainty(box[0].lo, box[0].hi);
}

uint64_t RangeMechanism::QuantileQuery(double phi) const {
  LDP_CHECK(phi >= 0.0 && phi <= 1.0);
  // Binary search for the smallest j with PrefixQuery(j) >= phi. Prefix
  // estimates are noisy and need not be monotone; the search still
  // terminates and lands within the noise envelope of the true quantile
  // (paper Section 4.7 evaluates exactly this procedure).
  uint64_t lo = 0;
  uint64_t hi = domain_ - 1;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (PrefixQuery(mid) >= phi) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

namespace {

// Logical chunk length (in users) of the sharded driver. Fixed (not derived
// from the thread count) so that the per-chunk Rng streams — and therefore
// the final aggregate — do not depend on how many workers happen to run.
constexpr uint64_t kEncodeChunk = uint64_t{1} << 14;

// Deterministic, well-mixed seed for chunk c of a run keyed by `seed`.
uint64_t ChunkSeed(uint64_t seed, uint64_t c) {
  return Mix64(seed + 0x9E3779B97F4A7C15ULL * (c + 1));
}

}  // namespace

void EncodePointsSharded(MechanismBase& mechanism,
                         std::span<const uint64_t> coords, uint64_t seed,
                         unsigned threads) {
  const uint64_t d = mechanism.dimensions();
  LDP_CHECK_EQ(coords.size() % d, size_t{0});
  const uint64_t n = coords.size() / d;
  if (n == 0) return;
  const uint64_t num_chunks = (n + kEncodeChunk - 1) / kEncodeChunk;
  if (threads == 0) threads = HardwareThreads();
  if (threads <= 1 || num_chunks == 1) {
    // Same chunked Rng streams, no forking: bit-identical to the
    // multi-threaded result.
    for (uint64_t c = 0; c < num_chunks; ++c) {
      uint64_t begin = c * kEncodeChunk;
      uint64_t end = std::min(n, begin + kEncodeChunk);
      Rng rng(ChunkSeed(seed, c));
      mechanism.EncodePoints(coords.subspan(begin * d, (end - begin) * d),
                             rng);
    }
    return;
  }
  std::mutex mu;
  ParallelFor(num_chunks, threads,
              [&](unsigned /*worker*/, uint64_t first, uint64_t last) {
                std::unique_ptr<MechanismBase> shard =
                    mechanism.CloneEmptyBase();
                LDP_CHECK_MSG(shard != nullptr,
                              "mechanism does not support sharded ingestion");
                for (uint64_t c = first; c < last; ++c) {
                  uint64_t begin = c * kEncodeChunk;
                  uint64_t end = std::min(n, begin + kEncodeChunk);
                  Rng rng(ChunkSeed(seed, c));
                  shard->EncodePoints(
                      coords.subspan(begin * d, (end - begin) * d), rng);
                }
                std::lock_guard<std::mutex> lock(mu);
                mechanism.MergeFromBase(*shard);
              });
}

}  // namespace ldp
