#include "service/aggregator_server.h"

#include <bit>

#include "common/check.h"
#include "common/huge_pages.h"
#include "obs/scoped_timer.h"

namespace ldp::service {

namespace {

// Epsilon equality for merge compatibility: exact bit pattern, so two
// servers whose budgets differ in the last ulp never silently mix.
bool SameEpsilonBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

}  // namespace

double AggregatorServer::BoxQuery(std::span<const AxisInterval> box) const {
  LDP_CHECK_EQ(box.size(), size_t{1});
  return RangeQuery(box[0].lo, box[0].hi);
}

RangeEstimate AggregatorServer::BoxQueryWithUncertainty(
    std::span<const AxisInterval> box) const {
  LDP_CHECK_EQ(box.size(), size_t{1});
  return RangeQueryWithUncertainty(box[0].lo, box[0].hi);
}

protocol::ParseError AggregatorServer::AbsorbBatchSerialized(
    std::span<const uint8_t> bytes, uint64_t* accepted) {
  obs::ScopedTimer timer(&absorb_batch_ns_, "server.absorb_batch");
  return DoAbsorbBatchSerialized(bytes, accepted);
}

void AggregatorServer::Finalize() {
  LDP_CHECK_MSG(!finalized_, "Finalize called twice");
  {
    obs::ScopedTimer timer(&finalize_ns_, "server.finalize");
    DoFinalize();
  }
  finalized_ = true;
}

std::vector<uint8_t> AggregatorServer::SerializeState() const {
  obs::ScopedTimer timer(&snapshot_serialize_ns_, "server.snapshot_serialize");
  StateSnapshotHeader header;
  header.kind = state_kind();
  header.dimensions = dimensions();
  header.domain = domain();
  header.fanout = state_fanout();
  header.eps = state_epsilon();
  ServerStats counts = stats();
  header.accepted = counts.accepted;
  header.rejected = counts.rejected;
  const size_t body_bytes = StateBodyBytes();
  // A TreeHRR frame at D = 2^20 is 11 MB: its whole 2 MiB pages are
  // advised for huge pages before the header and body first touch them.
  std::vector<uint8_t> out;
  out.reserve(kMaxStateSnapshotHeaderBytes + body_bytes);
  AdviseHugePages(out.data(), out.capacity());
  const size_t frame = BeginStateSnapshot(out, header);
  const size_t body_start = out.size();
  AppendStateBody(out);
  LDP_CHECK_EQ(out.size() - body_start, body_bytes);
  protocol::PatchEnvelopePayloadLength(out, frame);
  return out;
}

MergeStatus AggregatorServer::MergeSerializedState(
    std::span<const uint8_t> snapshot) {
  if (finalized_) return MergeStatus::kAlreadyFinalized;
  StateSnapshotHeader header;
  if (ParseStateSnapshot(snapshot, &header) != protocol::ParseError::kOk) {
    return MergeStatus::kMalformedSnapshot;
  }
  MergeStatus status = CheckSnapshotHeader(header);
  if (status != MergeStatus::kOk) return status;
  std::unique_ptr<AggregatorServer> shard;
  status = RestoreShard(header, &shard);
  if (status != MergeStatus::kOk) return status;
  return MergeFrom(*shard);
}

MergeStatus AggregatorServer::CheckSnapshotHeader(
    const StateSnapshotHeader& header) const {
  if (header.kind != state_kind()) return MergeStatus::kMechanismMismatch;
  if (header.dimensions != dimensions() || header.domain != domain() ||
      header.fanout != state_fanout() ||
      !SameEpsilonBits(header.eps, state_epsilon())) {
    return MergeStatus::kConfigMismatch;
  }
  return MergeStatus::kOk;
}

MergeStatus AggregatorServer::RestoreShard(
    const StateSnapshotHeader& header,
    std::unique_ptr<AggregatorServer>* shard) const {
  // Restore into a fresh clone, not into *this: a body that fails
  // mid-restore is discarded with the clone and this server's aggregate
  // stays untouched.
  std::unique_ptr<AggregatorServer> restored = CloneForSnapshot(header);
  if (!restored->RestoreStateBody(header.body)) {
    return MergeStatus::kMalformedSnapshot;
  }
  *shard = std::move(restored);
  return MergeStatus::kOk;
}

bool AggregatorServer::RestoreStateBody(std::span<const uint8_t> body) {
  std::optional<HrrStateDecoder> decoder = StateBodyDecoder();
  return decoder.has_value() && decoder->Restore(body);
}

std::unique_ptr<AggregatorServer> AggregatorServer::CloneForSnapshot(
    const StateSnapshotHeader& header) const {
  std::unique_ptr<AggregatorServer> clone = DoCloneEmpty();
  clone->stats_.CountAccepted(header.accepted);
  clone->stats_.CountRejected(header.rejected);
  return clone;
}

MergeStatus AggregatorServer::MergeFrom(AggregatorServer& other) {
  if (finalized_ || other.finalized_) return MergeStatus::kAlreadyFinalized;
  if (other.state_kind() != state_kind()) {
    return MergeStatus::kMechanismMismatch;
  }
  if (other.dimensions() != dimensions() || other.domain() != domain() ||
      other.state_fanout() != state_fanout() ||
      !SameEpsilonBits(other.state_epsilon(), state_epsilon())) {
    return MergeStatus::kConfigMismatch;
  }
  MergeStatus status = DoMergeFrom(other);
  if (status != MergeStatus::kOk) return status;
  ServerStats counts = other.stats();
  stats_.CountAccepted(counts.accepted);
  stats_.CountRejected(counts.rejected);
  return MergeStatus::kOk;
}

uint64_t AggregatorServer::QuantileQuery(double phi) const {
  LDP_CHECK_MSG(finalized_, "QuantileQuery before Finalize");
  LDP_CHECK(phi >= 0.0 && phi <= 1.0);
  // Prefix estimates are noisy and need not be monotone; the search still
  // terminates and lands within the noise envelope of the true quantile
  // (paper Section 4.7 evaluates exactly this procedure).
  uint64_t lo = 0;
  uint64_t hi = domain() - 1;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (RangeQuery(0, mid) >= phi) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

}  // namespace ldp::service
