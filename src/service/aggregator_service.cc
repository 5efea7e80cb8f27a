#include "service/aggregator_service.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "obs/scoped_timer.h"
#include "obs/stats_wire.h"
#include "protocol/envelope.h"
#include "service/state_wire.h"

namespace ldp::service {

using protocol::DecodeEnvelope;
using protocol::Envelope;
using protocol::MechanismTag;

AggregatorService::ServiceCounters::ServiceCounters(
    obs::MetricsRegistry& registry)
    : messages{&registry.GetCounter("service.messages")},
      malformed_messages{&registry.GetCounter("service.malformed_messages")},
      duplicate_sessions{&registry.GetCounter("service.duplicate_sessions")},
      rejected_sessions{&registry.GetCounter("service.rejected_sessions")},
      unknown_sessions{&registry.GetCounter("service.unknown_sessions")},
      duplicate_chunks{&registry.GetCounter("service.duplicate_chunks")},
      late_chunks{&registry.GetCounter("service.late_chunks")},
      incomplete_streams{&registry.GetCounter("service.incomplete_streams")},
      oversized_declarations{
          &registry.GetCounter("service.oversized_declarations")},
      chunks_enqueued{&registry.GetCounter("service.chunks_enqueued")},
      chunks_absorbed{&registry.GetCounter("service.chunks_absorbed")},
      backpressure_waits{&registry.GetCounter("service.backpressure_waits")},
      socket_pauses{&registry.GetCounter("service.socket_pauses")},
      queries_answered{&registry.GetCounter("service.queries_answered")},
      merge_requests{&registry.GetCounter("service.merge_requests")},
      merge_rejects{&registry.GetCounter("service.merge_rejects")},
      merge_would_block{&registry.GetCounter("service.merge_would_block")},
      merges_completed{&registry.GetCounter("service.merges_completed")},
      sessions_begun{&registry.GetCounter("service.sessions_begun")},
      sessions_completed{&registry.GetCounter("service.sessions_completed")},
      finalizes{&registry.GetCounter("service.finalizes")} {}

AggregatorService::AggregatorService(unsigned worker_threads,
                                     size_t queue_high_water,
                                     size_t max_sessions)
    : queue_high_water_(queue_high_water == 0 ? 1 : queue_high_water),
      max_sessions_(max_sessions == 0 ? 1 : max_sessions) {
  // worker_threads == 0 is inline mode: no pool, chunks absorbed on the
  // caller's thread inside HandleMessage.
  workers_.reserve(worker_threads);
  for (unsigned i = 0; i < worker_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

AggregatorService::~AggregatorService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  queue_space_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

uint64_t AggregatorService::AddServer(
    std::unique_ptr<AggregatorServer> server) {
  LDP_CHECK(server != nullptr);
  auto entry = std::make_unique<ServerEntry>();
  entry->server = std::move(server);
  std::lock_guard<std::mutex> lock(mu_);
  entries_.push_back(std::move(entry));
  return entries_.size() - 1;
}

AggregatorServer& AggregatorService::server(uint64_t server_id) {
  LDP_CHECK_LT(server_id, entries_.size());
  return *entries_[server_id]->server;
}

const AggregatorServer& AggregatorService::server(uint64_t server_id) const {
  LDP_CHECK_LT(server_id, entries_.size());
  return *entries_[server_id]->server;
}

std::vector<uint8_t> AggregatorService::HandleMessage(
    std::span<const uint8_t> bytes) {
  // Counters are registry atomics: no lock needed just to account.
  ++stats_.messages;
  Envelope env;
  if (DecodeEnvelope(bytes, &env) != protocol::ParseError::kOk) {
    ++stats_.malformed_messages;
    return {};
  }
  switch (env.mechanism) {
    case MechanismTag::kStreamBegin:
      HandleStreamBegin(bytes);
      return {};
    case MechanismTag::kStreamChunk: {
      StreamChunk msg;
      if (ParseStreamChunk(bytes, &msg) != protocol::ParseError::kOk) {
        ++stats_.malformed_messages;
        return {};
      }
      // Copy the nested batch out of the caller's buffer before it goes
      // async (the move overload keeps the whole buffer instead).
      QueuedChunk chunk;
      chunk.buffer.assign(msg.payload.begin(), msg.payload.end());
      EnqueueChunk(msg.session_id, msg.sequence, std::move(chunk));
      return {};
    }
    case MechanismTag::kStreamEnd:
      HandleStreamEnd(bytes);
      return {};
    case MechanismTag::kRangeQueryRequest:
      return HandleRangeQuery(bytes);
    case MechanismTag::kMultiDimQuery:
      return HandleMultiDimQuery(bytes);
    case MechanismTag::kStatsQuery:
      return HandleStatsQuery(bytes);
    case MechanismTag::kStateMerge:
      return HandleStateMerge(bytes);
    default: {
      // Bare reports/batches are not routable here: they carry no target
      // server id. Stream them (or ingest in-process via the server's
      // AbsorbBatchSerialized) instead.
      ++stats_.malformed_messages;
      return {};
    }
  }
}

std::vector<uint8_t> AggregatorService::HandleMessage(
    std::vector<uint8_t>&& bytes) {
  // Only the chunk path benefits from ownership (its payload outlives
  // the call on the ingestion queue); everything else reads the bytes
  // synchronously.
  Envelope env;
  if (DecodeEnvelope(bytes, &env) == protocol::ParseError::kOk &&
      env.mechanism == MechanismTag::kStreamChunk) {
    StreamChunk msg;
    ++stats_.messages;
    if (ParseStreamChunk(bytes, &msg) != protocol::ParseError::kOk) {
      ++stats_.malformed_messages;
      return {};
    }
    QueuedChunk chunk;
    chunk.nested_offset =
        static_cast<size_t>(msg.payload.data() - bytes.data());
    chunk.buffer = std::move(bytes);
    EnqueueChunk(msg.session_id, msg.sequence, std::move(chunk));
    return {};
  }
  return HandleMessage(std::span<const uint8_t>(bytes));
}

AggregatorService::AdmitResult AggregatorService::TryHandleMessage(
    std::vector<uint8_t>& bytes, std::vector<uint8_t>* response,
    uint64_t* blocked_server) {
  response->clear();
  Envelope env;
  if (DecodeEnvelope(bytes, &env) != protocol::ParseError::kOk ||
      env.mechanism != MechanismTag::kStreamChunk) {
    // Everything except a chunk is handled synchronously and can never
    // block; delegate to the owning overload.
    *response = HandleMessage(std::move(bytes));
    return AdmitResult::kHandled;
  }
  StreamChunk msg;
  if (ParseStreamChunk(bytes, &msg) != protocol::ParseError::kOk) {
    ++stats_.messages;
    ++stats_.malformed_messages;
    return AdmitResult::kHandled;
  }
  const size_t nested_offset =
      static_cast<size_t>(msg.payload.data() - bytes.data());
  std::unique_lock<std::mutex> lock(mu_);
  auto it = sessions_.find(msg.session_id);
  if (it == sessions_.end()) {
    ++stats_.messages;
    ++stats_.unknown_sessions;
    return AdmitResult::kHandled;
  }
  IngestSession& session = it->second;
  ServerEntry& entry = *entries_[session.server_id()];
  if (entry.state != EntryState::kLive || session.ended()) {
    ++stats_.messages;
    ++stats_.late_chunks;
    return AdmitResult::kHandled;
  }
  if (!session.CanAdmit(msg.sequence)) {
    // Duplicates and out-of-policy sequences are dropped without ever
    // consulting the queue — same accounting as the blocking path, and
    // no pause for a chunk that would not be admitted anyway.
    ++stats_.messages;
    ++stats_.duplicate_chunks;
    return AdmitResult::kHandled;
  }
  if (!workers_.empty() && entry.queue.size() >= queue_high_water_) {
    // The strand is congested. Unlike EnqueueChunk this does NOT block
    // and does NOT admit the sequence: the caller pauses its input and
    // re-presents the identical bytes after the queue-drain hook fires.
    ++stats_.socket_pauses;
    if (blocked_server != nullptr) *blocked_server = session.server_id();
    return AdmitResult::kWouldBlock;
  }
  ++stats_.messages;
  LDP_CHECK(session.AdmitChunk(msg.sequence));
  const uint64_t server_id = session.server_id();
  QueuedChunk chunk;
  chunk.nested_offset = nested_offset;
  chunk.buffer = std::move(bytes);
  chunk.enqueue_ns = obs::NowNanos();
  entry.queue.push_back(std::move(chunk));
  ++stats_.chunks_enqueued;
  queue_depth_->Add(1);
  ScheduleLocked(lock, server_id);
  return AdmitResult::kHandled;
}

void AggregatorService::SetQueueDrainHook(
    std::function<void(uint64_t)> hook) {
  std::lock_guard<std::mutex> lock(hook_mu_);
  queue_drain_hook_ = std::move(hook);
}

void AggregatorService::NotifyQueueDrain(uint64_t server_id) {
  // An inline service never pauses a reader: TryHandleMessage returns
  // kWouldBlock only when there are workers (inline admission absorbs on
  // the caller's thread, so no queue can fill). With nothing to re-arm,
  // skip the hook — a front-end would otherwise wake its event loop for
  // every absorbed chunk.
  if (workers_.empty()) return;
  std::lock_guard<std::mutex> lock(hook_mu_);
  if (queue_drain_hook_) queue_drain_hook_(server_id);
}

void AggregatorService::HandleStreamBegin(std::span<const uint8_t> bytes) {
  StreamBegin msg;
  std::lock_guard<std::mutex> lock(mu_);
  if (ParseStreamBegin(bytes, &msg) != protocol::ParseError::kOk ||
      msg.server_id >= entries_.size()) {
    ++stats_.malformed_messages;
    return;
  }
  if (sessions_.size() >= max_sessions_ &&
      !sessions_.contains(msg.session_id)) {
    ++stats_.rejected_sessions;
    return;
  }
  if (!sessions_.try_emplace(msg.session_id, msg.session_id, msg.server_id)
           .second) {
    ++stats_.duplicate_sessions;
  } else {
    ++stats_.sessions_begun;
  }
}

void AggregatorService::EnqueueChunk(uint64_t session_id, uint64_t sequence,
                                     QueuedChunk chunk) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    ++stats_.unknown_sessions;
    return;
  }
  IngestSession& session = it->second;
  ServerEntry& entry = *entries_[session.server_id()];
  if (entry.state != EntryState::kLive) {
    ++stats_.late_chunks;
    return;
  }
  if (session.ended()) {
    ++stats_.late_chunks;
    return;
  }
  if (!session.AdmitChunk(sequence)) {
    ++stats_.duplicate_chunks;
    return;
  }
  const uint64_t server_id = session.server_id();
  // Bounded queue: at the high-water mark the producer BLOCKS until the
  // strand drains — backpressure instead of unbounded buffering or drops.
  // Inline mode never queues (ScheduleLocked absorbs synchronously), so
  // only pooled services can reach the bound. References stay valid
  // across the wait: entries_ holds pointers and sessions_ is node-based.
  if (!workers_.empty() && entry.queue.size() >= queue_high_water_) {
    ++stats_.backpressure_waits;
    queue_space_.wait(lock, [&] {
      return stopping_ || entry.state != EntryState::kLive ||
             entry.queue.size() < queue_high_water_;
    });
    if (stopping_) return;
    if (entry.state != EntryState::kLive) {
      // The server finalized while we were blocked; the chunk is late
      // exactly as if it had arrived after the transition.
      ++stats_.late_chunks;
      return;
    }
  }
  chunk.enqueue_ns = obs::NowNanos();
  entry.queue.push_back(std::move(chunk));
  ++stats_.chunks_enqueued;
  queue_depth_->Add(1);
  ScheduleLocked(lock, server_id);
}

void AggregatorService::HandleStreamEnd(std::span<const uint8_t> bytes) {
  StreamEnd msg;
  std::unique_lock<std::mutex> lock(mu_);
  if (ParseStreamEnd(bytes, &msg) != protocol::ParseError::kOk) {
    ++stats_.malformed_messages;
    return;
  }
  auto it = sessions_.find(msg.session_id);
  if (it == sessions_.end()) {
    ++stats_.unknown_sessions;
    return;
  }
  IngestSession& session = it->second;
  switch (session.End(msg.chunk_count, msg.flags)) {
    case EndResult::kOk:
      break;
    case EndResult::kAlreadyEnded:
      ++stats_.duplicate_sessions;  // replayed end — a retry, not garbage
      return;
    case EndResult::kOversizedDeclaration:
      // No stream can admit that many chunks, so completeness would be
      // silently impossible; reject the declaration (the session stays
      // live for a corrected retry) and count it apart from honest
      // incompleteness.
      ++stats_.oversized_declarations;
      return;
  }
  if (!session.complete()) {
    ++stats_.incomplete_streams;
    return;
  }
  ++stats_.sessions_completed;
  if ((msg.flags & kStreamFlagFinalize) != 0) {
    uint64_t server_id = session.server_id();
    ServerEntry& entry = *entries_[server_id];
    if (entry.state == EntryState::kLive) {
      entry.finalize_pending = true;
      ScheduleLocked(lock, server_id);
    }
  }
}

std::vector<uint8_t> AggregatorService::HandleRangeQuery(
    std::span<const uint8_t> bytes) {
  obs::ScopedTimer timer(query_ns_, "service.query");
  RangeQueryRequest request;
  RangeQueryResponse response;
  if (ParseRangeQueryRequest(bytes, &request) != protocol::ParseError::kOk) {
    ++stats_.malformed_messages;
    ++stats_.queries_answered;
    response.status = QueryStatus::kMalformedRequest;
    return SerializeRangeQueryResponse(response);
  }
  response.query_id = request.query_id;
  const AggregatorServer* target = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.queries_answered;
    if (request.server_id >= entries_.size()) {
      response.status = QueryStatus::kUnknownServer;
    } else if (entries_[request.server_id]->state != EntryState::kFinalized) {
      response.status = QueryStatus::kNotFinalized;
    } else {
      // A finalized server is immutable (late chunks are dropped before
      // they reach it), so queries run outside the lock.
      target = entries_[request.server_id]->server.get();
    }
  }
  if (target == nullptr) {
    return SerializeRangeQueryResponse(response);
  }
  if (request.intervals.empty()) {
    response.status = QueryStatus::kEmptyIntervalList;
    return SerializeRangeQueryResponse(response);
  }
  const uint64_t domain = target->domain();
  for (const QueryInterval& interval : request.intervals) {
    if (interval.lo > interval.hi) {
      response.status = QueryStatus::kIntervalReversed;
      return SerializeRangeQueryResponse(response);
    }
    if (interval.hi >= domain) {
      response.status = QueryStatus::kIntervalOutOfDomain;
      return SerializeRangeQueryResponse(response);
    }
  }
  response.estimates.reserve(request.intervals.size());
  for (const QueryInterval& interval : request.intervals) {
    RangeEstimate estimate =
        target->RangeQueryWithUncertainty(interval.lo, interval.hi);
    response.estimates.push_back(IntervalEstimate{
        estimate.value, estimate.stddev * estimate.stddev});
  }
  return SerializeRangeQueryResponse(response);
}

// Same error ladder as HandleRangeQuery, for axis-aligned boxes: the one
// extra rung is the dimensionality check against the target server (a
// 1-D server still answers dims == 1 requests via the BoxQuery default).
std::vector<uint8_t> AggregatorService::HandleMultiDimQuery(
    std::span<const uint8_t> bytes) {
  obs::ScopedTimer timer(query_ns_, "service.query");
  MultiDimQueryRequest request;
  MultiDimQueryResponse response;
  if (ParseMultiDimQueryRequest(bytes, &request) !=
      protocol::ParseError::kOk) {
    ++stats_.malformed_messages;
    ++stats_.queries_answered;
    response.status = QueryStatus::kMalformedRequest;
    return SerializeMultiDimQueryResponse(response);
  }
  response.query_id = request.query_id;
  const AggregatorServer* target = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.queries_answered;
    if (request.server_id >= entries_.size()) {
      response.status = QueryStatus::kUnknownServer;
    } else if (entries_[request.server_id]->state != EntryState::kFinalized) {
      response.status = QueryStatus::kNotFinalized;
    } else {
      // A finalized server is immutable (late chunks are dropped before
      // they reach it), so queries run outside the lock.
      target = entries_[request.server_id]->server.get();
    }
  }
  if (target == nullptr) {
    return SerializeMultiDimQueryResponse(response);
  }
  if (request.dimensions != target->dimensions()) {
    response.status = QueryStatus::kDimensionMismatch;
    return SerializeMultiDimQueryResponse(response);
  }
  if (request.boxes.empty()) {
    response.status = QueryStatus::kEmptyIntervalList;
    return SerializeMultiDimQueryResponse(response);
  }
  const uint64_t domain = target->domain();
  for (const QueryBox& box : request.boxes) {
    for (const QueryInterval& interval : box.axes) {
      if (interval.lo > interval.hi) {
        response.status = QueryStatus::kIntervalReversed;
        return SerializeMultiDimQueryResponse(response);
      }
      if (interval.hi >= domain) {
        response.status = QueryStatus::kIntervalOutOfDomain;
        return SerializeMultiDimQueryResponse(response);
      }
    }
  }
  response.estimates.reserve(request.boxes.size());
  std::vector<AxisInterval> axes(request.dimensions);
  for (const QueryBox& box : request.boxes) {
    for (uint32_t dim = 0; dim < request.dimensions; ++dim) {
      axes[dim] = AxisInterval{box.axes[dim].lo, box.axes[dim].hi};
    }
    RangeEstimate estimate = target->BoxQueryWithUncertainty(axes);
    response.estimates.push_back(IntervalEstimate{
        estimate.value, estimate.stddev * estimate.stddev});
  }
  return SerializeMultiDimQueryResponse(response);
}

// Answers kStatsQuery with a point-in-time metrics snapshot: the
// service's own registry ("service.*" and whatever front-ends added),
// per-server ingestion counts and stage latency histograms synthesized
// under "server<id>.*" names, and — when the query sets
// kStatsFlagIncludeGlobal — the process-global registry (core-layer
// stage metrics). Snapshotting never stops ingestion: every source is
// lock-free atomics; mu_ is taken only to walk entries_.
std::vector<uint8_t> AggregatorService::HandleStatsQuery(
    std::span<const uint8_t> bytes) {
  obs::ScopedTimer timer(query_ns_, "service.stats_query");
  obs::StatsQuery request;
  obs::StatsResponse response;
  if (obs::ParseStatsQuery(bytes, &request) != protocol::ParseError::kOk) {
    ++stats_.malformed_messages;
    ++stats_.queries_answered;
    response.status = obs::StatsStatus::kMalformedRequest;
    return obs::SerializeStatsResponse(response);
  }
  response.query_id = request.query_id;
  // The queries_answered bump lands before the snapshot so the response
  // always counts itself — the reconciliation tests depend on it.
  ++stats_.queries_answered;
  response.metrics = registry_.Snapshot();
  obs::MetricsSnapshot servers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < entries_.size(); ++i) {
      const AggregatorServer& server = *entries_[i]->server;
      const std::string prefix = "server" + std::to_string(i) + ".";
      const ServerStats s = server.stats();
      servers.counters.push_back({prefix + "accepted", s.accepted});
      servers.counters.push_back({prefix + "rejected", s.rejected});
      servers.histograms.push_back(
          {prefix + "absorb_batch_ns", server.absorb_batch_latency()});
      servers.histograms.push_back(
          {prefix + "finalize_ns", server.finalize_latency()});
      servers.histograms.push_back(
          {prefix + "snapshot_serialize_ns",
           server.snapshot_serialize_latency()});
    }
  }
  // Index order is not name order past 10 servers ("server10." sorts
  // before "server2."); MergeFrom requires sorted inputs.
  std::sort(servers.counters.begin(), servers.counters.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  std::sort(servers.histograms.begin(), servers.histograms.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  response.metrics.MergeFrom(servers);
  if ((request.flags & obs::kStatsFlagIncludeGlobal) != 0) {
    response.metrics.MergeFrom(obs::MetricsRegistry::Global().Snapshot());
  }
  return obs::SerializeStatsResponse(response);
}

// One buffered fan-in push: admit (locked) -> restore the snapshot body
// into a fresh clone (UNLOCKED — the expensive part runs concurrently
// across pushes, against only immutable target configuration) -> land
// the clone (locked), and on the group's last shard run the reduction.
// Admission reserves the shard's slot before unlocking so duplicate
// detection and the buffer cap stay race-free across concurrent pushes.
// A snapshot intake runs the same admission and landing around a
// streamed restore.
std::vector<uint8_t> AggregatorService::HandleStateMerge(
    std::span<const uint8_t> bytes) {
  ++stats_.merge_requests;
  StateMergeRequest request;
  if (ParseStateMerge(bytes, &request) != protocol::ParseError::kOk) {
    ++stats_.malformed_messages;
    return MergeNack(0, MergeStatus::kMalformedRequest, 0);
  }
  StateSnapshotHeader header;
  const bool header_ok = ParseStateSnapshot(request.snapshot, &header) ==
                         protocol::ParseError::kOk;
  const AggregatorServer* target = nullptr;
  uint64_t received = 0;
  MergeStatus status = MergeStatus::kOk;
  {
    std::lock_guard<std::mutex> lock(mu_);
    status = AdmitStateMergeLocked(request, header_ok ? &header : nullptr,
                                   /*intake=*/false, &target, &received);
  }
  if (status != MergeStatus::kOk) {
    // Nothing recorded: a kWouldBlock push is welcome after a retry
    // backoff (net/snapshot_push.h drives that loop).
    return MergeNack(request.merge_id, status, received);
  }
  const uint64_t restore_start_ns = obs::NowNanos();
  std::unique_ptr<AggregatorServer> shard;
  const MergeStatus restore_status = target->RestoreShard(header, &shard);
  return LandStateMerge(request, restore_status, std::move(shard),
                        obs::NowNanos() - restore_start_ns);
}

MergeStatus AggregatorService::AdmitStateMergeLocked(
    const StateMergeRequest& request, const StateSnapshotHeader* header,
    bool intake, const AggregatorServer** target, uint64_t* received) {
  *received = 0;
  if (request.server_id >= entries_.size()) {
    return MergeStatus::kUnknownServer;
  }
  ServerEntry& entry = *entries_[request.server_id];
  if (entry.state != EntryState::kLive) return MergeStatus::kAlreadyFinalized;
  auto it = merge_sessions_.find(request.merge_id);
  if (it != merge_sessions_.end()) *received = it->second.shards.size();
  if (header == nullptr) return MergeStatus::kMalformedSnapshot;
  const MergeStatus config = entry.server->CheckSnapshotHeader(*header);
  if (config != MergeStatus::kOk) return config;
  // A buffered push that makes its group full is always admitted, cap or
  // no cap: completing a group FREES buffer space, so refusing it could
  // deadlock a saturated buffer against the one push that would drain
  // it. An intake holds its slot while its bytes arrive, so it always
  // needs a free one (a refused intake falls back to this buffered
  // rule). Every other over-cap push is deferred.
  bool completes = request.shard_count == 1;
  if (it != merge_sessions_.end()) {
    const MergeSession& session = it->second;
    if (session.server_id != request.server_id ||
        session.shard_count != request.shard_count ||
        session.flags != request.flags) {
      return MergeStatus::kInconsistentFanIn;
    }
    if (session.shards.contains(request.shard_index)) {
      return MergeStatus::kDuplicateShard;
    }
    completes = session.shards.size() + 1 == session.shard_count;
  }
  if ((intake || !completes) &&
      buffered_merge_shards_ >= merge_buffer_limit_) {
    return MergeStatus::kWouldBlock;
  }
  MergeSession& session = merge_sessions_[request.merge_id];
  if (session.shard_count == 0) {  // freshly created group
    session.server_id = request.server_id;
    session.shard_count = request.shard_count;
    session.flags = request.flags;
  }
  session.shards.emplace(request.shard_index, nullptr);  // reservation
  ++buffered_merge_shards_;
  *target = entry.server.get();
  return MergeStatus::kOk;
}

std::vector<uint8_t> AggregatorService::LandStateMerge(
    const StateMergeRequest& request, MergeStatus restore_status,
    std::unique_ptr<AggregatorServer> shard, uint64_t busy_ns) {
  const uint64_t land_start_ns = obs::NowNanos();
  std::unique_lock<std::mutex> lock(mu_);
  if (restore_status != MergeStatus::kOk) {
    const uint64_t received = RollBackReservationLocked(request);
    merge_absorb_ns_->Record(busy_ns + (obs::NowNanos() - land_start_ns));
    return MergeNack(request.merge_id, restore_status, received);
  }
  auto it = merge_sessions_.find(request.merge_id);
  LDP_CHECK(it != merge_sessions_.end());  // the reservation pins the group
  MergeSession& session = it->second;
  session.shards[request.shard_index] = std::move(shard);
  ++session.filled;
  StateMergeResponse response;
  response.merge_id = request.merge_id;
  response.shards_received = session.shards.size();
  merge_absorb_ns_->Record(busy_ns + (obs::NowNanos() - land_start_ns));
  if (session.filled < session.shard_count) {
    response.status = MergeStatus::kOk;
    return SerializeStateMergeResponse(response);
  }
  // Last shard of the group (every slot filled: the parser bounds
  // shard_index < shard_count and duplicates never land, so filled ==
  // shard_count means no reservation is in flight).
  MergeSession group = std::move(session);
  merge_sessions_.erase(it);
  buffered_merge_shards_ -= group.shards.size();
  response.status =
      RunFanInMergeLocked(lock, request.server_id, std::move(group));
  if (response.status == MergeStatus::kOk) {
    ++stats_.merges_completed;
  } else {
    ++stats_.merge_rejects;
  }
  return SerializeStateMergeResponse(response);
}

uint64_t AggregatorService::RollBackReservationLocked(
    const StateMergeRequest& request) {
  auto it = merge_sessions_.find(request.merge_id);
  LDP_CHECK(it != merge_sessions_.end());  // the reservation pins the group
  MergeSession& session = it->second;
  session.shards.erase(request.shard_index);
  --buffered_merge_shards_;
  const uint64_t received = session.shards.size();
  if (session.shards.empty()) merge_sessions_.erase(it);
  return received;
}

std::vector<uint8_t> AggregatorService::MergeNack(uint64_t merge_id,
                                                  MergeStatus status,
                                                  uint64_t shards_received) {
  if (status == MergeStatus::kWouldBlock) {
    ++stats_.merge_would_block;
  } else {
    ++stats_.merge_rejects;
  }
  StateMergeResponse response;
  response.merge_id = merge_id;
  response.status = status;
  response.shards_received = shards_received;
  return SerializeStateMergeResponse(response);
}

std::unique_ptr<AggregatorService::StateIntake>
AggregatorService::OpenStateIntake(std::span<const uint8_t> buffered,
                                   size_t frame_bytes) {
  buffered = buffered.first(std::min(buffered.size(), frame_bytes));
  StateMergeRequest request;
  StateSnapshotHeader header;
  size_t body_offset = 0;
  if (ParseStateMergeHead(buffered, frame_bytes, &request, &header,
                          &body_offset) != protocol::ParseError::kOk ||
      request.server_id >= entries_.size()) {
    return nullptr;
  }
  // An HRR body's size is fixed by its configuration up to a few varint
  // bytes, so a length inside that window is not attacker-chosen: only
  // such a length may commit a clone before its bytes arrive. The target
  // configuration is immutable, so this needs no lock.
  const size_t body_bytes = frame_bytes - body_offset;
  const std::optional<HrrStateSize> sizes =
      entries_[request.server_id]->server->StateBodySizeRange();
  if (!sizes.has_value() || !sizes->Contains(body_bytes)) return nullptr;
  const AggregatorServer* target = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t received = 0;
    if (AdmitStateMergeLocked(request, &header, /*intake=*/true, &target,
                              &received) != MergeStatus::kOk) {
      return nullptr;
    }
  }
  const uint64_t start_ns = obs::NowNanos();
  std::unique_ptr<StateIntake> intake(new StateIntake(
      this, request, target->CloneForSnapshot(header), body_bytes));
  // The body bytes that arrived with the head land first.
  for (std::span<const uint8_t> body = buffered.subspan(body_offset);
       !body.empty();) {
    const std::span<uint8_t> window = intake->Window();
    const size_t n = std::min(window.size(), body.size());
    std::memcpy(window.data(), body.data(), n);
    intake->Advance(n);
    body = body.subspan(n);
  }
  intake->busy_ns_ = obs::NowNanos() - start_ns;
  return intake;
}

namespace {

// The decoder of a fresh clone whose server has a StateBodySizeRange().
HrrStateDecoder StateBodyDecoderOf(AggregatorServer& clone) {
  std::optional<HrrStateDecoder> decoder = clone.StateBodyDecoder();
  LDP_CHECK(decoder.has_value());
  return std::move(*decoder);
}

}  // namespace

AggregatorService::StateIntake::StateIntake(
    AggregatorService* service, const StateMergeRequest& request,
    std::unique_ptr<AggregatorServer> clone, size_t body_bytes)
    : service_(service),
      request_(request),
      clone_(std::move(clone)),
      decoder_(StateBodyDecoderOf(*clone_)),
      remaining_(body_bytes) {}

AggregatorService::StateIntake::~StateIntake() {
  if (landed_) return;
  std::lock_guard<std::mutex> lock(service_->mu_);
  service_->RollBackReservationLocked(request_);
}

std::span<uint8_t> AggregatorService::StateIntake::Window() {
  std::span<uint8_t> window = decoder_.Window();
  if (window.empty()) {
    // The body failed or ended before the frame: consume the rest of the
    // frame without landing it anywhere; Finish() then nacks it.
    constexpr size_t kDiscardBytes = 64 * 1024;
    if (discard_.empty()) discard_.resize(kDiscardBytes);
    window = discard_;
  }
  return window.first(std::min(window.size(), remaining_));
}

void AggregatorService::StateIntake::Advance(size_t n) {
  LDP_CHECK_LE(n, remaining_);
  remaining_ -= n;
  if (decoder_.done()) {
    trailing_ = true;
  } else if (!decoder_.failed()) {
    const uint64_t start_ns = obs::NowNanos();
    decoder_.Advance(n);
    busy_ns_ += obs::NowNanos() - start_ns;
  }
}

std::vector<uint8_t> AggregatorService::StateIntake::Finish() {
  LDP_CHECK(complete() && !landed_);
  landed_ = true;
  const bool restored = decoder_.done() && !trailing_;
  ++service_->stats_.messages;
  ++service_->stats_.merge_requests;
  return service_->LandStateMerge(
      request_,
      restored ? MergeStatus::kOk : MergeStatus::kMalformedSnapshot,
      restored ? std::move(clone_) : nullptr, busy_ns_);
}

MergeStatus AggregatorService::RunFanInMergeLocked(
    std::unique_lock<std::mutex>& lock, uint64_t server_id,
    MergeSession group) {
  // Drain-and-claim under one lock hold, exactly like FinalizeServer: no
  // worker can slip an absorb between the idle wait and the claim.
  idle_.wait(lock, [this] { return busy_entries_ == 0 && ready_.empty(); });
  ServerEntry& entry = *entries_[server_id];
  if (entry.state != EntryState::kLive) return MergeStatus::kAlreadyFinalized;
  entry.scheduled = true;
  ++busy_entries_;
  const bool finalize = (group.flags & kMergeFlagFinalize) != 0;
  lock.unlock();

  const uint64_t start_ns = obs::NowNanos();
  std::vector<std::unique_ptr<AggregatorServer>> clones;
  clones.reserve(group.shards.size());
  for (auto& [index, clone] : group.shards) {
    clones.push_back(std::move(clone));
  }
  // Pairwise reduction rounds over a FIXED pairing (adjacent shard
  // indices; odd survivor carries over). The pairing never depends on
  // scheduling and every aggregate is a commutative integer sum, so the
  // merged state is bit-identical for 0, 1, or N workers.
  MergeStatus status = MergeStatus::kOk;
  const unsigned threads =
      workers_.empty() ? 1u : static_cast<unsigned>(workers_.size());
  while (clones.size() > 1 && status == MergeStatus::kOk) {
    const size_t pairs = clones.size() / 2;
    std::vector<MergeStatus> outcomes(pairs, MergeStatus::kOk);
    ParallelFor(pairs, threads,
                [&](unsigned, uint64_t begin, uint64_t end) {
                  for (uint64_t p = begin; p < end; ++p) {
                    outcomes[p] = clones[2 * p]->MergeFrom(*clones[2 * p + 1]);
                  }
                });
    for (MergeStatus outcome : outcomes) {
      if (outcome != MergeStatus::kOk) {
        // Clones were validated against the hosted config at push time,
        // so only a body-level disagreement (kStateMismatch: two
        // different AHEAD trees) can land here.
        status = outcome;
        break;
      }
    }
    std::vector<std::unique_ptr<AggregatorServer>> next;
    next.reserve(pairs + 1);
    for (size_t p = 0; p < pairs; ++p) next.push_back(std::move(clones[2 * p]));
    if (clones.size() % 2 == 1) next.push_back(std::move(clones.back()));
    clones = std::move(next);
  }
  if (status == MergeStatus::kOk) {
    status = entry.server->MergeFrom(*clones.front());
  }
  merge_fan_in_ns_->Record(obs::NowNanos() - start_ns);

  if (status == MergeStatus::kOk && finalize) {
    // The strand is already claimed; mirror the FinalizeServer body.
    lock.lock();
    entry.state = EntryState::kFinalizing;
    queue_space_.notify_all();  // blocked producers now observe "late"
    lock.unlock();
    NotifyQueueDrain(server_id);  // paused reads re-check (now "late")
    entry.server->Finalize();
    ++stats_.finalizes;
    lock.lock();
    entry.state = EntryState::kFinalized;
  } else {
    lock.lock();
  }
  entry.scheduled = false;
  if (--busy_entries_ == 0 && ready_.empty()) {
    idle_.notify_all();
  }
  return status;
}

void AggregatorService::ScheduleLocked(std::unique_lock<std::mutex>& lock,
                                       size_t entry_index) {
  ServerEntry& entry = *entries_[entry_index];
  if (entry.scheduled) return;
  entry.scheduled = true;
  ++busy_entries_;
  if (workers_.empty()) {
    // Inline mode: the caller's thread is the worker.
    ProcessEntry(lock, entry_index);
    return;
  }
  ready_.push_back(entry_index);
  work_ready_.notify_one();
}

// Drains one claimed entry: its queue, then any pending finalize. The
// claim (`scheduled` stays true throughout) is the strand that keeps
// mechanism code single-threaded per server. Enters and leaves with
// `lock` held; absorb/finalize run unlocked.
void AggregatorService::ProcessEntry(std::unique_lock<std::mutex>& lock,
                                     size_t entry_index) {
  ServerEntry& entry = *entries_[entry_index];
  while (true) {
    if (!entry.queue.empty()) {
      std::deque<QueuedChunk> batch;
      batch.swap(entry.queue);
      queue_space_.notify_all();  // the strand drained: unblock producers
      lock.unlock();
      NotifyQueueDrain(entry_index);  // paused socket reads re-arm
      const uint64_t picked_up_ns = obs::NowNanos();
      for (const QueuedChunk& chunk : batch) {
        queue_wait_ns_->Record(picked_up_ns - chunk.enqueue_ns);
        // Parse/range rejections are counted by the server itself.
        entry.server->AbsorbBatchSerialized(
            std::span<const uint8_t>(chunk.buffer)
                .subspan(chunk.nested_offset));
      }
      queue_depth_->Sub(static_cast<int64_t>(batch.size()));
      lock.lock();
      stats_.chunks_absorbed += batch.size();
      continue;
    }
    if (entry.finalize_pending && entry.state == EntryState::kLive) {
      entry.state = EntryState::kFinalizing;
      queue_space_.notify_all();  // blocked producers now observe "late"
      lock.unlock();
      NotifyQueueDrain(entry_index);  // paused reads re-check (now "late")
      entry.server->Finalize();
      ++stats_.finalizes;
      lock.lock();
      entry.state = EntryState::kFinalized;
      entry.finalize_pending = false;
      continue;  // re-check the queue before releasing the strand
    }
    entry.finalize_pending = false;
    break;
  }
  entry.scheduled = false;
  if (--busy_entries_ == 0 && ready_.empty()) {
    idle_.notify_all();
  }
}

void AggregatorService::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_ready_.wait(lock, [this] { return stopping_ || !ready_.empty(); });
    if (stopping_) return;
    size_t index = ready_.front();
    ready_.pop_front();
    ProcessEntry(lock, index);
  }
}

void AggregatorService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return busy_entries_ == 0 && ready_.empty(); });
}

bool AggregatorService::FinalizeServer(uint64_t server_id) {
  std::unique_lock<std::mutex> lock(mu_);
  if (server_id >= entries_.size()) return false;
  // Drain and claim under ONE lock hold: releasing between the idle
  // wait and the claim would let a concurrent chunk hand the entry to a
  // worker, and finalizing against an in-flight absorb is a data race.
  idle_.wait(lock, [this] { return busy_entries_ == 0 && ready_.empty(); });
  ServerEntry& entry = *entries_[server_id];
  if (entry.state != EntryState::kLive) return false;
  // Claim the entry like a worker would so concurrent Drain()s wait and
  // no worker can take it; kFinalizing makes new chunks late, not
  // absorbed.
  entry.scheduled = true;
  ++busy_entries_;
  entry.state = EntryState::kFinalizing;
  queue_space_.notify_all();  // blocked producers now observe "late"
  lock.unlock();
  NotifyQueueDrain(server_id);  // paused reads re-check (now "late")
  entry.server->Finalize();
  ++stats_.finalizes;
  lock.lock();
  entry.state = EntryState::kFinalized;
  entry.scheduled = false;
  if (--busy_entries_ == 0 && ready_.empty()) {
    idle_.notify_all();
  }
  return true;
}

bool AggregatorService::server_finalized(uint64_t server_id) {
  std::lock_guard<std::mutex> lock(mu_);
  LDP_CHECK_LT(server_id, entries_.size());
  return entries_[server_id]->state == EntryState::kFinalized;
}

ServiceStats AggregatorService::stats() const {
  // Lock-free snapshot of the registry counters: safe against concurrent
  // ingestion (every field is one relaxed atomic load), exact once
  // traffic quiesces — e.g. after Drain(). Taking mu_ here would buy
  // nothing: mutation sites bump counters both inside and outside the
  // lock, so the lock never defined a consistency point.
  ServiceStats s;
  s.messages = stats_.messages.value();
  s.malformed_messages = stats_.malformed_messages.value();
  s.duplicate_sessions = stats_.duplicate_sessions.value();
  s.rejected_sessions = stats_.rejected_sessions.value();
  s.unknown_sessions = stats_.unknown_sessions.value();
  s.duplicate_chunks = stats_.duplicate_chunks.value();
  s.late_chunks = stats_.late_chunks.value();
  s.incomplete_streams = stats_.incomplete_streams.value();
  s.oversized_declarations = stats_.oversized_declarations.value();
  s.chunks_enqueued = stats_.chunks_enqueued.value();
  s.chunks_absorbed = stats_.chunks_absorbed.value();
  s.backpressure_waits = stats_.backpressure_waits.value();
  s.socket_pauses = stats_.socket_pauses.value();
  s.queries_answered = stats_.queries_answered.value();
  s.merge_requests = stats_.merge_requests.value();
  s.merge_rejects = stats_.merge_rejects.value();
  s.merge_would_block = stats_.merge_would_block.value();
  s.merges_completed = stats_.merges_completed.value();
  return s;
}

}  // namespace ldp::service
