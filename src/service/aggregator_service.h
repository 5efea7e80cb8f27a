// The session-oriented aggregator service: one entry point for every
// client -> aggregator message, across every hosted mechanism instance.
//
//            client                      AggregatorService
//   reports --batch--> kStreamChunk --> session admit (dedupe) --+
//                                                                |
//                 per-server strand: the admitting thread        |
//                 absorbs in place -> AbsorbBatchSerialized <----+
//                                                                |
//   answer <-- kRangeQueryResponse <-- query plane <- Finalize --+
//
// Ingestion is inline: an admitted chunk is absorbed on the thread that
// handed it over, straight from the caller's bytes, before HandleMessage
// returns. The service starts no threads of its own. Each hosted server
// has a strand — a chunk queue plus a claim — that keeps at most one
// thread inside that server at a time, so concurrent callers ingest into
// different servers in parallel with no locking inside the mechanisms.
// A chunk for a server another thread is absorbing or merging into is
// queued as a copy of its batch, and that thread absorbs it before it
// lets the strand go; its own caller returns at once. Because every
// server aggregate is a commutative integer counter, the final state is
// bit-identical for any number of calling threads and any chunk arrival
// order — the same determinism contract as EncodePointsSharded on the
// client side.
//
// HandleMessage is safe to call from multiple threads; stream messages
// return an empty vector (fire-and-forget, failures are counted in
// stats()), query requests always return a serialized
// kRangeQueryResponse whose typed QueryStatus names what went wrong.
//
// The service is also one node of the distributed fan-in plane: N
// shard-local ingest processes each push their partial aggregate as a
// kStateMerge message (state_wire.h), and the query node buffers the
// validated shard clones until the group is complete, then reduces them
// pairwise over a fixed pairing, on the thread that lands the last shard,
// into the hosted server under the same strand discipline as ingestion.
// Because every mechanism's aggregate is a commutative integer sum, the
// merged state is bit-identical to single-process ingestion of the union,
// for every shard count and push order. A full snapshot buffer acks
// kWouldBlock (push NOT recorded): the shard backs off and retries. A
// socket front-end can also receive a flat, haar or tree push straight
// into its clone as the bytes arrive (OpenStateIntake); both paths share
// one admission and one landing.

#ifndef LDPRANGE_SERVICE_AGGREGATOR_SERVICE_H_
#define LDPRANGE_SERVICE_AGGREGATOR_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "service/aggregator_server.h"
#include "service/ingest_session.h"
#include "service/state_wire.h"
#include "service/stream_wire.h"

namespace ldp::service {

/// Service-level counters (message routing, session hygiene) as a plain
/// value snapshot. Per-report accept/reject accounting stays on each
/// server's ServerStats. The live counts are lock-free "service.*"
/// entries in the service's MetricsRegistry; stats() snapshots them
/// without taking the service lock — coherent by the registry's read
/// protocol (relaxed atomics, exact once traffic quiesces, e.g. after
/// Drain()).
struct ServiceStats {
  uint64_t messages = 0;            // HandleMessage calls
  uint64_t malformed_messages = 0;  // undecodable or unroutable bytes
  uint64_t duplicate_sessions = 0;  // replayed kStreamBegin or kStreamEnd
  uint64_t rejected_sessions = 0;   // kStreamBegin past the session cap
  uint64_t unknown_sessions = 0;    // chunk/end for a session never begun
  uint64_t duplicate_chunks = 0;    // replayed or out-of-policy sequence
  uint64_t late_chunks = 0;         // after kStreamEnd or after finalize
  uint64_t incomplete_streams = 0;  // ended with declared chunks missing
  // kStreamEnd declaring more chunks than a session can ever admit
  // (> IngestSession::kMaxSequences): rejected, the session stays live.
  uint64_t oversized_declarations = 0;
  uint64_t chunks_enqueued = 0;
  uint64_t chunks_absorbed = 0;
  uint64_t queries_answered = 0;    // responses returned (any status)
  // Distributed fan-in plane (kStateMerge pushes).
  uint64_t merge_requests = 0;      // kStateMerge messages received
  uint64_t merge_rejects = 0;       // pushes acked with a non-transient error
  uint64_t merge_would_block = 0;   // pushes deferred: snapshot buffer full
  uint64_t merges_completed = 0;    // fan-in groups fully merged

  bool operator==(const ServiceStats&) const = default;
};

class AggregatorService {
 public:
  /// Default hard cap on tracked sessions (live + ended). Session ids
  /// are remembered for the service's lifetime so a replayed session
  /// cannot re-ingest its chunks; the cap bounds what kStreamBegin spam
  /// can allocate (ended sessions have released their dedupe bitmaps, so
  /// the worst case is ~100 bytes per id). Begins past it are rejected
  /// and counted in stats().rejected_sessions.
  static constexpr size_t kMaxSessions = size_t{1} << 20;

  /// Default cap on buffered merge shards (restored clones waiting for
  /// their fan-in group to complete), across all in-flight merge groups.
  /// A push past the cap is acked kWouldBlock and NOT recorded — the
  /// shard backs off and retries (net/snapshot_push.h). A buffered push
  /// that completes its group bypasses the cap (completion frees buffer
  /// space, so refusing it could deadlock the buffer against its own
  /// drain); a snapshot intake always holds one slot (OpenStateIntake).
  static constexpr size_t kDefaultMergeBufferShards = 256;

  AggregatorService() = default;

  /// The constructor of the former worker-pool service, whose argument
  /// was its worker-thread count. Only 0 — inline, now the one mode — is
  /// accepted. It remains for bench/e2e's host, which passes 0, until
  /// that benchmark drops the argument.
  explicit AggregatorService(unsigned worker_threads);

  AggregatorService(const AggregatorService&) = delete;
  AggregatorService& operator=(const AggregatorService&) = delete;

  /// Hosts a mechanism server; returns the server id streaming sessions
  /// and query requests address it by. Not thread-safe against
  /// HandleMessage — register servers before serving traffic.
  uint64_t AddServer(std::unique_ptr<AggregatorServer> server);

  size_t server_count() const { return entries_.size(); }

  /// Direct handle on a hosted server (e.g. for the AHEAD tree
  /// broadcast between phases). Call Drain() first if ingestion for it
  /// may still be in flight.
  AggregatorServer& server(uint64_t server_id);
  const AggregatorServer& server(uint64_t server_id) const;

  /// Routes one serialized message. kStreamBegin/Chunk/End return an
  /// empty vector; kRangeQueryRequest returns a serialized
  /// kRangeQueryResponse; kMultiDimQuery returns a serialized
  /// kMultiDimQueryResponse; kStatsQuery returns a serialized
  /// kStatsResponse; kStateMerge returns a serialized
  /// kStateMergeResponse; anything else is counted as malformed and
  /// returns an empty vector. `bytes` need live only for the call: a
  /// chunk's nested batch is absorbed where it lies, and copied only
  /// when it queues behind another thread's absorb.
  std::vector<uint8_t> HandleMessage(std::span<const uint8_t> bytes);

  /// Blocks until no thread holds a strand: every admitted chunk has been
  /// absorbed and any in-flight finalize or fan-in reduce finished. A
  /// caller whose own HandleMessage calls have returned needs it only
  /// when other threads are still routing messages.
  void Drain();

  /// In-process control: drain, then finalize `server_id` if it is not
  /// already. Returns false for an unknown or already-finalized server.
  bool FinalizeServer(uint64_t server_id);

  /// True once `server_id` finalized (via kStreamFlagFinalize or
  /// FinalizeServer).
  bool server_finalized(uint64_t server_id);

  /// A fan-in push received straight into its restored clone: the
  /// query node's snapshot intake. OpenStateIntake admits the push on its
  /// header and creates the clone at once; the caller then lands the
  /// rest of the frame in Window() — socket reads go straight into the
  /// clone's arrays, so the receive is the decode (HrrStateDecoder) —
  /// and Finish() lands the push exactly as HandleMessage would have.
  /// Used from one thread at a time. Destroying an unfinished intake
  /// (peer EOF or reset mid-body, a stall past its deadline, shutdown)
  /// frees the clone and rolls its reservation back. Must not outlive
  /// the service.
  class StateIntake {
   public:
    ~StateIntake();

    StateIntake(const StateIntake&) = delete;
    StateIntake& operator=(const StateIntake&) = delete;

    /// Where the frame's next bytes go: the decoder's window into the
    /// clone, clipped to the frame; a scratch buffer once the body has
    /// failed or ended early (the frame is still consumed to its end).
    /// Empty once complete().
    std::span<uint8_t> Window();

    /// Consumes `n` bytes (1 <= n <= Window().size()) that landed in
    /// Window().
    void Advance(size_t n);

    /// Every byte of the frame has landed.
    bool complete() const { return remaining_ == 0; }

    /// Lands the complete push — the slot filled (or, for a body that
    /// failed, rolled back with kMalformedSnapshot), the group reduced
    /// on its last shard — and returns the kStateMergeResponse ack.
    std::vector<uint8_t> Finish();

   private:
    friend class AggregatorService;
    StateIntake(AggregatorService* service, const StateMergeRequest& request,
                std::unique_ptr<AggregatorServer> clone, size_t body_bytes);

    AggregatorService* service_;
    StateMergeRequest request_;
    std::unique_ptr<AggregatorServer> clone_;
    HrrStateDecoder decoder_;
    size_t remaining_;
    bool trailing_ = false;  // a byte past the decoded body's end
    bool landed_ = false;
    // Clone creation and decode time, for merge.absorb_ns; the wait for
    // bytes is not in it.
    uint64_t busy_ns_ = 0;
    std::vector<uint8_t> discard_;
  };

  /// Opens a snapshot intake for a kStateMerge frame of `frame_bytes`
  /// bytes whose first bytes, `buffered` (at least min(frame_bytes,
  /// kMaxStateMergeHeadBytes), fewer than frame_bytes), have arrived.
  /// It opens only when the frame's head parses, its target server's
  /// state body is sized by configuration (flat, haar, tree) and the
  /// announced body length is one that configuration serializes to
  /// (StateBodySizeRange), and admission returns kOk — which for an
  /// intake includes a free merge-buffer slot, even for a push that
  /// would complete its group. The buffered body bytes are landed before
  /// it returns. nullptr otherwise, with nothing recorded: the frame then
  /// takes the buffered path (HandleMessage), whose admission gives the
  /// same ack it always has.
  std::unique_ptr<StateIntake> OpenStateIntake(
      std::span<const uint8_t> buffered, size_t frame_bytes);

  /// Caps buffered merge shards (clamped to >= 1). Not thread-safe
  /// against HandleMessage — configure before serving merge traffic;
  /// tests shrink it to drive the kWouldBlock path cheaply.
  void set_merge_buffer_limit(size_t shards) {
    merge_buffer_limit_ = shards == 0 ? 1 : shards;
  }

  /// Caps tracked sessions (clamped to >= 1; default kMaxSessions). Not
  /// thread-safe against HandleMessage — configure before serving
  /// traffic; tests shrink it to drive cap churn cheaply.
  void set_max_sessions(size_t sessions) {
    max_sessions_ = sessions == 0 ? 1 : sessions;
  }

  ServiceStats stats() const;

  /// The service's metrics registry: every "service.*" counter behind
  /// stats(), plus whatever front-ends and tests hang on it ("net.*").
  /// Snapshots of it — merged with per-server stage latencies and,
  /// on request, the process-global registry — are what kStatsQuery
  /// serves over the wire.
  obs::MetricsRegistry& registry() { return registry_; }
  const obs::MetricsRegistry& registry() const { return registry_; }

 private:
  enum class EntryState : uint8_t { kLive, kFinalizing, kFinalized };

  /// A chunk that met a strand another thread holds: a copy of its
  /// nested batch, which outlives the caller's bytes. `enqueue_ns` is the
  /// admit timestamp feeding the queue-wait histogram when the strand's
  /// thread picks the chunk up.
  struct QueuedChunk {
    std::vector<uint8_t> batch;
    uint64_t enqueue_ns = 0;
  };

  /// Live handle on one registry counter. The wrapper keeps the
  /// historical `++stats_.field` / `stats_.field += n` accounting sites
  /// compiling verbatim against lock-free registry-backed atomics.
  struct CounterRef {
    obs::Counter* counter = nullptr;
    void operator++() { counter->Increment(); }
    void operator+=(uint64_t n) { counter->Add(n); }
    uint64_t value() const { return counter->value(); }
  };

  /// Every ServiceStats field, live, named "service.<field>" in the
  /// registry. Mutations are safe with or without mu_ held; reads are
  /// the registry's relaxed-atomic protocol.
  struct ServiceCounters {
    explicit ServiceCounters(obs::MetricsRegistry& registry);

    CounterRef messages;
    CounterRef malformed_messages;
    CounterRef duplicate_sessions;
    CounterRef rejected_sessions;
    CounterRef unknown_sessions;
    CounterRef duplicate_chunks;
    CounterRef late_chunks;
    CounterRef incomplete_streams;
    CounterRef oversized_declarations;
    CounterRef chunks_enqueued;
    CounterRef chunks_absorbed;
    CounterRef queries_answered;
    CounterRef merge_requests;
    CounterRef merge_rejects;
    CounterRef merge_would_block;
    CounterRef merges_completed;
    // Session lifecycle (registry-only; not part of legacy ServiceStats).
    CounterRef sessions_begun;
    CounterRef sessions_completed;
    CounterRef finalizes;
  };

  /// A hosted server and its strand: `scheduled` is the claim of the one
  /// thread allowed inside the server, and `queue` holds the chunks
  /// admitted while another thread held it — the holder drains the queue
  /// before it lets go.
  struct ServerEntry {
    std::unique_ptr<AggregatorServer> server;
    std::vector<QueuedChunk> queue;  // FIFO
    bool scheduled = false;  // a thread holds the strand
    bool finalize_pending = false;
    EntryState state = EntryState::kLive;
  };

  /// One in-flight fan-in group, keyed by merge_id: shard clones are
  /// validated + restored eagerly at push time (so a malformed snapshot
  /// is rejected on ITS push, with its shard's ack) and buffered here
  /// until every declared shard has arrived. A nullptr slot is a
  /// reservation: that shard was admitted and its clone is still being
  /// restored outside the lock. std::map (ordered by shard_index) so the
  /// reduction pairing is deterministic.
  struct MergeSession {
    uint64_t server_id = 0;
    uint64_t shard_count = 0;  // 0 only before first admit (wire min is 1)
    uint8_t flags = 0;
    std::map<uint64_t, std::unique_ptr<AggregatorServer>> shards;
    size_t filled = 0;  // non-nullptr slots; == shard_count triggers merge
  };

  /// Runs `entry_index`'s strand on the calling thread: claims it,
  /// absorbs `batch` (an admitted chunk's nested batch, where it lies)
  /// and releases it. When another thread holds the claim, `batch` is
  /// queued as a copy and that thread absorbs it before it lets go.
  /// Enters and leaves with `lock` held; absorb and finalize run
  /// unlocked.
  void RunStrandLocked(
      std::unique_lock<std::mutex>& lock, size_t entry_index,
      std::optional<std::span<const uint8_t>> batch = std::nullopt);
  /// Claims `server_id`'s strand for a finalize or a fan-in reduce once
  /// no strand is held (one lock hold: no absorb can slip in between).
  /// False, with nothing claimed, for a server that is no longer live.
  bool ClaimIdleStrandLocked(std::unique_lock<std::mutex>& lock,
                             uint64_t server_id);
  /// Lets go of a strand the caller holds, after absorbing every chunk
  /// queued behind its claim and running a pending finalize (chunks that
  /// arrive during Finalize are counted late). Wakes Drain() once no
  /// strand is held. Enters and leaves with `lock` held.
  void ReleaseStrandLocked(std::unique_lock<std::mutex>& lock,
                           ServerEntry& entry);
  void HandleStreamBegin(std::span<const uint8_t> bytes);
  void HandleStreamChunk(std::span<const uint8_t> bytes);
  void HandleStreamEnd(std::span<const uint8_t> bytes);
  std::vector<uint8_t> HandleRangeQuery(std::span<const uint8_t> bytes);
  std::vector<uint8_t> HandleMultiDimQuery(std::span<const uint8_t> bytes);
  std::vector<uint8_t> HandleStatsQuery(std::span<const uint8_t> bytes);
  std::vector<uint8_t> HandleStateMerge(std::span<const uint8_t> bytes);
  /// The one admission of a fan-in push, buffered or streamed, under
  /// mu_: unknown server; not live; a snapshot header that did not parse
  /// (`header` null), names another kind or another configuration;
  /// inconsistent fan-in; duplicate shard; buffer cap — an intake always
  /// needs a free slot, a buffered push that completes its group never
  /// does. On kOk the shard's slot is reserved and `*target` names the
  /// hosted server. Otherwise nothing is recorded, no counter moves, and
  /// `*received` is the group's shard count for the nack.
  MergeStatus AdmitStateMergeLocked(const StateMergeRequest& request,
                                    const StateSnapshotHeader* header,
                                    bool intake,
                                    const AggregatorServer** target,
                                    uint64_t* received);
  /// The one landing of an admitted push: fills its reserved slot with
  /// `shard`, or rolls the reservation back when the restore failed,
  /// and reduces the group on its last shard. Records merge.absorb_ns
  /// as `busy_ns` (clone and decode) plus the landing itself. Returns
  /// the ack.
  std::vector<uint8_t> LandStateMerge(const StateMergeRequest& request,
                                      MergeStatus restore_status,
                                      std::unique_ptr<AggregatorServer> shard,
                                      uint64_t busy_ns);
  /// Drops an admitted push's reservation; a group left empty disappears
  /// entirely, so a later corrected push can redeclare it. Returns the
  /// group's remaining shard count.
  uint64_t RollBackReservationLocked(const StateMergeRequest& request);
  /// Counts a refused push (merge_would_block or merge_rejects) and
  /// frames its ack.
  std::vector<uint8_t> MergeNack(uint64_t merge_id, MergeStatus status,
                                 uint64_t shards_received);
  /// The completed-group reduction: claims the target server's strand
  /// (FinalizeServer's drain-and-claim idiom), merges the group's clones
  /// pairwise on the calling thread — adjacent shard indices, so the
  /// result is bit-identical for every push order — folds the survivor
  /// into the hosted server, absorbs the chunks that queued behind the
  /// reduce, and finalizes it when the group asked (kMergeFlagFinalize).
  /// Enters and leaves with `lock` held; the reduction itself runs
  /// unlocked under the claim.
  MergeStatus RunFanInMergeLocked(std::unique_lock<std::mutex>& lock,
                                  uint64_t server_id, MergeSession group);

  // Declared before every member that binds metrics out of it.
  obs::MetricsRegistry registry_;
  mutable std::mutex mu_;
  // Signaled when the last held strand is released.
  std::condition_variable idle_;
  size_t max_sessions_ = kMaxSessions;
  std::vector<std::unique_ptr<ServerEntry>> entries_;
  std::unordered_map<uint64_t, IngestSession> sessions_;  // by session_id
  // In-flight fan-in groups, by merge_id. Guarded by mu_; the buffered
  // count feeds the kWouldBlock backpressure decision (reservations
  // count too, so concurrent restores cannot overshoot the cap).
  std::unordered_map<uint64_t, MergeSession> merge_sessions_;
  size_t buffered_merge_shards_ = 0;
  size_t merge_buffer_limit_ = kDefaultMergeBufferShards;
  size_t busy_entries_ = 0;  // strands currently claimed
  ServiceCounters stats_{registry_};
  // Ingestion-plane instrumentation: chunks queued across all strands,
  // their admit-to-absorb wait (a chunk absorbed in place never queues),
  // and end-to-end query handling latency.
  obs::Gauge* queue_depth_ = &registry_.GetGauge("service.queue_depth");
  obs::LatencyHistogram* queue_wait_ns_ =
      &registry_.GetHistogram("service.queue_wait_ns");
  obs::LatencyHistogram* query_ns_ =
      &registry_.GetHistogram("service.query_ns");
  // Merge-plane instrumentation: per-shard clone creation, decode and
  // landing (for an intake, not the wait for its bytes), and the whole
  // completed-group reduction (including the hosted fold and any
  // requested finalize).
  obs::LatencyHistogram* merge_absorb_ns_ =
      &registry_.GetHistogram("merge.absorb_ns");
  obs::LatencyHistogram* merge_fan_in_ns_ =
      &registry_.GetHistogram("merge.fan_in_ns");
};

}  // namespace ldp::service

#endif  // LDPRANGE_SERVICE_AGGREGATOR_SERVICE_H_
