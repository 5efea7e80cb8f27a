// The session-oriented aggregator service: one entry point for every
// client -> aggregator message, across every hosted mechanism instance.
//
//            client                      AggregatorService
//   reports --batch--> kStreamChunk --> session admit (dedupe) --+
//                                                                |
//                      worker pool: one strand per hosted server |
//                        drains chunks -> AbsorbBatchSerialized <+
//                                                                |
//   answer <-- kRangeQueryResponse <-- query plane <- Finalize --+
//
// Ingestion is streaming and concurrent: chunks are enqueued per target
// server and drained by a fixed worker pool, with at most one worker
// inside any given server at a time (a strand), so multiple mechanism
// instances ingest in parallel with no locking inside the mechanisms.
// Because every server aggregate is a commutative integer counter, the
// final state is bit-identical for every worker-thread count and for any
// chunk arrival order — the same determinism contract as
// EncodeUsersSharded on the client side.
//
// Per-server queues are BOUNDED: past the configured high-water mark the
// producer blocks inside HandleMessage until the strand drains (counted
// in stats().backpressure_waits). Memory is then bounded by
// servers x high_water x chunk size regardless of how fast clients push,
// and no admitted chunk is ever dropped — backpressure, not load shed.
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
// pairwise — a fixed pairing, ParallelFor over each round — into the
// hosted server under the same strand discipline as ingestion. Because
// every mechanism's aggregate is a commutative integer sum, the merged
// state is bit-identical to single-process ingestion of the union, for
// every shard count, push order, and worker count. A full snapshot
// buffer acks kWouldBlock (push NOT recorded): the shard backs off and
// retries, mirroring ingestion backpressure. A socket front-end can also
// receive a flat, haar or tree push straight into its clone as the bytes
// arrive (OpenStateIntake); both paths share one admission and one
// landing.

#ifndef LDPRANGE_SERVICE_AGGREGATOR_SERVICE_H_
#define LDPRANGE_SERVICE_AGGREGATOR_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
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
  uint64_t backpressure_waits = 0;  // producer blocks on a full queue
  // Non-blocking admits deferred because the target queue was at its
  // high-water mark — each is one socket front-end read pause.
  uint64_t socket_pauses = 0;
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
  /// can allocate (ended sessions have released their sequence sets, so
  /// the worst case is ~100 bytes per id). Begins past it are rejected
  /// and counted in stats().rejected_sessions.
  static constexpr size_t kMaxSessions = size_t{1} << 20;

  /// Default per-server ingestion queue bound, in chunks (see the file
  /// comment on backpressure).
  static constexpr size_t kDefaultQueueHighWater = 1024;

  /// Default cap on buffered merge shards (restored clones waiting for
  /// their fan-in group to complete), across all in-flight merge groups.
  /// A push past the cap is acked kWouldBlock and NOT recorded — the
  /// shard backs off and retries (net/snapshot_push.h), the merge-plane
  /// analogue of ingestion backpressure. A buffered push that completes
  /// its group bypasses the cap (completion frees buffer space, so
  /// refusing it could deadlock the buffer against its own drain); a
  /// snapshot intake always holds one slot (OpenStateIntake).
  static constexpr size_t kDefaultMergeBufferShards = 256;

  /// `worker_threads` sizes the ingestion pool; it exists for the
  /// service's whole lifetime. 0 selects inline mode: chunks are
  /// absorbed synchronously inside HandleMessage (no pool, no handoff) —
  /// the right choice on small machines and in deterministic tests,
  /// and bit-identical to every pooled configuration.
  /// `queue_high_water` caps each server's pending-chunk queue: an
  /// enqueue at the cap blocks until a worker drains the strand (clamped
  /// to >= 1; irrelevant in inline mode, where nothing ever queues).
  /// `max_sessions` caps tracked sessions (clamped to >= 1); the default
  /// is the production bound, tests shrink it to drive cap churn cheaply.
  explicit AggregatorService(unsigned worker_threads = 1,
                             size_t queue_high_water = kDefaultQueueHighWater,
                             size_t max_sessions = kMaxSessions);
  ~AggregatorService();

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
  /// returns an empty vector.
  std::vector<uint8_t> HandleMessage(std::span<const uint8_t> bytes);

  /// Same routing, taking ownership of the buffer: a chunk's nested
  /// batch is kept (not copied) on the ingestion queue — the fast path
  /// for callers that materialize each message anyway.
  std::vector<uint8_t> HandleMessage(std::vector<uint8_t>&& bytes);

  /// Outcome of TryHandleMessage. kHandled covers every terminal result
  /// (routed, rejected, counted) — the caller is done with the message.
  enum class AdmitResult : uint8_t { kHandled, kWouldBlock };

  /// Non-blocking HandleMessage for socket front-ends: identical routing
  /// except that a stream chunk whose target server queue is at its
  /// high-water mark is NOT admitted. On kWouldBlock nothing has been
  /// recorded for the chunk, `bytes` is left untouched, `*blocked_server`
  /// names the congested server, and stats().socket_pauses is
  /// incremented — the caller should stop reading its input source and
  /// re-present the SAME bytes after a queue-drain notification for that
  /// server. On kHandled the buffer has been consumed and `*response`
  /// holds whatever HandleMessage would have returned.
  AdmitResult TryHandleMessage(std::vector<uint8_t>& bytes,
                               std::vector<uint8_t>* response,
                               uint64_t* blocked_server);

  /// Registers a hook invoked whenever a server's ingestion queue drains
  /// (drops from possibly-full to empty) or the server leaves the live
  /// state — the signal a paused socket front-end uses to re-arm
  /// connections. Called with the service lock NOT held, from a worker
  /// (or finalizing) thread; the hook must be fast and must not call
  /// back into blocking service methods. Invocations are serialized
  /// against SetQueueDrainHook itself: once SetQueueDrainHook(nullptr)
  /// returns, no in-flight invocation remains and none can start — the
  /// guarantee a front-end's teardown depends on.
  void SetQueueDrainHook(std::function<void(uint64_t server_id)> hook);

  /// Blocks until every enqueued chunk has been absorbed (and any
  /// in-flight finalize finished).
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

  /// One queued chunk: the owning buffer plus the offset of the nested
  /// batch message inside it (0 when the buffer is the batch itself).
  /// `enqueue_ns` is the admit timestamp feeding the queue-wait
  /// histogram when a worker picks the chunk up.
  struct QueuedChunk {
    std::vector<uint8_t> buffer;
    size_t nested_offset = 0;
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
    CounterRef backpressure_waits;
    CounterRef socket_pauses;
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

  struct ServerEntry {
    std::unique_ptr<AggregatorServer> server;
    std::deque<QueuedChunk> queue;  // FIFO
    bool scheduled = false;  // claimed by the ready list or a worker
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

  void WorkerLoop();
  void ScheduleLocked(std::unique_lock<std::mutex>& lock,
                      size_t entry_index);
  void ProcessEntry(std::unique_lock<std::mutex>& lock, size_t entry_index);
  void HandleStreamBegin(std::span<const uint8_t> bytes);
  void EnqueueChunk(uint64_t session_id, uint64_t sequence,
                    QueuedChunk chunk);
  void HandleStreamEnd(std::span<const uint8_t> bytes);
  /// Fires the registered drain hook for `server_id` (no-op when none).
  /// Must be called with mu_ NOT held.
  void NotifyQueueDrain(uint64_t server_id);
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
  /// pairwise — adjacent shard indices, ParallelFor over the pairs of
  /// each round, so the result is bit-identical for every worker count
  /// and push order — folds the survivor into the hosted server, and
  /// finalizes it when the group asked (kMergeFlagFinalize). Enters and
  /// leaves with `lock` held; the reduction itself runs unlocked under
  /// the claim.
  MergeStatus RunFanInMergeLocked(std::unique_lock<std::mutex>& lock,
                                  uint64_t server_id, MergeSession group);

  // Declared before every member that binds metrics out of it.
  obs::MetricsRegistry registry_;
  mutable std::mutex mu_;
  std::condition_variable work_ready_;
  std::condition_variable idle_;
  // Signaled whenever a server queue drains or its entry leaves kLive:
  // wakes producers blocked on a full queue.
  std::condition_variable queue_space_;
  size_t queue_high_water_;
  size_t max_sessions_;
  // Socket-front-end drain notifications. hook_mu_ is held across every
  // invocation (never while mu_ is held), so SetQueueDrainHook(nullptr)
  // synchronizes with in-flight calls; it also serializes notifications,
  // which fire at most once per strand drain — far off the hot path.
  std::mutex hook_mu_;
  std::function<void(uint64_t)> queue_drain_hook_;
  std::vector<std::unique_ptr<ServerEntry>> entries_;
  std::unordered_map<uint64_t, IngestSession> sessions_;  // by session_id
  // In-flight fan-in groups, by merge_id. Guarded by mu_; the buffered
  // count feeds the kWouldBlock backpressure decision (reservations
  // count too, so concurrent restores cannot overshoot the cap).
  std::unordered_map<uint64_t, MergeSession> merge_sessions_;
  size_t buffered_merge_shards_ = 0;
  size_t merge_buffer_limit_ = kDefaultMergeBufferShards;
  std::deque<size_t> ready_;  // entry indices with claimed work
  size_t busy_entries_ = 0;
  bool stopping_ = false;
  ServiceCounters stats_{registry_};
  // Ingestion-plane instrumentation: chunks pending across all strands,
  // admit-to-absorb wait, and end-to-end query handling latency.
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
  std::vector<std::thread> workers_;
};

}  // namespace ldp::service

#endif  // LDPRANGE_SERVICE_AGGREGATOR_SERVICE_H_
