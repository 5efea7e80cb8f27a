// Shard-side snapshot push for the distributed fan-in plane.
//
// One call pushes one serialized aggregate-state snapshot (see
// AggregatorServer::SerializeState) to a query node over an established
// TcpClient connection, framed as a kStateMerge message, and interprets
// the typed kStateMergeResponse ack. The one transient status —
// kWouldBlock, the query node's snapshot buffer is full — is retried
// here with capped exponential backoff plus deterministic xorshift
// jitter (so N shards that hit the wall together do not re-collide on
// the same schedule). Every other status is final: a config mismatch
// will not fix itself by retrying.

#ifndef LDPRANGE_NET_SNAPSHOT_PUSH_H_
#define LDPRANGE_NET_SNAPSHOT_PUSH_H_

#include <cstdint>
#include <span>

#include "service/state_wire.h"

namespace ldp::net {

class TcpClient;

/// Retry/backoff policy for PushStateSnapshot.
struct SnapshotPushOptions {
  /// Retries after a kWouldBlock ack before giving up (the final result
  /// then carries kWouldBlock). Other statuses never retry.
  uint32_t max_retries = 16;
  /// First backoff sleep; doubles per retry up to max_backoff_us.
  uint32_t initial_backoff_us = 500;
  uint32_t max_backoff_us = 64 * 1024;
  /// Seed for the jitter stream (xorshift64; 0 is remapped internally).
  /// Give each shard a distinct seed — identical seeds re-collide.
  uint64_t jitter_seed = 0x5EED;
  /// Receive deadline per ack, in ms (0 = block indefinitely). Applied
  /// to the client for the duration of the call, then restored.
  int receive_timeout_ms = 0;
};

/// Outcome of one push (including any internal retries).
struct SnapshotPushResult {
  /// True iff the query node acked kOk.
  bool ok = false;
  /// True when the transport failed — send error, receive timeout, or
  /// an unparseable/mismatched ack. `status` is meaningless then; check
  /// TcpClient::last_receive_status() for the receive-side cause.
  bool transport_error = false;
  /// The final ack's status (kWouldBlock after exhausted retries).
  service::MergeStatus status = service::MergeStatus::kOk;
  /// shards_received reported by the final ack.
  uint64_t shards_received = 0;
  /// kWouldBlock acks absorbed before the final outcome — reconciled
  /// against the service's merge_would_block counter by loadgen.
  uint32_t retries = 0;
};

/// Pushes `snapshot` (a complete framed kStateSnapshot message) as shard
/// `shard_index` of `shard_count` into merge group `merge_id` targeting
/// hosted server `server_id`. Blocking; retries only on kWouldBlock.
/// Copy-free: sends the kStateMerge header, then `snapshot` itself — the
/// byte stream equals service::SerializeStateMerge(request, snapshot).
SnapshotPushResult PushStateSnapshot(TcpClient& client, uint64_t merge_id,
                                     uint64_t server_id, uint64_t shard_index,
                                     uint64_t shard_count, uint8_t flags,
                                     std::span<const uint8_t> snapshot,
                                     const SnapshotPushOptions& options = {});

}  // namespace ldp::net

#endif  // LDPRANGE_NET_SNAPSHOT_PUSH_H_
