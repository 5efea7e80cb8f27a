// Wire form of the distributed fan-in plane: serialized aggregate-state
// snapshots and the merge request/response pair that carries them from N
// shard-local ingest nodes to one query node.
//
// Message layouts (see envelope.h for the surrounding 8-byte header):
//
//   kStateSnapshot (0x30)
//     [kind u8][dims u8][domain varint][fanout varint][eps f64]
//     [accepted varint][rejected varint][mechanism-specific state body]
//   The header names the exact server configuration the body was
//   extracted from; a receiving server only merges a snapshot whose
//   kind/dims/domain/fanout/eps match its own *bit-exactly* (eps compares
//   by f64 bit pattern — two servers that disagree in the last ulp are
//   different mechanisms). The body layout is owned by the concrete
//   server class (see AggregatorServer::SerializeState) and is canonical:
//   re-serializing restored state reproduces the same bytes.
//
//   kStateMerge (0x31)
//     [merge_id u64][server_id u64][shard_index varint][shard_count varint]
//     [flags u8][nested kStateSnapshot message = rest of payload]
//   One shard's push into a fan-in group. All pushes of a group share
//   merge_id/shard_count/flags; shard_index in [0, shard_count) must be
//   unique per group. kMergeFlagFinalize asks the receiver to finalize
//   the target server once every shard has arrived.
//
//   kStateMergeResponse (0x32)
//     [merge_id u64][status u8][shards_received varint]
//   Typed ack for one push. kWouldBlock means the merge plane's snapshot
//   buffer is full — the push was *not* recorded and the sender should
//   back off and retry (src/net/snapshot_push.h).
//
// All parsers are total over adversarial bytes: forged kinds, impossible
// shard geometry, non-finite eps and oversized declared state are
// explicit errors, never crashes, and no allocation is driven by
// attacker-controlled lengths.

#ifndef LDPRANGE_SERVICE_STATE_WIRE_H_
#define LDPRANGE_SERVICE_STATE_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "protocol/envelope.h"

namespace ldp::service {

/// Which mechanism family a snapshot's state body belongs to. Values are
/// wire format — never renumber (0 stays invalid so a zeroed byte can
/// never alias a real kind).
enum class StateKind : uint8_t {
  kFlat = 1,
  kHaar = 2,
  kTree = 3,
  kAhead = 4,
  kGrid = 5,
};

/// True for every value ParseStateSnapshot will admit.
bool IsKnownStateKind(uint8_t kind);

/// Human-readable kind name ("flat", "grid", ...); "?" for unknown.
std::string StateKindName(StateKind kind);

/// Outcome of one merge push, on the wire and in the API. Values are wire
/// format — never renumber.
enum class MergeStatus : uint8_t {
  kOk = 0,
  kMalformedRequest = 1,   // kStateMerge message did not parse
  kMalformedSnapshot = 2,  // snapshot header or state body did not parse
  kUnknownServer = 3,      // server_id does not name a hosted server
  kAlreadyFinalized = 4,   // target server no longer accepts state
  kMechanismMismatch = 5,  // snapshot kind != target server kind
  kConfigMismatch = 6,     // dims/domain/fanout/eps differ from target
  kStateMismatch = 7,      // bodies disagree (e.g. two different AHEAD trees)
  kDuplicateShard = 8,     // shard_index already pushed for this merge_id
  kInconsistentFanIn = 9,  // shard_count/flags differ across a group
  kWouldBlock = 10,        // snapshot buffer full; back off and retry
};

/// Stable identifier for logs and tests ("ok", "would_block", ...).
std::string MergeStatusName(MergeStatus status);

/// True for every value ParseStateMergeResponse will admit.
bool IsKnownMergeStatus(uint8_t status);

/// Wire ceilings, enforced before any allocation. Fan-in wider than 4096
/// shards wants a tree of query nodes, not a bigger session table; the
/// domain/fanout caps match the AHEAD tree message's.
inline constexpr uint64_t kMaxMergeShards = 4096;
inline constexpr uint64_t kMaxStateDomain = uint64_t{1} << 32;
inline constexpr uint64_t kMaxStateFanout = 1024;

/// kStateMerge flag bits.
inline constexpr uint8_t kMergeFlagFinalize = 0x01;

/// Decoded kStateSnapshot header. `body` borrows from the parsed buffer.
struct StateSnapshotHeader {
  StateKind kind = StateKind::kFlat;
  uint32_t dimensions = 1;
  uint64_t domain = 0;
  uint64_t fanout = 0;  // 0 for kinds without a tree (flat, haar)
  double eps = 0.0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  std::span<const uint8_t> body;
};

/// Decoded kStateMerge request. `snapshot` borrows the nested framed
/// kStateSnapshot message (framing validated, payload not yet parsed).
struct StateMergeRequest {
  uint64_t merge_id = 0;
  uint64_t server_id = 0;
  uint64_t shard_index = 0;
  uint64_t shard_count = 1;
  uint8_t flags = 0;
  std::span<const uint8_t> snapshot;
};

/// Decoded kStateMergeResponse.
struct StateMergeResponse {
  uint64_t merge_id = 0;
  MergeStatus status = MergeStatus::kOk;
  uint64_t shards_received = 0;

  bool operator==(const StateMergeResponse&) const = default;
};

/// Most bytes BeginStateSnapshot appends: the envelope header plus the
/// widest snapshot header (two u8, one f64, four varints of at most 10
/// bytes each).
inline constexpr size_t kMaxStateSnapshotHeaderBytes =
    protocol::kEnvelopeHeaderSize + 2 + 8 + 4 * 10;

/// Most bytes a kStateMerge frame carries before its state body: the
/// envelope header, the widest request fields (two u64, two varints, one
/// u8) and the widest nested snapshot header.
inline constexpr size_t kMaxStateMergeHeadBytes =
    protocol::kEnvelopeHeaderSize + 8 + 8 + 2 * 10 + 1 +
    kMaxStateSnapshotHeaderBytes;

/// The one kStateSnapshot framing implementation, in place: appends the
/// envelope header (payload length still open) and the snapshot header
/// to `out` and returns the frame's offset. Append the state body after
/// it, then close the frame with protocol::PatchEnvelopePayloadLength.
/// `header.body` is ignored — the body is whatever follows in `out`.
size_t BeginStateSnapshot(std::vector<uint8_t>& out,
                          const StateSnapshotHeader& header);

/// Frames a snapshot header + mechanism state body as one kStateSnapshot
/// message (AggregatorServer::SerializeState writes the same bytes
/// through BeginStateSnapshot without the intermediate body buffer).
std::vector<uint8_t> SerializeStateSnapshot(const StateSnapshotHeader& header,
                                            std::span<const uint8_t> body);

/// Total parser for kStateSnapshot. Validates the header (known kind,
/// dims in [1, kMaxWireDimensions], domain in [2, kMaxStateDomain],
/// fanout 0 or [2, kMaxStateFanout] per kind, finite positive eps) and
/// hands back the raw state body for the target server to parse.
protocol::ParseError ParseStateSnapshot(std::span<const uint8_t> bytes,
                                        StateSnapshotHeader* header);

/// Appends a complete kStateMerge header — envelope (payload length
/// counting the nested snapshot) plus request fields, 27 bytes for
/// shard geometry below 128 — for a nested snapshot of `snapshot_bytes`
/// bytes that follows it on the wire. `request.snapshot` is ignored.
/// net::PushStateSnapshot sends this header and then the caller's
/// snapshot buffer as is, so a push never copies the snapshot.
void AppendStateMergeHeader(std::vector<uint8_t>& out,
                            const StateMergeRequest& request,
                            size_t snapshot_bytes);

/// Frames one fan-in push: AppendStateMergeHeader plus the snapshot in
/// one buffer. `snapshot` must be a complete framed kStateSnapshot
/// message (as produced by SerializeStateSnapshot).
std::vector<uint8_t> SerializeStateMerge(const StateMergeRequest& request,
                                         std::span<const uint8_t> snapshot);

/// Total parser for kStateMerge. Validates shard geometry (count in
/// [1, kMaxMergeShards], index < count), known flags, and that the nested
/// bytes frame as a kStateSnapshot message.
protocol::ParseError ParseStateMerge(std::span<const uint8_t> bytes,
                                     StateMergeRequest* request);

/// The header-time form of ParseStateMerge + ParseStateSnapshot, for a
/// frame whose body is still on its way (the query node's snapshot
/// intake): parses a kStateMerge frame of `frame_bytes` total bytes from
/// its first bytes, `head`, up to where the state body starts, with every
/// check those two parsers make on the same fields. `head` must hold at
/// least min(frame_bytes, kMaxStateMergeHeadBytes) bytes. On kOk
/// `header->body` is empty and `*body_offset` is the body's offset in
/// the frame.
protocol::ParseError ParseStateMergeHead(std::span<const uint8_t> head,
                                         size_t frame_bytes,
                                         StateMergeRequest* request,
                                         StateSnapshotHeader* header,
                                         size_t* body_offset);

/// Frames one typed ack.
std::vector<uint8_t> SerializeStateMergeResponse(
    const StateMergeResponse& response);

/// Total parser for kStateMergeResponse.
protocol::ParseError ParseStateMergeResponse(std::span<const uint8_t> bytes,
                                             StateMergeResponse* response);

}  // namespace ldp::service

#endif  // LDPRANGE_SERVICE_STATE_WIRE_H_
