#include "service/state_wire.h"

#include <algorithm>
#include <cmath>

#include "protocol/wire.h"

namespace ldp::service {

using protocol::DecodeEnvelope;
using protocol::EncodeEnvelope;
using protocol::Envelope;
using protocol::MechanismTag;
using protocol::ParseError;
using protocol::WireReader;

namespace {

// Decodes + tag-checks the envelope; the shared front half of every
// typed parser here (same shape as stream_wire.cc's OpenEnvelope).
ParseError OpenEnvelope(std::span<const uint8_t> bytes,
                        MechanismTag expected, Envelope* env) {
  ParseError err = DecodeEnvelope(bytes, env);
  if (err != ParseError::kOk) return err;
  if (env->mechanism != expected) return ParseError::kBadPayload;
  return ParseError::kOk;
}

// Does `kind` carry a tree fanout in its snapshot header?
bool KindHasFanout(StateKind kind) {
  return kind == StateKind::kTree || kind == StateKind::kAhead ||
         kind == StateKind::kGrid;
}

// The snapshot header fields, [kind u8] through [rejected varint], with
// their checks: known kind, dims in [1, kMaxWireDimensions] (1 unless a
// grid), domain in [2, kMaxStateDomain], fanout 0 or [2, kMaxStateFanout]
// per kind, finite positive eps. Shared by the whole-frame and the
// header-time parsers. `header->body` is left to the caller.
ParseError ParseSnapshotFields(WireReader& reader,
                               StateSnapshotHeader* header) {
  uint8_t kind = 0;
  uint8_t dims = 0;
  uint64_t domain = 0;
  uint64_t fanout = 0;
  double eps = 0.0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  if (!reader.ReadU8(&kind) || !reader.ReadU8(&dims) ||
      !reader.ReadVarU64(&domain) || !reader.ReadVarU64(&fanout) ||
      !reader.ReadF64(&eps) || !reader.ReadVarU64(&accepted) ||
      !reader.ReadVarU64(&rejected)) {
    return ParseError::kBadPayload;
  }
  if (!IsKnownStateKind(kind)) return ParseError::kBadPayload;
  StateKind k = static_cast<StateKind>(kind);
  if (k == StateKind::kGrid) {
    if (dims == 0 || dims > protocol::kMaxWireDimensions) {
      return ParseError::kBadPayload;
    }
  } else if (dims != 1) {
    return ParseError::kBadPayload;
  }
  if (domain < 2 || domain > kMaxStateDomain) return ParseError::kBadPayload;
  if (KindHasFanout(k)) {
    if (fanout < 2 || fanout > kMaxStateFanout) return ParseError::kBadPayload;
  } else if (fanout != 0) {
    return ParseError::kBadPayload;
  }
  if (!std::isfinite(eps) || eps <= 0.0) return ParseError::kBadPayload;
  header->kind = k;
  header->dimensions = dims;
  header->domain = domain;
  header->fanout = fanout;
  header->eps = eps;
  header->accepted = accepted;
  header->rejected = rejected;
  return ParseError::kOk;
}

// The kStateMerge request fields, [merge_id u64] through [flags u8], with
// the shard-geometry and flag checks. `request->snapshot` is left to the
// caller.
ParseError ParseMergeFields(WireReader& reader, StateMergeRequest* request) {
  uint64_t merge_id = 0;
  uint64_t server_id = 0;
  uint64_t shard_index = 0;
  uint64_t shard_count = 0;
  uint8_t flags = 0;
  if (!reader.ReadU64(&merge_id) || !reader.ReadU64(&server_id) ||
      !reader.ReadVarU64(&shard_index) || !reader.ReadVarU64(&shard_count) ||
      !reader.ReadU8(&flags)) {
    return ParseError::kBadPayload;
  }
  if (shard_count == 0 || shard_count > kMaxMergeShards ||
      shard_index >= shard_count) {
    return ParseError::kBadPayload;
  }
  if ((flags & ~kMergeFlagFinalize) != 0) return ParseError::kBadPayload;
  request->merge_id = merge_id;
  request->server_id = server_id;
  request->shard_index = shard_index;
  request->shard_count = shard_count;
  request->flags = flags;
  return ParseError::kOk;
}

}  // namespace

bool IsKnownStateKind(uint8_t kind) {
  switch (static_cast<StateKind>(kind)) {
    case StateKind::kFlat:
    case StateKind::kHaar:
    case StateKind::kTree:
    case StateKind::kAhead:
    case StateKind::kGrid:
      return true;
  }
  return false;
}

std::string StateKindName(StateKind kind) {
  switch (kind) {
    case StateKind::kFlat: return "flat";
    case StateKind::kHaar: return "haar";
    case StateKind::kTree: return "tree";
    case StateKind::kAhead: return "ahead";
    case StateKind::kGrid: return "grid";
  }
  return "?";
}

std::string MergeStatusName(MergeStatus status) {
  switch (status) {
    case MergeStatus::kOk: return "ok";
    case MergeStatus::kMalformedRequest: return "malformed_request";
    case MergeStatus::kMalformedSnapshot: return "malformed_snapshot";
    case MergeStatus::kUnknownServer: return "unknown_server";
    case MergeStatus::kAlreadyFinalized: return "already_finalized";
    case MergeStatus::kMechanismMismatch: return "mechanism_mismatch";
    case MergeStatus::kConfigMismatch: return "config_mismatch";
    case MergeStatus::kStateMismatch: return "state_mismatch";
    case MergeStatus::kDuplicateShard: return "duplicate_shard";
    case MergeStatus::kInconsistentFanIn: return "inconsistent_fan_in";
    case MergeStatus::kWouldBlock: return "would_block";
  }
  return "?";
}

bool IsKnownMergeStatus(uint8_t status) {
  return status <= static_cast<uint8_t>(MergeStatus::kWouldBlock);
}

size_t BeginStateSnapshot(std::vector<uint8_t>& out,
                          const StateSnapshotHeader& header) {
  const size_t frame = out.size();
  protocol::AppendEnvelopeHeader(out, MechanismTag::kStateSnapshot, 0);
  protocol::AppendU8(out, static_cast<uint8_t>(header.kind));
  protocol::AppendU8(out, static_cast<uint8_t>(header.dimensions));
  protocol::AppendVarU64(out, header.domain);
  protocol::AppendVarU64(out, header.fanout);
  protocol::AppendF64(out, header.eps);
  protocol::AppendVarU64(out, header.accepted);
  protocol::AppendVarU64(out, header.rejected);
  return frame;
}

std::vector<uint8_t> SerializeStateSnapshot(const StateSnapshotHeader& header,
                                            std::span<const uint8_t> body) {
  std::vector<uint8_t> out;
  out.reserve(kMaxStateSnapshotHeaderBytes + body.size());
  const size_t frame = BeginStateSnapshot(out, header);
  out.insert(out.end(), body.begin(), body.end());
  protocol::PatchEnvelopePayloadLength(out, frame);
  return out;
}

ParseError ParseStateSnapshot(std::span<const uint8_t> bytes,
                              StateSnapshotHeader* header) {
  Envelope env;
  ParseError err = OpenEnvelope(bytes, MechanismTag::kStateSnapshot, &env);
  if (err != ParseError::kOk) return err;
  WireReader reader(env.payload);
  StateSnapshotHeader parsed;
  err = ParseSnapshotFields(reader, &parsed);
  if (err != ParseError::kOk) return err;
  if (!reader.ReadBytes(reader.Remaining(), &parsed.body)) {
    return ParseError::kBadPayload;
  }
  *header = parsed;
  return ParseError::kOk;
}

void AppendStateMergeHeader(std::vector<uint8_t>& out,
                            const StateMergeRequest& request,
                            size_t snapshot_bytes) {
  const size_t frame = out.size();
  protocol::AppendEnvelopeHeader(out, MechanismTag::kStateMerge, 0);
  protocol::AppendU64(out, request.merge_id);
  protocol::AppendU64(out, request.server_id);
  protocol::AppendVarU64(out, request.shard_index);
  protocol::AppendVarU64(out, request.shard_count);
  protocol::AppendU8(out, request.flags);
  protocol::PatchEnvelopePayloadLength(out, frame, snapshot_bytes);
}

std::vector<uint8_t> SerializeStateMerge(const StateMergeRequest& request,
                                         std::span<const uint8_t> snapshot) {
  std::vector<uint8_t> out;
  out.reserve(protocol::kEnvelopeHeaderSize + 40 + snapshot.size());
  AppendStateMergeHeader(out, request, snapshot.size());
  out.insert(out.end(), snapshot.begin(), snapshot.end());
  return out;
}

ParseError ParseStateMerge(std::span<const uint8_t> bytes,
                           StateMergeRequest* request) {
  Envelope env;
  ParseError err = OpenEnvelope(bytes, MechanismTag::kStateMerge, &env);
  if (err != ParseError::kOk) return err;
  WireReader reader(env.payload);
  StateMergeRequest parsed;
  err = ParseMergeFields(reader, &parsed);
  if (err != ParseError::kOk) return err;
  if (!reader.ReadBytes(reader.Remaining(), &parsed.snapshot)) {
    return ParseError::kBadPayload;
  }
  // The nested bytes must at least frame as a kStateSnapshot message;
  // its payload is parsed by the target server (ParseStateSnapshot).
  Envelope nested;
  if (DecodeEnvelope(parsed.snapshot, &nested) != ParseError::kOk ||
      nested.mechanism != MechanismTag::kStateSnapshot) {
    return ParseError::kBadPayload;
  }
  *request = parsed;
  return ParseError::kOk;
}

ParseError ParseStateMergeHead(std::span<const uint8_t> head,
                               size_t frame_bytes, StateMergeRequest* request,
                               StateSnapshotHeader* header,
                               size_t* body_offset) {
  head = head.first(std::min(head.size(), frame_bytes));
  // The outer envelope: a kStateMerge frame of exactly frame_bytes.
  MechanismTag tag = MechanismTag::kFlatHrr;
  uint32_t payload_len = 0;
  ParseError err = protocol::DecodeEnvelopeHeader(head, &tag, &payload_len);
  if (err != ParseError::kOk) return err;
  if (tag != MechanismTag::kStateMerge ||
      protocol::kEnvelopeHeaderSize + size_t{payload_len} != frame_bytes) {
    return ParseError::kBadPayload;
  }
  WireReader reader(head.subspan(protocol::kEnvelopeHeaderSize));
  StateMergeRequest parsed_request;
  err = ParseMergeFields(reader, &parsed_request);
  if (err != ParseError::kOk) return err;
  // The nested envelope: a kStateSnapshot frame filling the rest of the
  // outer one, as DecodeEnvelope would require of the whole bytes.
  const size_t nested_offset = head.size() - reader.Remaining();
  std::span<const uint8_t> nested_header;
  uint32_t nested_len = 0;
  if (!reader.ReadBytes(protocol::kEnvelopeHeaderSize, &nested_header) ||
      protocol::DecodeEnvelopeHeader(nested_header, &tag, &nested_len) !=
          ParseError::kOk ||
      tag != MechanismTag::kStateSnapshot ||
      nested_offset + protocol::kEnvelopeHeaderSize + nested_len !=
          frame_bytes) {
    return ParseError::kBadPayload;
  }
  StateSnapshotHeader parsed_header;
  err = ParseSnapshotFields(reader, &parsed_header);
  if (err != ParseError::kOk) return err;
  *request = parsed_request;
  *header = parsed_header;
  *body_offset = head.size() - reader.Remaining();
  return ParseError::kOk;
}

std::vector<uint8_t> SerializeStateMergeResponse(
    const StateMergeResponse& response) {
  std::vector<uint8_t> payload;
  payload.reserve(19);
  protocol::AppendU64(payload, response.merge_id);
  protocol::AppendU8(payload, static_cast<uint8_t>(response.status));
  protocol::AppendVarU64(payload, response.shards_received);
  return EncodeEnvelope(MechanismTag::kStateMergeResponse, payload);
}

ParseError ParseStateMergeResponse(std::span<const uint8_t> bytes,
                                   StateMergeResponse* response) {
  Envelope env;
  ParseError err =
      OpenEnvelope(bytes, MechanismTag::kStateMergeResponse, &env);
  if (err != ParseError::kOk) return err;
  WireReader reader(env.payload);
  uint64_t merge_id = 0;
  uint8_t status = 0;
  uint64_t shards_received = 0;
  if (!reader.ReadU64(&merge_id) || !reader.ReadU8(&status) ||
      !reader.ReadVarU64(&shards_received)) {
    return ParseError::kBadPayload;
  }
  if (!IsKnownMergeStatus(status)) return ParseError::kBadPayload;
  if (!reader.AtEnd()) return ParseError::kBadPayload;
  response->merge_id = merge_id;
  response->status = static_cast<MergeStatus>(status);
  response->shards_received = shards_received;
  return ParseError::kOk;
}

}  // namespace ldp::service
