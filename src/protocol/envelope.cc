#include "protocol/envelope.h"

#include "common/check.h"
#include "protocol/wire.h"

namespace ldp::protocol {

bool IsKnownMechanismTag(uint8_t tag) {
  switch (static_cast<MechanismTag>(tag)) {
    case MechanismTag::kFlatHrr:
    case MechanismTag::kHaarHrr:
    case MechanismTag::kTreeHrr:
    case MechanismTag::kGrr:
    case MechanismTag::kOue:
    case MechanismTag::kSue:
    case MechanismTag::kOlh:
    case MechanismTag::kAheadReport:
    case MechanismTag::kAheadTree:
    case MechanismTag::kMultiDimReport:
    case MechanismTag::kStreamBegin:
    case MechanismTag::kStreamChunk:
    case MechanismTag::kStreamEnd:
    case MechanismTag::kRangeQueryRequest:
    case MechanismTag::kRangeQueryResponse:
    case MechanismTag::kMultiDimQuery:
    case MechanismTag::kMultiDimQueryResponse:
    case MechanismTag::kStatsQuery:
    case MechanismTag::kStatsResponse:
    case MechanismTag::kStateSnapshot:
    case MechanismTag::kStateMerge:
    case MechanismTag::kStateMergeResponse:
    case MechanismTag::kFlatHrrBatch:
    case MechanismTag::kHaarHrrBatch:
    case MechanismTag::kTreeHrrBatch:
    case MechanismTag::kAheadReportBatch:
    case MechanismTag::kMultiDimReportBatch:
      return true;
  }
  return false;
}

std::string MechanismTagName(MechanismTag tag) {
  switch (tag) {
    case MechanismTag::kFlatHrr: return "FlatHrr";
    case MechanismTag::kHaarHrr: return "HaarHrr";
    case MechanismTag::kTreeHrr: return "TreeHrr";
    case MechanismTag::kGrr: return "Grr";
    case MechanismTag::kOue: return "Oue";
    case MechanismTag::kSue: return "Sue";
    case MechanismTag::kOlh: return "Olh";
    case MechanismTag::kAheadReport: return "AheadReport";
    case MechanismTag::kAheadTree: return "AheadTree";
    case MechanismTag::kMultiDimReport: return "MultiDimReport";
    case MechanismTag::kStreamBegin: return "StreamBegin";
    case MechanismTag::kStreamChunk: return "StreamChunk";
    case MechanismTag::kStreamEnd: return "StreamEnd";
    case MechanismTag::kRangeQueryRequest: return "RangeQueryRequest";
    case MechanismTag::kRangeQueryResponse: return "RangeQueryResponse";
    case MechanismTag::kMultiDimQuery: return "MultiDimQuery";
    case MechanismTag::kMultiDimQueryResponse: return "MultiDimQueryResponse";
    case MechanismTag::kStatsQuery: return "StatsQuery";
    case MechanismTag::kStatsResponse: return "StatsResponse";
    case MechanismTag::kStateSnapshot: return "StateSnapshot";
    case MechanismTag::kStateMerge: return "StateMerge";
    case MechanismTag::kStateMergeResponse: return "StateMergeResponse";
    case MechanismTag::kFlatHrrBatch: return "FlatHrrBatch";
    case MechanismTag::kHaarHrrBatch: return "HaarHrrBatch";
    case MechanismTag::kTreeHrrBatch: return "TreeHrrBatch";
    case MechanismTag::kAheadReportBatch: return "AheadReportBatch";
    case MechanismTag::kMultiDimReportBatch: return "MultiDimReportBatch";
  }
  return "?";
}

std::string ParseErrorName(ParseError error) {
  switch (error) {
    case ParseError::kOk: return "ok";
    case ParseError::kTruncated: return "truncated";
    case ParseError::kBadMagic: return "bad_magic";
    case ParseError::kUnsupportedVersion: return "unsupported_version";
    case ParseError::kUnknownMechanism: return "unknown_mechanism";
    case ParseError::kLengthMismatch: return "length_mismatch";
    case ParseError::kTrailingJunk: return "trailing_junk";
    case ParseError::kBadPayload: return "bad_payload";
  }
  return "?";
}

std::vector<uint8_t> EncodeEnvelope(MechanismTag mechanism,
                                    std::span<const uint8_t> payload) {
  std::vector<uint8_t> out;
  out.reserve(kEnvelopeHeaderSize + payload.size());
  AppendEnvelopeHeader(out, mechanism,
                       static_cast<uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

void AppendEnvelopeHeader(std::vector<uint8_t>& out, MechanismTag mechanism,
                          uint32_t payload_len) {
  AppendU8(out, kEnvelopeMagic0);
  AppendU8(out, kEnvelopeMagic1);
  AppendU8(out, kWireVersionV2);
  AppendU8(out, static_cast<uint8_t>(mechanism));
  AppendU32(out, payload_len);
}

void PatchEnvelopePayloadLength(std::vector<uint8_t>& out,
                                size_t frame_offset, size_t trailing_bytes) {
  LDP_CHECK_LE(frame_offset + kEnvelopeHeaderSize, out.size());
  const size_t payload_len =
      out.size() - frame_offset - kEnvelopeHeaderSize + trailing_bytes;
  LDP_CHECK_LE(payload_len, size_t{UINT32_MAX});
  for (int i = 0; i < 4; ++i) {
    out[frame_offset + 4 + i] = static_cast<uint8_t>(payload_len >> (8 * i));
  }
}

ParseError DecodeEnvelopeHeader(std::span<const uint8_t> bytes,
                                MechanismTag* mechanism,
                                uint32_t* payload_len) {
  if (bytes.size() < kEnvelopeHeaderSize) return ParseError::kTruncated;
  if (bytes[0] != kEnvelopeMagic0 || bytes[1] != kEnvelopeMagic1) {
    return ParseError::kBadMagic;
  }
  if (bytes[2] != kWireVersionV2) return ParseError::kUnsupportedVersion;
  uint8_t tag = bytes[3];
  if (!IsKnownMechanismTag(tag)) return ParseError::kUnknownMechanism;
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(bytes[4 + i]) << (8 * i);
  }
  *mechanism = static_cast<MechanismTag>(tag);
  *payload_len = len;
  return ParseError::kOk;
}

ParseError DecodeEnvelope(std::span<const uint8_t> bytes, Envelope* out) {
  MechanismTag mechanism = MechanismTag::kFlatHrr;
  uint32_t payload_len = 0;
  ParseError err = DecodeEnvelopeHeader(bytes, &mechanism, &payload_len);
  if (err != ParseError::kOk) return err;
  // All arithmetic in size_t over validated sizes: a payload_len near
  // UINT32_MAX is compared, never allocated.
  size_t present = bytes.size() - kEnvelopeHeaderSize;
  if (present < payload_len) return ParseError::kLengthMismatch;
  if (present > payload_len) return ParseError::kTrailingJunk;
  out->version = kWireVersionV2;
  out->mechanism = mechanism;
  out->payload = bytes.subspan(kEnvelopeHeaderSize, payload_len);
  return ParseError::kOk;
}

bool LooksLikeEnvelope(std::span<const uint8_t> bytes) {
  return bytes.size() >= 2 && bytes[0] == kEnvelopeMagic0 &&
         bytes[1] == kEnvelopeMagic1;
}

}  // namespace ldp::protocol
