// Versioned, framed message envelope for the LDP report wire protocol.
//
// Every v2 message — single report, batched reports, or a future
// mechanism's payload — starts with the same 8-byte header:
//
//   offset  size  field
//   0       2     magic "LR" (0x4C 0x52)
//   2       1     version (kWireVersionV2 = 2)
//   3       1     mechanism_tag (MechanismTag)
//   4       4     payload_len, u32 little-endian
//   8       ...   payload (exactly payload_len bytes, layout per tag)
//
// v2 is the only wire version. A legacy unframed v1 report (a bare tag
// byte 0x01..0x03 followed by the report fields) never starts with the
// magic 0x4C, so every parser rejects it as kBadMagic.
//
// Decoding is total over arbitrary bytes: every failure maps to an
// explicit ParseError, never a crash or an out-of-bounds read, and no
// allocation is driven by attacker-controlled lengths (the payload is
// returned as a span into the caller's buffer after the length has been
// validated against what is actually present).

#ifndef LDPRANGE_PROTOCOL_ENVELOPE_H_
#define LDPRANGE_PROTOCOL_ENVELOPE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ldp::protocol {

/// The wire protocol version: the framed envelope above.
inline constexpr uint8_t kWireVersionV2 = 2;

/// The two magic bytes every v2 message starts with.
inline constexpr uint8_t kEnvelopeMagic0 = 0x4C;  // 'L'
inline constexpr uint8_t kEnvelopeMagic1 = 0x52;  // 'R'

/// Envelope header size in bytes (magic + version + tag + payload_len).
inline constexpr size_t kEnvelopeHeaderSize = 8;

/// Identifies the mechanism (and message shape) of a payload. Single
/// reports use the low range; batched messages set the high bit, so
/// `tag & 0x7F` names the mechanism either way. Values are wire format —
/// never renumber.
enum class MechanismTag : uint8_t {
  kFlatHrr = 0x01,  // [index u64][sign u8]
  kHaarHrr = 0x02,  // [level u8][index u64][sign u8]
  kTreeHrr = 0x03,  // [level u8][index u64][sign u8]
  kGrr = 0x04,      // [value varint]
  kOue = 0x05,      // [num_bits varint][packed bits, length-prefixed]
  kSue = 0x06,      // [num_bits varint][packed bits, length-prefixed]
  kOlh = 0x07,      // [seed u64][cell varint]
  // AHEAD two-phase reports and the server -> client adaptive-tree
  // broadcast between the phases (src/protocol/ahead_protocol.h).
  kAheadReport = 0x08,  // [phase u8][level u8][node u64]
  kAheadTree = 0x09,    // [domain varint][fanout varint][count varint]
                        //   [count x (depth u8, index varint)]
  // Multidimensional grid reports (src/protocol/multidim_protocol.h): the
  // user's sampled level tuple plus their OLH report for that tuple's
  // product grid.
  kMultiDimReport = 0x0A,  // [dims u8][dims x level u8][seed u64][cell u32]
  // Streaming ingestion framing (service/stream_wire.h): a session of
  // chunked report batches, reassembled by the aggregator service. The
  // chunk's nested bytes are themselves a complete framed batch message.
  kStreamBegin = 0x10,  // [session u64][server u64]
  kStreamChunk = 0x11,  // [session u64][sequence varint][nested bytes]
  kStreamEnd = 0x12,    // [session u64][chunk_count varint][flags u8]
  // Query plane (service/stream_wire.h): range queries and their answers
  // as serialized bytes — the first server -> client result messages.
  kRangeQueryRequest = 0x20,   // [query u64][server u64][count varint]
                               //   [count x (lo varint, hi varint)]
  kRangeQueryResponse = 0x21,  // [query u64][status u8][count varint]
                               //   [count x (estimate f64, variance f64)]
  // Multidim query plane: axis-aligned box queries (one interval per axis)
  // and their answers.
  kMultiDimQuery = 0x22,          // [query u64][server u64][dims u8]
                                  //   [count varint][count x dims x
                                  //   (lo varint, hi varint)]
  kMultiDimQueryResponse = 0x23,  // [query u64][status u8][count varint]
                                  //   [count x (estimate f64, variance f64)]
  // Stats plane (obs/stats_wire.h): metrics scrape over the same wire —
  // counters, gauges and sparse log2 histograms as typed messages.
  kStatsQuery = 0x24,     // [query u64][flags u8]
  kStatsResponse = 0x25,  // [query u64][status u8][format u8]
                          //   [3 x named-entry sections]
  // Distributed fan-in (service/state_wire.h): one server's partial
  // aggregate state as a canonical snapshot, the shard -> query-node
  // push that carries it, and the typed ack.
  kStateSnapshot = 0x30,  // [kind u8][dims u8][domain varint]
                          //   [fanout varint][eps f64][accepted varint]
                          //   [rejected varint][state body]
  kStateMerge = 0x31,     // [merge u64][server u64][shard varint]
                          //   [shards varint][flags u8][nested snapshot]
  kStateMergeResponse = 0x32,  // [merge u64][status u8][received varint]
  // Batched forms: payload = [count varint][count x single-report payload].
  kFlatHrrBatch = 0x81,
  kHaarHrrBatch = 0x82,
  kTreeHrrBatch = 0x83,
  kAheadReportBatch = 0x88,
  kMultiDimReportBatch = 0x8A,
};

/// Wire ceiling on the dimensionality of multidim messages (reports and
/// box queries). The mechanism's memory grows as (D·B/(B-1))^d, so real
/// configurations sit at d = 2..3; the cap only bounds what a parser
/// will accept and allocate for.
inline constexpr uint32_t kMaxWireDimensions = 16;

/// True for every tag DecodeEnvelope will admit.
bool IsKnownMechanismTag(uint8_t tag);

/// Human-readable tag name ("FlatHrr", "HaarHrrBatch", ...); "?" for
/// unknown values.
std::string MechanismTagName(MechanismTag tag);

/// Why a decode failed. kOk is zero so the enum converts naturally to
/// "did anything go wrong".
enum class ParseError : uint8_t {
  kOk = 0,
  kTruncated,            // shorter than the 8-byte header
  kBadMagic,             // first two bytes are not "LR"
  kUnsupportedVersion,   // version this build does not speak
  kUnknownMechanism,     // mechanism_tag not in MechanismTag
  kLengthMismatch,       // payload_len exceeds the bytes present
  kTrailingJunk,         // bytes left over after the declared payload
  kBadPayload,           // envelope fine, payload malformed for its tag
};

/// Stable identifier for logs and tests ("ok", "bad_magic", ...).
std::string ParseErrorName(ParseError error);

/// A decoded v2 envelope. `payload` is a view into the buffer handed to
/// DecodeEnvelope — it borrows, the caller's bytes must outlive it.
struct Envelope {
  uint8_t version = kWireVersionV2;
  MechanismTag mechanism = MechanismTag::kFlatHrr;
  std::span<const uint8_t> payload;
};

/// Frames `payload` under an 8-byte v2 header.
std::vector<uint8_t> EncodeEnvelope(MechanismTag mechanism,
                                    std::span<const uint8_t> payload);

/// Appends just the 8-byte header for a payload of `payload_len` bytes —
/// the zero-copy path for encoders that then append the payload in place.
void AppendEnvelopeHeader(std::vector<uint8_t>& out, MechanismTag mechanism,
                          uint32_t payload_len);

/// Closes a frame built in place: `out` holds, from `frame_offset`, a
/// header appended by AppendEnvelopeHeader (any payload_len) and the
/// first part of its payload, and `trailing_bytes` more payload bytes
/// follow on the wire from a second buffer (0 when `out` holds it all).
/// Rewrites payload_len to the exact total; CHECK-fails past UINT32_MAX.
void PatchEnvelopePayloadLength(std::vector<uint8_t>& out,
                                size_t frame_offset,
                                size_t trailing_bytes = 0);

/// Parses a complete v2 message. Exact framing: the buffer must hold the
/// header plus exactly payload_len payload bytes.
ParseError DecodeEnvelope(std::span<const uint8_t> bytes, Envelope* out);

/// The header half of DecodeEnvelope, for a frame whose payload has not
/// all arrived: the same magic, version and tag checks on the first 8
/// bytes, and the announced payload length. Claims nothing about the
/// bytes after the header.
ParseError DecodeEnvelopeHeader(std::span<const uint8_t> bytes,
                                MechanismTag* mechanism,
                                uint32_t* payload_len);

/// True when `bytes` starts with the v2 magic — a cheap test for callers
/// that split a buffer holding more than one message.
bool LooksLikeEnvelope(std::span<const uint8_t> bytes);

}  // namespace ldp::protocol

#endif  // LDPRANGE_PROTOCOL_ENVELOPE_H_
