// Minimal byte-level wire format helpers for LDP report serialization.
//
// A real deployment of the paper's protocols ships each user's report over
// the network; this module provides the (deliberately boring) fixed-width
// little-endian encoding plus LEB128 varints and length-prefixed byte
// strings used by src/protocol clients and servers. Readers are
// bounds-checked and never abort on malformed input: a server must reject
// garbage, not crash on it.

#ifndef LDPRANGE_PROTOCOL_WIRE_H_
#define LDPRANGE_PROTOCOL_WIRE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "protocol/envelope.h"

namespace ldp::protocol {

/// Appends fixed-width little-endian integers to `out`.
void AppendU8(std::vector<uint8_t>& out, uint8_t v);
void AppendU32(std::vector<uint8_t>& out, uint32_t v);
void AppendU64(std::vector<uint8_t>& out, uint64_t v);

/// Appends an IEEE-754 double as its 8-byte little-endian bit pattern
/// (bit-exact round trip, including NaN payloads and infinities). Used by
/// the query plane to ship estimates and variances.
void AppendF64(std::vector<uint8_t>& out, double v);

/// Appends `values` as consecutive 8-byte little-endian words: the same
/// bytes as an AppendU64 loop, written in one insert (a memcpy on
/// little-endian hosts, the byte loop elsewhere). The bulk codec for
/// fixed-width aggregate-state arrays (HRR coefficient sums, OLH support,
/// AHEAD level counts) — see service/state_wire.h.
void AppendU64Array(std::vector<uint8_t>& out,
                    std::span<const uint64_t> values);

/// Little-endian loads from bytes the caller has already bounds-checked —
/// the decode side of AppendU32/AppendU64, inline for the per-slot batch
/// decoders. The same contract as AppendU64Array: one memcpy on
/// little-endian hosts, the byte loop elsewhere.
inline uint64_t LoadU64Le(const uint8_t* p) {
  uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(v));
  } else {
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

inline uint32_t LoadU32Le(const uint8_t* p) {
  uint32_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(v));
  } else {
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

/// Appends `v` as an unsigned LEB128 varint (1..10 bytes, 7 bits per
/// byte, low group first).
void AppendVarU64(std::vector<uint8_t>& out, uint64_t v);

/// Exact byte count AppendVarU64(out, v) appends — lets writers size a
/// buffer once before filling it.
size_t VarU64Size(uint64_t v);

/// Appends a u32 byte count followed by the bytes themselves. The
/// counterpart of WireReader::ReadLengthPrefixedBytes. Requires
/// bytes.size() <= UINT32_MAX.
void AppendLengthPrefixedBytes(std::vector<uint8_t>& out,
                               std::span<const uint8_t> bytes);

/// Sequential bounds-checked reader over a byte buffer. All Read*
/// methods return false (leaving the output untouched) once any read has
/// failed or the buffer is exhausted; a failed reader stays failed — no
/// later Read*/Take can succeed or advance the position. The reader
/// borrows the buffer; it must outlive the reader.
class WireReader {
 public:
  explicit WireReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  bool ReadU8(uint8_t* v);
  bool ReadU32(uint32_t* v);
  bool ReadU64(uint64_t* v);

  /// Reads `n` consecutive 8-byte little-endian words into out[0, n) —
  /// the counterpart of AppendU64Array. All-or-nothing: when fewer than
  /// 8n bytes remain the reader fails without writing to `out` or
  /// advancing. The count is checked as n > Remaining() / 8, so a forged
  /// n near SIZE_MAX / 8 cannot wrap 8n into a small length. `out` must
  /// have room for n words (it is only written after the check passes).
  bool ReadU64Array(size_t n, uint64_t* out);

  /// Reads an IEEE-754 double from its 8-byte little-endian bit pattern.
  bool ReadF64(double* v);

  /// Reads an unsigned LEB128 varint (at most 10 bytes; the tenth byte
  /// may only contribute the top valuation bit — anything above 2^64-1
  /// or an unterminated group sequence fails the reader).
  bool ReadVarU64(uint64_t* v);

  /// Borrows the next `n` bytes as a span into the underlying buffer
  /// (no copy). Fails without advancing when fewer than `n` remain.
  bool ReadBytes(size_t n, std::span<const uint8_t>* out);

  /// Reads a u32 byte count followed by that many bytes (borrowed, no
  /// copy). The count is validated against Remaining() *before* anything
  /// is materialized, so a forged length near UINT32_MAX fails cleanly
  /// without allocation.
  bool ReadLengthPrefixedBytes(std::span<const uint8_t>* out);

  /// True iff no read has failed so far.
  bool ok() const { return ok_; }

  /// Bytes not yet consumed. Unlike AtEnd() this is meaningful on a
  /// failed reader too (the position freezes at the first failure).
  size_t Remaining() const { return bytes_.size() - position_; }

  /// True iff every read so far succeeded AND the buffer is fully
  /// consumed — trailing junk is a parse error for fixed-format reports.
  bool AtEnd() const { return ok_ && position_ == bytes_.size(); }

 private:
  bool Take(size_t n, const uint8_t** p);

  std::span<const uint8_t> bytes_;
  size_t position_ = 0;
  bool ok_ = true;
};

/// A structurally valid batch message, opened in place: `count`
/// fixed-width report slots of `item_size` bytes each, laid end to end
/// from `slots`. The slots borrow the buffer handed to OpenReportBatch.
struct ReportBatch {
  uint64_t count = 0;
  size_t item_size = 0;
  const uint8_t* slots = nullptr;
};

/// The one structural check of every report batch message, whose payload
/// is [header_size bytes][count varint][count x item_size bytes]: the
/// envelope decodes and carries `tag`, the count reads, and the items
/// fill the rest of the payload exactly (the count is bounded by
/// division first, so a forged count cannot wrap count * item_size).
/// Returns the envelope's own error, or kBadPayload for everything after
/// it; on kOk `*batch` names the slots. Per-item validation is the
/// caller's: the typed Parse*ReportBatch parsers and the servers' batch
/// ingestion decode the same slots with the same per-family DecodeItem.
/// Requires item_size > 0.
ParseError OpenReportBatch(std::span<const uint8_t> bytes, MechanismTag tag,
                           size_t item_size, ReportBatch* batch,
                           size_t header_size = 0);

/// Decodes every slot of an opened batch with `decode` (a family's
/// DecodeItem, bool(const uint8_t* slot, Report*)) into `reports`, and
/// returns how many slots failed to decode.
template <typename Report, typename DecodeFn>
uint64_t DecodeReportSlots(const ReportBatch& batch, DecodeFn decode,
                           std::vector<Report>* reports) {
  reports->clear();
  reports->reserve(batch.count);
  uint64_t malformed = 0;
  const uint8_t* slot = batch.slots;
  for (uint64_t i = 0; i < batch.count; ++i, slot += batch.item_size) {
    Report report;
    if (decode(slot, &report)) {
      reports->push_back(std::move(report));
    } else {
      ++malformed;
    }
  }
  return malformed;
}

}  // namespace ldp::protocol

#endif  // LDPRANGE_PROTOCOL_WIRE_H_
