#include "protocol/wire.h"

#include <bit>
#include <cstring>

#include "common/check.h"

namespace ldp::protocol {

void AppendU8(std::vector<uint8_t>& out, uint8_t v) { out.push_back(v); }

void AppendU32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void AppendU64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void AppendF64(std::vector<uint8_t>& out, double v) {
  AppendU64(out, std::bit_cast<uint64_t>(v));
}

void AppendU64Array(std::vector<uint8_t>& out,
                    std::span<const uint64_t> values) {
  if constexpr (std::endian::native == std::endian::little) {
    // The in-memory words already are the wire bytes. insert() from a
    // byte range copies straight in (no zero-fill first, unlike resize).
    const auto* bytes = reinterpret_cast<const uint8_t*>(values.data());
    out.insert(out.end(), bytes, bytes + values.size_bytes());
  } else {
    out.reserve(out.size() + values.size_bytes());
    for (uint64_t v : values) AppendU64(out, v);
  }
}

void AppendVarU64(std::vector<uint8_t>& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<uint8_t>(v));
}

size_t VarU64Size(uint64_t v) {
  // 7 payload bits per byte; a zero still takes one byte.
  return static_cast<size_t>(std::bit_width(v | 1) + 6) / 7;
}

void AppendLengthPrefixedBytes(std::vector<uint8_t>& out,
                               std::span<const uint8_t> bytes) {
  LDP_CHECK_LE(bytes.size(), size_t{UINT32_MAX});
  AppendU32(out, static_cast<uint32_t>(bytes.size()));
  out.insert(out.end(), bytes.begin(), bytes.end());
}

bool WireReader::Take(size_t n, const uint8_t** p) {
  // Remaining() (not position_ + n) so a huge forged n cannot wrap.
  if (!ok_ || n > Remaining()) {
    ok_ = false;
    return false;
  }
  *p = bytes_.data() + position_;
  position_ += n;
  return true;
}

bool WireReader::ReadU8(uint8_t* v) {
  const uint8_t* p = nullptr;
  if (!Take(1, &p)) return false;
  *v = p[0];
  return true;
}

bool WireReader::ReadU32(uint32_t* v) {
  const uint8_t* p = nullptr;
  if (!Take(4, &p)) return false;
  *v = LoadU32Le(p);
  return true;
}

bool WireReader::ReadU64(uint64_t* v) {
  const uint8_t* p = nullptr;
  if (!Take(8, &p)) return false;
  *v = LoadU64Le(p);
  return true;
}

bool WireReader::ReadU64Array(size_t n, uint64_t* out) {
  // Division, not n * 8: a forged count cannot wrap past the check.
  if (!ok_ || n > Remaining() / 8) {
    ok_ = false;
    return false;
  }
  if constexpr (std::endian::native == std::endian::little) {
    if (n > 0) std::memcpy(out, bytes_.data() + position_, n * 8);
    position_ += n * 8;
  } else {
    // Cannot fail: the check above covered every word.
    for (size_t k = 0; k < n; ++k) ReadU64(&out[k]);
  }
  return true;
}

bool WireReader::ReadF64(double* v) {
  uint64_t bits = 0;
  if (!ReadU64(&bits)) return false;
  *v = std::bit_cast<double>(bits);
  return true;
}

bool WireReader::ReadVarU64(uint64_t* v) {
  if (!ok_) return false;
  uint64_t out = 0;
  for (size_t i = 0;; ++i) {
    const uint8_t* p = nullptr;
    if (!Take(1, &p)) return false;
    switch (FoldVarU64Byte(*p, i, &out)) {
      case VarU64Step::kDone:
        *v = out;
        return true;
      case VarU64Step::kBad:
        ok_ = false;
        return false;
      case VarU64Step::kMore:
        break;
    }
  }
}

bool WireReader::ReadBytes(size_t n, std::span<const uint8_t>* out) {
  const uint8_t* p = nullptr;
  if (!Take(n, &p)) return false;
  *out = std::span<const uint8_t>(p, n);
  return true;
}

bool WireReader::ReadLengthPrefixedBytes(std::span<const uint8_t>* out) {
  uint32_t len = 0;
  if (!ReadU32(&len)) return false;
  return ReadBytes(len, out);
}

ParseError OpenReportBatch(std::span<const uint8_t> bytes, MechanismTag tag,
                           size_t item_size, ReportBatch* batch,
                           size_t header_size) {
  LDP_CHECK_GT(item_size, size_t{0});
  Envelope env;
  ParseError err = DecodeEnvelope(bytes, &env);
  if (err != ParseError::kOk) return err;
  if (env.mechanism != tag) return ParseError::kBadPayload;
  WireReader reader(env.payload);
  std::span<const uint8_t> header;
  uint64_t count = 0;
  if (!reader.ReadBytes(header_size, &header) || !reader.ReadVarU64(&count)) {
    return ParseError::kBadPayload;
  }
  // Division first so count * item_size cannot wrap; exact framing then
  // bounds every later reserve by the bytes actually present.
  const size_t remaining = reader.Remaining();
  if (count > remaining / item_size || remaining != count * item_size) {
    return ParseError::kBadPayload;
  }
  batch->count = count;
  batch->item_size = item_size;
  batch->slots = env.payload.data() + (env.payload.size() - remaining);
  return ParseError::kOk;
}

}  // namespace ldp::protocol
