// Per-session stream reassembly state for the aggregator service.
//
// An IngestSession tracks which chunk sequence numbers of one streaming
// session have been admitted, so duplicate chunks (a retrying client, a
// replaying middlebox) are dropped instead of double-counted, and so the
// kStreamEnd completeness check — did every declared chunk arrive? — is
// exact even under arbitrary reordering. It holds no report bytes and no
// mechanism state; chunk payloads flow straight to the target server's
// strand.

#ifndef LDPRANGE_SERVICE_INGEST_SESSION_H_
#define LDPRANGE_SERVICE_INGEST_SESSION_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ldp::service {

/// Outcome of an IngestSession::End declaration.
enum class EndResult : uint8_t {
  kOk = 0,
  kAlreadyEnded,  // a replayed kStreamEnd; the first declaration stands
  // The declaration names more chunks than AdmitChunk will ever accept
  // (> kMaxSequences), so completeness would be silently impossible.
  // The declaration is rejected and the session stays live: a retry with
  // an honest count can still end it.
  kOversizedDeclaration,
};

class IngestSession {
 public:
  /// Hard cap on distinct chunk sequences per session. Honest streams
  /// number chunks 0..count-1, so this allows ~500M reports per session
  /// at typical chunk sizes while bounding what chunk spam on one
  /// never-ending session can pin in the dedupe bitmap (8 KiB at the
  /// cap). Sequences at or past the cap are rejected, never admitted.
  static constexpr uint64_t kMaxSequences = uint64_t{1} << 16;

  IngestSession(uint64_t session_id, uint64_t server_id)
      : session_id_(session_id), server_id_(server_id) {}

  uint64_t session_id() const { return session_id_; }
  uint64_t server_id() const { return server_id_; }

  /// Admits chunk `sequence`: true when it is new (caller should absorb
  /// its payload), false for a duplicate, an out-of-policy sequence
  /// (>= kMaxSequences), or a chunk after the session ended (caller
  /// should drop it).
  bool AdmitChunk(uint64_t sequence) {
    if (ended_ || sequence >= kMaxSequences) return false;
    const size_t word = static_cast<size_t>(sequence / 64);
    const uint64_t bit = uint64_t{1} << (sequence % 64);
    if (word >= seen_.size()) {
      // Doubling growth, capped at the whole sequence space.
      const size_t words =
          std::min(kBitmapWords, std::max(word + 1, 2 * seen_.size()));
      seen_.reserve(words);
      seen_.resize(words);
    }
    if ((seen_[word] & bit) != 0) return false;
    seen_[word] |= bit;
    ++chunks_admitted_;
    max_sequence_ = std::max(max_sequence_, sequence);
    return true;
  }

  /// Records the kStreamEnd declaration, which fixes completeness (no
  /// chunk is admitted after it), and releases the bitmap: it exists only
  /// for pre-end dedupe, and a long-lived service holds many ended
  /// sessions. A declaration no stream can satisfy (chunk_count >
  /// kMaxSequences) is rejected with kOversizedDeclaration instead of
  /// silently landing the session in the incomplete bucket.
  EndResult End(uint64_t chunk_count, uint8_t flags) {
    if (ended_) return EndResult::kAlreadyEnded;
    if (chunk_count > kMaxSequences) return EndResult::kOversizedDeclaration;
    ended_ = true;
    declared_chunks_ = chunk_count;
    flags_ = flags;
    std::vector<uint64_t>().swap(seen_);
    return EndResult::kOk;
  }

  bool ended() const { return ended_; }
  uint8_t flags() const { return flags_; }
  uint64_t chunks_admitted() const { return chunks_admitted_; }
  uint64_t declared_chunks() const { return declared_chunks_; }

  /// True iff the session ended with every declared chunk admitted: the
  /// admitted sequences are exactly {0, ..., declared - 1} iff `declared`
  /// distinct values were admitted with maximum declared - 1.
  bool complete() const {
    return ended_ && chunks_admitted_ == declared_chunks_ &&
           (declared_chunks_ == 0 || max_sequence_ == declared_chunks_ - 1);
  }

 private:
  static constexpr size_t kBitmapWords = kMaxSequences / 64;

  uint64_t session_id_;
  uint64_t server_id_;
  // Bit s % 64 of word s / 64 is set once sequence s is admitted. It
  // grows by doubling to cover the highest admitted sequence, and never
  // past kMaxSequences bits (8 KiB).
  std::vector<uint64_t> seen_;
  uint64_t chunks_admitted_ = 0;
  uint64_t max_sequence_ = 0;  // meaningful once a chunk was admitted
  uint64_t declared_chunks_ = 0;
  uint8_t flags_ = 0;
  bool ended_ = false;
};

}  // namespace ldp::service

#endif  // LDPRANGE_SERVICE_INGEST_SESSION_H_
