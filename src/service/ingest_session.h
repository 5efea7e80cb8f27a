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

#include <cstdint>
#include <unordered_set>

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
  /// never-ending session can pin in the dedupe set (~2.5 MB at the
  /// cap). Sequences at or past the cap are rejected, never admitted.
  static constexpr uint64_t kMaxSequences = uint64_t{1} << 16;

  IngestSession(uint64_t session_id, uint64_t server_id)
      : session_id_(session_id), server_id_(server_id) {}

  uint64_t session_id() const { return session_id_; }
  uint64_t server_id() const { return server_id_; }

  /// Admits chunk `sequence`: true when it is new (caller should enqueue
  /// its payload), false for a duplicate, an out-of-policy sequence
  /// (>= kMaxSequences), or a chunk after the session ended (caller
  /// should drop it).
  bool AdmitChunk(uint64_t sequence) {
    if (ended_ || sequence >= kMaxSequences) return false;
    if (!seen_.insert(sequence).second) return false;
    if (!has_seen_ || sequence > max_sequence_) max_sequence_ = sequence;
    has_seen_ = true;
    return true;
  }

  /// Records the kStreamEnd declaration. Completeness is decided here —
  /// the admitted sequences are exactly {0, ..., chunk_count - 1} iff
  /// the set holds `chunk_count` distinct values with maximum
  /// chunk_count - 1 — and the sequence set is then released: it exists
  /// only for pre-end dedupe, and a long-lived service holds many ended
  /// sessions. A declaration no stream can satisfy (chunk_count >
  /// kMaxSequences) is rejected with kOversizedDeclaration instead of
  /// silently landing the session in the incomplete bucket.
  EndResult End(uint64_t chunk_count, uint8_t flags) {
    if (ended_) return EndResult::kAlreadyEnded;
    if (chunk_count > kMaxSequences) return EndResult::kOversizedDeclaration;
    ended_ = true;
    declared_chunks_ = chunk_count;
    flags_ = flags;
    chunks_admitted_ = seen_.size();
    complete_ = declared_chunks_ == 0
                    ? seen_.empty()
                    : (seen_.size() == declared_chunks_ &&
                       max_sequence_ == declared_chunks_ - 1);
    std::unordered_set<uint64_t>().swap(seen_);
    return EndResult::kOk;
  }

  bool ended() const { return ended_; }
  uint8_t flags() const { return flags_; }
  uint64_t chunks_admitted() const {
    return ended_ ? chunks_admitted_ : seen_.size();
  }
  uint64_t declared_chunks() const { return declared_chunks_; }

  /// True iff the session ended with every declared chunk admitted.
  bool complete() const { return ended_ && complete_; }

 private:
  uint64_t session_id_;
  uint64_t server_id_;
  std::unordered_set<uint64_t> seen_;
  // max_sequence_ is only meaningful once a chunk has been admitted;
  // has_seen_ makes that explicit instead of special-casing set sizes.
  bool has_seen_ = false;
  uint64_t max_sequence_ = 0;
  uint64_t declared_chunks_ = 0;
  uint64_t chunks_admitted_ = 0;
  uint8_t flags_ = 0;
  bool ended_ = false;
  bool complete_ = false;
};

}  // namespace ldp::service

#endif  // LDPRANGE_SERVICE_INGEST_SESSION_H_
