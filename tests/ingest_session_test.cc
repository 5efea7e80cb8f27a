// IngestSession edge cases: sequence-policy boundaries, the max-sequence
// bookkeeping under adversarial admit orders, and kStreamEnd
// declarations no stream can satisfy.

#include <gtest/gtest.h>

#include <cstdint>

#include "service/ingest_session.h"

namespace ldp {
namespace {

using service::EndResult;
using service::IngestSession;

constexpr uint64_t kMax = IngestSession::kMaxSequences;

TEST(IngestSession, HappyPathInOrder) {
  IngestSession s(1, 0);
  for (uint64_t seq = 0; seq < 5; ++seq) {
    EXPECT_TRUE(s.AdmitChunk(seq));
  }
  EXPECT_EQ(s.chunks_admitted(), 5u);
  EXPECT_EQ(s.End(5, 0), EndResult::kOk);
  EXPECT_TRUE(s.complete());
}

TEST(IngestSession, RejectedMaxSequenceThenZeroIsStillComplete) {
  // Regression: admit {kMaxSequences, 0} in that order. The first is out
  // of policy and must leave NO trace in the max-sequence bookkeeping —
  // the old seen_.size()-based special case conflated "first admitted
  // chunk" with "first AdmitChunk call". After admitting only sequence
  // 0, End(1) must report a complete session.
  IngestSession s(1, 0);
  EXPECT_FALSE(s.AdmitChunk(kMax));
  EXPECT_TRUE(s.AdmitChunk(0));
  EXPECT_EQ(s.chunks_admitted(), 1u);
  EXPECT_EQ(s.End(1, 0), EndResult::kOk);
  EXPECT_TRUE(s.complete());
}

TEST(IngestSession, OutOfOrderAdmitTracksTrueMaximum) {
  // {5, 0, 3}: max admitted sequence is 5, so declaring 3 chunks is
  // incomplete (sequences are not {0, 1, 2}) even though the count
  // matches.
  IngestSession s(1, 0);
  EXPECT_TRUE(s.AdmitChunk(5));
  EXPECT_TRUE(s.AdmitChunk(0));
  EXPECT_TRUE(s.AdmitChunk(3));
  EXPECT_EQ(s.End(3, 0), EndResult::kOk);
  EXPECT_FALSE(s.complete());
}

TEST(IngestSession, DuplicatesAndPostEndChunksRejected) {
  IngestSession s(1, 0);
  EXPECT_TRUE(s.AdmitChunk(0));
  EXPECT_FALSE(s.AdmitChunk(0));  // duplicate
  EXPECT_EQ(s.End(1, 0), EndResult::kOk);
  EXPECT_FALSE(s.AdmitChunk(1));  // after end
  EXPECT_TRUE(s.complete());
}

TEST(IngestSession, OversizedDeclarationRejectedSessionStaysLive) {
  // A kStreamEnd declaring more chunks than AdmitChunk will ever accept
  // can never be satisfied; it must be rejected as a typed status — not
  // land the session in the incomplete bucket — and the session must
  // stay live so a corrected retry can still end it.
  IngestSession s(1, 0);
  EXPECT_TRUE(s.AdmitChunk(0));
  EXPECT_EQ(s.End(kMax + 1, 0), EndResult::kOversizedDeclaration);
  EXPECT_FALSE(s.ended());
  EXPECT_TRUE(s.AdmitChunk(1));  // still live, still admitting
  EXPECT_EQ(s.End(2, 0), EndResult::kOk);
  EXPECT_TRUE(s.complete());
}

TEST(IngestSession, DeclarationAtExactlyMaxSequencesIsAllowed) {
  // chunk_count == kMaxSequences is satisfiable (sequences
  // 0..kMaxSequences-1 are all in policy), so the boundary must pass.
  IngestSession s(1, 0);
  EXPECT_EQ(s.End(kMax, 0), EndResult::kOk);
  EXPECT_FALSE(s.complete());  // nothing was admitted
}

TEST(IngestSession, ReplayedEndKeepsFirstDeclaration) {
  IngestSession s(1, 0);
  EXPECT_TRUE(s.AdmitChunk(0));
  EXPECT_EQ(s.End(1, 0), EndResult::kOk);
  EXPECT_EQ(s.End(99, 0), EndResult::kAlreadyEnded);
  EXPECT_EQ(s.declared_chunks(), 1u);
  EXPECT_TRUE(s.complete());
}

}  // namespace
}  // namespace ldp
