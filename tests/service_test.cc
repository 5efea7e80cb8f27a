// The aggregator service end to end: every mechanism family streamed
// through the identical bytes-in -> query-response-bytes-out path, with
// the in-process batch path as the bit-for-bit reference; plus the
// shared ServerStats accounting, session hygiene (duplicates,
// reordering, incompleteness), and determinism across concurrent callers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/random.h"
#include "protocol/ahead_protocol.h"
#include "protocol/flat_protocol.h"
#include "protocol/haar_protocol.h"
#include "protocol/tree_protocol.h"
#include "service/aggregator_service.h"
#include "service/server_factory.h"
#include "service/state_wire.h"
#include "service/stream_wire.h"

namespace ldp {
namespace {

using protocol::ParseError;
using service::AggregatorServer;
using service::AggregatorService;
using service::AllServerSpecs;
using service::IntervalEstimate;
using service::MakeAggregatorServer;
using service::QueryInterval;
using service::QueryStatus;
using service::RangeQueryRequest;
using service::RangeQueryResponse;
using service::ServerKind;
using service::ServerKindName;
using service::ServerSpec;
using service::StreamBegin;
using service::StreamEnd;

constexpr uint64_t kDomain = 256;
constexpr double kEps = 1.0;
constexpr uint64_t kUsers = 4000;
constexpr int kChunks = 5;

std::vector<uint64_t> TestValues(uint64_t n, uint64_t domain) {
  std::vector<uint64_t> values;
  values.reserve(n);
  Rng rng(0xC0FFEE);
  for (uint64_t i = 0; i < n; ++i) {
    // A lumpy distribution so range estimates are far from uniform.
    values.push_back(rng.Bernoulli(0.6) ? rng.UniformInt(domain / 8)
                                        : rng.UniformInt(domain));
  }
  return values;
}

// Splits `values` into `chunk_count` batch messages for one non-AHEAD
// mechanism. The same bytes feed both the reference server and the
// streamed service, so their aggregates must agree bit for bit.
std::vector<std::vector<uint8_t>> EncodeChunks(
    const ServerSpec& spec, const std::vector<uint64_t>& values,
    uint64_t seed, int chunk_count = kChunks) {
  std::vector<std::vector<uint8_t>> chunks;
  uint64_t per_chunk = (values.size() + chunk_count - 1) / chunk_count;
  for (int c = 0; c < chunk_count; ++c) {
    uint64_t begin = c * per_chunk;
    uint64_t end = std::min<uint64_t>(values.size(), begin + per_chunk);
    if (begin >= end) break;
    std::span<const uint64_t> slice(values.data() + begin, end - begin);
    Rng rng(seed + c);
    switch (spec.kind) {
      case ServerKind::kFlat: {
        protocol::FlatHrrClient client(spec.domain, spec.eps);
        chunks.push_back(client.EncodeUsersSerialized(slice, rng));
        break;
      }
      case ServerKind::kHaar: {
        protocol::HaarHrrClient client(spec.domain, spec.eps);
        chunks.push_back(client.EncodeUsersSerialized(slice, rng));
        break;
      }
      case ServerKind::kTree: {
        protocol::TreeHrrClient client(spec.domain, spec.fanout, spec.eps);
        chunks.push_back(client.EncodeUsersSerialized(slice, rng));
        break;
      }
      case ServerKind::kAhead:
        ADD_FAILURE() << "AHEAD uses the two-phase driver";
        break;
      case ServerKind::kGrid:
        ADD_FAILURE() << "the grid streams multidim batches, not 1-D";
        break;
    }
  }
  return chunks;
}

// Streams `chunks` as one session (sequences in send order) and
// finalizes via the kStreamEnd flag.
void StreamSession(AggregatorService& svc, uint64_t session_id,
                   uint64_t server_id,
                   const std::vector<std::vector<uint8_t>>& chunks,
                   bool finalize) {
  svc.HandleMessage(service::SerializeStreamBegin({session_id, server_id}));
  for (size_t c = 0; c < chunks.size(); ++c) {
    svc.HandleMessage(service::SerializeStreamChunk(session_id, c,
                                                    chunks[c]));
  }
  StreamEnd end;
  end.session_id = session_id;
  end.chunk_count = chunks.size();
  end.flags = finalize ? service::kStreamFlagFinalize : 0;
  svc.HandleMessage(service::SerializeStreamEnd(end));
}

std::vector<uint8_t> QueryBytes(uint64_t server_id,
                                std::vector<QueryInterval> intervals,
                                uint64_t query_id = 7) {
  RangeQueryRequest request;
  request.query_id = query_id;
  request.server_id = server_id;
  request.intervals = std::move(intervals);
  return service::SerializeRangeQueryRequest(request);
}

RangeQueryResponse QueryOverWire(AggregatorService& svc, uint64_t server_id,
                                 std::vector<QueryInterval> intervals,
                                 uint64_t query_id = 7) {
  std::vector<uint8_t> bytes =
      svc.HandleMessage(QueryBytes(server_id, std::move(intervals), query_id));
  RangeQueryResponse response;
  EXPECT_EQ(service::ParseRangeQueryResponse(bytes, &response),
            ParseError::kOk);
  return response;
}

// --- ServerStats: one shared accounting struct for all four servers ----

TEST(ServerStats, AllServersReportThroughTheSharedStruct) {
  for (const ServerSpec& spec : AllServerSpecs(64, 1.0)) {
    SCOPED_TRACE(ServerKindName(spec.kind));
    std::unique_ptr<AggregatorServer> server = MakeAggregatorServer(spec);
    EXPECT_EQ(server->stats().ingested(), 0u);

    // One garbage buffer: exactly one rejection, through the base-class
    // interface, visible in both the struct and the legacy accessors.
    const uint8_t junk[] = {0xDE, 0xAD, 0xBE, 0xEF};
    EXPECT_FALSE(server->AbsorbSerialized(junk));
    EXPECT_EQ(server->stats().rejected, 1u);
    EXPECT_EQ(server->rejected_reports(), server->stats().rejected);
    EXPECT_EQ(server->accepted_reports(), server->stats().accepted);
    EXPECT_EQ(server->stats().ingested(), 1u);

    // A structurally-broken batch message counts one more rejection.
    std::vector<uint8_t> truncated = {0x4C, 0x52, 0x02};
    uint64_t accepted = 1234;
    EXPECT_NE(server->AbsorbBatchSerialized(truncated, &accepted),
              ParseError::kOk);
    EXPECT_EQ(accepted, 0u);
    EXPECT_EQ(server->stats().rejected, 2u);
    EXPECT_EQ(server->stats().accepted, 0u);
  }
}

TEST(ServerStats, AcceptedReportsFlowThroughTheStruct) {
  ServerSpec spec;
  spec.kind = ServerKind::kHaar;
  spec.domain = 64;
  spec.eps = 1.0;
  std::unique_ptr<AggregatorServer> server = MakeAggregatorServer(spec);
  protocol::HaarHrrClient client(64, 1.0);
  Rng rng(11);
  std::vector<uint64_t> values(100, 3);
  std::vector<uint8_t> batch = client.EncodeUsersSerialized(values, rng);
  uint64_t accepted = 0;
  ASSERT_EQ(server->AbsorbBatchSerialized(batch, &accepted), ParseError::kOk);
  EXPECT_EQ(accepted, 100u);
  EXPECT_EQ(server->stats().accepted, 100u);
  EXPECT_EQ(server->stats().rejected, 0u);
}

// --- End to end: streamed bytes in, query-response bytes out -----------

class ServiceEndToEnd : public ::testing::TestWithParam<ServerKind> {};

INSTANTIATE_TEST_SUITE_P(AllKinds, ServiceEndToEnd,
                         ::testing::Values(ServerKind::kFlat,
                                           ServerKind::kHaar,
                                           ServerKind::kTree),
                         [](const auto& info) {
                           return ServerKindName(info.param);
                         });

TEST_P(ServiceEndToEnd, StreamedMatchesInProcessBitForBit) {
  ServerSpec spec;
  spec.kind = GetParam();
  spec.domain = kDomain;
  spec.eps = kEps;
  std::vector<uint64_t> values = TestValues(kUsers, kDomain);
  std::vector<std::vector<uint8_t>> chunks =
      EncodeChunks(spec, values, /*seed=*/42);

  // Reference: the one-shot in-process batch path.
  std::unique_ptr<AggregatorServer> reference = MakeAggregatorServer(spec);
  for (const std::vector<uint8_t>& chunk : chunks) {
    ASSERT_EQ(reference->AbsorbBatchSerialized(chunk), ParseError::kOk);
  }
  reference->Finalize();

  // Streamed: the same bytes through the service.
  AggregatorService svc;
  uint64_t id = svc.AddServer(MakeAggregatorServer(spec));
  StreamSession(svc, /*session_id=*/1, id, chunks, /*finalize=*/true);
  svc.Drain();
  ASSERT_TRUE(svc.server_finalized(id));
  EXPECT_EQ(svc.server(id).stats(), reference->stats());
  EXPECT_EQ(svc.server(id).EstimateFrequencies(),
            reference->EstimateFrequencies());

  // Query over the wire; answers must equal the in-process estimates
  // exactly (same finalized state, same query math).
  std::vector<QueryInterval> intervals = {
      {0, kDomain - 1}, {3, 17}, {100, 200}, {31, 31}};
  RangeQueryResponse response = QueryOverWire(svc, id, intervals);
  ASSERT_EQ(response.status, QueryStatus::kOk);
  ASSERT_EQ(response.estimates.size(), intervals.size());
  for (size_t i = 0; i < intervals.size(); ++i) {
    RangeEstimate expected = reference->RangeQueryWithUncertainty(
        intervals[i].lo, intervals[i].hi);
    EXPECT_EQ(response.estimates[i].estimate, expected.value) << i;
    EXPECT_EQ(response.estimates[i].variance,
              expected.stddev * expected.stddev)
        << i;
  }
}

TEST(ServiceEndToEnd, AheadTwoPhaseStreamedMatchesInProcess) {
  ServerSpec spec;
  spec.kind = ServerKind::kAhead;
  spec.domain = kDomain;
  spec.eps = kEps;
  std::vector<uint64_t> values = TestValues(kUsers, kDomain);
  std::span<const uint64_t> phase1(values.data(), values.size() / 2);
  std::span<const uint64_t> phase2(values.data() + values.size() / 2,
                                   values.size() - values.size() / 2);

  protocol::AheadClient client(kDomain, spec.fanout, kEps);
  std::vector<std::vector<uint8_t>> phase1_chunks;
  {
    Rng rng(5);
    std::vector<protocol::AheadWireReport> reports;
    for (uint64_t v : phase1) reports.push_back(client.EncodePhase1(v, rng));
    size_t half = reports.size() / 2;
    phase1_chunks.push_back(protocol::SerializeAheadReportBatch(
        std::span<const protocol::AheadWireReport>(reports.data(), half)));
    phase1_chunks.push_back(protocol::SerializeAheadReportBatch(
        std::span<const protocol::AheadWireReport>(reports.data() + half,
                                                   reports.size() - half)));
  }

  // Reference server: phase 1, tree, phase 2, finalize — all in-process.
  protocol::AheadServer reference(kDomain, spec.fanout, kEps);
  for (const auto& chunk : phase1_chunks) {
    ASSERT_EQ(reference.AbsorbBatchSerialized(chunk), ParseError::kOk);
  }
  std::vector<uint8_t> tree_msg = reference.BuildTree();
  ASSERT_TRUE(client.AbsorbTreeDescription(tree_msg));
  std::vector<std::vector<uint8_t>> phase2_chunks;
  {
    Rng rng(6);
    std::vector<protocol::AheadWireReport> reports =
        client.EncodePhase2Users(phase2, rng);
    size_t half = reports.size() / 2;
    phase2_chunks.push_back(protocol::SerializeAheadReportBatch(
        std::span<const protocol::AheadWireReport>(reports.data(), half)));
    phase2_chunks.push_back(protocol::SerializeAheadReportBatch(
        std::span<const protocol::AheadWireReport>(reports.data() + half,
                                                   reports.size() - half)));
  }
  for (const auto& chunk : phase2_chunks) {
    ASSERT_EQ(reference.AbsorbBatchSerialized(chunk), ParseError::kOk);
  }
  reference.Finalize();

  // Streamed: phase-1 session, tree broadcast, phase-2 session with the
  // finalize flag — the full protocol over serialized bytes.
  AggregatorService svc;
  uint64_t id = svc.AddServer(MakeAggregatorServer(spec));
  StreamSession(svc, /*session_id=*/1, id, phase1_chunks,
                /*finalize=*/false);
  svc.Drain();
  auto& streamed = dynamic_cast<protocol::AheadServer&>(svc.server(id));
  EXPECT_EQ(streamed.BuildTree(), tree_msg);  // identical decomposition
  StreamSession(svc, /*session_id=*/2, id, phase2_chunks,
                /*finalize=*/true);
  svc.Drain();
  ASSERT_TRUE(svc.server_finalized(id));

  EXPECT_EQ(streamed.stats(), reference.stats());
  EXPECT_EQ(streamed.EstimateFrequencies(), reference.EstimateFrequencies());
  RangeQueryResponse response =
      QueryOverWire(svc, id, {{0, 63}, {10, 250}});
  ASSERT_EQ(response.status, QueryStatus::kOk);
  EXPECT_EQ(response.estimates[0].estimate, reference.RangeQuery(0, 63));
  EXPECT_EQ(response.estimates[1].estimate, reference.RangeQuery(10, 250));
}

// --- Determinism and session hygiene -----------------------------------

TEST(ServiceDeterminism, FinalStateIsInvariantAcrossWorkerCounts) {
  // The workers are the threads calling HandleMessage: the service starts
  // none of its own. Session k carries one chunk to server k / chunks and
  // caller t sends sessions t, t + callers, ..., so callers feeding one
  // server meet on its strand and queue chunks behind each other's
  // absorbs. Every server's state bytes and query reply bytes must equal
  // one caller's, for 1-3 servers and 1, 2 or 4 callers.
  ServerSpec spec;
  spec.kind = ServerKind::kTree;
  spec.domain = kDomain;
  spec.eps = kEps;
  const std::vector<std::vector<uint8_t>> chunks =
      EncodeChunks(spec, TestValues(kUsers, kDomain), 9, /*chunk_count=*/24);
  const std::vector<QueryInterval> intervals = {
      {0, kDomain - 1}, {3, 17}, {100, 200}, {31, 31}};

  AggregatorService reference;
  const uint64_t ref_id = reference.AddServer(MakeAggregatorServer(spec));
  StreamSession(reference, /*session_id=*/1, ref_id, chunks,
                /*finalize=*/false);
  const std::vector<uint8_t> expected_state =
      reference.server(ref_id).SerializeState();
  ASSERT_TRUE(reference.FinalizeServer(ref_id));
  const std::vector<uint8_t> expected_reply =
      reference.HandleMessage(QueryBytes(ref_id, intervals));

  for (unsigned servers : {1u, 2u, 3u}) {
    for (unsigned callers : {1u, 2u, 4u}) {
      SCOPED_TRACE(testing::Message()
                   << servers << " servers, " << callers << " callers");
      AggregatorService svc;
      for (unsigned s = 0; s < servers; ++s) {
        svc.AddServer(MakeAggregatorServer(spec));
      }
      const size_t sessions = servers * chunks.size();
      std::vector<std::thread> threads;
      for (unsigned t = 0; t < callers; ++t) {
        threads.emplace_back([&, t] {
          for (size_t k = t; k < sessions; k += callers) {
            StreamSession(svc, /*session_id=*/100 + k,
                          /*server_id=*/k / chunks.size(),
                          {chunks[k % chunks.size()]}, /*finalize=*/false);
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
      // No Drain(): a chunk is absorbed before the last HandleMessage
      // call that touched its server returns.
      const service::ServiceStats stats = svc.stats();
      EXPECT_EQ(stats.chunks_enqueued, sessions);
      EXPECT_EQ(stats.chunks_absorbed, sessions);
      EXPECT_EQ(svc.registry().GetGauge("service.queue_depth").value(), 0);
      for (uint64_t id = 0; id < servers; ++id) {
        SCOPED_TRACE(id);
        EXPECT_EQ(svc.server(id).SerializeState(), expected_state);
        ASSERT_TRUE(svc.FinalizeServer(id));
        EXPECT_EQ(svc.HandleMessage(QueryBytes(id, intervals)),
                  expected_reply);
      }
    }
  }
}

TEST(ServiceSessions, OutOfOrderAndDuplicateChunksAreHandled) {
  ServerSpec spec;
  spec.kind = ServerKind::kHaar;
  spec.domain = kDomain;
  spec.eps = kEps;
  std::vector<uint64_t> values = TestValues(kUsers, kDomain);
  std::vector<std::vector<uint8_t>> chunks = EncodeChunks(spec, values, 3);
  ASSERT_GE(chunks.size(), 3u);

  std::unique_ptr<AggregatorServer> reference = MakeAggregatorServer(spec);
  for (const auto& chunk : chunks) {
    ASSERT_EQ(reference->AbsorbBatchSerialized(chunk), ParseError::kOk);
  }
  reference->Finalize();

  AggregatorService svc;
  uint64_t id = svc.AddServer(MakeAggregatorServer(spec));
  svc.HandleMessage(service::SerializeStreamBegin({1, id}));
  // Reversed order, with sequence 0 replayed twice.
  for (size_t c = chunks.size(); c-- > 0;) {
    svc.HandleMessage(service::SerializeStreamChunk(1, c, chunks[c]));
  }
  svc.HandleMessage(service::SerializeStreamChunk(1, 0, chunks[0]));
  StreamEnd end;
  end.session_id = 1;
  end.chunk_count = chunks.size();
  end.flags = service::kStreamFlagFinalize;
  svc.HandleMessage(service::SerializeStreamEnd(end));
  svc.Drain();

  EXPECT_EQ(svc.stats().duplicate_chunks, 1u);
  ASSERT_TRUE(svc.server_finalized(id));
  // Counter aggregates commute: reordering cannot change the state.
  EXPECT_EQ(svc.server(id).EstimateFrequencies(),
            reference->EstimateFrequencies());
}

TEST(ServiceSessions, IncompleteStreamDoesNotFinalize) {
  ServerSpec spec;
  spec.kind = ServerKind::kFlat;
  spec.domain = 64;
  spec.eps = kEps;
  AggregatorService svc;
  uint64_t id = svc.AddServer(MakeAggregatorServer(spec));
  svc.HandleMessage(service::SerializeStreamBegin({1, id}));
  // Declares two chunks but only one was sent.
  std::vector<uint64_t> values(50, 7);
  std::vector<std::vector<uint8_t>> chunks =
      EncodeChunks(spec, values, /*seed=*/1);
  svc.HandleMessage(service::SerializeStreamChunk(1, 0, chunks[0]));
  StreamEnd end;
  end.session_id = 1;
  end.chunk_count = 2;
  end.flags = service::kStreamFlagFinalize;
  svc.HandleMessage(service::SerializeStreamEnd(end));
  svc.Drain();
  EXPECT_EQ(svc.stats().incomplete_streams, 1u);
  EXPECT_FALSE(svc.server_finalized(id));
  // The typed error surfaces on the query plane.
  RangeQueryResponse response = QueryOverWire(svc, id, {{0, 10}});
  EXPECT_EQ(response.status, QueryStatus::kNotFinalized);
  EXPECT_TRUE(response.estimates.empty());
}

TEST(ServiceSessions, DuplicateAndUnknownSessionsAreCounted) {
  ServerSpec spec;
  spec.kind = ServerKind::kFlat;
  spec.domain = 64;
  spec.eps = kEps;
  AggregatorService svc;
  uint64_t id = svc.AddServer(MakeAggregatorServer(spec));
  svc.HandleMessage(service::SerializeStreamBegin({5, id}));
  svc.HandleMessage(service::SerializeStreamBegin({5, id}));  // duplicate
  EXPECT_EQ(svc.stats().duplicate_sessions, 1u);
  // Chunk and end for a session that never began.
  std::vector<uint64_t> values(10, 1);
  std::vector<std::vector<uint8_t>> chunks = EncodeChunks(spec, values, 2);
  svc.HandleMessage(service::SerializeStreamChunk(999, 0, chunks[0]));
  svc.HandleMessage(service::SerializeStreamEnd({999, 1, 0}));
  EXPECT_EQ(svc.stats().unknown_sessions, 2u);
  // A chunk after the session ended is late, not absorbed; a replayed
  // end is a retry, counted with the other duplicates.
  svc.HandleMessage(service::SerializeStreamEnd({5, 0, 0}));
  svc.HandleMessage(service::SerializeStreamChunk(5, 0, chunks[0]));
  EXPECT_EQ(svc.stats().late_chunks, 1u);
  svc.HandleMessage(service::SerializeStreamEnd({5, 0, 0}));
  EXPECT_EQ(svc.stats().duplicate_sessions, 2u);
  EXPECT_EQ(svc.stats().malformed_messages, 0u);
  svc.Drain();
  EXPECT_EQ(svc.server(id).stats().ingested(), 0u);
}

TEST(ServiceRouting, UnroutableMessagesAreCountedNotCrashed) {
  AggregatorService svc;
  ServerSpec spec;
  spec.kind = ServerKind::kFlat;
  spec.domain = 64;
  spec.eps = kEps;
  svc.AddServer(MakeAggregatorServer(spec));
  // Garbage, then a well-formed but unroutable bare report.
  const uint8_t junk[] = {0x00, 0x01, 0x02};
  EXPECT_TRUE(svc.HandleMessage(junk).empty());
  HrrReport report{3, +1};
  EXPECT_TRUE(
      svc.HandleMessage(protocol::SerializeHrrReport(report)).empty());
  EXPECT_EQ(svc.stats().malformed_messages, 2u);
}

// A server whose batch absorb and fan-in merge block on an external gate,
// so a test can hold a calling thread inside the strand while other
// callers' chunks pile up behind it. It records the bytes of every batch
// it absorbs, read once the gate opens. Queries and state are inert; only
// the strand matters here.
class GatedServer : public AggregatorServer {
 public:
  std::string Name() const override { return "Gated"; }
  uint64_t domain() const override { return 2; }
  bool AbsorbSerialized(std::span<const uint8_t>) override { return true; }
  ParseError DoAbsorbBatchSerialized(std::span<const uint8_t> bytes,
                                   uint64_t* accepted) override {
    absorbing_.store(true, std::memory_order_release);
    std::unique_lock<std::mutex> lock(mu_);
    gate_cv_.wait(lock, [&] { return open_; });
    absorbed_.emplace_back(bytes.begin(), bytes.end());
    batches_.fetch_add(1, std::memory_order_relaxed);
    if (accepted != nullptr) *accepted = 1;
    return ParseError::kOk;
  }
  double RangeQuery(uint64_t, uint64_t) const override { return 0.0; }
  RangeEstimate RangeQueryWithUncertainty(uint64_t, uint64_t) const override {
    return {0.0, 0.0};
  }
  std::vector<double> EstimateFrequencies() const override {
    return {0.0, 0.0};
  }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    gate_cv_.notify_all();
  }
  bool absorbing() const { return absorbing_.load(std::memory_order_acquire); }
  bool merging() const { return merging_.load(std::memory_order_acquire); }
  uint64_t batches() const {
    return batches_.load(std::memory_order_relaxed);
  }
  std::vector<std::vector<uint8_t>> absorbed() {
    std::lock_guard<std::mutex> lock(mu_);
    return absorbed_;
  }

 protected:
  void DoFinalize() override {}
  // Inert state plumbing: an empty snapshot restores into a fresh double,
  // so a fan-in push reaches the gated merge.
  service::StateKind state_kind() const override {
    return service::StateKind::kFlat;
  }
  double state_epsilon() const override { return 1.0; }
  void AppendStateBody(std::vector<uint8_t>&) const override {}
  size_t StateBodyBytes() const override { return 0; }
  bool RestoreStateBody(std::span<const uint8_t>) override { return true; }
  std::unique_ptr<AggregatorServer> DoCloneEmpty() const override {
    return std::make_unique<GatedServer>();
  }
  service::MergeStatus DoMergeFrom(AggregatorServer&) override {
    merging_.store(true, std::memory_order_release);
    std::unique_lock<std::mutex> lock(mu_);
    gate_cv_.wait(lock, [&] { return open_; });
    return service::MergeStatus::kOk;
  }

 private:
  std::mutex mu_;
  std::condition_variable gate_cv_;
  bool open_ = false;
  std::atomic<bool> absorbing_{false};
  std::atomic<bool> merging_{false};
  std::atomic<uint64_t> batches_{0};
  std::vector<std::vector<uint8_t>> absorbed_;
};

// Polls `pred` until it holds or a generous deadline passes. The waits in
// these tests are all bounded by another thread's progress, not
// wall-clock sleeps.
template <typename Pred>
bool EventuallyTrue(Pred&& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ServiceSessions, OversizedEndDeclarationRejectedSessionStaysLive) {
  // kStreamEnd declaring more chunks than a session can ever admit is
  // rejected with its own counter — NOT silently filed as incomplete —
  // and the session stays live so a corrected declaration still lands.
  ServerSpec spec;
  spec.kind = ServerKind::kHaar;
  spec.domain = kDomain;
  spec.eps = kEps;
  AggregatorService svc;
  const uint64_t server_id = svc.AddServer(MakeAggregatorServer(spec));
  const auto chunks =
      EncodeChunks(spec, TestValues(200, kDomain), /*seed=*/0x0E);
  svc.HandleMessage(service::SerializeStreamBegin({9, server_id}));
  svc.HandleMessage(service::SerializeStreamChunk(9, 0, chunks[0]));

  StreamEnd bogus;
  bogus.session_id = 9;
  bogus.chunk_count = service::IngestSession::kMaxSequences + 1;
  bogus.flags = service::kStreamFlagFinalize;
  svc.HandleMessage(service::SerializeStreamEnd(bogus));
  EXPECT_EQ(svc.stats().oversized_declarations, 1u);
  EXPECT_EQ(svc.stats().incomplete_streams, 0u);
  EXPECT_FALSE(svc.server_finalized(server_id));

  // Still live: another chunk and an honest end complete the session.
  svc.HandleMessage(service::SerializeStreamChunk(9, 1, chunks[1]));
  StreamEnd honest;
  honest.session_id = 9;
  honest.chunk_count = 2;
  honest.flags = service::kStreamFlagFinalize;
  svc.HandleMessage(service::SerializeStreamEnd(honest));
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.oversized_declarations, 1u);
  EXPECT_EQ(stats.incomplete_streams, 0u);
  EXPECT_EQ(stats.late_chunks, 0u);
  EXPECT_EQ(stats.chunks_absorbed, 2u);
  EXPECT_TRUE(svc.server_finalized(server_id));
}

TEST(ServiceBackpressure, InlineModeNeverQueuesOrWaits) {
  // One caller: each chunk is absorbed inside the HandleMessage call that
  // delivers it, so nothing is ever left queued.
  auto owned = std::make_unique<GatedServer>();
  GatedServer* gated = owned.get();
  gated->Open();
  AggregatorService svc;
  const uint64_t server_id = svc.AddServer(std::move(owned));
  obs::Gauge& depth = svc.registry().GetGauge("service.queue_depth");
  svc.HandleMessage(service::SerializeStreamBegin({5, server_id}));
  const std::vector<uint8_t> payload = {0xCD};
  for (uint64_t c = 0; c < 6; ++c) {
    svc.HandleMessage(service::SerializeStreamChunk(5, c, payload));
    EXPECT_EQ(svc.stats().chunks_absorbed, c + 1);
    EXPECT_EQ(depth.value(), 0);
  }
  EXPECT_EQ(gated->batches(), 6u);
}

TEST(ServiceStrand, ChunkForAHeldStrandQueuesWithoutWaiting) {
  // A caller whose chunk meets a strand another thread holds never
  // waits: the chunk queues as a copy, its HandleMessage returns at once
  // (its buffer is the caller's again), and the holder absorbs it,
  // exactly once, before it lets the strand go. The holder's own chunk
  // is absorbed in place and never queues.
  auto owned = std::make_unique<GatedServer>();
  GatedServer* gated = owned.get();
  AggregatorService svc;
  const uint64_t server_id = svc.AddServer(std::move(owned));
  const std::vector<std::vector<uint8_t>> payloads = {
      {0xA0}, {0xA1, 0x11}, {0xA2, 0x22, 0x33}};
  svc.HandleMessage(service::SerializeStreamBegin({7, server_id}));
  // Chunk 0's caller claims the strand and parks inside the gate.
  std::thread holder([&] {
    svc.HandleMessage(service::SerializeStreamChunk(7, 0, payloads[0]));
  });
  ASSERT_TRUE(EventuallyTrue([&] { return gated->absorbing(); }));
  for (uint64_t c = 1; c < payloads.size(); ++c) {
    std::vector<uint8_t> message =
        service::SerializeStreamChunk(7, c, payloads[c]);
    svc.HandleMessage(message);
    std::fill(message.begin(), message.end(), uint8_t{0xFF});
  }
  EXPECT_EQ(svc.stats().chunks_enqueued, 3u);
  EXPECT_EQ(svc.stats().chunks_absorbed, 0u);
  EXPECT_EQ(svc.registry().GetGauge("service.queue_depth").value(), 2);

  gated->Open();
  holder.join();
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.chunks_absorbed, 3u);
  EXPECT_EQ(stats.duplicate_chunks, 0u);
  EXPECT_EQ(gated->batches(), 3u);
  EXPECT_EQ(gated->absorbed(), payloads);
  EXPECT_EQ(svc.registry().GetGauge("service.queue_depth").value(), 0);
  EXPECT_TRUE(svc.FinalizeServer(server_id));
}

TEST(ServiceStrand, ChunkQueuedBehindAFanInReduceIsAbsorbedByTheReducer) {
  // A fan-in reduce holds its server's strand as an absorb does: a chunk
  // admitted meanwhile queues, and the reducing thread absorbs it before
  // it lets the strand go, with no later message or Drain() needed.
  auto owned = std::make_unique<GatedServer>();
  GatedServer* gated = owned.get();
  AggregatorService svc;
  const uint64_t server_id = svc.AddServer(std::move(owned));
  service::StateMergeRequest push;
  push.merge_id = 1;
  push.server_id = server_id;
  push.shard_count = 1;
  const std::vector<uint8_t> message =
      service::SerializeStateMerge(push, GatedServer().SerializeState());
  svc.HandleMessage(service::SerializeStreamBegin({3, server_id}));
  std::thread reducer([&] {
    service::StateMergeResponse response;
    ASSERT_EQ(service::ParseStateMergeResponse(svc.HandleMessage(message),
                                               &response),
              ParseError::kOk);
    EXPECT_EQ(response.status, service::MergeStatus::kOk);
  });
  ASSERT_TRUE(EventuallyTrue([&] { return gated->merging(); }));
  const std::vector<std::vector<uint8_t>> payloads = {{0xB0}};
  svc.HandleMessage(service::SerializeStreamChunk(3, 0, payloads[0]));
  EXPECT_EQ(svc.registry().GetGauge("service.queue_depth").value(), 1);

  gated->Open();
  reducer.join();
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.merges_completed, 1u);
  EXPECT_EQ(stats.chunks_absorbed, 1u);
  EXPECT_EQ(gated->absorbed(), payloads);
  EXPECT_EQ(svc.registry().GetGauge("service.queue_depth").value(), 0);
}

TEST(ServiceStrand, HeldStrandDoesNotStallOtherServers) {
  // One server's strand held inside an absorb blocks nothing else: a
  // session against a different server begins, streams, ends and
  // finalizes to completion, on another thread, meanwhile.
  auto owned_gated = std::make_unique<GatedServer>();
  GatedServer* gated = owned_gated.get();
  auto owned_free = std::make_unique<GatedServer>();
  GatedServer* free_server = owned_free.get();
  free_server->Open();
  AggregatorService svc;
  const uint64_t gated_id = svc.AddServer(std::move(owned_gated));
  const uint64_t free_id = svc.AddServer(std::move(owned_free));
  const std::vector<uint8_t> payload = {0xEE};
  svc.HandleMessage(service::SerializeStreamBegin({1, gated_id}));
  std::thread holder([&] {
    svc.HandleMessage(service::SerializeStreamChunk(1, 0, payload));
  });
  ASSERT_TRUE(EventuallyTrue([&] { return gated->absorbing(); }));

  svc.HandleMessage(service::SerializeStreamBegin({2, free_id}));
  svc.HandleMessage(service::SerializeStreamChunk(2, 0, payload));
  StreamEnd end;
  end.session_id = 2;
  end.chunk_count = 1;
  end.flags = service::kStreamFlagFinalize;
  svc.HandleMessage(service::SerializeStreamEnd(end));
  EXPECT_TRUE(svc.server_finalized(free_id));
  EXPECT_EQ(free_server->batches(), 1u);
  EXPECT_EQ(gated->batches(), 0u);  // still held the whole time

  gated->Open();
  holder.join();
  EXPECT_EQ(gated->batches(), 1u);
  EXPECT_EQ(svc.stats().chunks_absorbed, 2u);
}

}  // namespace
}  // namespace ldp
