// The TCP front-end end to end on loopback: the identical framed bytes
// through a real socket must produce query responses bit-identical to
// the in-process HandleMessage path — including a query answered while
// another connection streams — plus connection lifecycle (graceful
// half-close, idle timeout, framing violations) and session-cap churn
// parity between the two paths.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "net/snapshot_push.h"
#include "net/tcp_client.h"
#include "net/tcp_front_end.h"
#include "obs/stats_wire.h"
#include "protocol/ahead_protocol.h"
#include "protocol/envelope.h"
#include "protocol/flat_protocol.h"
#include "protocol/haar_protocol.h"
#include "protocol/multidim_protocol.h"
#include "protocol/tree_protocol.h"
#include "protocol/wire.h"
#include "service/aggregator_service.h"
#include "service/server_factory.h"
#include "service/state_wire.h"
#include "service/stream_wire.h"

namespace ldp {
namespace {

using net::TcpClient;
using net::TcpFrontEnd;
using net::TcpFrontEndConfig;
using service::AggregatorServer;
using service::AggregatorService;
using service::MakeAggregatorServer;
using service::QueryInterval;
using service::RangeQueryRequest;
using service::ServerKind;
using service::ServerKindName;
using service::ServerSpec;
using service::StreamEnd;

constexpr uint64_t kDomain = 128;
constexpr double kEps = 1.0;
constexpr uint64_t kUsers = 1500;
constexpr int kChunks = 4;

std::vector<uint64_t> TestValues(uint64_t n, uint64_t domain) {
  std::vector<uint64_t> values;
  values.reserve(n);
  Rng rng(0xBEEF);
  for (uint64_t i = 0; i < n; ++i) {
    values.push_back(rng.Bernoulli(0.5) ? rng.UniformInt(domain / 4)
                                        : rng.UniformInt(domain));
  }
  return values;
}

std::vector<std::vector<uint8_t>> EncodeChunks(
    const ServerSpec& spec, const std::vector<uint64_t>& values,
    uint64_t seed) {
  std::vector<std::vector<uint8_t>> chunks;
  uint64_t per_chunk = (values.size() + kChunks - 1) / kChunks;
  for (int c = 0; c < kChunks; ++c) {
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
      default:
        ADD_FAILURE() << "unsupported kind for this test";
        break;
    }
  }
  return chunks;
}

// The full message trace of one session (begin, chunks, end) — fed
// byte-for-byte to both transport paths.
std::vector<std::vector<uint8_t>> SessionTrace(
    uint64_t session_id, uint64_t server_id,
    const std::vector<std::vector<uint8_t>>& chunks, bool finalize) {
  std::vector<std::vector<uint8_t>> trace;
  trace.push_back(service::SerializeStreamBegin({session_id, server_id}));
  for (size_t c = 0; c < chunks.size(); ++c) {
    trace.push_back(
        service::SerializeStreamChunk(session_id, c, chunks[c]));
  }
  StreamEnd end;
  end.session_id = session_id;
  end.chunk_count = chunks.size();
  end.flags = finalize ? service::kStreamFlagFinalize : 0;
  trace.push_back(service::SerializeStreamEnd(end));
  return trace;
}

std::vector<uint8_t> QueryBytes(uint64_t server_id, uint64_t domain,
                                uint64_t query_id = 7) {
  RangeQueryRequest request;
  request.query_id = query_id;
  request.server_id = server_id;
  request.intervals = {{0, domain - 1},
                       {0, domain / 2},
                       {domain / 4, domain / 2 + 3},
                       {domain - 1, domain - 1}};
  return service::SerializeRangeQueryRequest(request);
}

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

// --- Bit-identity: socket path vs in-process path --------------------

TEST(NetLoopback, QueryResponsesBitIdenticalToInProcess) {
  // Every 1-D mechanism family: stream the identical session bytes (a)
  // through HandleMessage in process and (b) through a real loopback
  // socket, then compare the raw query-response bytes. The service's
  // determinism contract says they must match bit for bit.
  const std::vector<uint64_t> values = TestValues(kUsers, kDomain);
  for (const ServerSpec& spec : service::AllServerSpecs(kDomain, kEps)) {
    if (spec.kind == ServerKind::kAhead) continue;  // two-phase driver
    SCOPED_TRACE(ServerKindName(spec.kind));
    const auto chunks = EncodeChunks(spec, values, /*seed=*/0x51D);

    AggregatorService reference;
    const uint64_t ref_id = reference.AddServer(MakeAggregatorServer(spec));
    const auto trace = SessionTrace(11, ref_id, chunks, /*finalize=*/true);
    for (const auto& msg : trace) reference.HandleMessage(msg);
    ASSERT_TRUE(
        EventuallyTrue([&] { return reference.server_finalized(ref_id); }));
    const std::vector<uint8_t> expected =
        reference.HandleMessage(QueryBytes(ref_id, spec.domain));

    AggregatorService svc;
    const uint64_t server_id = svc.AddServer(MakeAggregatorServer(spec));
    ASSERT_EQ(server_id, ref_id);
    TcpFrontEnd front(svc);
    ASSERT_TRUE(front.Start());
    TcpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", front.port()));
    for (const auto& msg : trace) ASSERT_TRUE(client.Send(msg));
    // Stream messages are fire-and-forget; the query is the sync point,
    // but finalize is asynchronous, so poll until the server reports
    // ready before the authoritative comparison.
    ASSERT_TRUE(
        EventuallyTrue([&] { return svc.server_finalized(server_id); }));
    const std::vector<uint8_t> actual =
        client.Call(QueryBytes(server_id, spec.domain));
    EXPECT_EQ(actual, expected);
    client.Close();
    front.Stop();
    EXPECT_EQ(front.stats().protocol_errors, 0u);
  }
}

TEST(NetLoopback, MultipleConnectionsOneSessionEach) {
  // Chunks of one logical population split across several sessions and
  // connections still aggregate to the same final state: sessions are
  // independent, aggregation is commutative.
  const ServerSpec spec{ServerKind::kHaar, kDomain, kEps};
  const std::vector<uint64_t> values = TestValues(kUsers, kDomain);
  const auto chunks = EncodeChunks(spec, values, /*seed=*/0xA11);

  AggregatorService reference;
  const uint64_t ref_id = reference.AddServer(MakeAggregatorServer(spec));
  for (size_t c = 0; c < chunks.size(); ++c) {
    const auto trace = SessionTrace(100 + c, ref_id, {chunks[c]},
                                    /*finalize=*/c + 1 == chunks.size());
    for (const auto& msg : trace) reference.HandleMessage(msg);
  }
  ASSERT_TRUE(reference.server_finalized(ref_id));
  const std::vector<uint8_t> expected =
      reference.HandleMessage(QueryBytes(ref_id, spec.domain));

  AggregatorService svc;
  const uint64_t server_id = svc.AddServer(MakeAggregatorServer(spec));
  TcpFrontEnd front(svc);
  ASSERT_TRUE(front.Start());
  {
    // All sessions but the last stream concurrently, one connection
    // each; the finalizing session goes last so no chunk is late.
    std::vector<std::thread> streams;
    for (size_t c = 0; c + 1 < chunks.size(); ++c) {
      streams.emplace_back([&, c] {
        TcpClient client;
        ASSERT_TRUE(client.Connect("127.0.0.1", front.port()));
        for (const auto& msg :
             SessionTrace(100 + c, server_id, {chunks[c]}, false)) {
          ASSERT_TRUE(client.Send(msg));
        }
        client.ShutdownWrite();
        std::vector<uint8_t> eof_probe;
        EXPECT_FALSE(client.ReceiveMessage(&eof_probe));  // graceful EOF
      });
    }
    for (auto& t : streams) t.join();
    svc.Drain();  // every concurrent chunk admitted before the finalize
  }
  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", front.port()));
  const size_t last = chunks.size() - 1;
  for (const auto& msg :
       SessionTrace(100 + last, server_id, {chunks[last]}, true)) {
    ASSERT_TRUE(client.Send(msg));
  }
  ASSERT_TRUE(
      EventuallyTrue([&] { return svc.server_finalized(server_id); }));
  EXPECT_EQ(client.Call(QueryBytes(server_id, spec.domain)), expected);
  front.Stop();
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.incomplete_streams, 0u);
  EXPECT_EQ(stats.duplicate_chunks, 0u);
}

TEST(NetLoopback, QueryAnsweredWhileAnotherConnectionStreams) {
  // One event loop serves every connection and absorbs each chunk inline,
  // so a query waits at most for the absorb in progress. A query to a
  // finalized server is answered, byte-identical to the in-process reply,
  // while a second connection is mid-session into another server.
  const ServerSpec spec{ServerKind::kHaar, kDomain, kEps};
  const std::vector<uint64_t> values = TestValues(kUsers, kDomain);
  const auto queried_chunks = EncodeChunks(spec, values, /*seed=*/0x9E7);
  const auto streamed_chunks = EncodeChunks(spec, values, /*seed=*/0x57E);

  AggregatorService reference;
  const uint64_t ref_queried = reference.AddServer(MakeAggregatorServer(spec));
  const uint64_t ref_streamed =
      reference.AddServer(MakeAggregatorServer(spec));
  for (const auto& msg : SessionTrace(1, ref_queried, queried_chunks, true)) {
    reference.HandleMessage(msg);
  }
  for (const auto& msg :
       SessionTrace(2, ref_streamed, streamed_chunks, true)) {
    reference.HandleMessage(msg);
  }
  const std::vector<uint8_t> expected_queried =
      reference.HandleMessage(QueryBytes(ref_queried, spec.domain));
  const std::vector<uint8_t> expected_streamed =
      reference.HandleMessage(QueryBytes(ref_streamed, spec.domain));

  AggregatorService svc;
  const uint64_t queried = svc.AddServer(MakeAggregatorServer(spec));
  const uint64_t streamed = svc.AddServer(MakeAggregatorServer(spec));
  TcpFrontEnd front(svc);
  ASSERT_TRUE(front.Start());
  TcpClient querier;
  ASSERT_TRUE(querier.Connect("127.0.0.1", front.port()));
  for (const auto& msg : SessionTrace(1, queried, queried_chunks, true)) {
    ASSERT_TRUE(querier.Send(msg));
  }
  // The streaming connection opens its session and sends half its chunks.
  TcpClient streamer;
  ASSERT_TRUE(streamer.Connect("127.0.0.1", front.port()));
  const auto trace = SessionTrace(2, streamed, streamed_chunks, true);
  const size_t mid = 1 + streamed_chunks.size() / 2;
  for (size_t i = 0; i < mid; ++i) ASSERT_TRUE(streamer.Send(trace[i]));
  ASSERT_TRUE(EventuallyTrue([&] {
    return svc.stats().chunks_absorbed == queried_chunks.size() + mid - 1;
  }));
  // The querier's session precedes its query on one connection, so the
  // query finds its server finalized.
  EXPECT_EQ(querier.Call(QueryBytes(queried, spec.domain)), expected_queried);
  EXPECT_FALSE(svc.server_finalized(streamed));  // still mid-session

  // The rest of the session interleaves with more queries on the loop.
  std::thread rest([&] {
    for (size_t i = mid; i < trace.size(); ++i) {
      ASSERT_TRUE(streamer.Send(trace[i]));
    }
  });
  do {
    EXPECT_EQ(querier.Call(QueryBytes(queried, spec.domain)),
              expected_queried);
  } while (!svc.server_finalized(streamed));
  rest.join();
  EXPECT_EQ(querier.Call(QueryBytes(streamed, spec.domain)),
            expected_streamed);
  front.Stop();

  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.chunks_enqueued,
            queried_chunks.size() + streamed_chunks.size());
  EXPECT_EQ(stats.chunks_absorbed, stats.chunks_enqueued);
  EXPECT_EQ(stats.duplicate_chunks, 0u);
  EXPECT_EQ(stats.late_chunks, 0u);
  EXPECT_EQ(stats.incomplete_streams, 0u);
  EXPECT_EQ(front.stats().protocol_errors, 0u);
}

// A server for the read-budget test. Its batch absorb counts chunks and
// holds chunk `gate_at` until Open(); its range answer is the chunk count
// of `counted`, read on the event loop at the moment the query is
// served. Nothing else about it matters.
class CountingServer : public AggregatorServer {
 public:
  explicit CountingServer(uint64_t gate_at,
                          const CountingServer* counted = nullptr)
      : gate_at_(gate_at), counted_(counted) {}

  std::string Name() const override { return "Counting"; }
  uint64_t domain() const override { return kDomain; }
  bool AbsorbSerialized(std::span<const uint8_t>) override { return true; }
  protocol::ParseError DoAbsorbBatchSerialized(std::span<const uint8_t>,
                                               uint64_t* accepted) override {
    if (batches_.load() == gate_at_) {
      absorbing_.store(true);
      std::unique_lock<std::mutex> lock(mu_);
      gate_cv_.wait(lock, [&] { return open_; });
    }
    batches_.fetch_add(1);
    if (accepted != nullptr) *accepted = 1;
    return protocol::ParseError::kOk;
  }
  double RangeQuery(uint64_t, uint64_t) const override {
    return static_cast<double>(counted_->batches());
  }
  RangeEstimate RangeQueryWithUncertainty(uint64_t a,
                                          uint64_t b) const override {
    return {RangeQuery(a, b), 0.0};
  }
  std::vector<double> EstimateFrequencies() const override { return {0.0}; }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    gate_cv_.notify_all();
  }
  bool absorbing() const { return absorbing_.load(); }
  uint64_t batches() const { return batches_.load(); }

 protected:
  void DoFinalize() override {}
  service::StateKind state_kind() const override {
    return service::StateKind::kFlat;
  }
  double state_epsilon() const override { return 1.0; }
  void AppendStateBody(std::vector<uint8_t>&) const override {}
  size_t StateBodyBytes() const override { return 0; }
  bool RestoreStateBody(std::span<const uint8_t>) override { return true; }
  std::unique_ptr<AggregatorServer> DoCloneEmpty() const override {
    return nullptr;
  }
  service::MergeStatus DoMergeFrom(AggregatorServer&) override {
    return service::MergeStatus::kOk;
  }

 private:
  const uint64_t gate_at_;
  const CountingServer* counted_;
  std::mutex mu_;
  std::condition_variable gate_cv_;
  bool open_ = false;
  std::atomic<bool> absorbing_{false};
  std::atomic<uint64_t> batches_{0};
};

TEST(NetLoopback, QueryWaitsForOneReadBudgetNotTheSendersBacklog) {
  // A sender that never waits queues megabytes of chunks while the loop
  // is busy. The front-end reads at most 1 MiB of them per readiness
  // event before it routes them, so a query that arrives on a second
  // connection is served after that much absorb, not after the whole
  // backlog. The query's answer is the number of the sender's chunks
  // absorbed when it was served: an order, not a clock.
  constexpr size_t kChunkBytes = 16 * 1024;
  // Absorbed straight away, so the connection's receive window grows as
  // a busy one's does and the backlog can wait on the loop's side.
  constexpr uint64_t kWarmupChunks = 256;   // 4 MiB
  constexpr uint64_t kBacklogChunks = 256;  // 4 MiB
  constexpr uint64_t kChunksPerBudget = (1u << 20) / kChunkBytes;

  AggregatorService svc;
  auto counted_owner = std::make_unique<CountingServer>(kWarmupChunks);
  CountingServer& counted = *counted_owner;
  const uint64_t streamed = svc.AddServer(std::move(counted_owner));
  const uint64_t probe =
      svc.AddServer(std::make_unique<CountingServer>(0, &counted));
  TcpFrontEnd front(svc);
  ASSERT_TRUE(front.Start());

  // The querier is connected and its server finalized before the
  // sender starts.
  TcpClient querier;
  ASSERT_TRUE(querier.Connect("127.0.0.1", front.port()));
  for (const auto& msg : SessionTrace(1, probe, {}, /*finalize=*/true)) {
    ASSERT_TRUE(querier.Send(msg));
  }
  ASSERT_TRUE(EventuallyTrue([&] { return svc.server_finalized(probe); }));
  const std::vector<uint8_t> query = QueryBytes(probe, kDomain);

  // The sender's whole stream: begin, the chunks, end. A raw socket with
  // a large send buffer, so the backlog can sit in the kernel.
  const std::vector<std::vector<uint8_t>> chunks(
      kWarmupChunks + 1 + kBacklogChunks,
      std::vector<uint8_t>(kChunkBytes, 0));
  const auto trace = SessionTrace(2, streamed, chunks, false);
  std::vector<uint8_t> stream;
  size_t held_chunk_end = 0;  // the stream up to the held chunk
  for (size_t i = 0; i < trace.size(); ++i) {
    stream.insert(stream.end(), trace[i].begin(), trace[i].end());
    if (i == 1 + kWarmupChunks) held_chunk_end = stream.size();
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  const int send_buffer = 4 << 20;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &send_buffer, sizeof(send_buffer));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(front.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  size_t sent = 0;
  auto send_until = [&](size_t end, int flags) {
    while (sent < end) {
      const ssize_t n = ::send(fd, stream.data() + sent, end - sent,
                               flags | MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return;  // EAGAIN: the kernel buffers are full
      sent += static_cast<size_t>(n);
    }
  };

  // The held chunk stops the loop inside its absorb; the rest of the
  // stream then fills the socket buffers, as far as they take it, and
  // the query follows it.
  send_until(held_chunk_end, 0);
  ASSERT_EQ(sent, held_chunk_end);
  ASSERT_TRUE(EventuallyTrue([&] { return counted.absorbing(); }));
  send_until(stream.size(), MSG_DONTWAIT);
  const size_t queued = sent;
  const bool query_sent = querier.Send(query);
  counted.Open();
  std::thread rest([&] { send_until(stream.size(), 0); });
  std::vector<uint8_t> reply;
  const bool replied = query_sent && querier.ReceiveMessage(&reply);
  rest.join();
  ::close(fd);
  EXPECT_EQ(sent, stream.size());
  ASSERT_GT(queued, held_chunk_end);
  ASSERT_TRUE(replied);
  service::RangeQueryResponse response;
  ASSERT_EQ(service::ParseRangeQueryResponse(reply, &response),
            protocol::ParseError::kOk);
  ASSERT_EQ(response.status, service::QueryStatus::kOk);
  ASSERT_EQ(response.estimates.size(), 4u);
  const double backlog_absorbed_at_query =
      response.estimates[0].estimate - static_cast<double>(kWarmupChunks);
  // The held chunk, then at most one budget's worth (a budget ends
  // mid-frame, so one more chunk can complete from what it read).
  EXPECT_LE(backlog_absorbed_at_query,
            static_cast<double>(1 + kChunksPerBudget + 1))
      << "with " << queued << " bytes queued";
  EXPECT_TRUE(EventuallyTrue([&] {
    return counted.batches() == kWarmupChunks + 1 + kBacklogChunks;
  }));
  front.Stop();
  EXPECT_EQ(front.stats().protocol_errors, 0u);
}

// --- Session-cap churn: TCP path vs in-process path ------------------

TEST(NetChurn, SessionCapRejectionsMatchInProcessBitForBit) {
  // A tiny session cap, begins past it, and a full data session: both
  // transport paths must land on identical rejection accounting and
  // identical query bytes.
  const ServerSpec spec{ServerKind::kFlat, kDomain, kEps};
  const std::vector<uint64_t> values = TestValues(kUsers / 2, kDomain);
  const auto chunks = EncodeChunks(spec, values, /*seed=*/0xCA9);
  constexpr size_t kCap = 4;
  constexpr size_t kExtra = 5;

  // One message trace drives both services: kCap - 1 empty sessions,
  // the data session (which finalizes), then kExtra doomed begins.
  std::vector<std::vector<uint8_t>> trace;
  for (size_t s = 0; s + 1 < kCap; ++s) {
    trace.push_back(service::SerializeStreamBegin({500 + s, 0}));
    StreamEnd end;
    end.session_id = 500 + s;
    end.chunk_count = 0;
    trace.push_back(service::SerializeStreamEnd(end));
  }
  for (const auto& msg : SessionTrace(900, 0, chunks, true)) {
    trace.push_back(msg);
  }
  for (size_t s = 0; s < kExtra; ++s) {
    trace.push_back(service::SerializeStreamBegin({600 + s, 0}));
  }

  AggregatorService reference;
  reference.set_max_sessions(kCap);
  reference.AddServer(MakeAggregatorServer(spec));
  for (const auto& msg : trace) reference.HandleMessage(msg);
  ASSERT_TRUE(reference.server_finalized(0));
  const std::vector<uint8_t> expected =
      reference.HandleMessage(QueryBytes(0, spec.domain));
  const service::ServiceStats ref_stats = reference.stats();
  ASSERT_EQ(ref_stats.rejected_sessions, kExtra);

  AggregatorService svc;
  svc.set_max_sessions(kCap);
  svc.AddServer(MakeAggregatorServer(spec));
  TcpFrontEnd front(svc);
  ASSERT_TRUE(front.Start());
  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", front.port()));
  for (const auto& msg : trace) ASSERT_TRUE(client.Send(msg));
  ASSERT_TRUE(EventuallyTrue([&] { return svc.server_finalized(0); }));
  // The query response doubles as the sync point for the trailing
  // (fire-and-forget) rejected begins.
  ASSERT_TRUE(EventuallyTrue(
      [&] { return svc.stats().rejected_sessions == kExtra; }));
  EXPECT_EQ(client.Call(QueryBytes(0, spec.domain)), expected);
  svc.Drain();
  front.Stop();

  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.rejected_sessions, ref_stats.rejected_sessions);
  EXPECT_EQ(stats.duplicate_sessions, ref_stats.duplicate_sessions);
  EXPECT_EQ(stats.incomplete_streams, ref_stats.incomplete_streams);
  EXPECT_EQ(stats.unknown_sessions, ref_stats.unknown_sessions);
  EXPECT_EQ(stats.chunks_absorbed, ref_stats.chunks_absorbed);
  EXPECT_EQ(stats.queries_answered, ref_stats.queries_answered);
}

// --- Connection lifecycle --------------------------------------------

TEST(NetLifecycle, GracefulHalfCloseFlushesResponses) {
  // "Send everything, shutdown(SHUT_WR), read answers" is a correct
  // client: the front-end processes the buffered messages and flushes
  // every response before closing.
  const ServerSpec spec{ServerKind::kHaar, kDomain, kEps};
  const std::vector<uint64_t> values = TestValues(kUsers / 4, kDomain);
  const auto chunks = EncodeChunks(spec, values, /*seed=*/0x7A);
  AggregatorService svc;
  const uint64_t server_id = svc.AddServer(MakeAggregatorServer(spec));
  TcpFrontEnd front(svc);
  ASSERT_TRUE(front.Start());

  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", front.port()));
  for (const auto& msg : SessionTrace(31, server_id, chunks, true)) {
    ASSERT_TRUE(client.Send(msg));
  }
  ASSERT_TRUE(client.Send(QueryBytes(server_id, spec.domain, 41)));
  ASSERT_TRUE(client.Send(QueryBytes(server_id, spec.domain, 42)));
  client.ShutdownWrite();
  std::vector<uint8_t> first, second, eof_probe;
  ASSERT_TRUE(client.ReceiveMessage(&first));
  ASSERT_TRUE(client.ReceiveMessage(&second));
  EXPECT_FALSE(client.ReceiveMessage(&eof_probe));  // then clean EOF
  EXPECT_NE(first, second);  // distinct query ids echo back
  ASSERT_TRUE(
      EventuallyTrue([&] { return front.stats().connections_closed >= 1; }));
  EXPECT_EQ(front.stats().protocol_errors, 0u);
  EXPECT_EQ(front.stats().responses_sent, 2u);
}

TEST(NetLifecycle, IdleConnectionIsClosed) {
  AggregatorService svc;
  TcpFrontEndConfig config;
  config.idle_timeout_ms = 100;
  TcpFrontEnd front(svc, config);
  ASSERT_TRUE(front.Start());
  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", front.port()));
  ASSERT_TRUE(EventuallyTrue(
      [&] { return front.stats().connections_accepted >= 1; }));
  ASSERT_TRUE(
      EventuallyTrue([&] { return front.stats().idle_closes >= 1; }));
  std::vector<uint8_t> eof_probe;
  EXPECT_FALSE(client.ReceiveMessage(&eof_probe));
  front.Stop();
}

TEST(NetLifecycle, MaxConnectionsRejectsTheOverflow) {
  AggregatorService svc;
  TcpFrontEndConfig config;
  config.max_connections = 2;
  TcpFrontEnd front(svc, config);
  ASSERT_TRUE(front.Start());
  TcpClient a, b, c;
  ASSERT_TRUE(a.Connect("127.0.0.1", front.port()));
  ASSERT_TRUE(b.Connect("127.0.0.1", front.port()));
  ASSERT_TRUE(EventuallyTrue(
      [&] { return front.stats().connections_accepted >= 2; }));
  // The third connect() succeeds at TCP level but is closed on accept.
  ASSERT_TRUE(c.Connect("127.0.0.1", front.port()));
  ASSERT_TRUE(EventuallyTrue(
      [&] { return front.stats().connections_rejected >= 1; }));
  std::vector<uint8_t> eof_probe;
  EXPECT_FALSE(c.ReceiveMessage(&eof_probe));
  front.Stop();
}

// --- Framing discipline ----------------------------------------------

TEST(NetProtocol, BadMagicClosesTheConnection) {
  AggregatorService svc;
  TcpFrontEnd front(svc);
  ASSERT_TRUE(front.Start());
  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", front.port()));
  const std::vector<uint8_t> junk = {0xDE, 0xAD, 0xBE, 0xEF,
                                     0x00, 0x00, 0x00, 0x00};
  ASSERT_TRUE(client.Send(junk));
  ASSERT_TRUE(
      EventuallyTrue([&] { return front.stats().protocol_errors >= 1; }));
  std::vector<uint8_t> eof_probe;
  EXPECT_FALSE(client.ReceiveMessage(&eof_probe));
  front.Stop();
}

TEST(NetProtocol, OversizedDeclaredLengthClosesTheConnection) {
  AggregatorService svc;
  TcpFrontEndConfig config;
  config.max_message_bytes = 1024;
  TcpFrontEnd front(svc, config);
  ASSERT_TRUE(front.Start());
  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", front.port()));
  std::vector<uint8_t> header = {
      protocol::kEnvelopeMagic0, protocol::kEnvelopeMagic1,
      protocol::kWireVersionV2,  0x11,
      0xFF,                      0xFF,
      0xFF,                      0x7F};  // ~2 GiB declared payload
  ASSERT_TRUE(client.Send(header));
  ASSERT_TRUE(
      EventuallyTrue([&] { return front.stats().protocol_errors >= 1; }));
  std::vector<uint8_t> eof_probe;
  EXPECT_FALSE(client.ReceiveMessage(&eof_probe));
  front.Stop();
}

TEST(NetProtocol, TruncatedFinalMessageIsAProtocolError) {
  AggregatorService svc;
  TcpFrontEnd front(svc);
  ASSERT_TRUE(front.Start());
  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", front.port()));
  std::vector<uint8_t> begin = service::SerializeStreamBegin({1, 0});
  begin.pop_back();  // hang up one byte short of a complete frame
  ASSERT_TRUE(client.Send(begin));
  client.ShutdownWrite();
  ASSERT_TRUE(
      EventuallyTrue([&] { return front.stats().protocol_errors >= 1; }));
  EXPECT_EQ(front.stats().messages_routed, 0u);
  front.Stop();
}

// --- Receive deadlines ------------------------------------------------

TEST(NetTimeout, ReceiveDeadlineSurfacesTypedTimeout) {
  // Stream messages are fire-and-forget: the front-end never writes
  // back, so a timed receive after one is the cleanest "server accepts,
  // never replies" scenario.
  AggregatorService svc;
  svc.AddServer(MakeAggregatorServer({ServerKind::kFlat, kDomain, kEps}));
  TcpFrontEnd front(svc);
  ASSERT_TRUE(front.Start());
  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", front.port()));

  client.set_receive_timeout_ms(50);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(client.Call(service::SerializeStreamBegin({1, 0})).empty());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(client.last_receive_status(), net::RecvStatus::kTimeout);
  EXPECT_EQ(net::RecvStatusName(client.last_receive_status()), "timeout");
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            50);

  // The connection survives the timeout: with the deadline cleared, a
  // real request/response round trip still works.
  client.set_receive_timeout_ms(0);
  EXPECT_FALSE(client.Call(QueryBytes(0, kDomain)).empty());
  EXPECT_EQ(client.last_receive_status(), net::RecvStatus::kOk);
  front.Stop();
}

// --- The distributed fan-in plane over real sockets -------------------

TEST(NetFanIn, TwoShardSnapshotPushMatchesSingleProcess) {
  // The headline path: two shard-local servers ingest disjoint halves,
  // push their serialized state over TCP with the finalize flag, and
  // the query node's response bytes must equal the single-process
  // reference — the wire-level form of the merge determinism contract.
  const ServerSpec spec{ServerKind::kTree, kDomain, kEps};
  const std::vector<uint64_t> values = TestValues(kUsers, kDomain);
  const auto chunks = EncodeChunks(spec, values, /*seed=*/0xFA11);
  ASSERT_GE(chunks.size(), 2u);

  AggregatorService reference;
  const uint64_t ref_id = reference.AddServer(MakeAggregatorServer(spec));
  const auto trace = SessionTrace(61, ref_id, chunks, /*finalize=*/true);
  for (const auto& msg : trace) reference.HandleMessage(msg);
  ASSERT_TRUE(reference.server_finalized(ref_id));
  const std::vector<uint8_t> expected =
      reference.HandleMessage(QueryBytes(ref_id, spec.domain));

  // Shard servers: the same chunk bytes, split between two "processes".
  std::vector<std::unique_ptr<AggregatorServer>> shards;
  for (int s = 0; s < 2; ++s) shards.push_back(MakeAggregatorServer(spec));
  for (size_t c = 0; c < chunks.size(); ++c) {
    ASSERT_EQ(shards[c % 2]->AbsorbBatchSerialized(chunks[c]),
              protocol::ParseError::kOk);
  }

  AggregatorService svc;
  const uint64_t server_id = svc.AddServer(MakeAggregatorServer(spec));
  TcpFrontEnd front(svc);
  ASSERT_TRUE(front.Start());
  for (int s = 0; s < 2; ++s) {
    TcpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", front.port()));
    net::SnapshotPushOptions options;
    options.receive_timeout_ms = 10'000;
    net::SnapshotPushResult result = net::PushStateSnapshot(
        client, /*merge_id=*/77, server_id, /*shard_index=*/s,
        /*shard_count=*/2, service::kMergeFlagFinalize,
        shards[s]->SerializeState(), options);
    ASSERT_FALSE(result.transport_error)
        << net::RecvStatusName(client.last_receive_status());
    ASSERT_TRUE(result.ok);
    EXPECT_EQ(result.shards_received, static_cast<uint64_t>(s) + 1);
  }
  ASSERT_TRUE(svc.server_finalized(server_id));
  TcpClient query;
  ASSERT_TRUE(query.Connect("127.0.0.1", front.port()));
  EXPECT_EQ(query.Call(QueryBytes(server_id, spec.domain)), expected);
  front.Stop();

  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.merge_requests, 2u);
  EXPECT_EQ(stats.merges_completed, 1u);
  EXPECT_EQ(stats.merge_rejects, 0u);
  EXPECT_EQ(stats.merge_would_block, 0u);
  EXPECT_EQ(svc.registry().GetHistogram("merge.absorb_ns").Snapshot().count,
            2u);
  EXPECT_EQ(svc.registry().GetHistogram("merge.fan_in_ns").Snapshot().count,
            1u);
}

TEST(NetFanIn, WouldBlockRetriesReconcileWithServiceCounters) {
  // A 1-slot snapshot buffer and two interleaved fan-in groups: group
  // B's first push keeps bouncing off the cap until group A completes
  // and frees the buffer. The pusher's retry count must reconcile
  // exactly with the service's merge_would_block counter — the same
  // invariant loadgen asserts after a fan-in run.
  const ServerSpec spec{ServerKind::kFlat, kDomain, kEps};
  const std::vector<uint64_t> values = TestValues(kUsers / 4, kDomain);
  const auto chunks = EncodeChunks(spec, values, /*seed=*/0xB10C);
  auto shard_snapshot = [&](size_t chunk) {
    std::unique_ptr<AggregatorServer> shard = MakeAggregatorServer(spec);
    EXPECT_EQ(shard->AbsorbBatchSerialized(chunks[chunk]),
              protocol::ParseError::kOk);
    return shard->SerializeState();
  };

  AggregatorService svc;
  svc.set_merge_buffer_limit(1);
  const uint64_t id_a = svc.AddServer(MakeAggregatorServer(spec));
  const uint64_t id_b = svc.AddServer(MakeAggregatorServer(spec));
  TcpFrontEnd front(svc);
  ASSERT_TRUE(front.Start());

  TcpClient pusher;
  ASSERT_TRUE(pusher.Connect("127.0.0.1", front.port()));
  // Group A, shard 0: fills the 1-slot buffer (not completing: 1 of 2).
  net::SnapshotPushResult a0 = net::PushStateSnapshot(
      pusher, /*merge_id=*/1, id_a, 0, 2, 0, shard_snapshot(0));
  ASSERT_TRUE(a0.ok);
  // Group B, shard 0, from a second connection: bounces until A drains.
  net::SnapshotPushResult b0;
  std::thread blocked([&] {
    TcpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", front.port()));
    net::SnapshotPushOptions options;
    options.max_retries = 200;
    options.initial_backoff_us = 1000;
    options.max_backoff_us = 4000;
    options.jitter_seed = 0xB0;
    b0 = net::PushStateSnapshot(client, /*merge_id=*/2, id_b, 0, 2, 0,
                                shard_snapshot(2), options);
  });
  ASSERT_TRUE(EventuallyTrue(
      [&] { return svc.stats().merge_would_block >= 1; }));
  // Group A's completing push bypasses the cap, completes, and frees
  // the slot for group B's next retry.
  net::SnapshotPushResult a1 = net::PushStateSnapshot(
      pusher, /*merge_id=*/1, id_a, 1, 2, 0, shard_snapshot(1));
  ASSERT_TRUE(a1.ok);
  blocked.join();
  ASSERT_TRUE(b0.ok);
  EXPECT_GE(b0.retries, 1u);
  // Finish group B (completing push: exempt from the cap).
  net::SnapshotPushResult b1 = net::PushStateSnapshot(
      pusher, /*merge_id=*/2, id_b, 1, 2, 0, shard_snapshot(3));
  ASSERT_TRUE(b1.ok);
  front.Stop();

  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.merge_would_block, b0.retries);
  EXPECT_EQ(stats.merges_completed, 2u);
  EXPECT_EQ(stats.merge_rejects, 0u);
  EXPECT_EQ(stats.merge_requests, 4u + b0.retries);
}

// --- Snapshot frames larger than the front-end's 64 KiB read chunk ----

constexpr size_t kFrontEndReadChunk = 64 * 1024;

// One spec per server kind, each sized so a shard snapshot spans many
// socket reads (a D=2^16, B=4 tree snapshot is ~700 KB).
std::vector<ServerSpec> LargeSnapshotSpecs() {
  std::vector<ServerSpec> specs;
  for (ServerKind kind : {ServerKind::kFlat, ServerKind::kHaar,
                          ServerKind::kTree, ServerKind::kAhead}) {
    specs.push_back(ServerSpec{kind, uint64_t{1} << 16, kEps});
  }
  ServerSpec grid{ServerKind::kGrid, 256, kEps};
  grid.dimensions = 2;
  specs.push_back(grid);
  return specs;
}

// Two shard servers of `spec`, each holding a different half of one
// population. AHEAD runs its whole two-phase flow: phase 1 on the shards,
// the tree built from their merged snapshots, phase 2 on the shards.
std::vector<std::unique_ptr<AggregatorServer>> IngestedShardPair(
    const ServerSpec& spec) {
  std::vector<std::unique_ptr<AggregatorServer>> shards;
  for (int s = 0; s < 2; ++s) shards.push_back(MakeAggregatorServer(spec));
  const uint64_t points = spec.kind == ServerKind::kGrid ? 12000 : 3000;
  const uint64_t stride = spec.kind == ServerKind::kGrid ? spec.dimensions : 1;
  const std::vector<uint64_t> values =
      TestValues(points * stride, spec.domain);
  const size_t half = values.size() / 2;
  const std::span<const uint64_t> share[2] = {
      std::span<const uint64_t>(values).first(half),
      std::span<const uint64_t>(values).subspan(half)};
  switch (spec.kind) {
    case ServerKind::kGrid: {
      protocol::MultiDimClient client(spec.domain, spec.dimensions, spec.eps,
                                      spec.fanout);
      for (int s = 0; s < 2; ++s) {
        Rng rng(0x6A1D + s);
        EXPECT_EQ(shards[s]->AbsorbBatchSerialized(
                      client.EncodeUsersSerialized(share[s], rng)),
                  protocol::ParseError::kOk);
      }
      break;
    }
    case ServerKind::kAhead: {
      protocol::AheadClient client(spec.domain, spec.fanout, spec.eps);
      std::unique_ptr<AggregatorServer> coordinator =
          MakeAggregatorServer(spec);
      for (int s = 0; s < 2; ++s) {
        Rng rng(0xA1 + s);
        std::vector<protocol::AheadWireReport> reports;
        for (uint64_t v : share[s].first(share[s].size() / 2)) {
          reports.push_back(client.EncodePhase1(v, rng));
        }
        EXPECT_EQ(shards[s]->AbsorbBatchSerialized(
                      protocol::SerializeAheadReportBatch(reports)),
                  protocol::ParseError::kOk);
        EXPECT_EQ(
            coordinator->MergeSerializedState(shards[s]->SerializeState()),
            service::MergeStatus::kOk);
      }
      const std::vector<uint8_t> tree =
          dynamic_cast<protocol::AheadServer&>(*coordinator).BuildTree();
      EXPECT_TRUE(client.AbsorbTreeDescription(tree));
      for (int s = 0; s < 2; ++s) {
        EXPECT_TRUE(
            dynamic_cast<protocol::AheadServer&>(*shards[s]).InstallTree(tree));
        Rng rng(0xA2 + s);
        EXPECT_EQ(shards[s]->AbsorbBatchSerialized(
                      protocol::SerializeAheadReportBatch(
                          client.EncodePhase2Users(
                              share[s].subspan(share[s].size() / 2), rng))),
                  protocol::ParseError::kOk);
      }
      break;
    }
    default: {
      const auto chunks = EncodeChunks(spec, values, /*seed=*/0x1A26E);
      for (size_t c = 0; c < chunks.size(); ++c) {
        EXPECT_EQ(shards[c % 2]->AbsorbBatchSerialized(chunks[c]),
                  protocol::ParseError::kOk);
      }
      break;
    }
  }
  return shards;
}

// Writes `bytes` in small, growing pieces with a pause after each, so the
// front-end assembles the frame (its 8-byte header included) over many
// reads.
void TrickleSend(TcpClient& client, std::span<const uint8_t> bytes) {
  size_t piece = 3;
  for (size_t sent = 0; sent < bytes.size();) {
    const size_t n = std::min(piece, bytes.size() - sent);
    ASSERT_TRUE(client.Send(bytes.subspan(sent, n)));
    sent += n;
    piece = std::min<size_t>(2 * piece + 1, 16 * 1024);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

service::StateMergeResponse ReceiveAck(TcpClient& client) {
  std::vector<uint8_t> bytes;
  service::StateMergeResponse ack;
  EXPECT_TRUE(client.ReceiveMessage(&bytes))
      << net::RecvStatusName(client.last_receive_status());
  EXPECT_EQ(service::ParseStateMergeResponse(bytes, &ack),
            protocol::ParseError::kOk);
  return ack;
}

uint64_t ReceiveMergeRequestsScrape(TcpClient& client) {
  std::vector<uint8_t> bytes;
  obs::StatsResponse scrape;
  EXPECT_TRUE(client.ReceiveMessage(&bytes));
  EXPECT_EQ(obs::ParseStatsResponse(bytes, &scrape), protocol::ParseError::kOk);
  return scrape.metrics.CounterOr("service.merge_requests");
}

TEST(NetFanIn, LargeSnapshotFramesMergeBitIdenticalOverEveryDelivery) {
  // Snapshots past the 64 KiB read chunk reach the merge plane through
  // the front-end's large-frame handoff. Three deliveries of the same two
  // shard snapshots, each into its own hosted server: PushStateSnapshot
  // (header, then the snapshot buffer as is); the identical bytes
  // trickled in small writes; and each push coalesced into one write
  // between two small stats queries, so the frame starts after a
  // consumed message and ends before the next one. Every merged state
  // and answer must equal the in-process MergeSerializedState reference.
  for (const ServerSpec& spec : LargeSnapshotSpecs()) {
    SCOPED_TRACE(ServerKindName(spec.kind));
    const auto shards = IngestedShardPair(spec);
    std::vector<std::vector<uint8_t>> snaps;
    for (const auto& shard : shards) {
      snaps.push_back(shard->SerializeState());
      ASSERT_GT(snaps.back().size(), kFrontEndReadChunk);
    }
    std::unique_ptr<AggregatorServer> reference = MakeAggregatorServer(spec);
    for (const auto& snap : snaps) {
      ASSERT_EQ(reference->MergeSerializedState(snap),
                service::MergeStatus::kOk);
    }
    const std::vector<uint8_t> reference_state = reference->SerializeState();
    reference->Finalize();

    AggregatorService svc;
    uint64_t ids[3];
    for (uint64_t& id : ids) id = svc.AddServer(MakeAggregatorServer(spec));
    TcpFrontEnd front(svc);
    ASSERT_TRUE(front.Start());
    TcpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", front.port()));
    client.set_receive_timeout_ms(20'000);
    auto merge_bytes = [&](uint64_t merge_id, uint64_t id, int s) {
      service::StateMergeRequest request;
      request.merge_id = merge_id;
      request.server_id = id;
      request.shard_index = static_cast<uint64_t>(s);
      request.shard_count = 2;
      return service::SerializeStateMerge(request, snaps[s]);
    };
    const std::vector<uint8_t> stats_query =
        obs::SerializeStatsQuery(obs::StatsQuery{0x5CA9, 0});
    uint64_t merge_requests = 0;
    for (int s = 0; s < 2; ++s) {
      net::SnapshotPushOptions options;
      options.receive_timeout_ms = 20'000;
      const net::SnapshotPushResult pushed = net::PushStateSnapshot(
          client, /*merge_id=*/100, ids[0], s, 2, /*flags=*/0, snaps[s],
          options);
      ASSERT_TRUE(pushed.ok)
          << net::RecvStatusName(client.last_receive_status());
      EXPECT_EQ(pushed.shards_received, static_cast<uint64_t>(s) + 1);
      ++merge_requests;

      TrickleSend(client, merge_bytes(200, ids[1], s));
      service::StateMergeResponse ack = ReceiveAck(client);
      EXPECT_EQ(ack.merge_id, 200u);
      EXPECT_EQ(ack.status, service::MergeStatus::kOk);
      ++merge_requests;

      std::vector<uint8_t> coalesced = stats_query;
      const std::vector<uint8_t> merge = merge_bytes(300, ids[2], s);
      coalesced.insert(coalesced.end(), merge.begin(), merge.end());
      coalesced.insert(coalesced.end(), stats_query.begin(),
                       stats_query.end());
      ASSERT_TRUE(client.Send(coalesced));
      // Request order is response order: the scrape before the push
      // does not count it, the one after it does.
      EXPECT_EQ(ReceiveMergeRequestsScrape(client), merge_requests);
      ack = ReceiveAck(client);
      EXPECT_EQ(ack.merge_id, 300u);
      EXPECT_EQ(ack.status, service::MergeStatus::kOk);
      ++merge_requests;
      EXPECT_EQ(ReceiveMergeRequestsScrape(client), merge_requests);
    }
    front.Stop();

    const service::ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.merge_requests, 6u);
    EXPECT_EQ(stats.merges_completed, 3u);
    EXPECT_EQ(stats.merge_rejects, 0u);
    EXPECT_EQ(stats.merge_would_block, 0u);
    EXPECT_EQ(stats.malformed_messages, 0u);
    EXPECT_EQ(front.stats().protocol_errors, 0u);
    // HRR bodies are sized by configuration: the pushed and the trickled
    // frames are received straight into clones (the coalesced one may
    // have fully arrived before its head was looked at). AHEAD and grid
    // bodies are sized by data and always take the buffered path. Every
    // frame past the read chunk is timed once either way.
    const bool hrr = spec.kind != ServerKind::kAhead &&
                     spec.kind != ServerKind::kGrid;
    EXPECT_GE(front.stats().snapshot_intakes, hrr ? 4u : 0u);
    EXPECT_LE(front.stats().snapshot_intakes, hrr ? 6u : 0u);
    EXPECT_EQ(
        svc.registry().GetHistogram("net.frame_assembly_ns").Snapshot().count,
        6u);
    EXPECT_EQ(svc.registry().GetHistogram("merge.absorb_ns").Snapshot().count,
              6u);
    EXPECT_EQ(svc.registry().GetHistogram("merge.fan_in_ns").Snapshot().count,
              3u);
    std::vector<AxisInterval> box(reference->dimensions(),
                                  AxisInterval{spec.domain / 8,
                                               spec.domain / 2 + 3});
    const RangeEstimate expected = reference->BoxQueryWithUncertainty(box);
    for (uint64_t id : ids) {
      SCOPED_TRACE(id);
      EXPECT_EQ(svc.server(id).SerializeState(), reference_state);
      ASSERT_TRUE(svc.FinalizeServer(id));
      const RangeEstimate got = svc.server(id).BoxQueryWithUncertainty(box);
      EXPECT_EQ(std::bit_cast<uint64_t>(got.value),
                std::bit_cast<uint64_t>(expected.value));
      EXPECT_EQ(std::bit_cast<uint64_t>(got.stddev),
                std::bit_cast<uint64_t>(expected.stddev));
      if (reference->dimensions() == 1) {
        EXPECT_EQ(svc.server(id).EstimateFrequencies(),
                  reference->EstimateFrequencies());
      }
    }
  }
}

// --- Snapshot intakes: HRR pushes received straight into their clone -

// D=2^16: a flat body is 512 KiB and a B=4 tree body ~700 KB, so every
// push spans many reads.
ServerSpec IntakeSpec(ServerKind kind) {
  return ServerSpec{kind, uint64_t{1} << 16, kEps};
}

// One shard's snapshot of `spec`, from a population encoded with `seed`.
std::vector<uint8_t> ShardSnapshot(const ServerSpec& spec, uint64_t seed) {
  std::unique_ptr<AggregatorServer> shard = MakeAggregatorServer(spec);
  for (const auto& chunk :
       EncodeChunks(spec, TestValues(kUsers, spec.domain), seed)) {
    EXPECT_EQ(shard->AbsorbBatchSerialized(chunk), protocol::ParseError::kOk);
  }
  return shard->SerializeState();
}

std::vector<uint8_t> MergeFrame(uint64_t merge_id, uint64_t server_id,
                                uint64_t shard_index, uint64_t shard_count,
                                std::span<const uint8_t> snapshot) {
  service::StateMergeRequest request;
  request.merge_id = merge_id;
  request.server_id = server_id;
  request.shard_index = shard_index;
  request.shard_count = shard_count;
  return service::SerializeStateMerge(request, snapshot);
}

std::vector<uint8_t> BodyOf(std::span<const uint8_t> snapshot) {
  service::StateSnapshotHeader header;
  EXPECT_EQ(service::ParseStateSnapshot(snapshot, &header),
            protocol::ParseError::kOk);
  return std::vector<uint8_t>(header.body.begin(), header.body.end());
}

// `snapshot` with its state body replaced by `body`.
std::vector<uint8_t> WithBody(std::span<const uint8_t> snapshot,
                              std::span<const uint8_t> body) {
  service::StateSnapshotHeader header;
  EXPECT_EQ(service::ParseStateSnapshot(snapshot, &header),
            protocol::ParseError::kOk);
  return service::SerializeStateSnapshot(header, body);
}

// Offset of the last HrrOracle record in a state body (flat bodies have
// no leading level count).
size_t LastRecordOffset(std::span<const uint8_t> body, bool level_count) {
  protocol::WireReader reader(body);
  uint64_t records = 1;
  if (level_count) {
    EXPECT_TRUE(reader.ReadVarU64(&records));
  }
  for (uint64_t r = 0; r + 1 < records; ++r) {
    uint64_t value = 0;
    std::span<const uint8_t> sums;
    EXPECT_TRUE(reader.ReadVarU64(&value) && reader.ReadVarU64(&value) &&
                reader.ReadBytes(8 * value, &sums));
  }
  return body.size() - reader.Remaining();
}

// Bodies whose length lies inside the window their configuration allows
// but which fail once decoding reaches the last record — mid-way through
// the frame.
std::vector<std::pair<std::string, std::vector<uint8_t>>> FailingBodies(
    const std::vector<uint8_t>& valid, bool level_count) {
  const size_t last = LastRecordOffset(valid, level_count);
  protocol::WireReader reader(std::span<const uint8_t>(valid).subspan(last));
  uint64_t reports = 0;
  EXPECT_TRUE(reader.ReadVarU64(&reports));
  const size_t width = protocol::VarU64Size(reports);
  std::vector<std::pair<std::string, std::vector<uint8_t>>> bodies;
  std::vector<uint8_t> body = valid;
  body[last + width] ^= 0x01;  // padded domain off by one, same width
  bodies.emplace_back("padded_mismatch", body);
  body = valid;
  body.erase(body.begin() + static_cast<ptrdiff_t>(last),
             body.begin() + static_cast<ptrdiff_t>(last + width));
  body.insert(body.begin() + static_cast<ptrdiff_t>(last), 0x00);
  bodies.emplace_back("zero_reports_nonzero_sums", body);
  body = valid;
  body.push_back(0x00);
  bodies.emplace_back("trailing_byte", body);
  return bodies;
}

// The ack an identically configured node gives the same frame on the
// buffered path.
std::vector<uint8_t> BufferedAck(const ServerSpec& spec,
                                 std::span<const uint8_t> frame) {
  AggregatorService parent;
  parent.AddServer(MakeAggregatorServer(spec));
  return parent.HandleMessage(frame);
}

TEST(NetIntake, BodyFailingMidWayIsNackedOnceTheFrameIsConsumed) {
  for (ServerKind kind : {ServerKind::kFlat, ServerKind::kTree}) {
    SCOPED_TRACE(ServerKindName(kind));
    const ServerSpec spec = IntakeSpec(kind);
    const std::vector<uint8_t> snapshot = ShardSnapshot(spec, 0x1D0);
    const auto bodies =
        FailingBodies(BodyOf(snapshot), kind != ServerKind::kFlat);
    AggregatorService svc;
    const uint64_t id = svc.AddServer(MakeAggregatorServer(spec));
    TcpFrontEnd front(svc);
    ASSERT_TRUE(front.Start());
    TcpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", front.port()));
    uint64_t merge_id = 1;
    for (const auto& [name, body] : bodies) {
      SCOPED_TRACE(name);
      const std::vector<uint8_t> frame =
          MergeFrame(merge_id++, id, 0, 2, WithBody(snapshot, body));
      const uint64_t intakes = front.stats().snapshot_intakes;
      // Everything but the last byte: the body has failed by now, yet no
      // ack may leave before the frame is consumed.
      ASSERT_TRUE(
          client.Send(std::span<const uint8_t>(frame).first(frame.size() - 1)));
      client.set_receive_timeout_ms(100);
      std::vector<uint8_t> early;
      EXPECT_FALSE(client.ReceiveMessage(&early));
      EXPECT_EQ(client.last_receive_status(), net::RecvStatus::kTimeout);
      client.set_receive_timeout_ms(20'000);
      ASSERT_TRUE(client.Send(std::span<const uint8_t>(frame).last(1)));
      std::vector<uint8_t> ack;
      ASSERT_TRUE(client.ReceiveMessage(&ack));
      EXPECT_EQ(ack, BufferedAck(spec, frame));
      service::StateMergeResponse parsed;
      ASSERT_EQ(service::ParseStateMergeResponse(ack, &parsed),
                protocol::ParseError::kOk);
      EXPECT_EQ(parsed.status, service::MergeStatus::kMalformedSnapshot);
      EXPECT_EQ(front.stats().snapshot_intakes, intakes + 1);
    }
    // The connection keeps serving, and the rolled-back slot is free: the
    // valid push of the same shard merges.
    net::SnapshotPushOptions options;
    options.receive_timeout_ms = 20'000;
    const net::SnapshotPushResult pushed = net::PushStateSnapshot(
        client, merge_id, id, 0, 2, /*flags=*/0, snapshot, options);
    ASSERT_TRUE(pushed.ok);
    EXPECT_EQ(pushed.shards_received, 1u);
    front.Stop();
    EXPECT_EQ(front.stats().protocol_errors, 0u);
    EXPECT_EQ(front.stats().snapshot_intakes, bodies.size() + 1);
    const service::ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.merge_requests, bodies.size() + 1);
    EXPECT_EQ(stats.merge_rejects, bodies.size());
    EXPECT_EQ(stats.messages, bodies.size() + 1);
    EXPECT_EQ(svc.registry().GetHistogram("merge.absorb_ns").Snapshot().count,
              bodies.size() + 1);
  }
}

TEST(NetIntake, LengthOutsideTheWindowTakesTheBufferedPath) {
  for (ServerKind kind : {ServerKind::kHaar, ServerKind::kTree}) {
    SCOPED_TRACE(ServerKindName(kind));
    const ServerSpec spec = IntakeSpec(kind);
    const std::vector<uint8_t> snapshot = ShardSnapshot(spec, 0x1D1);
    const std::vector<uint8_t> body = BodyOf(snapshot);
    std::vector<uint8_t> longer = body;
    longer.resize(body.size() + 4096);
    std::vector<uint8_t> shorter(body.begin(),
                                       body.begin() + body.size() / 2);
    AggregatorService svc;
    const uint64_t id = svc.AddServer(MakeAggregatorServer(spec));
    TcpFrontEnd front(svc);
    ASSERT_TRUE(front.Start());
    TcpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", front.port()));
    client.set_receive_timeout_ms(20'000);
    uint64_t merge_id = 1;
    for (const std::vector<uint8_t>* forged : {&longer, &shorter}) {
      const std::vector<uint8_t> frame =
          MergeFrame(merge_id++, id, 0, 2, WithBody(snapshot, *forged));
      ASSERT_GT(frame.size(), kFrontEndReadChunk);
      ASSERT_TRUE(client.Send(frame));
      std::vector<uint8_t> ack;
      ASSERT_TRUE(client.ReceiveMessage(&ack));
      EXPECT_EQ(ack, BufferedAck(spec, frame));
    }
    EXPECT_EQ(front.stats().snapshot_intakes, 0u);
    // The length the configuration produces opens an intake.
    const net::SnapshotPushResult pushed =
        net::PushStateSnapshot(client, merge_id, id, 0, 2, 0, snapshot);
    ASSERT_TRUE(pushed.ok);
    front.Stop();
    EXPECT_EQ(front.stats().snapshot_intakes, 1u);
    EXPECT_EQ(
        svc.registry().GetHistogram("net.frame_assembly_ns").Snapshot().count,
        3u);
    EXPECT_EQ(svc.stats().merge_rejects, 2u);
  }
}

TEST(NetIntake, EofMidBodyReleasesTheReservation) {
  const ServerSpec spec = IntakeSpec(ServerKind::kTree);
  const std::vector<uint8_t> snaps[2] = {ShardSnapshot(spec, 0xE0F),
                                         ShardSnapshot(spec, 0xE1F)};
  std::unique_ptr<AggregatorServer> reference = MakeAggregatorServer(spec);
  for (const auto& snap : snaps) {
    ASSERT_EQ(reference->MergeSerializedState(snap), service::MergeStatus::kOk);
  }
  AggregatorService svc;
  const uint64_t id = svc.AddServer(MakeAggregatorServer(spec));
  TcpFrontEnd front(svc);
  ASSERT_TRUE(front.Start());
  {
    const std::vector<uint8_t> frame = MergeFrame(5, id, 0, 2, snaps[0]);
    TcpClient dying;
    ASSERT_TRUE(dying.Connect("127.0.0.1", front.port()));
    ASSERT_TRUE(
        dying.Send(std::span<const uint8_t>(frame).first(frame.size() / 2)));
    ASSERT_TRUE(
        EventuallyTrue([&] { return front.stats().snapshot_intakes == 1; }));
    dying.Close();
  }
  ASSERT_TRUE(
      EventuallyTrue([&] { return front.stats().protocol_errors == 1; }));
  // The same shard, re-pushed on a new connection, is admitted again (not
  // a duplicate) and the group merges bit-identically.
  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", front.port()));
  for (uint64_t s = 0; s < 2; ++s) {
    const net::SnapshotPushResult pushed =
        net::PushStateSnapshot(client, 5, id, s, 2, 0, snaps[s]);
    ASSERT_TRUE(pushed.ok);
    EXPECT_EQ(pushed.shards_received, s + 1);
  }
  front.Stop();
  EXPECT_EQ(svc.server(id).SerializeState(), reference->SerializeState());
  EXPECT_EQ(front.stats().snapshot_intakes, 3u);
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.merges_completed, 1u);
  EXPECT_EQ(stats.merge_requests, 2u);  // the aborted push never landed
  EXPECT_EQ(stats.merge_rejects, 0u);
}

TEST(NetIntake, StalledPeerHitsTheDeadlineAndFreesItsSlot) {
  const ServerSpec spec = IntakeSpec(ServerKind::kFlat);
  const std::vector<uint8_t> snapshot = ShardSnapshot(spec, 0x57A);
  AggregatorService svc;
  svc.set_merge_buffer_limit(1);
  const uint64_t id = svc.AddServer(MakeAggregatorServer(spec));
  TcpFrontEndConfig config;
  // Long enough that the deferred push below lands before the deadline
  // fires, even on a slow sanitizer build.
  config.idle_timeout_ms = 1000;
  TcpFrontEnd front(svc, config);
  ASSERT_TRUE(front.Start());
  const std::vector<uint8_t> frame = MergeFrame(7, id, 0, 2, snapshot);
  TcpClient stalled;
  ASSERT_TRUE(stalled.Connect("127.0.0.1", front.port()));
  ASSERT_TRUE(
      stalled.Send(std::span<const uint8_t>(frame).first(frame.size() / 2)));
  ASSERT_TRUE(
      EventuallyTrue([&] { return front.stats().snapshot_intakes == 1; }));
  auto push = [&](uint64_t merge_id, uint64_t shard) {
    TcpClient client;  // a fresh connection: an idle one would be closed
    EXPECT_TRUE(client.Connect("127.0.0.1", front.port()));
    net::SnapshotPushOptions options;
    options.max_retries = 0;
    options.receive_timeout_ms = 20'000;
    return net::PushStateSnapshot(client, merge_id, id, shard, 2, 0, snapshot,
                                  options);
  };
  // The open intake holds the only slot: another group's push defers.
  EXPECT_EQ(push(8, 0).status, service::MergeStatus::kWouldBlock);
  ASSERT_TRUE(
      EventuallyTrue([&] { return front.stats().intake_timeouts == 1; }));
  // Its slot and its reservation are released.
  EXPECT_TRUE(push(8, 0).ok);
  EXPECT_TRUE(push(8, 1).ok);  // completes group 8, emptying the buffer
  const net::SnapshotPushResult again = push(7, 0);
  EXPECT_TRUE(again.ok);
  EXPECT_EQ(again.shards_received, 1u);
  front.Stop();
  EXPECT_EQ(front.stats().intake_timeouts, 1u);
  EXPECT_EQ(svc.stats().merge_would_block, 1u);
  EXPECT_EQ(svc.stats().merges_completed, 1u);
}

TEST(NetIntake, DuplicateAndWouldBlockPushesMidIntakeGetTheParentsAcks) {
  const ServerSpec spec = IntakeSpec(ServerKind::kTree);
  const std::vector<uint8_t> snapshot = ShardSnapshot(spec, 0xD0B);
  AggregatorService svc;
  svc.set_merge_buffer_limit(1);
  const uint64_t id = svc.AddServer(MakeAggregatorServer(spec));
  TcpFrontEnd front(svc);
  ASSERT_TRUE(front.Start());
  // Shard 0 of 3 stops mid-body, holding the only buffer slot.
  const std::vector<uint8_t> frame = MergeFrame(9, id, 0, 3, snapshot);
  const size_t half = frame.size() / 2;
  TcpClient slow;
  ASSERT_TRUE(slow.Connect("127.0.0.1", front.port()));
  slow.set_receive_timeout_ms(20'000);
  ASSERT_TRUE(slow.Send(std::span<const uint8_t>(frame).first(half)));
  ASSERT_TRUE(
      EventuallyTrue([&] { return front.stats().snapshot_intakes == 1; }));
  auto push = [&](uint64_t shard) {
    TcpClient client;
    EXPECT_TRUE(client.Connect("127.0.0.1", front.port()));
    net::SnapshotPushOptions options;
    options.max_retries = 0;
    options.receive_timeout_ms = 20'000;
    return net::PushStateSnapshot(client, 9, id, shard, 3, 0, snapshot,
                                  options);
  };
  const net::SnapshotPushResult duplicate = push(0);
  EXPECT_EQ(duplicate.status, service::MergeStatus::kDuplicateShard);
  EXPECT_EQ(duplicate.shards_received, 1u);
  const net::SnapshotPushResult blocked = push(1);
  EXPECT_EQ(blocked.status, service::MergeStatus::kWouldBlock);
  EXPECT_EQ(blocked.shards_received, 1u);
  ASSERT_TRUE(slow.Send(std::span<const uint8_t>(frame).subspan(half)));
  const service::StateMergeResponse ack = ReceiveAck(slow);
  EXPECT_EQ(ack.status, service::MergeStatus::kOk);
  EXPECT_EQ(ack.shards_received, 1u);
  front.Stop();
  EXPECT_EQ(front.stats().snapshot_intakes, 1u);
  const service::ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.merge_rejects, 1u);
  EXPECT_EQ(stats.merge_would_block, 1u);
  EXPECT_EQ(stats.merge_requests, 3u);
}

TEST(NetIntake, StalledSingleShardPushesNeverExceedTheCap) {
  // A shard_count = 1 push would complete its group, but as an intake it
  // still needs a buffer slot while its bytes arrive: stalled pushes can
  // hold at most merge_buffer_limit clones. The rest wait on the
  // buffered path, which commits nothing before their bytes arrive.
  const ServerSpec spec = IntakeSpec(ServerKind::kFlat);
  const std::vector<uint8_t> snapshot = ShardSnapshot(spec, 0x5111);
  AggregatorService svc;
  svc.set_merge_buffer_limit(2);
  const uint64_t id = svc.AddServer(MakeAggregatorServer(spec));
  TcpFrontEnd front(svc);
  ASSERT_TRUE(front.Start());
  constexpr int kStalled = 4;
  std::vector<TcpClient> stalled(kStalled);
  size_t sent = 0;
  for (int i = 0; i < kStalled; ++i) {
    const std::vector<uint8_t> frame =
        MergeFrame(100 + static_cast<uint64_t>(i), id, 0, 1, snapshot);
    ASSERT_TRUE(stalled[i].Connect("127.0.0.1", front.port()));
    ASSERT_TRUE(stalled[i].Send(
        std::span<const uint8_t>(frame).first(frame.size() / 2)));
    sent += frame.size() / 2;
  }
  ASSERT_TRUE(EventuallyTrue(
      [&] { return front.stats().bytes_received >= sent; }));
  EXPECT_EQ(front.stats().snapshot_intakes, 2u);
  // A later push still merges, through the buffered path.
  TcpClient late;
  ASSERT_TRUE(late.Connect("127.0.0.1", front.port()));
  EXPECT_TRUE(net::PushStateSnapshot(late, 200, id, 0, 1, 0, snapshot).ok);
  EXPECT_EQ(front.stats().snapshot_intakes, 2u);
  for (TcpClient& client : stalled) client.Close();
  ASSERT_TRUE(EventuallyTrue(
      [&] { return front.stats().protocol_errors == kStalled; }));
  // Every slot came back: the next push is an intake again.
  EXPECT_TRUE(net::PushStateSnapshot(late, 201, id, 0, 1, 0, snapshot).ok);
  front.Stop();
  EXPECT_EQ(front.stats().snapshot_intakes, 3u);
  EXPECT_EQ(svc.stats().merges_completed, 2u);
  EXPECT_EQ(svc.server(id).accepted_reports(), 2 * kUsers);
}

TEST(NetProtocol, MalformedButFramedMessageSurvivesTheConnection) {
  // A well-framed message the service cannot route (unknown mechanism
  // tag) is the SERVICE's problem: counted malformed, skipped, and the
  // connection keeps answering.
  const ServerSpec spec{ServerKind::kFlat, kDomain, kEps};
  AggregatorService svc;
  const uint64_t server_id = svc.AddServer(MakeAggregatorServer(spec));
  svc.FinalizeServer(server_id);
  TcpFrontEnd front(svc);
  ASSERT_TRUE(front.Start());
  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", front.port()));
  const std::vector<uint8_t> framed_junk = {
      protocol::kEnvelopeMagic0, protocol::kEnvelopeMagic1,
      protocol::kWireVersionV2,  0x7E /* unknown tag */,
      0x02,                      0x00,
      0x00,                      0x00,
      0xAA,                      0xBB};
  ASSERT_TRUE(client.Send(framed_junk));
  const std::vector<uint8_t> response =
      client.Call(QueryBytes(server_id, spec.domain));
  EXPECT_FALSE(response.empty());
  EXPECT_EQ(front.stats().protocol_errors, 0u);
  EXPECT_EQ(svc.stats().malformed_messages, 1u);
  front.Stop();
}

}  // namespace
}  // namespace ldp
