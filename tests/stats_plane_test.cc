// The wire-scrapeable stats plane end to end: kStatsQuery/kStatsResponse
// round-trips, total parsing over truncated/adversarial bytes, the
// service's HandleStatsQuery surface (flags, malformed requests, exact
// reconciliation against ServiceStats at quiescence), a live TCP scrape
// through the front-end, and a concurrent scrape-while-ingesting hammer
// that must be race-free (run under TSan when chasing regressions).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "net/tcp_client.h"
#include "net/tcp_front_end.h"
#include "obs/metrics.h"
#include "obs/stats_wire.h"
#include "protocol/envelope.h"
#include "protocol/flat_protocol.h"
#include "service/aggregator_service.h"
#include "service/server_factory.h"
#include "service/stream_wire.h"

namespace ldp {
namespace {

using net::TcpClient;
using net::TcpFrontEnd;
using obs::kStatsFlagIncludeGlobal;
using obs::MetricsSnapshot;
using obs::ParseStatsQuery;
using obs::ParseStatsResponse;
using obs::SerializeStatsQuery;
using obs::SerializeStatsResponse;
using obs::StatsQuery;
using obs::StatsResponse;
using obs::StatsStatus;
using protocol::ParseError;
using service::AggregatorService;
using service::MakeAggregatorServer;
using service::ServerKind;
using service::ServerSpec;
using service::ServiceStats;
using service::StreamEnd;

constexpr uint64_t kDomain = 64;
constexpr double kEps = 1.0;

ServerSpec FlatSpec() {
  ServerSpec spec;
  spec.kind = ServerKind::kFlat;
  spec.domain = kDomain;
  spec.eps = kEps;
  return spec;
}

std::vector<uint8_t> EncodeBatch(uint64_t users, uint64_t seed) {
  std::vector<uint64_t> values;
  values.reserve(users);
  Rng value_rng(seed);
  for (uint64_t i = 0; i < users; ++i) {
    values.push_back(value_rng.UniformInt(kDomain));
  }
  protocol::FlatHrrClient client(kDomain, kEps);
  Rng rng(seed ^ 0x9E3779B9);
  return client.EncodeUsersSerialized(values, rng);
}

// Streams `chunks` as one finalizing session.
void StreamSession(AggregatorService& svc, uint64_t session_id,
                   uint64_t server_id,
                   const std::vector<std::vector<uint8_t>>& chunks) {
  svc.HandleMessage(service::SerializeStreamBegin({session_id, server_id}));
  for (size_t c = 0; c < chunks.size(); ++c) {
    svc.HandleMessage(
        service::SerializeStreamChunk(session_id, c, chunks[c]));
  }
  StreamEnd end;
  end.session_id = session_id;
  end.chunk_count = chunks.size();
  end.flags = service::kStreamFlagFinalize;
  svc.HandleMessage(service::SerializeStreamEnd(end));
}

// Scrapes `svc` in process and returns the parsed response.
StatsResponse Scrape(AggregatorService& svc, uint8_t flags = 0,
                     uint64_t query_id = 42) {
  std::vector<uint8_t> reply =
      svc.HandleMessage(SerializeStatsQuery({query_id, flags}));
  StatsResponse response;
  EXPECT_EQ(ParseStatsResponse(reply, &response), ParseError::kOk);
  EXPECT_EQ(response.query_id, query_id);
  EXPECT_EQ(response.status, StatsStatus::kOk);
  return response;
}

// --- wire round trips ----------------------------------------------------

TEST(StatsWire, QueryRoundTripIsByteExact) {
  StatsQuery msg{0x0123456789ABCDEFull, kStatsFlagIncludeGlobal};
  std::vector<uint8_t> bytes = SerializeStatsQuery(msg);
  StatsQuery parsed;
  ASSERT_EQ(ParseStatsQuery(bytes, &parsed), ParseError::kOk);
  EXPECT_EQ(parsed, msg);
  EXPECT_EQ(SerializeStatsQuery(parsed), bytes);
}

TEST(StatsWire, ResponseRoundTripsALiveRegistrySnapshot) {
  obs::MetricsRegistry registry;
  registry.GetCounter("alpha.count").Add(7);
  registry.GetCounter("beta.count").Add(123456789);
  registry.GetGauge("queue.depth").Add(-12);
  obs::LatencyHistogram& hist = registry.GetHistogram("lat.ns");
  for (uint64_t v : {0ull, 1ull, 17ull, 1000ull, 999999ull}) hist.Record(v);

  StatsResponse msg;
  msg.query_id = 99;
  msg.metrics = registry.Snapshot();
  std::vector<uint8_t> bytes = SerializeStatsResponse(msg);
  StatsResponse parsed;
  ASSERT_EQ(ParseStatsResponse(bytes, &parsed), ParseError::kOk);
  EXPECT_EQ(parsed, msg);
  // Canonical form: one encoding per snapshot.
  EXPECT_EQ(SerializeStatsResponse(parsed), bytes);
}

TEST(StatsWire, EmptyResponseRoundTrips) {
  StatsResponse msg;
  msg.status = StatsStatus::kMalformedRequest;
  std::vector<uint8_t> bytes = SerializeStatsResponse(msg);
  StatsResponse parsed;
  ASSERT_EQ(ParseStatsResponse(bytes, &parsed), ParseError::kOk);
  EXPECT_EQ(parsed, msg);
  EXPECT_TRUE(parsed.metrics.counters.empty());
}

// --- total parsing over adversarial bytes --------------------------------

TEST(StatsWire, EveryStrictPrefixOfAResponseIsRejected) {
  obs::MetricsRegistry registry;
  registry.GetCounter("a").Increment();
  registry.GetCounter("bb").Add(300);
  registry.GetGauge("g").Add(-5);
  obs::LatencyHistogram& hist = registry.GetHistogram("h.ns");
  hist.Record(3);
  hist.Record(70000);
  StatsResponse msg;
  msg.query_id = 7;
  msg.metrics = registry.Snapshot();
  std::vector<uint8_t> bytes = SerializeStatsResponse(msg);
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::span<const uint8_t> prefix(bytes.data(), len);
    StatsResponse out;
    EXPECT_NE(ParseStatsResponse(prefix, &out), ParseError::kOk)
        << "prefix of length " << len << " parsed";
  }
  StatsQuery query{1, 0};
  std::vector<uint8_t> query_bytes = SerializeStatsQuery(query);
  for (size_t len = 0; len < query_bytes.size(); ++len) {
    std::span<const uint8_t> prefix(query_bytes.data(), len);
    StatsQuery out;
    EXPECT_NE(ParseStatsQuery(prefix, &out), ParseError::kOk);
  }
}

TEST(StatsWire, SingleByteCorruptionNeverCrashesAndReparsesConsistently) {
  obs::MetricsRegistry registry;
  registry.GetCounter("net.bytes").Add(512);
  obs::LatencyHistogram& hist = registry.GetHistogram("lat.ns");
  hist.Record(40);
  hist.Record(41);
  StatsResponse msg;
  msg.metrics = registry.Snapshot();
  std::vector<uint8_t> bytes = SerializeStatsResponse(msg);
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> mutated = bytes;
    mutated[i] ^= 0xFF;
    StatsResponse out;
    if (ParseStatsResponse(mutated, &out) != ParseError::kOk) continue;
    // Whatever parsed must survive its own serialize -> parse cycle.
    std::vector<uint8_t> reencoded = SerializeStatsResponse(out);
    StatsResponse reparsed;
    ASSERT_EQ(ParseStatsResponse(reencoded, &reparsed), ParseError::kOk);
    EXPECT_EQ(reparsed, out) << "byte " << i;
  }
}

TEST(StatsWire, ForgedHistogramExtremesAreRejected) {
  // A histogram whose min does not land in the lowest occupied bucket
  // (or max not in the highest) is a forgery — build one by hand.
  obs::MetricsRegistry registry;
  obs::LatencyHistogram& hist = registry.GetHistogram("h");
  hist.Record(100);  // bucket 7
  StatsResponse msg;
  msg.metrics = registry.Snapshot();
  std::vector<uint8_t> good = SerializeStatsResponse(msg);
  StatsResponse parsed;
  ASSERT_EQ(ParseStatsResponse(good, &parsed), ParseError::kOk);

  msg.metrics.histograms[0].histogram.min = 1;  // bucket 1 != bucket 7
  // SerializeStatsResponse normalizes torn extremes, so a forgery has to
  // bypass it: patch the serialized min varint directly. Layout after
  // the envelope header + 8-byte query_id + status + version:
  //   counters=0 gauges=0 histograms=1, name "h" (len 1), sum varint,
  //   min varint ...
  // sum=100 encodes as 1 varint byte (0x64), min=100 likewise.
  std::vector<uint8_t> forged = good;
  size_t min_offset = protocol::kEnvelopeHeaderSize + 8 + 1 + 1 +
                      /*counts*/ 3 + /*name*/ 2 + /*sum*/ 1;
  ASSERT_EQ(forged.at(min_offset), 100);  // sanity: this is min=100
  forged[min_offset] = 1;
  StatsResponse out;
  EXPECT_NE(ParseStatsResponse(forged, &out), ParseError::kOk);
}

// --- service surface -----------------------------------------------------

TEST(StatsPlane, HandleStatsQueryServesServiceAndServerMetrics) {
  AggregatorService svc(/*worker_threads=*/0);
  uint64_t server_id = svc.AddServer(MakeAggregatorServer(FlatSpec()));
  // A second, unfinalized server takes two state snapshots (a shard's
  // hand-off), so the per-server serialize histogram has something to
  // count.
  uint64_t shard_id = svc.AddServer(MakeAggregatorServer(FlatSpec()));
  StreamSession(svc, /*session_id=*/1, server_id,
                {EncodeBatch(200, 11), EncodeBatch(100, 12)});
  svc.Drain();
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(svc.server(shard_id).SerializeState().empty());
  }

  StatsResponse response = Scrape(svc);
  const MetricsSnapshot& m = response.metrics;
  EXPECT_EQ(m.CounterOr("service.chunks_absorbed"), 2u);
  EXPECT_EQ(m.CounterOr("server0.accepted"), 300u);
  EXPECT_EQ(m.CounterOr("server0.rejected"), 0u);
  const obs::HistogramValue* absorb = m.FindHistogram("server0.absorb_batch_ns");
  ASSERT_NE(absorb, nullptr);
  EXPECT_EQ(absorb->histogram.count, 2u);
  EXPECT_GT(absorb->histogram.sum, 0u);
  const obs::HistogramValue* finalize = m.FindHistogram("server0.finalize_ns");
  ASSERT_NE(finalize, nullptr);
  EXPECT_EQ(finalize->histogram.count, 1u);
  const obs::HistogramValue* serialize =
      m.FindHistogram("server0.snapshot_serialize_ns");
  ASSERT_NE(serialize, nullptr);
  EXPECT_EQ(serialize->histogram.count, 0u);
  serialize = m.FindHistogram("server1.snapshot_serialize_ns");
  ASSERT_NE(serialize, nullptr);
  EXPECT_EQ(serialize->histogram.count, 2u);
  EXPECT_GT(serialize->histogram.sum, 0u);
  ASSERT_NE(m.FindHistogram("service.queue_wait_ns"), nullptr);
  const obs::GaugeValue* depth = m.FindGauge("service.queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->value, 0);
}

TEST(StatsPlane, IncludeGlobalFlagMergesTheProcessRegistry) {
  AggregatorService svc(/*worker_threads=*/0);
  svc.AddServer(MakeAggregatorServer(FlatSpec()));
  // Plant a sentinel in the process-global registry; it must appear only
  // when the flag asks for it.
  obs::MetricsRegistry::Global()
      .GetCounter("test.stats_plane_sentinel")
      .Add(77);
  StatsResponse without = Scrape(svc, /*flags=*/0, /*query_id=*/1);
  EXPECT_EQ(without.metrics.FindCounter("test.stats_plane_sentinel"),
            nullptr);
  StatsResponse with = Scrape(svc, kStatsFlagIncludeGlobal, /*query_id=*/2);
  EXPECT_EQ(with.metrics.CounterOr("test.stats_plane_sentinel"), 77u);
  // The with-global response is a superset: every service-side entry
  // still present.
  for (const obs::CounterValue& c : without.metrics.counters) {
    // Counters are monotone, so the later scrape dominates everywhere.
    EXPECT_GE(with.metrics.CounterOr(c.name), c.value) << c.name;
  }
}

TEST(StatsPlane, MalformedStatsQueryGetsTypedRejection) {
  AggregatorService svc(/*worker_threads=*/0);
  // A kStatsQuery envelope whose payload is one byte short: re-frame a
  // truncated payload through the envelope encoder.
  std::vector<uint8_t> good = SerializeStatsQuery({5, 0});
  protocol::Envelope env;
  ASSERT_EQ(protocol::DecodeEnvelope(good, &env), ParseError::kOk);
  std::vector<uint8_t> short_payload(env.payload.begin(),
                                     env.payload.end() - 1);
  std::vector<uint8_t> bad = protocol::EncodeEnvelope(
      protocol::MechanismTag::kStatsQuery, short_payload);
  std::vector<uint8_t> reply = svc.HandleMessage(bad);
  StatsResponse response;
  ASSERT_EQ(ParseStatsResponse(reply, &response), ParseError::kOk);
  EXPECT_EQ(response.status, StatsStatus::kMalformedRequest);
  EXPECT_TRUE(response.metrics.counters.empty());
  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.malformed_messages, 1u);
  EXPECT_EQ(stats.queries_answered, 1u);
}

// The scrape counts itself (queries_answered and messages are bumped
// before the snapshot), so a scrape at quiescence must reconcile
// EXACTLY with a ServiceStats read taken right after it.
TEST(StatsPlane, ScrapeReconcilesExactlyWithServiceStats) {
  AggregatorService svc(/*worker_threads=*/2);
  uint64_t server_id = svc.AddServer(MakeAggregatorServer(FlatSpec()));
  // A session with one duplicate chunk and a stray unknown-session chunk
  // so the hygiene counters are non-zero. It goes before the finalizing
  // session: a chunk that reaches the server once its finalize has
  // started is late, so sending it after would race the worker.
  svc.HandleMessage(service::SerializeStreamBegin({2, server_id}));
  std::vector<uint8_t> chunk = EncodeBatch(50, 3);
  svc.HandleMessage(service::SerializeStreamChunk(2, 0, chunk));
  svc.HandleMessage(service::SerializeStreamChunk(2, 0, chunk));   // dup
  svc.HandleMessage(service::SerializeStreamChunk(999, 0, chunk)); // unknown
  StreamEnd end;
  end.session_id = 2;
  end.chunk_count = 1;
  svc.HandleMessage(service::SerializeStreamEnd(end));
  StreamSession(svc, 1, server_id,
                {EncodeBatch(100, 1), EncodeBatch(100, 2)});
  svc.Drain();

  StatsResponse response = Scrape(svc);
  ServiceStats stats = svc.stats();
  const MetricsSnapshot& m = response.metrics;
  EXPECT_EQ(m.CounterOr("service.messages"), stats.messages);
  EXPECT_EQ(m.CounterOr("service.malformed_messages"),
            stats.malformed_messages);
  EXPECT_EQ(m.CounterOr("service.duplicate_sessions"),
            stats.duplicate_sessions);
  EXPECT_EQ(m.CounterOr("service.rejected_sessions"),
            stats.rejected_sessions);
  EXPECT_EQ(m.CounterOr("service.unknown_sessions"), stats.unknown_sessions);
  EXPECT_EQ(m.CounterOr("service.duplicate_chunks"), stats.duplicate_chunks);
  EXPECT_EQ(m.CounterOr("service.late_chunks"), stats.late_chunks);
  EXPECT_EQ(m.CounterOr("service.incomplete_streams"),
            stats.incomplete_streams);
  EXPECT_EQ(m.CounterOr("service.oversized_declarations"),
            stats.oversized_declarations);
  EXPECT_EQ(m.CounterOr("service.chunks_enqueued"), stats.chunks_enqueued);
  EXPECT_EQ(m.CounterOr("service.chunks_absorbed"), stats.chunks_absorbed);
  EXPECT_EQ(m.CounterOr("service.backpressure_waits"),
            stats.backpressure_waits);
  EXPECT_EQ(m.CounterOr("service.socket_pauses"), stats.socket_pauses);
  EXPECT_EQ(m.CounterOr("service.queries_answered"),
            stats.queries_answered);
  // Cross-counter invariants at quiescence.
  EXPECT_EQ(m.CounterOr("service.unknown_sessions"), 1u);
  EXPECT_EQ(m.CounterOr("service.duplicate_chunks"), 1u);
  EXPECT_EQ(m.CounterOr("service.chunks_enqueued"),
            m.CounterOr("service.chunks_absorbed"));
  EXPECT_EQ(m.CounterOr("service.sessions_begun"), 2u);
  EXPECT_EQ(m.CounterOr("service.sessions_completed"), 2u);
  // 100 + 100 from session 1 plus 50 from session 2; the duplicate and
  // unknown-session chunks were dropped before ingestion.
  EXPECT_EQ(m.CounterOr("server0.accepted") +
                m.CounterOr("server0.rejected"),
            250u);
}

// --- TCP scrape (the ISSUE acceptance criterion) -------------------------

TEST(StatsPlane, LiveTcpScrapeReturnsNonZeroIngestHistograms) {
  AggregatorService svc(/*worker_threads=*/2);
  uint64_t server_id = svc.AddServer(MakeAggregatorServer(FlatSpec()));
  TcpFrontEnd front(svc);
  ASSERT_TRUE(front.Start());
  TcpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", front.port()));
  // Stream messages are fire-and-forget: Send, not Call (no response
  // ever comes back for them).
  ASSERT_TRUE(client.Send(service::SerializeStreamBegin({1, server_id})));
  ASSERT_TRUE(client.Send(
      service::SerializeStreamChunk(1, 0, EncodeBatch(300, 21))));
  StreamEnd end;
  end.session_id = 1;
  end.chunk_count = 1;
  ASSERT_TRUE(client.Send(service::SerializeStreamEnd(end)));
  // A Call on the same connection synchronizes: its response proves
  // every prior message was routed (per-connection FIFO), after which
  // Drain() flushes the ingestion queues.
  std::vector<uint8_t> sync =
      client.Call(SerializeStatsQuery({1, 0}));
  ASSERT_FALSE(sync.empty());
  svc.Drain();

  std::vector<uint8_t> reply =
      client.Call(SerializeStatsQuery({0xBEEF, kStatsFlagIncludeGlobal}));
  StatsResponse response;
  ASSERT_EQ(ParseStatsResponse(reply, &response), ParseError::kOk);
  EXPECT_EQ(response.status, StatsStatus::kOk);
  EXPECT_EQ(response.query_id, 0xBEEFu);
  const MetricsSnapshot& m = response.metrics;
  const obs::HistogramValue* absorb =
      m.FindHistogram("server0.absorb_batch_ns");
  ASSERT_NE(absorb, nullptr);
  EXPECT_GT(absorb->histogram.count, 0u);
  EXPECT_GT(absorb->histogram.sum, 0u);
  EXPECT_EQ(m.CounterOr("server0.accepted"), 300u);
  // The front-end's own counters ride in the same response.
  EXPECT_GT(m.CounterOr("net.bytes_received"), 0u);
  EXPECT_GT(m.CounterOr("net.messages_routed"), 0u);
  EXPECT_GT(m.CounterOr("net.connections_accepted"), 0u);
  EXPECT_EQ(m.CounterOr("net.read_pauses"), m.CounterOr("net.read_resumes"));
  front.Stop();
}

// --- satellite 2: scrape-while-ingesting must be race-free ---------------

TEST(StatsPlane, ConcurrentScrapesDuringIngestAreCoherent) {
  AggregatorService svc(/*worker_threads=*/4, /*queue_high_water=*/4);
  uint64_t server_id = svc.AddServer(MakeAggregatorServer(FlatSpec()));
  constexpr int kProducers = 3;
  constexpr int kChunksPerProducer = 8;
  std::vector<std::vector<uint8_t>> batches;
  for (int i = 0; i < kProducers * kChunksPerProducer; ++i) {
    batches.push_back(EncodeBatch(40, 100 + i));
  }
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    uint64_t scrapes = 0;
    while (!stop.load(std::memory_order_acquire)) {
      // Wire scrape and both in-process snapshot paths, concurrently
      // with ingestion: must be data-race-free, and every intermediate
      // snapshot must hold monotone partial-progress invariants.
      std::vector<uint8_t> reply =
          svc.HandleMessage(SerializeStatsQuery({scrapes, 0}));
      StatsResponse response;
      ASSERT_EQ(ParseStatsResponse(reply, &response), ParseError::kOk);
      ServiceStats stats = svc.stats();
      EXPECT_GE(stats.chunks_enqueued, stats.chunks_absorbed);
      (void)svc.registry().Snapshot();
      ++scrapes;
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      uint64_t session_id = 10 + p;
      svc.HandleMessage(
          service::SerializeStreamBegin({session_id, server_id}));
      for (int c = 0; c < kChunksPerProducer; ++c) {
        svc.HandleMessage(service::SerializeStreamChunk(
            session_id, c, batches[p * kChunksPerProducer + c]));
      }
      StreamEnd end;
      end.session_id = session_id;
      end.chunk_count = kChunksPerProducer;
      svc.HandleMessage(service::SerializeStreamEnd(end));
    });
  }
  for (std::thread& t : producers) t.join();
  svc.Drain();
  stop.store(true, std::memory_order_release);
  scraper.join();

  // Quiesced: the final scrape is exact.
  StatsResponse response = Scrape(svc);
  ServiceStats stats = svc.stats();
  EXPECT_EQ(stats.chunks_absorbed,
            uint64_t{kProducers} * kChunksPerProducer);
  EXPECT_EQ(response.metrics.CounterOr("service.chunks_absorbed"),
            stats.chunks_absorbed);
  EXPECT_EQ(response.metrics.CounterOr("server0.accepted"),
            uint64_t{kProducers} * kChunksPerProducer * 40);
  const obs::GaugeValue* depth =
      response.metrics.FindGauge("service.queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->value, 0);
}

}  // namespace
}  // namespace ldp
