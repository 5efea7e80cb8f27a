// loadgen: TCP load generator for the aggregator front-end.
//
// Simulates a reporting population of --users LDP clients streaming
// encoded report chunks over --connections concurrent TCP connections,
// then measures query latency over the same wire. Two modes:
//
//   self-host (default, --port=0): spins up an AggregatorService +
//     TcpFrontEnd in-process on an ephemeral loopback port — the
//     reproducible single-box configuration run_baselines.sh records
//     and the CI net-smoke job asserts on.
//   external (--host/--port): drives an already-running front-end;
//     server-side stats come from the kStatsQuery scrape over the same
//     wire (the in-process ServiceStats reconciliation is self-host
//     only).
//
// Encoding happens BEFORE the clock starts (the client-side perturbation
// cost is bench_micro_mechanisms' subject, not this binary's): the timed
// section is framing + TCP + service admission + absorb. Every ingest
// connection ends with the shutdown(SHUT_WR) handshake and waits for the
// server's EOF, which the front-end only sends after routing every
// buffered message — so when the ingest phase ends, every chunk is
// admitted, and the finalize session cannot race ahead of data.
//
// Deliberately plain (no Google Benchmark dependency): it must build in
// every preset, including the sanitizer ones where LDP_BUILD_BENCH is
// OFF, because CI runs it under ASan.
//
// Output: human-readable summary on stdout, plus --json=PATH with the
// medians-over---reps numbers in the same shape as the other checked-in
// BENCH_*.json baselines. --assert-clean exits non-zero unless the run
// was hygienic (no rejected/incomplete/late/malformed anything) — socket
// pauses are NOT a failure, they are backpressure doing its job.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "net/snapshot_push.h"
#include "net/tcp_client.h"
#include "net/tcp_front_end.h"
#include "obs/stats_wire.h"
#include "obs/trace.h"
#include "protocol/flat_protocol.h"
#include "protocol/haar_protocol.h"
#include "protocol/tree_protocol.h"
#include "service/aggregator_service.h"
#include "service/server_factory.h"
#include "service/state_wire.h"
#include "service/stream_wire.h"

namespace {

using ldp::Rng;
using ldp::net::TcpClient;
using ldp::net::TcpFrontEnd;
using ldp::net::TcpFrontEndConfig;
using ldp::service::AggregatorService;
using ldp::service::MakeAggregatorServer;
using ldp::service::QueryStatus;
using ldp::service::RangeQueryRequest;
using ldp::service::RangeQueryResponse;
using ldp::service::ServerKind;
using ldp::service::ServerSpec;
using ldp::service::StreamEnd;

struct Options {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 => self-host on an ephemeral port
  unsigned connections = 8;
  uint64_t users = 200000;
  uint64_t chunk = 2000;  // users per chunk
  std::string mechanism = "haar";
  uint64_t domain = 1024;
  double eps = 1.0;
  uint64_t fanout = 4;
  unsigned workers = 0;  // 0 => hardware_concurrency / 2, min 1
  uint64_t queries = 200;
  unsigned reps = 3;
  double min_seconds = 0.0;  // per ingest rep, keep streaming until this
  std::string json;
  std::string trace;  // Chrome trace JSON of server-side spans
  bool assert_clean = false;
  // Multi-process fan-in mode: fork this many shard processes, each of
  // which runs the full ingest pipeline on its own service and pushes a
  // state snapshot to this process's merge plane. 0 = single-process.
  unsigned shards = 0;
  // Fan-in only: rebuild the identical population in-process and assert
  // every wire query response is byte-identical to the single-process
  // reference aggregate.
  bool verify_fanin = false;
  // Base seed of the encoded population (connection c encodes with
  // seed + c) and, through QuerySeed, of the query intervals.
  uint64_t seed = 0x10AD;
};

// The query intervals draw from their own stream. The mask keeps the
// default --seed's stream at the historical fixed query seed 0x9E57.
uint64_t QuerySeed(const Options& opt) {
  return opt.seed ^ (uint64_t{0x10AD} ^ uint64_t{0x9E57});
}

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

Options ParseOptions(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (ParseFlag(arg, "host", &v)) opt.host = v;
    else if (ParseFlag(arg, "port", &v)) opt.port = static_cast<uint16_t>(std::stoul(v));
    else if (ParseFlag(arg, "connections", &v)) opt.connections = static_cast<unsigned>(std::stoul(v));
    else if (ParseFlag(arg, "users", &v)) opt.users = std::stoull(v);
    else if (ParseFlag(arg, "chunk", &v)) opt.chunk = std::stoull(v);
    else if (ParseFlag(arg, "mechanism", &v)) opt.mechanism = v;
    else if (ParseFlag(arg, "domain", &v)) opt.domain = std::stoull(v);
    else if (ParseFlag(arg, "eps", &v)) opt.eps = std::stod(v);
    else if (ParseFlag(arg, "fanout", &v)) opt.fanout = std::stoull(v);
    else if (ParseFlag(arg, "workers", &v)) opt.workers = static_cast<unsigned>(std::stoul(v));
    else if (ParseFlag(arg, "queries", &v)) opt.queries = std::stoull(v);
    else if (ParseFlag(arg, "reps", &v)) opt.reps = static_cast<unsigned>(std::stoul(v));
    else if (ParseFlag(arg, "min-seconds", &v)) opt.min_seconds = std::stod(v);
    else if (ParseFlag(arg, "json", &v)) opt.json = v;
    else if (ParseFlag(arg, "trace", &v)) opt.trace = v;
    else if (ParseFlag(arg, "shards", &v)) opt.shards = static_cast<unsigned>(std::stoul(v));
    else if (ParseFlag(arg, "seed", &v)) opt.seed = std::stoull(v, nullptr, 0);
    else if (arg == "--verify-fanin") opt.verify_fanin = true;
    else if (arg == "--assert-clean") opt.assert_clean = true;
    else {
      std::fprintf(stderr,
                   "loadgen: unknown argument '%s'\n"
                   "flags: --host --port --connections --users --chunk "
                   "--mechanism=flat|haar|tree --domain --eps --fanout "
                   "--workers --queries --reps --min-seconds --json "
                   "--trace --shards --seed --verify-fanin --assert-clean\n",
                   arg.c_str());
      std::exit(2);
    }
  }
  if (opt.connections == 0) opt.connections = 1;
  if (opt.chunk == 0) opt.chunk = 1;
  if (opt.reps == 0) opt.reps = 1;
  return opt;
}

ServerKind KindFromName(const std::string& name) {
  if (name == "flat") return ServerKind::kFlat;
  if (name == "haar") return ServerKind::kHaar;
  if (name == "tree") return ServerKind::kTree;
  std::fprintf(stderr, "loadgen: unsupported --mechanism=%s\n", name.c_str());
  std::exit(2);
}

// One connection's pre-encoded traffic: the chunks of its user share.
std::vector<std::vector<uint8_t>> EncodeShare(const ServerSpec& spec,
                                              uint64_t users, uint64_t chunk,
                                              uint64_t seed) {
  Rng value_rng(seed);
  std::vector<uint64_t> values(users);
  for (uint64_t i = 0; i < users; ++i) {
    values[i] = value_rng.Bernoulli(0.6)
                    ? value_rng.UniformInt(std::max<uint64_t>(1, spec.domain / 8))
                    : value_rng.UniformInt(spec.domain);
  }
  std::vector<std::vector<uint8_t>> chunks;
  for (uint64_t begin = 0; begin < users; begin += chunk) {
    const uint64_t end = std::min(users, begin + chunk);
    std::span<const uint64_t> slice(values.data() + begin, end - begin);
    Rng rng(seed ^ (begin * 0x9E3779B97F4A7C15ULL));
    switch (spec.kind) {
      case ServerKind::kFlat: {
        ldp::protocol::FlatHrrClient client(spec.domain, spec.eps);
        chunks.push_back(client.EncodeUsersSerialized(slice, rng));
        break;
      }
      case ServerKind::kHaar: {
        ldp::protocol::HaarHrrClient client(spec.domain, spec.eps);
        chunks.push_back(client.EncodeUsersSerialized(slice, rng));
        break;
      }
      case ServerKind::kTree: {
        ldp::protocol::TreeHrrClient client(spec.domain, spec.fanout,
                                            spec.eps);
        chunks.push_back(client.EncodeUsersSerialized(slice, rng));
        break;
      }
      default:
        std::exit(2);
    }
  }
  return chunks;
}

// Streams `chunks` as one complete session. False on any socket failure.
bool StreamOneSession(TcpClient& client, uint64_t session_id,
                      uint64_t server_id,
                      const std::vector<std::vector<uint8_t>>& chunks) {
  if (!client.Send(ldp::service::SerializeStreamBegin(
          {session_id, server_id}))) {
    return false;
  }
  for (size_t c = 0; c < chunks.size(); ++c) {
    if (!client.Send(
            ldp::service::SerializeStreamChunk(session_id, c, chunks[c]))) {
      return false;
    }
  }
  StreamEnd end;
  end.session_id = session_id;
  end.chunk_count = chunks.size();
  return client.Send(ldp::service::SerializeStreamEnd(end));
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const size_t idx = static_cast<size_t>(p * (xs.size() - 1) + 0.5);
  return xs[idx];
}

struct IngestResult {
  double reports_per_sec = 0.0;
  double mb_per_sec = 0.0;
  uint64_t reports = 0;
  uint64_t sessions = 0;
  uint64_t messages = 0;  // framed messages sent: begin + chunks + end
  bool ok = true;
};

IngestResult RunIngestRep(const Options& opt, const std::string& host,
                          uint16_t port, uint64_t server_id,
                          const std::vector<std::vector<std::vector<uint8_t>>>&
                              shares,
                          const std::vector<uint64_t>& share_users,
                          std::atomic<uint64_t>& next_session) {
  IngestResult result;
  std::atomic<uint64_t> reports{0};
  std::atomic<uint64_t> bytes{0};
  std::atomic<uint64_t> sessions{0};
  std::atomic<uint64_t> messages{0};
  std::atomic<bool> ok{true};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(shares.size());
  for (size_t s = 0; s < shares.size(); ++s) {
    threads.emplace_back([&, s] {
      const auto& share = shares[s];
      TcpClient client;
      if (!client.Connect(host, port)) {
        ok.store(false);
        return;
      }
      uint64_t share_bytes = 0;
      for (const auto& chunk : share) share_bytes += chunk.size();
      // At least one session; keep looping fresh sessions of the same
      // encoded bytes until the rep has filled --min-seconds.
      do {
        const uint64_t session_id = next_session.fetch_add(1);
        if (!StreamOneSession(client, session_id, server_id, share)) {
          ok.store(false);
          return;
        }
        sessions.fetch_add(1);
        messages.fetch_add(share.size() + 2);
        // Exact per-share count (the last share is short when --users is
        // not a multiple of --connections) so the scrape-time
        // reconciliation against server-side accepted+rejected is exact.
        reports.fetch_add(share_users[s]);
        bytes.fetch_add(share_bytes);
      } while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
                   .count() < opt.min_seconds);
      // Shutdown handshake: the server's EOF certifies every message on
      // this connection was routed before the rep is declared over.
      client.ShutdownWrite();
      std::vector<uint8_t> eof_probe;
      if (client.ReceiveMessage(&eof_probe)) ok.store(false);
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  result.reports = reports.load();
  result.sessions = sessions.load();
  result.messages = messages.load();
  result.ok = ok.load();
  result.reports_per_sec = elapsed > 0 ? result.reports / elapsed : 0.0;
  result.mb_per_sec = elapsed > 0 ? bytes.load() / elapsed / 1e6 : 0.0;
  return result;
}

ServerSpec SpecFromOptions(const Options& opt) {
  ServerSpec spec;
  spec.kind = KindFromName(opt.mechanism);
  spec.domain = opt.domain;
  spec.eps = opt.eps;
  spec.fanout = opt.fanout;
  return spec;
}

unsigned ResolveWorkers(const Options& opt) {
  if (opt.workers != 0) return opt.workers;
  return std::max(1u, std::thread::hardware_concurrency() / 2);
}

// ---------------------------------------------------------------------
// Single-process mode: one service hosts ingest and queries.

int RunSingle(const Options& opt) {
  // Server-side span capture (self-host only: the spans come from the
  // in-process service). Armed before any work so ingest is covered.
  if (!opt.trace.empty()) ldp::obs::StartTracing();
  const ServerSpec spec = SpecFromOptions(opt);

  // Self-hosted service + front-end, unless an external one was named.
  std::unique_ptr<AggregatorService> svc;
  std::unique_ptr<TcpFrontEnd> front;
  std::string host = opt.host;
  uint16_t port = opt.port;
  uint64_t server_id = 0;
  const unsigned workers = ResolveWorkers(opt);
  if (port == 0) {
    svc = std::make_unique<AggregatorService>(workers);
    server_id = svc->AddServer(MakeAggregatorServer(spec));
    front = std::make_unique<TcpFrontEnd>(*svc);
    if (!front->Start()) {
      std::fprintf(stderr, "loadgen: failed to start TcpFrontEnd: %s\n",
                   std::strerror(errno));
      return 1;
    }
    host = "127.0.0.1";
    port = front->port();
  }

  // Encode every connection's share up front, outside the clock.
  std::printf("loadgen: encoding %llu %s users (domain=%llu eps=%g) ...\n",
              static_cast<unsigned long long>(opt.users),
              opt.mechanism.c_str(),
              static_cast<unsigned long long>(opt.domain), opt.eps);
  const uint64_t per_conn =
      (opt.users + opt.connections - 1) / opt.connections;
  std::vector<std::vector<std::vector<uint8_t>>> shares(opt.connections);
  std::vector<uint64_t> share_users(opt.connections, 0);
  {
    std::vector<std::thread> encoders;
    for (unsigned c = 0; c < opt.connections; ++c) {
      encoders.emplace_back([&, c] {
        const uint64_t begin = c * per_conn;
        const uint64_t end = std::min<uint64_t>(opt.users, begin + per_conn);
        if (begin < end) {
          share_users[c] = end - begin;
          shares[c] = EncodeShare(spec, end - begin, opt.chunk, opt.seed + c);
        }
      });
    }
    for (auto& t : encoders) t.join();
  }

  // Ingest phase: --reps timed passes, medians reported.
  std::atomic<uint64_t> next_session{1};
  std::vector<double> rep_reports_per_sec, rep_mb_per_sec;
  uint64_t total_reports = 0, total_sessions = 0;
  // Every framed message sent to the front-end, for the scrape-time
  // net.messages_routed reconciliation.
  uint64_t messages_sent = 0;
  bool ingest_ok = true;
  for (unsigned rep = 0; rep < opt.reps; ++rep) {
    const IngestResult r = RunIngestRep(opt, host, port, server_id, shares,
                                        share_users, next_session);
    ingest_ok = ingest_ok && r.ok;
    rep_reports_per_sec.push_back(r.reports_per_sec);
    rep_mb_per_sec.push_back(r.mb_per_sec);
    total_reports += r.reports;
    total_sessions += r.sessions;
    messages_sent += r.messages;
    std::printf("loadgen: ingest rep %u/%u: %.0f reports/s (%.1f MB/s)\n",
                rep + 1, opt.reps, r.reports_per_sec, r.mb_per_sec);
  }

  // Finalize: an empty finalizing session after all data sessions — the
  // EOF handshakes above guarantee nothing is still unrouted behind it.
  TcpClient query_conn;
  if (!query_conn.Connect(host, port)) {
    std::fprintf(stderr, "loadgen: query connection failed\n");
    return 1;
  }
  {
    const uint64_t session_id = next_session.fetch_add(1);
    query_conn.Send(
        ldp::service::SerializeStreamBegin({session_id, server_id}));
    StreamEnd end;
    end.session_id = session_id;
    end.chunk_count = 0;
    end.flags = ldp::service::kStreamFlagFinalize;
    query_conn.Send(ldp::service::SerializeStreamEnd(end));
    messages_sent += 2;
  }

  // Query phase. The first query also acts as the finalize sync point:
  // retry while the server still answers kNotFinalized.
  Rng query_rng(QuerySeed(opt));
  std::vector<double> latencies_us;
  uint64_t queries_ok = 0;
  for (uint64_t q = 0; q < opt.queries; ++q) {
    RangeQueryRequest request;
    request.query_id = q;
    request.server_id = server_id;
    uint64_t lo = query_rng.UniformInt(opt.domain);
    uint64_t hi = query_rng.UniformInt(opt.domain);
    if (lo > hi) std::swap(lo, hi);
    request.intervals = {{lo, hi}};
    const std::vector<uint8_t> bytes =
        ldp::service::SerializeRangeQueryRequest(request);
    RangeQueryResponse response;
    for (int attempt = 0; attempt < 2000; ++attempt) {
      const auto t0 = std::chrono::steady_clock::now();
      const std::vector<uint8_t> reply = query_conn.Call(bytes);
      ++messages_sent;
      const auto t1 = std::chrono::steady_clock::now();
      if (ldp::service::ParseRangeQueryResponse(reply, &response) !=
          ldp::protocol::ParseError::kOk) {
        break;
      }
      if (q == 0 && response.status == QueryStatus::kNotFinalized) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;  // finalize still draining
      }
      if (response.status == QueryStatus::kOk) {
        ++queries_ok;
        latencies_us.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
      }
      break;
    }
  }
  query_conn.Close();

  const double ingest_median = Median(rep_reports_per_sec);
  const double mb_median = Median(rep_mb_per_sec);
  const double q_p50 = Percentile(latencies_us, 0.50);
  const double q_p90 = Percentile(latencies_us, 0.90);
  const double q_p99 = Percentile(latencies_us, 0.99);
  std::printf(
      "loadgen: ingest median %.0f reports/s (%.1f MB/s) over %u reps, "
      "%llu sessions\n"
      "loadgen: query latency p50 %.1f us, p90 %.1f us, p99 %.1f us "
      "(%llu/%llu ok)\n",
      ingest_median, mb_median, opt.reps,
      static_cast<unsigned long long>(total_sessions), q_p50, q_p90, q_p99,
      static_cast<unsigned long long>(queries_ok),
      static_cast<unsigned long long>(opt.queries));

  // Hygiene verdict. Socket pauses and read pauses are expected under
  // load (they are the backpressure design working); anything dropped,
  // rejected or malformed is not.
  bool clean = ingest_ok && queries_ok == opt.queries;
  ldp::service::ServiceStats sstats;
  ldp::net::TcpFrontEndStats fstats;
  if (svc != nullptr) svc->Drain();

  // Stats-plane scrape: pull the server's metrics over the same wire the
  // load went through (kStatsQuery/kStatsResponse). Works against
  // external servers too — this is how server-side latency becomes
  // visible without any shared memory.
  ldp::obs::StatsResponse scrape;
  bool scrape_ok = false;
  {
    TcpClient stats_conn;
    if (stats_conn.Connect(host, port)) {
      ldp::obs::StatsQuery stats_query;
      stats_query.query_id = 0x57A75;
      stats_query.flags = ldp::obs::kStatsFlagIncludeGlobal;
      const std::vector<uint8_t> reply =
          stats_conn.Call(ldp::obs::SerializeStatsQuery(stats_query));
      scrape_ok = ldp::obs::ParseStatsResponse(reply, &scrape) ==
                      ldp::protocol::ParseError::kOk &&
                  scrape.status == ldp::obs::StatsStatus::kOk &&
                  scrape.query_id == stats_query.query_id;
      stats_conn.Close();
    }
  }
  if (!scrape_ok) {
    std::fprintf(stderr, "loadgen: stats scrape failed\n");
    clean = false;
  }

  // Server-side stage latency, from the scraped histograms (ns on the
  // wire, reported in us).
  const std::string server_prefix = "server" + std::to_string(server_id);
  auto scrape_quantiles = [&](const std::string& name, double out_us[3]) {
    out_us[0] = out_us[1] = out_us[2] = 0.0;
    const ldp::obs::HistogramValue* h = scrape.metrics.FindHistogram(name);
    if (h == nullptr) return uint64_t{0};
    out_us[0] = static_cast<double>(h->histogram.Quantile(0.50)) / 1e3;
    out_us[1] = static_cast<double>(h->histogram.Quantile(0.95)) / 1e3;
    out_us[2] = static_cast<double>(h->histogram.Quantile(0.99)) / 1e3;
    return h->histogram.count;
  };
  double absorb_us[3], qwait_us[3], squery_us[3];
  const uint64_t absorb_count =
      scrape_quantiles(server_prefix + ".absorb_batch_ns", absorb_us);
  scrape_quantiles("service.queue_wait_ns", qwait_us);
  scrape_quantiles("service.query_ns", squery_us);
  if (scrape_ok) {
    std::printf(
        "loadgen: server-side absorb_batch p50 %.1f us, p95 %.1f us, "
        "p99 %.1f us (%llu batches)\n"
        "loadgen: server-side queue_wait p50 %.1f us, p95 %.1f us, "
        "p99 %.1f us; query p50 %.1f us, p95 %.1f us, p99 %.1f us\n",
        absorb_us[0], absorb_us[1], absorb_us[2],
        static_cast<unsigned long long>(absorb_count), qwait_us[0],
        qwait_us[1], qwait_us[2], squery_us[0], squery_us[1], squery_us[2]);
  }

  if (svc != nullptr) {
    sstats = svc->stats();
    fstats = front->stats();
    clean = clean && sstats.malformed_messages == 0 &&
            sstats.rejected_sessions == 0 && sstats.unknown_sessions == 0 &&
            sstats.duplicate_chunks == 0 && sstats.late_chunks == 0 &&
            sstats.incomplete_streams == 0 &&
            sstats.oversized_declarations == 0 &&
            sstats.duplicate_sessions == 0 && fstats.protocol_errors == 0;
    std::printf(
        "loadgen: service stats: %llu msgs, %llu chunks absorbed, "
        "%llu socket pauses, %llu incomplete\n",
        static_cast<unsigned long long>(sstats.messages),
        static_cast<unsigned long long>(sstats.chunks_absorbed),
        static_cast<unsigned long long>(sstats.socket_pauses),
        static_cast<unsigned long long>(sstats.incomplete_streams));
  }

  // Stats-plane invariants: the scrape is taken after Drain() and after
  // every connection's EOF handshake, so the system is quiescent and the
  // relaxed counters are exact. Violations fail --assert-clean.
  if (scrape_ok && svc != nullptr) {
    auto check = [&](bool ok_cond, const char* what) {
      if (!ok_cond) {
        std::fprintf(stderr, "loadgen: stats invariant FAILED: %s\n", what);
        clean = false;
      }
    };
    // Every report the clients sent was either accepted or rejected by
    // the server — nothing vanished in the queues or on the wire.
    const uint64_t accepted =
        scrape.metrics.CounterOr(server_prefix + ".accepted");
    const uint64_t rejected =
        scrape.metrics.CounterOr(server_prefix + ".rejected");
    check(accepted + rejected == total_reports,
          "accepted + rejected == reports sent");
    // Every message sent was routed exactly once: nothing stranded in a
    // paused connection, nothing routed twice after a resume. (Pauses and
    // resumes need not pair up — a resumed connection can re-pause on
    // its next message — so they are not compared with each other.)
    check(scrape.metrics.CounterOr("net.messages_routed") == messages_sent,
          "net.messages_routed == messages sent");
    // The ingest queues drained to empty.
    const ldp::obs::GaugeValue* depth =
        scrape.metrics.FindGauge("service.queue_depth");
    check(depth != nullptr && depth->value == 0,
          "service.queue_depth == 0 after drain");
    check(scrape.metrics.CounterOr("service.chunks_enqueued") ==
              scrape.metrics.CounterOr("service.chunks_absorbed"),
          "chunks_enqueued == chunks_absorbed");
    // The wire snapshot reconciles exactly with the in-process
    // ServiceStats read taken after it (no traffic in between).
    const struct { const char* name; uint64_t expect; } recon[] = {
        {"service.messages", sstats.messages},
        {"service.malformed_messages", sstats.malformed_messages},
        {"service.duplicate_sessions", sstats.duplicate_sessions},
        {"service.rejected_sessions", sstats.rejected_sessions},
        {"service.unknown_sessions", sstats.unknown_sessions},
        {"service.duplicate_chunks", sstats.duplicate_chunks},
        {"service.late_chunks", sstats.late_chunks},
        {"service.incomplete_streams", sstats.incomplete_streams},
        {"service.oversized_declarations", sstats.oversized_declarations},
        {"service.chunks_enqueued", sstats.chunks_enqueued},
        {"service.chunks_absorbed", sstats.chunks_absorbed},
        {"service.backpressure_waits", sstats.backpressure_waits},
        {"service.socket_pauses", sstats.socket_pauses},
        {"service.queries_answered", sstats.queries_answered},
    };
    for (const auto& r : recon) {
      if (scrape.metrics.CounterOr(r.name) != r.expect) {
        std::fprintf(stderr,
                     "loadgen: stats invariant FAILED: scraped %s = %llu "
                     "!= ServiceStats %llu\n",
                     r.name,
                     static_cast<unsigned long long>(
                         scrape.metrics.CounterOr(r.name)),
                     static_cast<unsigned long long>(r.expect));
        clean = false;
      }
    }
    // Session lifecycle: every session this run began (data sessions
    // plus the finalizing one) also completed, and exactly one finalize
    // ran. Registry-only counters — not part of ServiceStats.
    check(scrape.metrics.CounterOr("service.sessions_begun") ==
              scrape.metrics.CounterOr("service.sessions_completed"),
          "sessions_begun == sessions_completed");
    check(scrape.metrics.CounterOr("service.sessions_begun") ==
              total_sessions + 1,
          "sessions_begun == data sessions + finalize session");
    check(scrape.metrics.CounterOr("service.finalizes") == 1,
          "exactly one finalize");
    // The ingest histogram saw real work.
    check(absorb_count > 0, "absorb_batch histogram non-empty");
  }

  if (!opt.json.empty()) {
    std::ofstream out(opt.json);
    out << "{\n"
        << "  \"bench\": \"micro_net\",\n"
        << "  \"config\": {\"mechanism\": \"" << opt.mechanism
        << "\", \"domain\": " << opt.domain << ", \"eps\": " << opt.eps
        << ", \"users\": " << opt.users << ", \"chunk\": " << opt.chunk
        << ", \"connections\": " << opt.connections
        << ", \"workers\": " << workers << ", \"reps\": " << opt.reps
        << ", \"min_seconds\": " << opt.min_seconds
        << ", \"seed\": " << opt.seed << "},\n"
        << "  \"ingest\": {\"reports_per_sec_median\": " << ingest_median
        << ", \"mb_per_sec_median\": " << mb_median
        << ", \"total_reports\": " << total_reports
        << ", \"total_sessions\": " << total_sessions << "},\n"
        << "  \"query\": {\"count_ok\": " << queries_ok
        << ", \"p50_us\": " << q_p50 << ", \"p90_us\": " << q_p90
        << ", \"p99_us\": " << q_p99 << "},\n"
        << "  \"server_latency\": {\"scrape_ok\": "
        << (scrape_ok ? "true" : "false")
        << ", \"absorb_batch\": {\"count\": " << absorb_count
        << ", \"p50_us\": " << absorb_us[0] << ", \"p95_us\": "
        << absorb_us[1] << ", \"p99_us\": " << absorb_us[2] << "}"
        << ", \"queue_wait\": {\"p50_us\": " << qwait_us[0]
        << ", \"p95_us\": " << qwait_us[1] << ", \"p99_us\": " << qwait_us[2]
        << "}"
        << ", \"query\": {\"p50_us\": " << squery_us[0]
        << ", \"p95_us\": " << squery_us[1] << ", \"p99_us\": "
        << squery_us[2] << "}},\n"
        << "  \"service_stats\": {\"messages\": " << sstats.messages
        << ", \"chunks_absorbed\": " << sstats.chunks_absorbed
        << ", \"socket_pauses\": " << sstats.socket_pauses
        << ", \"backpressure_waits\": " << sstats.backpressure_waits
        << ", \"incomplete_streams\": " << sstats.incomplete_streams
        << ", \"rejected_sessions\": " << sstats.rejected_sessions << "},\n"
        << "  \"front_end_stats\": {\"connections\": "
        << fstats.connections_accepted
        << ", \"bytes_received\": " << fstats.bytes_received
        << ", \"read_pauses\": " << fstats.read_pauses
        << ", \"read_resumes\": " << fstats.read_resumes
        << ", \"protocol_errors\": " << fstats.protocol_errors << "},\n"
        << "  \"clean\": " << (clean ? "true" : "false") << "\n"
        << "}\n";
    std::printf("loadgen: wrote %s\n", opt.json.c_str());
  }

  if (front != nullptr) front->Stop();
  if (!opt.trace.empty()) {
    ldp::obs::StopTracing();
    if (ldp::obs::WriteChromeTraceJson(opt.trace)) {
      std::printf("loadgen: wrote %s (%llu spans, %llu dropped)\n",
                  opt.trace.c_str(),
                  static_cast<unsigned long long>(
                      ldp::obs::CapturedTraceEventCount()),
                  static_cast<unsigned long long>(
                      ldp::obs::DroppedTraceEventCount()));
    } else {
      std::fprintf(stderr, "loadgen: failed to write --trace=%s\n",
                   opt.trace.c_str());
    }
  }
  if (opt.assert_clean && !clean) {
    std::fprintf(stderr, "loadgen: --assert-clean FAILED\n");
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------
// Multi-process fan-in mode (--shards=N).
//
// N forked shard processes each run the full single-box ingest pipeline
// (their own AggregatorService + TcpFrontEnd on loopback, their own
// slice of the encoded population), then serialize their aggregate
// state and push it to this process's merge plane as one kStateMerge
// each, finalize flag set. The parent merges the snapshots in its
// parallel fan-in plane, answers the query phase from the merged
// aggregate, and reconciles the children's would-block retry counts
// against its own merge counters. The headline number is the aggregate
// ingest rate: N shards encode+stream+absorb concurrently, so it should
// scale near-linearly until the box runs out of cores.

struct ShardOutcome {
  uint64_t reports = 0;
  uint64_t sessions = 0;
  double rps = 0.0;   // median reports/s across the shard's reps
  double mbps = 0.0;
  uint64_t retries = 0;  // kWouldBlock bounces of the snapshot push
  int ok = 0;
};

// One forked shard. port_fd delivers the parent's front-end port (2
// bytes LE, written only once the parent is actually listening);
// result_fd receives one line of key=value results when the shard is
// done.
int RunShardChild(const Options& opt, unsigned shard, int port_fd,
                  int result_fd) {
  uint16_t parent_port = 0;
  {
    uint8_t raw[2];
    size_t got = 0;
    while (got < sizeof raw) {
      const ssize_t n = read(port_fd, raw + got, sizeof raw - got);
      if (n <= 0) {
        std::fprintf(stderr, "loadgen[shard %u]: no port from parent\n",
                     shard);
        return 1;
      }
      got += static_cast<size_t>(n);
    }
    parent_port = static_cast<uint16_t>(raw[0] | (raw[1] << 8));
    close(port_fd);
  }

  const ServerSpec spec = SpecFromOptions(opt);
  AggregatorService svc(ResolveWorkers(opt));
  const uint64_t server_id = svc.AddServer(MakeAggregatorServer(spec));
  TcpFrontEnd front(svc);
  if (!front.Start()) {
    std::fprintf(stderr, "loadgen[shard %u]: TcpFrontEnd failed: %s\n",
                 shard, std::strerror(errno));
    return 1;
  }

  // Encode this shard's slice of the population. Connection seeds are
  // globally offset so the union over all shards is exactly the
  // single-process population — the basis of --verify-fanin.
  const uint64_t global_conns =
      static_cast<uint64_t>(opt.connections) * opt.shards;
  const uint64_t per_conn = (opt.users + global_conns - 1) / global_conns;
  std::vector<std::vector<std::vector<uint8_t>>> shares(opt.connections);
  std::vector<uint64_t> share_users(opt.connections, 0);
  {
    std::vector<std::thread> encoders;
    for (unsigned c = 0; c < opt.connections; ++c) {
      encoders.emplace_back([&, c] {
        const uint64_t g =
            static_cast<uint64_t>(shard) * opt.connections + c;
        const uint64_t begin = g * per_conn;
        const uint64_t end = std::min<uint64_t>(opt.users, begin + per_conn);
        if (begin < end) {
          share_users[c] = end - begin;
          shares[c] = EncodeShare(spec, end - begin, opt.chunk, opt.seed + g);
        }
      });
    }
    for (auto& t : encoders) t.join();
  }

  std::atomic<uint64_t> next_session{1};
  std::vector<double> rep_rps, rep_mbps;
  ShardOutcome out;
  out.ok = 1;
  for (unsigned rep = 0; rep < opt.reps; ++rep) {
    const IngestResult r = RunIngestRep(opt, "127.0.0.1", front.port(),
                                        server_id, shares, share_users,
                                        next_session);
    if (!r.ok) out.ok = 0;
    rep_rps.push_back(r.reports_per_sec);
    rep_mbps.push_back(r.mb_per_sec);
    out.reports += r.reports;
    out.sessions += r.sessions;
  }
  out.rps = Median(rep_rps);
  out.mbps = Median(rep_mbps);
  svc.Drain();

  // Shard-side hygiene: nothing malformed, rejected, or lost locally.
  const ldp::service::ServiceStats sstats = svc.stats();
  if (sstats.malformed_messages != 0 || sstats.rejected_sessions != 0 ||
      sstats.unknown_sessions != 0 || sstats.duplicate_chunks != 0 ||
      sstats.late_chunks != 0 || sstats.incomplete_streams != 0 ||
      sstats.chunks_enqueued != sstats.chunks_absorbed) {
    std::fprintf(stderr, "loadgen[shard %u]: local ingest not clean\n",
                 shard);
    out.ok = 0;
  }

  // Push the aggregate state into the parent's merge plane. The
  // finalize flag rides on every push; the parent finalizes once the
  // last shard lands.
  {
    TcpClient push_conn;
    if (!push_conn.Connect("127.0.0.1", parent_port)) {
      std::fprintf(stderr, "loadgen[shard %u]: connect to parent failed\n",
                   shard);
      out.ok = 0;
    } else {
      ldp::net::SnapshotPushOptions push_opt;
      push_opt.receive_timeout_ms = 60000;
      push_opt.jitter_seed = 0x5EED + shard;
      const ldp::net::SnapshotPushResult push = ldp::net::PushStateSnapshot(
          push_conn, /*merge_id=*/1, /*server_id=*/0, shard, opt.shards,
          ldp::service::kMergeFlagFinalize,
          svc.server(server_id).SerializeState(), push_opt);
      out.retries = push.retries;
      if (!push.ok) {
        std::fprintf(stderr, "loadgen[shard %u]: snapshot push failed (%s)\n",
                     shard,
                     ldp::service::MergeStatusName(push.status).c_str());
        out.ok = 0;
      }
    }
  }
  front.Stop();

  dprintf(result_fd,
          "reports=%llu sessions=%llu rps=%.3f mbps=%.3f retries=%llu "
          "ok=%d\n",
          static_cast<unsigned long long>(out.reports),
          static_cast<unsigned long long>(out.sessions), out.rps, out.mbps,
          static_cast<unsigned long long>(out.retries), out.ok);
  close(result_fd);
  return out.ok ? 0 : 1;
}

int RunFanIn(const Options& opt) {
  if (opt.port != 0) {
    std::fprintf(stderr, "loadgen: --shards requires self-host (--port=0)\n");
    return 2;
  }
  if (opt.verify_fanin && opt.min_seconds > 0) {
    std::fprintf(stderr,
                 "loadgen: --verify-fanin needs a deterministic report "
                 "count; drop --min-seconds\n");
    return 2;
  }

  // Fork the shard processes FIRST, before this process creates any
  // thread (service workers, front-end loop, encoders): fork() from a
  // multi-threaded process duplicates only the calling thread. The
  // children block until the port arrives over their pipe.
  struct ChildHandle {
    pid_t pid = -1;
    int port_wr = -1;
    int result_rd = -1;
  };
  std::vector<ChildHandle> children(opt.shards);
  for (unsigned s = 0; s < opt.shards; ++s) {
    int port_pipe[2];
    int result_pipe[2];
    if (pipe(port_pipe) != 0 || pipe(result_pipe) != 0) {
      std::perror("loadgen: pipe");
      return 1;
    }
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("loadgen: fork");
      return 1;
    }
    if (pid == 0) {
      close(port_pipe[1]);
      close(result_pipe[0]);
      for (unsigned prev = 0; prev < s; ++prev) {
        close(children[prev].port_wr);
        close(children[prev].result_rd);
      }
      std::exit(RunShardChild(opt, s, port_pipe[0], result_pipe[1]));
    }
    close(port_pipe[0]);
    close(result_pipe[1]);
    children[s] = ChildHandle{pid, port_pipe[1], result_pipe[0]};
  }

  // Threads are safe from here on. Bring up the query node and release
  // the shards.
  const ServerSpec spec = SpecFromOptions(opt);
  const unsigned workers = ResolveWorkers(opt);
  AggregatorService svc(workers);
  const uint64_t server_id = svc.AddServer(MakeAggregatorServer(spec));
  TcpFrontEnd front(svc);
  if (!front.Start()) {
    std::fprintf(stderr, "loadgen: failed to start TcpFrontEnd: %s\n",
                 std::strerror(errno));
    return 1;
  }
  std::printf(
      "loadgen: fan-in query node on port %u; %u shard processes x %u "
      "connections, %llu %s users total\n",
      front.port(), opt.shards, opt.connections,
      static_cast<unsigned long long>(opt.users), opt.mechanism.c_str());
  for (ChildHandle& child : children) {
    const uint16_t port = front.port();
    const uint8_t raw[2] = {static_cast<uint8_t>(port & 0xFF),
                            static_cast<uint8_t>(port >> 8)};
    if (write(child.port_wr, raw, sizeof raw) != sizeof raw) {
      std::perror("loadgen: write port");
      return 1;
    }
    close(child.port_wr);
  }

  // While the shards ingest, optionally rebuild the single-process
  // reference aggregate from the identical population (--verify-fanin):
  // same global connection seeds, every chunk absorbed once per rep —
  // exactly the union the shards streamed.
  std::unique_ptr<ldp::service::AggregatorServer> reference;
  if (opt.verify_fanin) {
    reference = MakeAggregatorServer(spec);
    const uint64_t global_conns =
        static_cast<uint64_t>(opt.connections) * opt.shards;
    const uint64_t per_conn = (opt.users + global_conns - 1) / global_conns;
    for (uint64_t g = 0; g < global_conns; ++g) {
      const uint64_t begin = g * per_conn;
      const uint64_t end = std::min<uint64_t>(opt.users, begin + per_conn);
      if (begin >= end) continue;
      const auto chunks =
          EncodeShare(spec, end - begin, opt.chunk, opt.seed + g);
      for (unsigned rep = 0; rep < opt.reps; ++rep) {
        for (const auto& chunk : chunks) {
          if (reference->AbsorbBatchSerialized(chunk) !=
              ldp::protocol::ParseError::kOk) {
            std::fprintf(stderr, "loadgen: reference ingest failed\n");
            return 1;
          }
        }
      }
    }
    reference->Finalize();
  }

  // Collect the shards.
  std::vector<ShardOutcome> outcomes(opt.shards);
  bool shards_ok = true;
  for (unsigned s = 0; s < opt.shards; ++s) {
    ShardOutcome& out = outcomes[s];
    FILE* in = fdopen(children[s].result_rd, "r");
    unsigned long long reports = 0, sessions = 0, retries = 0;
    if (in == nullptr ||
        std::fscanf(in,
                    "reports=%llu sessions=%llu rps=%lf mbps=%lf "
                    "retries=%llu ok=%d",
                    &reports, &sessions, &out.rps, &out.mbps, &retries,
                    &out.ok) != 6) {
      std::fprintf(stderr, "loadgen: shard %u reported nothing\n", s);
      out.ok = 0;
    }
    if (in != nullptr) fclose(in);
    out.reports = reports;
    out.sessions = sessions;
    out.retries = retries;
    int status = 0;
    waitpid(children[s].pid, &status, 0);
    const bool exited_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!exited_ok || out.ok != 1) shards_ok = false;
    std::printf(
        "loadgen: shard %u: %.0f reports/s (%.1f MB/s), %llu reports, "
        "%llu push retries%s\n",
        s, out.rps, out.mbps, static_cast<unsigned long long>(out.reports),
        static_cast<unsigned long long>(out.retries),
        exited_ok && out.ok == 1 ? "" : "  [FAILED]");
  }
  uint64_t total_reports = 0, total_sessions = 0, total_retries = 0;
  double aggregate_rps = 0.0, aggregate_mbps = 0.0;
  std::vector<double> shard_rps;
  for (const ShardOutcome& out : outcomes) {
    total_reports += out.reports;
    total_sessions += out.sessions;
    total_retries += out.retries;
    aggregate_rps += out.rps;
    aggregate_mbps += out.mbps;
    shard_rps.push_back(out.rps);
  }
  const double shard_median_rps = Median(shard_rps);
  std::printf(
      "loadgen: fan-in aggregate %.0f reports/s (%.1f MB/s) across %u "
      "shards\n",
      aggregate_rps, aggregate_mbps, opt.shards);

  // Query phase. The finalize flag on the last shard's push already
  // finalized the hosted server — and every push was acked before its
  // shard exited — so no finalize session is needed and the first query
  // cannot race the merge.
  TcpClient query_conn;
  if (!query_conn.Connect("127.0.0.1", front.port())) {
    std::fprintf(stderr, "loadgen: query connection failed\n");
    return 1;
  }
  Rng query_rng(QuerySeed(opt));
  std::vector<double> latencies_us;
  uint64_t queries_ok = 0;
  uint64_t verify_mismatches = 0;
  for (uint64_t q = 0; q < opt.queries; ++q) {
    RangeQueryRequest request;
    request.query_id = q;
    request.server_id = server_id;
    uint64_t lo = query_rng.UniformInt(opt.domain);
    uint64_t hi = query_rng.UniformInt(opt.domain);
    if (lo > hi) std::swap(lo, hi);
    request.intervals = {{lo, hi}};
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<uint8_t> reply =
        query_conn.Call(ldp::service::SerializeRangeQueryRequest(request));
    const auto t1 = std::chrono::steady_clock::now();
    RangeQueryResponse response;
    if (ldp::service::ParseRangeQueryResponse(reply, &response) !=
            ldp::protocol::ParseError::kOk ||
        response.status != QueryStatus::kOk) {
      continue;
    }
    ++queries_ok;
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    if (reference != nullptr) {
      RangeQueryResponse expected;
      expected.query_id = q;
      const ldp::RangeEstimate est =
          reference->RangeQueryWithUncertainty(lo, hi);
      expected.estimates.push_back(ldp::service::IntervalEstimate{
          est.value, est.stddev * est.stddev});
      if (reply != ldp::service::SerializeRangeQueryResponse(expected)) {
        ++verify_mismatches;
      }
    }
  }
  query_conn.Close();

  const double q_p50 = Percentile(latencies_us, 0.50);
  const double q_p90 = Percentile(latencies_us, 0.90);
  const double q_p99 = Percentile(latencies_us, 0.99);
  std::printf(
      "loadgen: query latency p50 %.1f us, p90 %.1f us, p99 %.1f us "
      "(%llu/%llu ok)\n",
      q_p50, q_p90, q_p99, static_cast<unsigned long long>(queries_ok),
      static_cast<unsigned long long>(opt.queries));
  if (reference != nullptr) {
    std::printf(
        "loadgen: --verify-fanin: %llu/%llu responses byte-identical to "
        "the single-process reference\n",
        static_cast<unsigned long long>(opt.queries - verify_mismatches),
        static_cast<unsigned long long>(opt.queries));
  }

  bool clean =
      shards_ok && queries_ok == opt.queries && verify_mismatches == 0;
  svc.Drain();

  // Stats-plane scrape over the same wire the snapshots came in on.
  ldp::obs::StatsResponse scrape;
  bool scrape_ok = false;
  {
    TcpClient stats_conn;
    if (stats_conn.Connect("127.0.0.1", front.port())) {
      ldp::obs::StatsQuery stats_query;
      stats_query.query_id = 0x57A75;
      stats_query.flags = ldp::obs::kStatsFlagIncludeGlobal;
      const std::vector<uint8_t> reply =
          stats_conn.Call(ldp::obs::SerializeStatsQuery(stats_query));
      scrape_ok = ldp::obs::ParseStatsResponse(reply, &scrape) ==
                      ldp::protocol::ParseError::kOk &&
                  scrape.status == ldp::obs::StatsStatus::kOk &&
                  scrape.query_id == stats_query.query_id;
      stats_conn.Close();
    }
  }
  if (!scrape_ok) {
    std::fprintf(stderr, "loadgen: stats scrape failed\n");
    clean = false;
  }
  auto scrape_quantiles = [&](const std::string& name, double out_us[3]) {
    out_us[0] = out_us[1] = out_us[2] = 0.0;
    const ldp::obs::HistogramValue* h = scrape.metrics.FindHistogram(name);
    if (h == nullptr) return uint64_t{0};
    out_us[0] = static_cast<double>(h->histogram.Quantile(0.50)) / 1e3;
    out_us[1] = static_cast<double>(h->histogram.Quantile(0.95)) / 1e3;
    out_us[2] = static_cast<double>(h->histogram.Quantile(0.99)) / 1e3;
    return h->histogram.count;
  };
  double merge_absorb_us[3], merge_fan_in_us[3];
  const uint64_t merge_absorb_count =
      scrape_quantiles("merge.absorb_ns", merge_absorb_us);
  const uint64_t merge_fan_in_count =
      scrape_quantiles("merge.fan_in_ns", merge_fan_in_us);
  // Pushes the query node received straight into their restored clone.
  const uint64_t snapshot_intakes =
      scrape.metrics.CounterOr("net.snapshot_intakes");
  std::printf(
      "loadgen: merge absorb p50 %.1f us, p95 %.1f us (%llu snapshots, "
      "%llu intakes); fan-in reduce p50 %.1f us, p95 %.1f us (%llu "
      "merges); %llu would-block retries\n",
      merge_absorb_us[0], merge_absorb_us[1],
      static_cast<unsigned long long>(merge_absorb_count),
      static_cast<unsigned long long>(snapshot_intakes),
      merge_fan_in_us[0], merge_fan_in_us[1],
      static_cast<unsigned long long>(merge_fan_in_count),
      static_cast<unsigned long long>(total_retries));

  // Fan-in reconciliation: the children's retry counts must reconcile
  // exactly with the merge plane's counters, every shard must have
  // landed, and exactly one fan-in merge + finalize must have run.
  const ldp::service::ServiceStats sstats = svc.stats();
  const ldp::net::TcpFrontEndStats fstats = front.stats();
  auto check = [&](bool ok_cond, const char* what) {
    if (!ok_cond) {
      std::fprintf(stderr, "loadgen: fan-in invariant FAILED: %s\n", what);
      clean = false;
    }
  };
  check(sstats.merge_requests == opt.shards + total_retries,
        "merge_requests == shards + retries");
  check(sstats.merge_would_block == total_retries,
        "merge_would_block == sum of shard push retries");
  check(sstats.merge_rejects == 0, "no merge rejects");
  check(sstats.merges_completed == 1, "exactly one fan-in merge completed");
  check(sstats.malformed_messages == 0, "no malformed messages");
  check(fstats.protocol_errors == 0, "no front-end protocol errors");
  if (scrape_ok) {
    check(merge_absorb_count == opt.shards,
          "merge.absorb_ns count == shards");
    check(merge_fan_in_count == 1, "merge.fan_in_ns count == 1");
    check(scrape.metrics.CounterOr("service.finalizes") == 1,
          "exactly one finalize");
    // Every report a shard accepted or rejected is accounted for in the
    // merged aggregate — nothing was lost crossing process boundaries.
    const std::string server_prefix = "server" + std::to_string(server_id);
    const uint64_t accepted =
        scrape.metrics.CounterOr(server_prefix + ".accepted");
    const uint64_t rejected =
        scrape.metrics.CounterOr(server_prefix + ".rejected");
    check(accepted + rejected == total_reports,
          "merged accepted + rejected == reports sent to shards");
  }

  if (!opt.json.empty()) {
    std::ofstream out(opt.json);
    out << "{\n"
        << "  \"bench\": \"micro_net_fan_in\",\n"
        << "  \"config\": {\"mechanism\": \"" << opt.mechanism
        << "\", \"domain\": " << opt.domain << ", \"eps\": " << opt.eps
        << ", \"users\": " << opt.users << ", \"chunk\": " << opt.chunk
        << ", \"shards\": " << opt.shards
        << ", \"connections_per_shard\": " << opt.connections
        << ", \"workers\": " << workers << ", \"reps\": " << opt.reps
        << ", \"verify_fanin\": " << (opt.verify_fanin ? "true" : "false")
        << ", \"seed\": " << opt.seed << "},\n"
        << "  \"ingest\": {\"aggregate_reports_per_sec\": " << aggregate_rps
        << ", \"aggregate_mb_per_sec\": " << aggregate_mbps
        << ", \"shard_median_reports_per_sec\": " << shard_median_rps
        << ", \"aggregate_vs_shard_median\": "
        << (shard_median_rps > 0.0 ? aggregate_rps / shard_median_rps : 0.0)
        << ", \"shard_reports_per_sec\": [";
    for (unsigned s = 0; s < opt.shards; ++s)
      out << (s ? ", " : "") << outcomes[s].rps;
    out << "], \"host_cpus\": " << std::thread::hardware_concurrency()
        << ", \"total_reports\": " << total_reports
        << ", \"total_sessions\": " << total_sessions << "},\n"
        << "  \"query\": {\"count_ok\": " << queries_ok
        << ", \"p50_us\": " << q_p50 << ", \"p90_us\": " << q_p90
        << ", \"p99_us\": " << q_p99
        << ", \"verify_mismatches\": " << verify_mismatches << "},\n"
        << "  \"merge\": {\"scrape_ok\": " << (scrape_ok ? "true" : "false")
        << ", \"absorb\": {\"count\": " << merge_absorb_count
        << ", \"p50_us\": " << merge_absorb_us[0]
        << ", \"p95_us\": " << merge_absorb_us[1]
        << ", \"p99_us\": " << merge_absorb_us[2] << "}"
        << ", \"fan_in\": {\"count\": " << merge_fan_in_count
        << ", \"p50_us\": " << merge_fan_in_us[0]
        << ", \"p95_us\": " << merge_fan_in_us[1]
        << ", \"p99_us\": " << merge_fan_in_us[2] << "}"
        << ", \"would_block_retries\": " << total_retries
        << ", \"snapshot_intakes\": " << snapshot_intakes << "},\n"
        << "  \"service_stats\": {\"merge_requests\": "
        << sstats.merge_requests
        << ", \"merge_rejects\": " << sstats.merge_rejects
        << ", \"merge_would_block\": " << sstats.merge_would_block
        << ", \"merges_completed\": " << sstats.merges_completed << "},\n"
        << "  \"clean\": " << (clean ? "true" : "false") << "\n"
        << "}\n";
    std::printf("loadgen: wrote %s\n", opt.json.c_str());
  }

  front.Stop();
  if (opt.assert_clean && !clean) {
    std::fprintf(stderr, "loadgen: --assert-clean FAILED\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = ParseOptions(argc, argv);
  // Fan-in mode must dispatch before anything spawns a thread: it forks.
  if (opt.shards > 0) return RunFanIn(opt);
  return RunSingle(opt);
}
