// e2e_bench: the serving-path benchmark that bench/e2e/run.py drives.
//
// Derived from bench/loadgen.cc (self-hosted TcpFrontEnd on loopback,
// pre-encoded report chunks streamed as sessions, finalize and queries
// over the same wire, kStatsQuery scrape and reconciliation), with the
// clocks moved to where a user of the service would put them:
//
//   ingest        first report byte -> every report is in the aggregate
//                 that answers queries (Drain() returned; for fan-in, the
//                 last kStateMergeResponse acked kOk)
//   first answer  that stop point -> first kOk query answer (covers the
//                 finalize session, finalize/decode and the round trip)
//   query         client-side round trip
//   setup         round start -> first timed byte
//
// Every workload runs in rounds, each on a fresh service, until --seconds
// have elapsed. After its timed phases a round rebuilds the aggregate
// from the same encoded chunks, in a forked child so the check stays out
// of the measured peak RSS, and requires every wire answer to be
// byte-identical to the rebuilt one and within 6 sigma of the population
// truth (the shipped variance, scaled up when a share was streamed more
// than once).
//
// Layers are timed from outside: calls into public functions are timed
// here, server-side stages come from the service's kStatsQuery scrape.
//
// Usage: e2e_bench --workload=NAME --seed=N --seconds=S --trace=0|1
//                  --out-dir=DIR
// Progress goes to stderr; the last stdout line is one JSON object.

#include <malloc.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/ahead.h"
#include "net/snapshot_push.h"
#include "net/tcp_client.h"
#include "net/tcp_front_end.h"
#include "obs/scoped_timer.h"
#include "obs/stats_wire.h"
#include "obs/trace.h"
#include "protocol/ahead_protocol.h"
#include "protocol/flat_protocol.h"
#include "protocol/haar_protocol.h"
#include "protocol/multidim_protocol.h"
#include "protocol/tree_protocol.h"
#include "service/aggregator_service.h"
#include "service/server_factory.h"
#include "service/state_wire.h"
#include "service/stream_wire.h"

namespace {

using ldp::AxisInterval;
using ldp::RangeEstimate;
using ldp::Rng;
using ldp::net::TcpClient;
using ldp::net::TcpFrontEnd;
using ldp::obs::HistogramSnapshot;
using ldp::obs::NowNanos;
using ldp::obs::StatsResponse;
using ldp::service::AggregatorServer;
using ldp::service::AggregatorService;
using ldp::service::QueryStatus;
using ldp::service::ServerKind;
using ldp::service::ServerSpec;

using Chunks = std::vector<std::vector<uint8_t>>;

constexpr uint64_t kChunkReports = 2000;
// Shares stream as sessions of kSessionChunks chunks (20k reports), at
// most two of them in flight (see Sender). With 50-chunk sessions the
// front-end's read buffer held 0-3 MB depending on timing, which moved
// ingest_haar's peak RSS by 6% run to run.
constexpr uint64_t kSessionChunks = 10;
constexpr uint64_t kInFlight = 2;
constexpr double kEps = 1.0;
// Accuracy gate: |estimate - truth| <= kMaxZ * sigma. With Gaussian
// errors the chance of one false alarm over a run's answers is < 1e-5.
constexpr double kMaxZ = 6.0;

// Independent RNG streams derived from --seed.
enum Stream : uint64_t { kValues = 1, kEncode, kQueries, kTiming };

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

uint64_t Derive(uint64_t seed, uint64_t a, uint64_t b = 0, uint64_t c = 0,
                uint64_t d = 0) {
  uint64_t state = seed;
  uint64_t out = ldp::SplitMix64(state);
  for (uint64_t key : {a, b, c, d}) {
    state ^= out + key * 0x9E3779B97F4A7C15ULL;
    out = ldp::SplitMix64(state);
  }
  return out;
}

double Median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

// Nearest-rank percentile: with n samples, n * (1 - p) of them lie above.
double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p * static_cast<double>(xs.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return xs[std::min(idx, xs.size() - 1)];
}

uint64_t CpuNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<uint64_t>(ts.tv_nsec);
}

// CPU time of the whole machine since boot, from the first line of
// /proc/stat: what the hypervisor reported stolen, and the total.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return ticks;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    ticks.steal = v[7];
    for (unsigned long long x : v) ticks.total += x;
  }
  std::fclose(f);
  return ticks;
}

double StealFrac(const CpuTicks& from, const CpuTicks& to) {
  return to.total > from.total
             ? static_cast<double>(to.steal - from.steal) /
                   static_cast<double>(to.total - from.total)
             : 0.0;
}

// Hands the pages freed by the previous round back to the kernel, so a
// round's peak RSS does not depend on how the heap of the rounds before
// it happened to fragment.
void ReleaseFreedMemory() { malloc_trim(0); }

long PeakRssKb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

// Child processes (fan-in shards, answer checks) report back as lines of
// space-separated key=value tokens.
std::map<std::string, std::string> ParseKv(const std::string& line) {
  std::map<std::string, std::string> kv;
  size_t pos = 0;
  while (pos < line.size()) {
    const size_t end = std::min(line.find_first_of(" \n", pos), line.size());
    const std::string token = line.substr(pos, end - pos);
    const size_t eq = token.find('=');
    if (eq != std::string::npos) kv[token.substr(0, eq)] = token.substr(eq + 1);
    pos = end + 1;
  }
  return kv;
}

double KvNum(const std::map<std::string, std::string>& kv,
             const std::string& key) {
  auto it = kv.find(key);
  return it == kv.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

bool ReadLine(FILE* in, std::string* line) {
  char buf[4096];
  if (std::fgets(buf, sizeof buf, in) == nullptr) return false;
  *line = buf;
  return true;
}

// ---------------------------------------------------------------------
// Client-side spans.

struct SpanRecord {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
};

// The spans of one generator thread. Kept here in full (the obs trace
// buffers drop past 65,536 spans per thread) and mirrored into
// obs::RecordTraceEvent for the Chrome trace. Names are literals.
struct Spans {
  bool on = false;
  std::vector<SpanRecord> records;

  void Add(const char* name, uint64_t start_ns, uint64_t end_ns) {
    if (!on) return;
    records.push_back({name, start_ns, end_ns});
    ldp::obs::RecordTraceEvent(name, start_ns, end_ns - start_ns);
  }
};

// Self times along one blocking path: every span under a `root` span on
// the same thread, each its duration minus what its direct children
// cover. The root's own self time is the unaccounted remainder.
struct PathBreakdown {
  double window_ms = 0.0;
  double unaccounted_ms = 0.0;
  std::map<std::string, double> self_ms;

  void Merge(const PathBreakdown& other) {
    window_ms += other.window_ms;
    unaccounted_ms += other.unaccounted_ms;
    for (const auto& [name, ms] : other.self_ms) self_ms[name] += ms;
  }
};

void AddPath(std::vector<SpanRecord> spans, std::string_view root,
             PathBreakdown* out) {
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.end_ns > b.end_ns;
            });
  struct Open {
    const SpanRecord* span;
    uint64_t covered;
  };
  std::vector<Open> stack;
  auto close = [&] {
    const SpanRecord* bottom = stack.front().span;
    const Open open = stack.back();
    stack.pop_back();
    if (std::string_view(bottom->name) != root) return;
    const uint64_t dur = open.span->end_ns - open.span->start_ns;
    const double self = Ms(dur - std::min(dur, open.covered));
    if (open.span == bottom) {
      out->window_ms += Ms(dur);
      out->unaccounted_ms += self;
    } else {
      out->self_ms[open.span->name] += self;
    }
  };
  for (const SpanRecord& span : spans) {
    while (!stack.empty() && stack.back().span->end_ns <= span.start_ns) {
      close();
    }
    if (!stack.empty()) stack.back().covered += span.end_ns - span.start_ns;
    stack.push_back({&span, 0});
  }
  while (!stack.empty()) close();
}

// ---------------------------------------------------------------------
// Generator connections and the self-hosted service.

// One generator connection. Counts every framed message it sends, so a
// round can require the front-end to have routed exactly that many
// (net.messages_routed).
class Conn {
 public:
  explicit Conn(Spans* spans) : spans_(spans) {}

  bool Open(uint16_t port) {
    const uint64_t t0 = NowNanos();
    const bool ok = client_.Connect("127.0.0.1", port);
    spans_->Add("gen.connect", t0, NowNanos());
    if (!ok) ++failures;
    return ok;
  }

  bool Send(std::span<const uint8_t> message) {
    const uint64_t t0 = NowNanos();
    const bool ok = client_.Send(message);
    const uint64_t t1 = NowNanos();
    send_ns += t1 - t0;
    bytes += message.size();
    ++messages;
    spans_->Add("gen.send", t0, t1);
    if (!ok) ++failures;
    return ok;
  }

  std::vector<uint8_t> Call(std::span<const uint8_t> request) {
    ++messages;
    std::vector<uint8_t> reply = client_.Call(request);
    if (reply.empty()) ++failures;
    return reply;
  }

  // Streams `chunks` as one session: Begin, one Chunk each, End.
  bool Session(uint64_t session_id, uint64_t server_id,
               std::span<const std::vector<uint8_t>> chunks,
               uint8_t flags = 0) {
    ++sessions;
    uint64_t t = NowNanos();
    std::vector<uint8_t> message =
        ldp::service::SerializeStreamBegin({session_id, server_id});
    Framed(t);
    if (!Send(message)) return false;
    for (size_t c = 0; c < chunks.size(); ++c) {
      t = NowNanos();
      message = ldp::service::SerializeStreamChunk(session_id, c, chunks[c]);
      Framed(t);
      if (!Send(message)) return false;
    }
    t = NowNanos();
    ldp::service::StreamEnd end;
    end.session_id = session_id;
    end.chunk_count = chunks.size();
    end.flags = flags;
    message = ldp::service::SerializeStreamEnd(end);
    Framed(t);
    return Send(message);
  }

  // Half-closes and waits for the server's EOF, which the front-end sends
  // only after routing every message this connection carried.
  bool Finish() {
    const uint64_t t0 = NowNanos();
    client_.ShutdownWrite();
    std::vector<uint8_t> probe;
    const bool eof =
        !client_.ReceiveMessage(&probe) &&
        client_.last_receive_status() == ldp::net::RecvStatus::kClosed;
    spans_->Add("gen.eof_wait", t0, NowNanos());
    client_.Close();
    if (!eof) ++failures;
    return eof;
  }

  uint64_t messages = 0;
  uint64_t sessions = 0;
  uint64_t bytes = 0;
  uint64_t frames = 0;
  uint64_t frame_ns = 0;
  uint64_t send_ns = 0;
  uint64_t failures = 0;

 private:
  void Framed(uint64_t t0) {
    const uint64_t t1 = NowNanos();
    frame_ns += t1 - t0;
    ++frames;
    spans_->Add("gen.frame", t0, t1);
  }

  Spans* spans_;
  TcpClient client_;
};

// Blocks until `server` has accounted for `reports` reports.
bool AwaitAccounted(const AggregatorServer& server, uint64_t reports,
                    Spans* spans) {
  const uint64_t t0 = NowNanos();
  const uint64_t deadline = t0 + 60ULL * 1000000000ULL;
  while (server.accepted_reports() + server.rejected_reports() < reports) {
    const uint64_t now = NowNanos();
    if (now > deadline) return false;
    // Spin briefly, then sleep: a spinning sender would take a CPU from
    // the service it is waiting for.
    if (now - t0 < 20000) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
  spans->Add("gen.await_absorbed", t0, NowNanos());
  return true;
}

// Streams sessions to one hosted server with at most `in_flight` of them
// not yet accounted by it. The bound keeps the front-end's buffers small
// and steady: its read loop drains the socket before it routes anything,
// so a sender that never waits grows that buffer without limit (hundreds
// of MB at 45M reports/s, with the page faults and frees that follow).
class Sender {
 public:
  Sender(Conn& conn, const AggregatorServer& target, uint64_t server_id,
         uint64_t in_flight, Spans* spans)
      : conn_(conn),
        target_(target),
        server_id_(server_id),
        in_flight_(in_flight),
        spans_(spans),
        sent_(target.accepted_reports() + target.rejected_reports()) {}

  // One session of `chunks` carrying `reports` reports.
  bool Session(std::span<const std::vector<uint8_t>> chunks, uint64_t reports,
               uint8_t flags = 0) {
    if (!conn_.Session(next_session_id++, server_id_, chunks, flags)) {
      return false;
    }
    sent_ += reports;
    marks_.push_back(sent_);
    if (marks_.size() <= in_flight_) return true;
    const uint64_t mark = marks_.front();
    marks_.pop_front();
    return AwaitAccounted(target_, mark, spans_);
  }

  // A share of `users` reports (kChunkReports per chunk) as sessions of
  // `session_chunks` chunks; the last session carries `last_flags`.
  bool Share(const Chunks& chunks, uint64_t users, uint64_t session_chunks,
             uint8_t last_flags = 0) {
    for (size_t begin = 0; begin < chunks.size(); begin += session_chunks) {
      const size_t end = std::min(chunks.size(), begin + session_chunks);
      const uint64_t reports =
          std::min<uint64_t>(users, end * kChunkReports) -
          std::min<uint64_t>(users, begin * kChunkReports);
      if (!Session(std::span(chunks).subspan(begin, end - begin), reports,
                   end == chunks.size() ? last_flags : 0)) {
        return false;
      }
    }
    return true;
  }

  // Blocks until every report sent is accounted.
  bool AwaitAll() {
    marks_.clear();
    return AwaitAccounted(target_, sent_, spans_);
  }

  uint64_t next_session_id = 1;

 private:
  Conn& conn_;
  const AggregatorServer& target_;
  uint64_t server_id_;
  uint64_t in_flight_;
  Spans* spans_;
  uint64_t sent_;
  std::deque<uint64_t> marks_;  // sent_ after each unaccounted session
};

// A service behind a loopback TcpFrontEnd. Servers are added before
// Start(): AddServer is not safe against live traffic.
struct Host {
  explicit Host(unsigned workers) : service(workers) {}

  uint64_t Add(const ServerSpec& spec) {
    return service.AddServer(ldp::service::MakeAggregatorServer(spec));
  }
  bool Start() {
    front = std::make_unique<TcpFrontEnd>(service);
    return front->Start();
  }
  uint16_t port() const { return front->port(); }

  AggregatorService service;
  std::unique_ptr<TcpFrontEnd> front;  // after `service`: destroyed first
};

// ---------------------------------------------------------------------
// Populations, truth and encoding.

// 60% of users in the lowest eighth of the domain, the rest uniform.
std::vector<uint64_t> DrawValues(uint64_t n, uint64_t domain, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> values(n);
  const uint64_t low = std::max<uint64_t>(1, domain / 8);
  for (uint64_t& v : values) {
    v = rng.Bernoulli(0.6) ? rng.UniformInt(low) : rng.UniformInt(domain);
  }
  return values;
}

// Row-major 2-D points: 60% within D/16 of the diagonal, the rest uniform.
std::vector<uint64_t> DrawPoints(uint64_t n, uint64_t domain, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> coords(2 * n);
  const uint64_t band = std::max<uint64_t>(1, domain / 16);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t x = rng.UniformInt(domain);
    uint64_t y = rng.UniformInt(domain);
    if (rng.Bernoulli(0.6)) {
      const uint64_t offset = rng.UniformInt(2 * band + 1);
      y = std::min(domain - 1, x + offset >= band ? x + offset - band : 0);
    }
    coords[2 * i] = x;
    coords[2 * i + 1] = y;
  }
  return coords;
}

// Exact (weighted) fraction of a population inside a range or box.
class Truth {
 public:
  Truth(uint64_t domain, uint32_t dims)
      : domain_(domain),
        dims_(dims),
        counts_(dims == 1 ? domain : domain * domain, 0) {}

  // `coords` are values (dims 1) or row-major (x, y) points (dims 2).
  void Add(std::span<const uint64_t> coords, uint64_t weight = 1) {
    if (dims_ == 1) {
      for (uint64_t v : coords) counts_[v] += weight;
    } else {
      for (size_t i = 0; i + 1 < coords.size(); i += 2) {
        counts_[coords[i + 1] * domain_ + coords[i]] += weight;
      }
    }
    total_ += weight * (coords.size() / dims_);
  }

  void Finish() {
    if (dims_ == 1) {
      prefix_.assign(domain_ + 1, 0);
      for (uint64_t i = 0; i < domain_; ++i) {
        prefix_[i + 1] = prefix_[i] + counts_[i];
      }
    } else {
      const uint64_t w = domain_ + 1;
      prefix_.assign(w * w, 0);
      for (uint64_t y = 0; y < domain_; ++y) {
        for (uint64_t x = 0; x < domain_; ++x) {
          prefix_[(y + 1) * w + x + 1] = counts_[y * domain_ + x] +
                                         prefix_[y * w + x + 1] +
                                         prefix_[(y + 1) * w + x] -
                                         prefix_[y * w + x];
        }
      }
    }
    counts_.clear();
    counts_.shrink_to_fit();
  }

  double Fraction(std::span<const AxisInterval> box) const {
    if (total_ == 0) return 0.0;
    uint64_t inside = 0;
    if (dims_ == 1) {
      inside = prefix_[box[0].hi + 1] - prefix_[box[0].lo];
    } else {
      const uint64_t w = domain_ + 1;
      const uint64_t x0 = box[0].lo, x1 = box[0].hi + 1;
      const uint64_t y0 = box[1].lo, y1 = box[1].hi + 1;
      inside = prefix_[y1 * w + x1] - prefix_[y0 * w + x1] -
               prefix_[y1 * w + x0] + prefix_[y0 * w + x0];
    }
    return static_cast<double>(inside) / static_cast<double>(total_);
  }

 private:
  uint64_t domain_;
  uint32_t dims_;
  std::vector<uint64_t> counts_;
  std::vector<uint64_t> prefix_;
  uint64_t total_ = 0;
};

uint32_t Dims(const ServerSpec& spec) {
  return spec.kind == ServerKind::kGrid ? spec.dimensions : 1;
}

std::vector<uint8_t> EncodeChunk(const ServerSpec& spec,
                                 std::span<const uint64_t> slice, Rng& rng) {
  switch (spec.kind) {
    case ServerKind::kFlat:
      return ldp::protocol::FlatHrrClient(spec.domain, spec.eps)
          .EncodeUsersSerialized(slice, rng);
    case ServerKind::kHaar:
      return ldp::protocol::HaarHrrClient(spec.domain, spec.eps)
          .EncodeUsersSerialized(slice, rng);
    case ServerKind::kTree:
      return ldp::protocol::TreeHrrClient(spec.domain, spec.fanout, spec.eps)
          .EncodeUsersSerialized(slice, rng);
    case ServerKind::kGrid:
      return ldp::protocol::MultiDimClient(spec.domain, spec.dimensions,
                                           spec.eps, spec.fanout)
          .EncodeUsersSerialized(slice, rng);
    case ServerKind::kAhead:
      break;  // two phases; encoded by the AHEAD workload itself
  }
  std::fprintf(stderr, "e2e: no one-phase encoder for this kind\n");
  std::exit(2);
}

// Encodes `coords` as chunks of `chunk_reports` reports; chunk c draws
// from its own Rng, so any process can regenerate any chunk alone.
Chunks EncodeShare(const ServerSpec& spec, std::span<const uint64_t> coords,
                   uint64_t seed, uint64_t chunk_reports = kChunkReports) {
  const uint32_t dims = Dims(spec);
  const uint64_t users = coords.size() / dims;
  Chunks chunks;
  chunks.reserve((users + chunk_reports - 1) / chunk_reports);
  for (uint64_t begin = 0, c = 0; begin < users; begin += chunk_reports, ++c) {
    const uint64_t end = std::min(users, begin + chunk_reports);
    Rng rng(Derive(seed, c));
    chunks.push_back(EncodeChunk(
        spec, coords.subspan(begin * dims, (end - begin) * dims), rng));
  }
  return chunks;
}

// The aggregate of `unit`'s reports streamed `times` times. Aggregates
// are integer sums, so k-fold ingestion equals the k-fold state sum; it
// is built by doubling the state snapshot, O(log k) merges.
std::unique_ptr<AggregatorServer> Repeated(const AggregatorServer& unit,
                                           uint64_t times) {
  std::unique_ptr<AggregatorServer> result = unit.CloneEmpty();
  std::vector<uint8_t> power = unit.SerializeState();
  bool ok = true;
  while (times > 0) {
    if ((times & 1) != 0) {
      ok = result->MergeSerializedState(power) ==
               ldp::service::MergeStatus::kOk && ok;
    }
    times >>= 1;
    if (times > 0) {
      std::unique_ptr<AggregatorServer> doubled = unit.CloneEmpty();
      ok = doubled->MergeSerializedState(power) ==
               ldp::service::MergeStatus::kOk && ok;
      ok = doubled->MergeSerializedState(power) ==
               ldp::service::MergeStatus::kOk && ok;
      power = doubled->SerializeState();
    }
  }
  if (!ok) {
    std::fprintf(stderr, "e2e: reference state merge failed\n");
    std::exit(1);
  }
  return result;
}

// ---------------------------------------------------------------------
// Queries over the wire.

struct QueryRecord {
  uint64_t query_id = 0;
  uint64_t server_id = 0;
  uint32_t dims = 1;
  AxisInterval box[2];
  std::vector<uint8_t> reply;
};

struct QueryLog {
  std::vector<QueryRecord> records;
  std::vector<double> latency_us;  // timed queries only
  uint64_t queries = 0;            // attempted, polls included
  uint64_t failures = 0;           // no reply or a non-kOk status
};

QueryRecord RandomQuery(Rng& rng, uint64_t query_id, uint64_t server_id,
                        uint64_t domain, uint32_t dims) {
  QueryRecord q;
  q.query_id = query_id;
  q.server_id = server_id;
  q.dims = dims;
  for (uint32_t d = 0; d < dims; ++d) {
    uint64_t lo = rng.UniformInt(domain);
    uint64_t hi = rng.UniformInt(domain);
    if (lo > hi) std::swap(lo, hi);
    q.box[d] = AxisInterval{lo, hi};
  }
  return q;
}

std::vector<uint8_t> QueryRequest(const QueryRecord& q) {
  if (q.dims == 1) {
    ldp::service::RangeQueryRequest request;
    request.query_id = q.query_id;
    request.server_id = q.server_id;
    request.intervals = {{q.box[0].lo, q.box[0].hi}};
    return ldp::service::SerializeRangeQueryRequest(request);
  }
  ldp::service::MultiDimQueryRequest request;
  request.query_id = q.query_id;
  request.server_id = q.server_id;
  request.dimensions = q.dims;
  ldp::service::QueryBox box;
  for (uint32_t d = 0; d < q.dims; ++d) {
    box.axes.push_back({q.box[d].lo, q.box[d].hi});
  }
  request.boxes = {box};
  return ldp::service::SerializeMultiDimQueryRequest(request);
}

// Status and (on kOk) the one estimate of a reply; false if unparseable.
bool ParseReply(const QueryRecord& q, std::span<const uint8_t> reply,
                QueryStatus* status,
                ldp::service::IntervalEstimate* estimate) {
  std::vector<ldp::service::IntervalEstimate> estimates;
  if (q.dims == 1) {
    ldp::service::RangeQueryResponse response;
    if (ldp::service::ParseRangeQueryResponse(reply, &response) !=
        ldp::protocol::ParseError::kOk) {
      return false;
    }
    *status = response.status;
    estimates = std::move(response.estimates);
  } else {
    ldp::service::MultiDimQueryResponse response;
    if (ldp::service::ParseMultiDimQueryResponse(reply, &response) !=
        ldp::protocol::ParseError::kOk) {
      return false;
    }
    *status = response.status;
    estimates = std::move(response.estimates);
  }
  if (*status == QueryStatus::kOk) {
    if (estimates.size() != 1) return false;
    *estimate = estimates[0];
  }
  return true;
}

std::vector<uint8_t> ExpectedReply(const QueryRecord& q,
                                   const RangeEstimate& e) {
  const ldp::service::IntervalEstimate estimate{e.value, e.stddev * e.stddev};
  if (q.dims == 1) {
    ldp::service::RangeQueryResponse response;
    response.query_id = q.query_id;
    response.estimates = {estimate};
    return ldp::service::SerializeRangeQueryResponse(response);
  }
  ldp::service::MultiDimQueryResponse response;
  response.query_id = q.query_id;
  response.estimates = {estimate};
  return ldp::service::SerializeMultiDimQueryResponse(response);
}

// Sends one query; a kOk reply joins the log for verification. Returns
// the status (kMalformedRequest stands in for a reply that did not arrive
// or parse).
QueryStatus Ask(Conn& conn, QueryRecord q, QueryLog* log) {
  ++log->queries;
  std::vector<uint8_t> reply = conn.Call(QueryRequest(q));
  QueryStatus status = QueryStatus::kMalformedRequest;
  ldp::service::IntervalEstimate estimate;
  if (reply.empty() || !ParseReply(q, reply, &status, &estimate)) {
    status = QueryStatus::kMalformedRequest;
  }
  if (status == QueryStatus::kOk) {
    q.reply = std::move(reply);
    log->records.push_back(std::move(q));
  }
  return status;
}

void ClosedLoopQueries(Conn& conn, uint64_t server_id, uint64_t domain,
                       uint32_t dims, uint64_t count, Rng& rng,
                       uint64_t* next_query_id, QueryLog* log) {
  for (uint64_t i = 0; i < count; ++i) {
    QueryRecord q = RandomQuery(rng, (*next_query_id)++, server_id, domain,
                                dims);
    const uint64_t t0 = NowNanos();
    const QueryStatus status = Ask(conn, std::move(q), log);
    const uint64_t t1 = NowNanos();
    if (status == QueryStatus::kOk) {
      log->latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    } else {
      ++log->failures;
    }
  }
}

// Finalizes `server_id` over the wire (an empty session with the finalize
// flag) and polls `q` back to back -- well inside the 100 us polling
// bound -- until it answers kOk. Returns ms from `stop_ns` (the moment
// the last report was in the aggregate) to that answer, or -1.
double FirstAnswer(Conn& conn, Spans* spans, uint64_t session_id,
                   uint64_t server_id, const QueryRecord& q, uint64_t stop_ns,
                   QueryLog* log) {
  const uint64_t t0 = NowNanos();
  conn.Session(session_id, server_id, {}, ldp::service::kStreamFlagFinalize);
  spans->Add("gen.finalize_session", t0, NowNanos());
  const uint64_t deadline = t0 + 120ULL * 1000000000ULL;
  while (true) {
    const uint64_t tp = NowNanos();
    const QueryStatus status = Ask(conn, q, log);
    const uint64_t done = NowNanos();
    spans->Add("gen.poll", tp, done);
    if (status == QueryStatus::kNotFinalized && done < deadline) continue;
    spans->Add("first_answer", stop_ns, done);
    if (status != QueryStatus::kOk) {
      ++log->failures;
      return -1.0;
    }
    return Ms(done - stop_ns);
  }
}

// ---------------------------------------------------------------------
// Results, scrape checks and answer verification.

struct Sum {
  double total = 0.0;
  double count = 0.0;
  void Add(double t, double n = 1.0) {
    total += t;
    count += n;
  }
  double Ratio() const { return count > 0.0 ? total / count : 0.0; }
};

// Per-layer accumulators for the traced run (see BENCHMARK.json).
struct Layers {
  Sum encode_ns;    // ns per report, client encoders
  Sum frame_ns;     // ns per message, SerializeStream*
  Sum absorb_ns;    // ns per report, reference AbsorbBatchSerialized
  std::vector<double> finalize_ms;    // reference Finalize()
  std::vector<double> build_tree_ms;  // hosted AheadServer::BuildTree()
  Sum query_ns;     // reference query call
  Sum send_busy;    // ns inside TcpClient::Send per window ns
  Sum bytes;        // ingest bytes per report
  HistogramSnapshot absorb_batch, service_query, service_finalize,
      merge_restore, merge_reduce;
  std::vector<double> drain_ms;
  std::vector<double> olh_scan_ms;
  Sum sessions;     // completed data sessions per window second
  std::vector<double> serialize_ms, snapshot_bytes, push_ms;
  Sum server_cpu;   // server CPU ns per report
  std::vector<double> scrape_us;
  PathBreakdown ingest_path, first_answer_path;
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t answers_checked = 0;
  uint64_t byte_mismatches = 0;
  uint64_t accuracy_violations = 0;
  double max_z = 0.0;
  std::vector<std::string> problems;

  void Problem(const std::string& what) {
    std::fprintf(stderr, "e2e: CHECK FAILED: %s\n", what.c_str());
    if (problems.size() < 32) problems.push_back(what);
  }
};

bool Scrape(uint16_t port, StatsResponse* out, double* rtt_us) {
  TcpClient client;
  if (!client.Connect("127.0.0.1", port)) return false;
  ldp::obs::StatsQuery query;
  query.query_id = 0x57A75;
  query.flags = ldp::obs::kStatsFlagIncludeGlobal;
  const uint64_t t0 = NowNanos();
  const std::vector<uint8_t> reply =
      client.Call(ldp::obs::SerializeStatsQuery(query));
  *rtt_us = static_cast<double>(NowNanos() - t0) / 1e3;
  return ldp::obs::ParseStatsResponse(reply, out) ==
             ldp::protocol::ParseError::kOk &&
         out->status == ldp::obs::StatsStatus::kOk &&
         out->query_id == query.query_id;
}

// What one round's service must have seen, for the scrape reconciliation.
struct Expect {
  uint64_t messages = 0;  // framed messages the generator sent
  uint64_t sessions = 0;  // sessions begun and completed (finalize incl.)
  uint64_t finalizes = 0;
  std::vector<std::pair<uint64_t, uint64_t>> reports;  // (server, sent)
  uint64_t shards = 0;   // fan-in: snapshot pushes that landed
  uint64_t retries = 0;  // fan-in: kWouldBlock retries the shards saw
};

// Reconciles a post-drain scrape with what the generator sent. The
// front-end counts a message as routed after the service handled it, so
// the scrape query itself is not in its own snapshot and the count is
// exact. (Pause/resume counts are not compared: a paused connection that
// re-pauses on resume counts a second pause and no resume.)
void CheckScrape(const StatsResponse& scrape, const Expect& e,
                 Outcome* out) {
  const ldp::obs::MetricsSnapshot& m = scrape.metrics;
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) out->Problem(what);
  };
  auto counter = [&](const std::string& name) { return m.CounterOr(name); };
  check(counter("net.messages_routed") == e.messages,
        "net.messages_routed " +
            std::to_string(counter("net.messages_routed")) +
            " != messages sent " + std::to_string(e.messages));
  for (const char* name :
       {"net.protocol_errors", "service.malformed_messages",
        "service.duplicate_sessions", "service.rejected_sessions",
        "service.unknown_sessions", "service.duplicate_chunks",
        "service.late_chunks", "service.incomplete_streams",
        "service.oversized_declarations", "service.merge_rejects"}) {
    check(counter(name) == 0, std::string(name) + " != 0");
  }
  out->failed += counter("service.malformed_messages") +
                 counter("service.duplicate_sessions") +
                 counter("service.rejected_sessions") +
                 counter("service.unknown_sessions") +
                 counter("service.incomplete_streams") +
                 counter("service.merge_rejects");
  check(counter("service.chunks_enqueued") ==
            counter("service.chunks_absorbed"),
        "chunks_enqueued != chunks_absorbed");
  const ldp::obs::GaugeValue* depth = m.FindGauge("service.queue_depth");
  check(depth != nullptr && depth->value == 0, "queue_depth != 0 after drain");
  check(counter("service.sessions_begun") == e.sessions &&
            counter("service.sessions_completed") == e.sessions,
        "sessions begun/completed != " + std::to_string(e.sessions));
  check(counter("service.finalizes") == e.finalizes, "finalize count");
  for (const auto& [server, sent] : e.reports) {
    const std::string prefix = "server" + std::to_string(server);
    const uint64_t rejected = counter(prefix + ".rejected");
    out->failed += rejected;
    check(counter(prefix + ".accepted") == sent && rejected == 0,
          prefix + " accepted+rejected != reports sent");
  }
  if (e.shards > 0) {
    check(counter("service.merge_requests") == e.shards + e.retries,
          "merge_requests != shards + retries");
    check(counter("service.merge_would_block") == e.retries,
          "merge_would_block != shard retries");
    check(counter("service.merges_completed") == 1, "merges_completed != 1");
    const auto* restore = m.FindHistogram("merge.absorb_ns");
    const auto* reduce = m.FindHistogram("merge.fan_in_ns");
    check(restore != nullptr && restore->histogram.count == e.shards,
          "merge.absorb_ns count != shards");
    check(reduce != nullptr && reduce->histogram.count == 1,
          "merge.fan_in_ns count != 1");
  }
}

void CollectScrape(const StatsResponse& scrape, uint64_t server,
                   Layers* layers) {
  const ldp::obs::MetricsSnapshot& m = scrape.metrics;
  auto merge = [&](const std::string& name, HistogramSnapshot* into) {
    if (const auto* h = m.FindHistogram(name)) into->MergeFrom(h->histogram);
  };
  const std::string prefix = "server" + std::to_string(server);
  merge(prefix + ".absorb_batch_ns", &layers->absorb_batch);
  merge("service.query_ns", &layers->service_query);
  merge(prefix + ".finalize_ns", &layers->service_finalize);
  merge("merge.absorb_ns", &layers->merge_restore);
  merge("merge.fan_in_ns", &layers->merge_reduce);
}

uint64_t OlhScanNs(const StatsResponse* scrape) {
  if (scrape == nullptr) {
    return ldp::obs::MetricsRegistry::Global()
        .GetHistogram("olh.support_scan_ns")
        .Snapshot()
        .sum;
  }
  const auto* h = scrape->metrics.FindHistogram("olh.support_scan_ns");
  return h == nullptr ? 0 : h->histogram.sum;
}

// Checks every logged answer against `ref`, the in-process rebuild: the
// reply must be byte-identical, and |estimate - truth| <= 6 sigma with
// sigma^2 the shipped variance times `var_factor` (> 1 when shares were
// streamed repeatedly: fewer independent users stand behind the counts
// than the server's n says).
void Verify(const QueryLog& log, const AggregatorServer& ref,
            const Truth& truth, double var_factor, Layers* layers,
            Outcome* out) {
  for (const QueryRecord& q : log.records) {
    const uint64_t t0 = NowNanos();
    const RangeEstimate e =
        q.dims == 1 ? ref.RangeQueryWithUncertainty(q.box[0].lo, q.box[0].hi)
                    : ref.BoxQueryWithUncertainty(
                          std::span<const AxisInterval>(q.box, q.dims));
    layers->query_ns.Add(static_cast<double>(NowNanos() - t0));
    ++out->answers_checked;
    if (q.reply != ExpectedReply(q, e)) {
      if (out->byte_mismatches++ == 0) {
        out->Problem("wire answer differs from the in-process rebuild");
      }
      continue;
    }
    const double sigma = std::sqrt(e.stddev * e.stddev * var_factor);
    const double error =
        std::abs(e.value -
                 truth.Fraction(std::span<const AxisInterval>(q.box, q.dims)));
    const double z = sigma > 0.0 ? error / sigma : (error > 0.0 ? 1e9 : 0.0);
    out->max_z = std::max(out->max_z, z);
    if (z > kMaxZ && out->accuracy_violations++ == 0) {
      out->Problem("estimate beyond 6 sigma of the truth (z=" +
                   std::to_string(z) + ")");
    }
  }
}

// Runs a round's in-process rebuild and answer checks in a forked child,
// so the reference server, the truth tables and any regenerated chunks
// stay out of this process's peak RSS, which is meant to cover the
// generator's inputs and the service. The child reports its counts and
// the reference layer timings back over a pipe. Call it with no other
// thread running: fork() copies only the calling thread.
void CheckInChild(Layers* layers, Outcome* out,
                  const std::function<void(Layers*, Outcome*)>& check) {
  int fds[2];
  if (pipe(fds) != 0) {
    out->Problem("pipe failed");
    return;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    out->Problem("fork failed");
    return;
  }
  if (pid == 0) {
    close(fds[0]);
    Layers l;
    Outcome o;
    check(&l, &o);
    FILE* to_parent = fdopen(fds[1], "w");
    std::fprintf(to_parent,
                 "CHECKED answers=%llu mismatches=%llu violations=%llu "
                 "max_z=%.17g absorb_ns=%.17g absorb_n=%.17g query_ns=%.17g "
                 "query_n=%.17g\n",
                 static_cast<unsigned long long>(o.answers_checked),
                 static_cast<unsigned long long>(o.byte_mismatches),
                 static_cast<unsigned long long>(o.accuracy_violations),
                 o.max_z, l.absorb_ns.total, l.absorb_ns.count,
                 l.query_ns.total, l.query_ns.count);
    for (double ms : l.finalize_ms) {
      std::fprintf(to_parent, "FINALIZE %.17g\n", ms);
    }
    for (const std::string& p : o.problems) {
      std::fprintf(to_parent, "PROBLEM %s\n", p.c_str());
    }
    std::fclose(to_parent);
    _exit(0);
  }
  close(fds[1]);
  FILE* from_child = fdopen(fds[0], "r");
  std::string line;
  bool reported = false;
  while (ReadLine(from_child, &line)) {
    if (line.rfind("CHECKED ", 0) == 0) {
      const auto kv = ParseKv(line);
      out->answers_checked += static_cast<uint64_t>(KvNum(kv, "answers"));
      out->byte_mismatches += static_cast<uint64_t>(KvNum(kv, "mismatches"));
      out->accuracy_violations +=
          static_cast<uint64_t>(KvNum(kv, "violations"));
      out->max_z = std::max(out->max_z, KvNum(kv, "max_z"));
      layers->absorb_ns.Add(KvNum(kv, "absorb_ns"), KvNum(kv, "absorb_n"));
      layers->query_ns.Add(KvNum(kv, "query_ns"), KvNum(kv, "query_n"));
      reported = true;
    } else if (line.rfind("FINALIZE ", 0) == 0) {
      layers->finalize_ms.push_back(std::strtod(line.c_str() + 9, nullptr));
    } else if (line.rfind("PROBLEM ", 0) == 0 && out->problems.size() < 32) {
      // The child already printed it.
      out->problems.push_back(line.substr(8, line.find('\n') - 8));
    }
  }
  std::fclose(from_child);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!reported || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    out->Problem("the answer-check process failed");
  }
}

// The end-to-end figures of one measured round.
struct RoundFigures {
  bool traced = false;
  std::vector<double> ingest;  // reports/s of each ingest window
  double first_ms = 0.0;
  double setup_s = 0.0;
  double steal = 0.0;  // share of the CPUs' time stolen during the round
  std::vector<double> query_us;
};

// Everything one invocation measures.
struct Run {
  Options opt;
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<RoundFigures> rounds;
  long extra_rss_kb = 0;  // fan-in: peak RSS of the shard processes
  Layers layers;
  Outcome outcome;

  void Set(const std::string& key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    config.emplace_back(key, buf);
  }
  void SetText(const std::string& key, const std::string& value) {
    config.emplace_back(key, "\"" + value + "\"");
  }

  void Round(RoundFigures figures) {
    std::fprintf(stderr,
                 "e2e: round %zu%s: ingest %.4g reports/s, first answer "
                 "%.3f ms, setup %.3f s, %zu queries, %.1f%% stolen\n",
                 rounds.size() + 1, figures.traced ? " (traced)" : "",
                 Median(figures.ingest), figures.first_ms, figures.setup_s,
                 figures.query_us.size(), 100.0 * figures.steal);
    rounds.push_back(std::move(figures));
  }
};

// Tracing for one round: server-side ScopedTimer spans plus this
// binary's client-side spans. Measured rounds alternate traced and
// untraced in a --trace run, so the overhead is measured in the same run.
class RoundTrace {
 public:
  RoundTrace(const Options& opt, int measured_index)
      : on_(opt.trace && measured_index >= 0 && measured_index % 2 == 0) {
    if (on_) ldp::obs::StartTracing();
  }
  ~RoundTrace() {
    if (on_) ldp::obs::StopTracing();
  }
  RoundTrace(const RoundTrace&) = delete;
  RoundTrace& operator=(const RoundTrace&) = delete;
  bool on() const { return on_; }

 private:
  bool on_;
};

// Whether a run that started at `run_start` begins round `r`: at least
// `min_rounds` of them, then until --seconds have elapsed.
bool MoreRounds(const Options& opt, uint64_t run_start, int r, int min_rounds,
                int max_rounds) {
  if (r < min_rounds) return true;
  return r < max_rounds &&
         static_cast<double>(NowNanos() - run_start) / 1e9 < opt.seconds;
}

// Scrapes a round's drained service and reconciles it with `expect`.
void ScrapeRound(const Host& host, const Expect& expect, uint64_t server,
                 Run* run, StatsResponse* scrape) {
  double rtt_us = 0.0;
  if (!Scrape(host.port(), scrape, &rtt_us)) {
    run->outcome.Problem("stats scrape failed");
    return;
  }
  run->layers.scrape_us.push_back(rtt_us);
  CheckScrape(*scrape, expect, &run->outcome);
  CollectScrape(*scrape, server, &run->layers);
}

// Snapshot time and size of a drained hosted server: what a fan-in shard
// serializes and pushes, measured on every workload's mechanism.
void RecordSnapshot(const AggregatorServer& server, Layers* layers) {
  const uint64_t t0 = NowNanos();
  const size_t bytes = server.SerializeState().size();
  layers->serialize_ms.push_back(Ms(NowNanos() - t0));
  layers->snapshot_bytes.push_back(static_cast<double>(bytes));
}

// CPU clocks around one ingest window: the process minus the generator
// threads is what the service spent.
struct CpuWindow {
  uint64_t process0 = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
  uint64_t thread0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);

  // Server CPU over the window; `other_generator_ns` is CPU of generator
  // threads besides the calling one.
  double ServerNs(uint64_t other_generator_ns = 0) const {
    const uint64_t process = CpuNs(CLOCK_PROCESS_CPUTIME_ID) - process0;
    const uint64_t generator =
        CpuNs(CLOCK_THREAD_CPUTIME_ID) - thread0 + other_generator_ns;
    return process > generator ? static_cast<double>(process - generator)
                               : 0.0;
  }
};

// Per-layer figures of one ingest window that carried `reports` reports
// on `ingest`; call it before the connection carries anything else.
void RecordWindow(const Conn& ingest, uint64_t window_ns, uint64_t reports,
                  uint64_t drain_ns, double server_cpu_ns, Layers* layers) {
  const double n = static_cast<double>(reports);
  layers->frame_ns.Add(static_cast<double>(ingest.frame_ns),
                       static_cast<double>(ingest.frames));
  layers->send_busy.Add(static_cast<double>(ingest.send_ns),
                        static_cast<double>(window_ns));
  layers->bytes.Add(static_cast<double>(ingest.bytes), n);
  layers->drain_ms.push_back(Ms(drain_ns));
  layers->sessions.Add(static_cast<double>(ingest.sessions),
                       static_cast<double>(window_ns) / 1e9);
  layers->server_cpu.Add(server_cpu_ns, n);
}

// The blocking-path breakdowns of one round. Called once its clocks have
// stopped: sorting a traced round's spans takes milliseconds.
void RecordPaths(const Spans& spans, Layers* layers) {
  AddPath(spans.records, "ingest.window", &layers->ingest_path);
  AddPath(spans.records, "first_answer", &layers->first_answer_path);
}

// ---------------------------------------------------------------------
// ingest_haar: the single-threaded ingest baseline. HaarHRR, D=2^16,
// inline service; one connection streams the round's share again and
// again in a closed loop, in short windows that each end drained. Finalize
// is cheap, so receive, framing, admission, parse and absorb carry the
// clock.

void RunIngestHaar(Run* run) {
  const Options& opt = run->opt;
  ServerSpec spec;
  spec.kind = ServerKind::kHaar;
  spec.domain = uint64_t{1} << 16;
  spec.eps = kEps;
  // Round 0 warms up; then at least 20 measured rounds (20 x 250 >= 5000
  // queries), and more until --seconds have elapsed.
  constexpr int kMinRounds = 21;
  constexpr int kMaxRounds = 400;
  constexpr uint64_t kShareUsers = 200000;
  constexpr uint64_t kQueriesPerRound = 250;
  // Ten windows of 25 ms per round: the run's figure is a median over
  // windows, which a CPU the hypervisor takes away for a few milliseconds
  // spoils only a few of.
  constexpr int kWindows = 10;
  constexpr uint64_t window_ns = 25000000;
  run->SetText("mechanism", "haar");
  run->Set("domain", static_cast<double>(spec.domain));
  run->Set("eps", spec.eps);
  run->Set("share_users", kShareUsers);
  run->Set("session_chunks", kSessionChunks);
  run->Set("in_flight_sessions", kInFlight);
  run->Set("chunk_reports", kChunkReports);
  run->Set("workers", 0);
  run->Set("data_connections", 1);
  run->Set("generator_threads", 1);
  run->Set("min_rounds", kMinRounds - 1);
  run->Set("warmup_rounds", 1);
  run->SetText("rounds_rule", "repeat until --seconds elapsed");
  run->Set("windows_per_round", kWindows);
  run->Set("window_s", static_cast<double>(window_ns) / 1e9);
  run->SetText("ingest_mode",
               "closed-loop share repeats, 2 sessions in flight");
  run->SetText("query_mode", "closed-loop range queries");

  const uint64_t run_start = NowNanos();
  for (int r = 0; MoreRounds(opt, run_start, r, kMinRounds, kMaxRounds); ++r) {
    ReleaseFreedMemory();
    RoundTrace trace(opt, r - 1);
    Spans spans;
    spans.on = trace.on();
    const uint64_t round_start = NowNanos();
    const CpuTicks ticks0 = ReadCpuTicks();
    const std::vector<uint64_t> values =
        DrawValues(kShareUsers, spec.domain, Derive(opt.seed, r, kValues));
    uint64_t t = NowNanos();
    const Chunks share =
        EncodeShare(spec, values, Derive(opt.seed, r, kEncode));
    run->layers.encode_ns.Add(static_cast<double>(NowNanos() - t),
                              kShareUsers);
    auto host = std::make_unique<Host>(0);
    const uint64_t id = host->Add(spec);
    Conn ingest(&spans);
    Conn query(&spans);
    if (!host->Start() || !ingest.Open(host->port()) ||
        !query.Open(host->port())) {
      run->outcome.Problem("service start or connect failed");
      return;
    }
    const double setup_s = static_cast<double>(NowNanos() - round_start) / 1e9;

    // Timed: windows of the share again and again until the window time
    // has elapsed, each ending when every report is absorbed.
    const CpuWindow cpu;
    Sender sender(ingest, host->service.server(id), id, kInFlight, &spans);
    std::vector<double> ingest_rates;
    uint64_t shares = 0, windows_ns = 0, drains_ns = 0, stop = 0;
    bool ok = true;
    for (int w = 0; w < kWindows && ok; ++w) {
      const uint64_t t0 = NowNanos();
      uint64_t window_shares = 0;
      do {
        ok = sender.Share(share, kShareUsers, kSessionChunks);
        ++window_shares;
      } while (ok && NowNanos() - t0 < window_ns);
      ok = sender.AwaitAll() && ok;
      const uint64_t drain0 = NowNanos();
      host->service.Drain();
      stop = NowNanos();
      spans.Add("svc.drain", drain0, stop);
      spans.Add("ingest.window", t0, stop);
      ingest_rates.push_back(
          static_cast<double>(window_shares * kShareUsers) /
          (static_cast<double>(stop - t0) / 1e9));
      shares += window_shares;
      windows_ns += stop - t0;
      drains_ns += stop - drain0;
    }
    const uint64_t reports = shares * kShareUsers;
    if (r > 0) {
      RecordWindow(ingest, windows_ns, reports, drains_ns, cpu.ServerNs(),
                   &run->layers);
    }

    Rng qrng(Derive(opt.seed, r, kQueries));
    uint64_t query_id = 0;
    QueryLog log;
    const double first_ms = FirstAnswer(
        query, &spans, sender.next_session_id++, id,
        RandomQuery(qrng, query_id++, id, spec.domain, 1), stop, &log);
    ClosedLoopQueries(query, id, spec.domain, 1, kQueriesPerRound, qrng,
                      &query_id, &log);
    const double steal = StealFrac(ticks0, ReadCpuTicks());
    ok = ingest.Finish() && ok;

    Expect expect;
    expect.messages = ingest.messages + query.messages;
    expect.sessions = ingest.sessions + query.sessions;
    expect.finalizes = 1;
    expect.reports = {{id, reports}};
    StatsResponse scrape;
    ScrapeRound(*host, expect, id, run, &scrape);
    RecordSnapshot(host->service.server(id), &run->layers);
    Outcome& out = run->outcome;
    out.attempted += reports + expect.sessions + log.queries;
    out.failed += ingest.failures + query.failures + log.failures;
    if (!ok) out.Problem("ingest send failed");

    host.reset();
    CheckInChild(&run->layers, &out, [&](Layers* l, Outcome* o) {
      std::unique_ptr<AggregatorServer> unit =
          ldp::service::MakeAggregatorServer(spec);
      uint64_t t1 = NowNanos();
      for (const auto& chunk : share) unit->AbsorbBatchSerialized(chunk);
      l->absorb_ns.Add(static_cast<double>(NowNanos() - t1), kShareUsers);
      std::unique_ptr<AggregatorServer> ref = Repeated(*unit, shares);
      t1 = NowNanos();
      ref->Finalize();
      l->finalize_ms.push_back(Ms(NowNanos() - t1));
      Truth truth(spec.domain, 1);
      truth.Add(values);
      truth.Finish();
      Verify(log, *ref, truth, static_cast<double>(shares), l, o);
    });

    if (r == 0) continue;
    RecordPaths(spans, &run->layers);
    run->Round({trace.on(), std::move(ingest_rates), first_ms, setup_s, steal,
                std::move(log.latency_us)});
  }
}

// ---------------------------------------------------------------------
// grid_finalize: the decode-bound control. A 2-D hierarchical grid
// (2^6 per axis, B=4) on an inline service, a fresh server per round;
// the deferred OLH support scan dominates the first answer and the
// network is nearly idle, so a network-side change must not move it.
// At 2^10 per axis a report costs 100x more to decode, so a run would
// hold a handful of rounds that each decode for seconds. 250k users keep
// the decode near 60 ms: a run holds enough rounds for a median, and few
// of them overlap a stretch in which the host takes a CPU away from the
// decode's ParallelFor slices.

void RunGridFinalize(Run* run) {
  const Options& opt = run->opt;
  ServerSpec spec;
  spec.kind = ServerKind::kGrid;
  spec.domain = uint64_t{1} << 6;
  spec.dimensions = 2;
  spec.fanout = 4;
  spec.eps = kEps;
  constexpr int kMinRounds = 11;  // the first warms up
  constexpr int kMaxRounds = 200;
  constexpr uint64_t kUsers = 250000;
  constexpr uint64_t kQueriesPerRound = 500;
  run->SetText("mechanism", "grid");
  run->Set("domain_per_axis", static_cast<double>(spec.domain));
  run->Set("dimensions", spec.dimensions);
  run->Set("fanout", static_cast<double>(spec.fanout));
  run->Set("eps", spec.eps);
  run->Set("users_per_round", kUsers);
  run->Set("chunk_reports", kChunkReports);
  run->Set("workers", 0);
  run->Set("data_connections", 1);
  run->Set("generator_threads", 1);
  run->Set("min_rounds", kMinRounds - 1);
  run->Set("warmup_rounds", 1);
  run->SetText("rounds_rule", "repeat until --seconds elapsed");
  run->SetText("query_mode", "closed-loop box queries (kMultiDimQuery)");

  const uint64_t run_start = NowNanos();
  for (int r = 0; MoreRounds(opt, run_start, r, kMinRounds, kMaxRounds); ++r) {
    ReleaseFreedMemory();
    RoundTrace trace(opt, r - 1);
    Spans spans;
    spans.on = trace.on();
    const uint64_t round_start = NowNanos();
    const CpuTicks ticks0 = ReadCpuTicks();
    const std::vector<uint64_t> points =
        DrawPoints(kUsers, spec.domain, Derive(opt.seed, r, kValues));
    uint64_t t = NowNanos();
    const Chunks share =
        EncodeShare(spec, points, Derive(opt.seed, r, kEncode));
    run->layers.encode_ns.Add(static_cast<double>(NowNanos() - t), kUsers);
    auto host = std::make_unique<Host>(0);
    const uint64_t id = host->Add(spec);
    Conn ingest(&spans);
    Conn query(&spans);
    if (!host->Start() || !ingest.Open(host->port()) ||
        !query.Open(host->port())) {
      run->outcome.Problem("service start or connect failed");
      return;
    }
    const double setup_s = static_cast<double>(NowNanos() - round_start) / 1e9;

    const CpuWindow cpu;
    const uint64_t t0 = NowNanos();
    Sender sender(ingest, host->service.server(id), id, kInFlight, &spans);
    bool ok = sender.Share(share, kUsers, kSessionChunks);
    ok = sender.AwaitAll() && ok;
    const uint64_t drain0 = NowNanos();
    host->service.Drain();
    const uint64_t stop = NowNanos();
    const double server_cpu_ns = cpu.ServerNs();
    spans.Add("svc.drain", drain0, stop);
    spans.Add("ingest.window", t0, stop);
    const double ingest_rate =
        static_cast<double>(kUsers) / (static_cast<double>(stop - t0) / 1e9);
    RecordWindow(ingest, stop - t0, kUsers, stop - drain0, server_cpu_ns,
                 &run->layers);

    Rng qrng(Derive(opt.seed, r, kQueries));
    uint64_t query_id = 0;
    QueryLog log;
    const uint64_t scan0 = OlhScanNs(nullptr);
    const double first_ms =
        FirstAnswer(query, &spans, sender.next_session_id++, id,
                    RandomQuery(qrng, query_id++, id, spec.domain, 2), stop,
                    &log);
    ClosedLoopQueries(query, id, spec.domain, 2, kQueriesPerRound, qrng,
                      &query_id, &log);
    const double steal = StealFrac(ticks0, ReadCpuTicks());
    ok = ingest.Finish() && ok;

    Expect expect;
    expect.messages = ingest.messages + query.messages;
    expect.sessions = ingest.sessions + 1;
    expect.finalizes = 1;
    expect.reports = {{id, kUsers}};
    StatsResponse scrape;
    ScrapeRound(*host, expect, id, run, &scrape);
    RecordSnapshot(host->service.server(id), &run->layers);
    Outcome& out = run->outcome;
    out.attempted += kUsers + expect.sessions + log.queries;
    out.failed += ingest.failures + query.failures + log.failures;
    if (!ok) out.Problem("ingest send failed");
    Layers& l = run->layers;
    l.olh_scan_ms.push_back(Ms(OlhScanNs(&scrape) - scan0));

    host.reset();
    CheckInChild(&l, &out, [&](Layers* cl, Outcome* o) {
      std::unique_ptr<AggregatorServer> ref =
          ldp::service::MakeAggregatorServer(spec);
      uint64_t t1 = NowNanos();
      for (const auto& chunk : share) ref->AbsorbBatchSerialized(chunk);
      cl->absorb_ns.Add(static_cast<double>(NowNanos() - t1), kUsers);
      t1 = NowNanos();
      ref->Finalize();
      cl->finalize_ms.push_back(Ms(NowNanos() - t1));
      Truth truth(spec.domain, 2);
      truth.Add(points);
      truth.Finish();
      Verify(log, *ref, truth, 1.0, cl, o);
    });
    if (r == 0) continue;
    RecordPaths(spans, &l);
    run->Round({trace.on(), {ingest_rate}, first_ms, setup_s, steal,
                std::move(log.latency_us)});
  }
}

// ---------------------------------------------------------------------
// ahead_two_phase: the only served two-phase flow. Phase 1 (the first
// 15% of users) streams in, the hosted AheadServer builds its adaptive
// tree in process (no wire message triggers BuildTree), phase 2 is
// encoded against the broadcast tree bytes -- not timed -- and streams
// in; then finalize and queries.

void RunAheadTwoPhase(Run* run) {
  const Options& opt = run->opt;
  ServerSpec spec;
  spec.kind = ServerKind::kAhead;
  spec.domain = uint64_t{1} << 16;
  spec.fanout = 4;
  spec.eps = kEps;
  constexpr uint64_t kUsers = 4000000;
  constexpr int kMinRounds = 6;  // the first warms up
  constexpr int kMaxRounds = 200;
  constexpr uint64_t kQueriesPerRound = 1000;
  const double phase1_fraction = ldp::AheadConfig{}.phase1_fraction;
  const uint64_t phase1_users =
      static_cast<uint64_t>(phase1_fraction * static_cast<double>(kUsers));
  run->SetText("mechanism", "ahead");
  run->Set("domain", static_cast<double>(spec.domain));
  run->Set("fanout", static_cast<double>(spec.fanout));
  run->Set("eps", spec.eps);
  run->Set("users_per_round", kUsers);
  run->Set("phase1_fraction", phase1_fraction);
  run->Set("chunk_reports", kChunkReports);
  run->Set("workers", 0);
  run->Set("data_connections", 1);
  run->Set("generator_threads", 1);
  run->Set("min_rounds", kMinRounds - 1);
  run->Set("warmup_rounds", 1);
  run->SetText("rounds_rule", "repeat until --seconds elapsed");
  run->SetText("query_mode", "closed-loop range queries");

  const uint64_t run_start = NowNanos();
  for (int r = 0; MoreRounds(opt, run_start, r, kMinRounds, kMaxRounds); ++r) {
    ReleaseFreedMemory();
    RoundTrace trace(opt, r - 1);
    Spans spans;
    spans.on = trace.on();
    const uint64_t round_start = NowNanos();
    const CpuTicks ticks0 = ReadCpuTicks();
    const std::vector<uint64_t> values =
        DrawValues(kUsers, spec.domain, Derive(opt.seed, r, kValues));
    const std::span<const uint64_t> phase1(values.data(), phase1_users);
    const std::span<const uint64_t> phase2(values.data() + phase1_users,
                                           kUsers - phase1_users);
    ldp::protocol::AheadClient client(spec.domain, spec.fanout, spec.eps);
    uint64_t t = NowNanos();
    Chunks phase1_chunks;
    for (uint64_t begin = 0, c = 0; begin < phase1.size();
         begin += kChunkReports, ++c) {
      Rng rng(Derive(opt.seed, r, kEncode, c));
      std::vector<ldp::protocol::AheadWireReport> reports;
      const uint64_t end =
          std::min<uint64_t>(phase1.size(), begin + kChunkReports);
      reports.reserve(end - begin);
      for (uint64_t i = begin; i < end; ++i) {
        reports.push_back(client.EncodePhase1(phase1[i], rng));
      }
      phase1_chunks.push_back(
          ldp::protocol::SerializeAheadReportBatch(reports));
    }
    run->layers.encode_ns.Add(static_cast<double>(NowNanos() - t),
                              static_cast<double>(phase1.size()));
    auto host = std::make_unique<Host>(0);
    const uint64_t id = host->Add(spec);
    Conn ingest(&spans);
    Conn query(&spans);
    if (!host->Start() || !ingest.Open(host->port()) ||
        !query.Open(host->port())) {
      run->outcome.Problem("service start or connect failed");
      return;
    }
    const double setup_s = static_cast<double>(NowNanos() - round_start) / 1e9;

    const CpuWindow cpu;
    const uint64_t t0 = NowNanos();
    AggregatorServer& target = host->service.server(id);
    Sender sender(ingest, target, id, kInFlight, &spans);
    bool ok = sender.Share(phase1_chunks, phase1.size(), kSessionChunks);
    ok = sender.AwaitAll() && ok;
    host->service.Drain();
    const uint64_t tb = NowNanos();
    const std::vector<uint8_t> tree =
        dynamic_cast<ldp::protocol::AheadServer&>(target).BuildTree();
    const uint64_t pause0 = NowNanos();
    spans.Add("ahead.build_tree", tb, pause0);
    run->layers.build_tree_ms.push_back(Ms(pause0 - tb));
    // Untimed: phase-2 clients encode against the broadcast tree.
    if (!client.AbsorbTreeDescription(tree)) {
      run->outcome.Problem("phase-2 client rejected the tree broadcast");
      return;
    }
    Chunks phase2_chunks;
    for (uint64_t begin = 0, c = 0; begin < phase2.size();
         begin += kChunkReports, ++c) {
      Rng rng(Derive(opt.seed, r, kEncode, 1000000 + c));
      const uint64_t end =
          std::min<uint64_t>(phase2.size(), begin + kChunkReports);
      phase2_chunks.push_back(client.EncodePhase2UsersSerialized(
          phase2.subspan(begin, end - begin), rng));
    }
    const uint64_t pause1 = NowNanos();
    spans.Add("gen.phase2_encode_untimed", pause0, pause1);
    run->layers.encode_ns.Add(static_cast<double>(pause1 - pause0),
                              static_cast<double>(phase2.size()));
    ok = sender.Share(phase2_chunks, phase2.size(), kSessionChunks) && ok;
    ok = sender.AwaitAll() && ok;
    const uint64_t drain0 = NowNanos();
    host->service.Drain();
    const uint64_t stop = NowNanos();
    // The untimed encode ran on this generator thread, whose CPU the
    // server figure excludes anyway.
    const double server_cpu_ns = cpu.ServerNs();
    spans.Add("svc.drain", drain0, stop);
    spans.Add("ingest.window", t0, stop);
    const uint64_t window_ns = (stop - t0) - (pause1 - pause0);
    const double ingest_rate =
        static_cast<double>(kUsers) / (static_cast<double>(window_ns) / 1e9);
    RecordWindow(ingest, window_ns, kUsers, stop - drain0, server_cpu_ns,
                 &run->layers);

    Rng qrng(Derive(opt.seed, r, kQueries));
    uint64_t query_id = 0;
    QueryLog log;
    const double first_ms =
        FirstAnswer(query, &spans, sender.next_session_id++, id,
                    RandomQuery(qrng, query_id++, id, spec.domain, 1), stop,
                    &log);
    ClosedLoopQueries(query, id, spec.domain, 1, kQueriesPerRound, qrng,
                      &query_id, &log);
    const double steal = StealFrac(ticks0, ReadCpuTicks());
    ok = ingest.Finish() && ok;

    Expect expect;
    expect.messages = ingest.messages + query.messages;
    expect.sessions = ingest.sessions + 1;
    expect.finalizes = 1;
    expect.reports = {{id, kUsers}};
    StatsResponse scrape;
    ScrapeRound(*host, expect, id, run, &scrape);
    RecordSnapshot(host->service.server(id), &run->layers);
    Outcome& out = run->outcome;
    out.attempted += kUsers + expect.sessions + log.queries;
    out.failed += ingest.failures + query.failures + log.failures;
    if (!ok) out.Problem("ingest send failed");

    // Rebuild: phase 1, the same tree, phase 2.
    Layers& l = run->layers;
    host.reset();
    CheckInChild(&l, &out, [&](Layers* cl, Outcome* o) {
      ldp::protocol::AheadServer ref(spec.domain, spec.fanout, spec.eps);
      uint64_t t1 = NowNanos();
      for (const auto& chunk : phase1_chunks) ref.AbsorbBatchSerialized(chunk);
      if (ref.BuildTree() != tree) {
        o->Problem("rebuilt AHEAD tree differs from the hosted one");
      }
      for (const auto& chunk : phase2_chunks) ref.AbsorbBatchSerialized(chunk);
      cl->absorb_ns.Add(static_cast<double>(NowNanos() - t1), kUsers);
      t1 = NowNanos();
      ref.Finalize();
      cl->finalize_ms.push_back(Ms(NowNanos() - t1));
      // Phase 2 alone estimates the distribution: its users are the truth.
      Truth truth(spec.domain, 1);
      truth.Add(phase2);
      truth.Finish();
      Verify(log, ref, truth, 1.0, cl, o);
    });
    if (r == 0) continue;
    RecordPaths(spans, &l);
    run->Round({trace.on(), {ingest_rate}, first_ms, setup_s, steal,
                std::move(log.latency_us)});
  }
}

// ---------------------------------------------------------------------
// fan_in_tree: distributed fan-in. Two forked shard processes, each an
// inline service fed over one connection, ingest their half of a TreeHRR
// (B=4, D=2^20) population from a shared start barrier, drain, serialize
// their state and push it, without the finalize flag, to this process's
// merge plane. The ingest clock runs from the first shard's first byte to
// the last kOk merge ack; then the query node takes a finalize session.

constexpr unsigned kShards = 2;
constexpr uint64_t kFanInUsers = 4000000;  // per round, over all shards

ServerSpec FanInSpec() {
  ServerSpec spec;
  spec.kind = ServerKind::kTree;
  spec.domain = uint64_t{1} << 20;
  spec.fanout = 4;
  spec.eps = kEps;
  return spec;
}

std::vector<uint64_t> ShardValues(uint64_t seed, int round, unsigned shard) {
  return DrawValues(kFanInUsers / kShards, FanInSpec().domain,
                    Derive(seed, round, kValues, shard + 1));
}

Chunks ShardChunks(uint64_t seed, int round, unsigned shard,
                   std::span<const uint64_t> values) {
  return EncodeShare(FanInSpec(), values,
                     Derive(seed, round, kEncode, shard + 1));
}

// One shard process: serves rounds on command until EXIT (or until the
// parent goes away). Each DONE line carries the shard's timestamps
// (CLOCK_MONOTONIC, comparable across processes) and layer figures.
int ShardMain(const Options& opt, unsigned shard, FILE* cmd, FILE* result) {
  const ServerSpec spec = FanInSpec();
  std::string line;
  while (ReadLine(cmd, &line)) {
    if (line.rfind("EXIT", 0) == 0) {
      if (opt.trace) {
        ldp::obs::WriteChromeTraceJson(opt.out_dir +
                                       "/trace-fan_in_tree-shard" +
                                       std::to_string(shard) + ".json");
      }
      std::fprintf(result, "BYE rss_kb=%ld\n", PeakRssKb());
      std::fflush(result);
      return 0;
    }
    int round = 0;
    unsigned port = 0, traced = 0;
    if (std::sscanf(line.c_str(), "ROUND %d %u %u", &round, &port, &traced) !=
        3) {
      return 1;
    }
    ReleaseFreedMemory();
    if (traced != 0) ldp::obs::StartTracing();
    Spans spans;
    spans.on = traced != 0;
    const std::vector<uint64_t> values = ShardValues(opt.seed, round, shard);
    uint64_t t = NowNanos();
    const Chunks share = ShardChunks(opt.seed, round, shard, values);
    const uint64_t encode_ns = NowNanos() - t;
    bool ok = true;
    {
      Host host(0);
      const uint64_t id = host.Add(spec);
      Conn ingest(&spans);
      TcpClient push;
      ok = host.Start() && ingest.Open(host.port()) &&
           push.Connect("127.0.0.1", static_cast<uint16_t>(port));
      std::fprintf(result, "READY ok=%d encode_ns=%llu reports=%zu\n",
                   ok ? 1 : 0, static_cast<unsigned long long>(encode_ns),
                   values.size());
      std::fflush(result);
      if (!ReadLine(cmd, &line) || line.rfind("GO", 0) != 0) return 1;

      const CpuWindow cpu;
      const uint64_t first = NowNanos();
      Sender sender(ingest, host.service.server(id), id, kInFlight, &spans);
      ok = ok && sender.Share(share, values.size(), kSessionChunks) &&
           sender.AwaitAll();
      const uint64_t drain0 = NowNanos();
      host.service.Drain();
      const uint64_t drained = NowNanos();
      const std::vector<uint8_t> snapshot =
          host.service.server(id).SerializeState();
      const uint64_t serialized = NowNanos();
      ldp::net::SnapshotPushOptions push_options;
      push_options.receive_timeout_ms = 60000;
      push_options.jitter_seed = Derive(opt.seed, round, kTiming, shard + 1);
      const ldp::net::SnapshotPushResult pushed = ldp::net::PushStateSnapshot(
          push, /*merge_id=*/static_cast<uint64_t>(round) + 1,
          /*server_id=*/0, shard, kShards, /*flags=*/0, snapshot,
          push_options);
      const uint64_t ack = NowNanos();
      const double server_cpu_ns = cpu.ServerNs();
      ok = ingest.Finish() && ok;
      spans.Add("svc.drain", drain0, drained);
      spans.Add("svc.snapshot_serialize", drained, serialized);
      spans.Add("net.snapshot_push", serialized, ack);
      spans.Add("ingest.window", first, ack);
      ok = ok && pushed.ok;

      // Shard-local reconciliation: everything sent was routed and
      // absorbed, nothing rejected.
      const ldp::service::ServiceStats stats = host.service.stats();
      const AggregatorServer& server = host.service.server(id);
      const bool clean =
          host.front->stats().messages_routed == ingest.messages &&
          server.accepted_reports() == values.size() &&
          server.rejected_reports() == 0 && stats.malformed_messages == 0 &&
          stats.incomplete_streams == 0 && stats.rejected_sessions == 0 &&
          stats.chunks_enqueued == stats.chunks_absorbed;
      PathBreakdown path;
      AddPath(spans.records, "ingest.window", &path);
      std::fprintf(
          result,
          "DONE ok=%d clean=%d first=%llu ack=%llu reports=%zu sessions=%llu "
          "frames=%llu frame_ns=%llu send_ns=%llu bytes=%llu drain_ns=%llu "
          "serialize_ns=%llu push_ns=%llu snapshot_bytes=%zu retries=%u "
          "server_cpu_ns=%.0f failures=%llu path_window_ms=%.6f "
          "path_unaccounted_ms=%.6f",
          ok ? 1 : 0, clean ? 1 : 0, static_cast<unsigned long long>(first),
          static_cast<unsigned long long>(ack), values.size(),
          static_cast<unsigned long long>(ingest.sessions),
          static_cast<unsigned long long>(ingest.frames),
          static_cast<unsigned long long>(ingest.frame_ns),
          static_cast<unsigned long long>(ingest.send_ns),
          static_cast<unsigned long long>(ingest.bytes),
          static_cast<unsigned long long>(drained - drain0),
          static_cast<unsigned long long>(serialized - drained),
          static_cast<unsigned long long>(ack - serialized), snapshot.size(),
          pushed.retries, server_cpu_ns,
          static_cast<unsigned long long>(ingest.failures), path.window_ms,
          path.unaccounted_ms);
      for (const auto& [name, ms] : path.self_ms) {
        std::fprintf(result, " self.%s=%.6f", name.c_str(), ms);
      }
      std::fprintf(result, "\n");
      std::fflush(result);
    }
    if (traced != 0) ldp::obs::StopTracing();
  }
  return 1;
}

struct ShardLink {
  pid_t pid = -1;
  FILE* cmd = nullptr;
  FILE* result = nullptr;
};

// Tells every shard to exit, collects their peak RSS and reaps them.
void StopShards(std::vector<ShardLink>& shards, Run* run) {
  for (ShardLink& link : shards) {
    if (link.cmd != nullptr) {
      std::fprintf(link.cmd, "EXIT\n");
      std::fclose(link.cmd);  // EOF also ends a shard mid-round
    }
    std::string line;
    if (link.result != nullptr) {
      if (ReadLine(link.result, &line) && line.rfind("BYE", 0) == 0) {
        run->extra_rss_kb += static_cast<long>(KvNum(ParseKv(line), "rss_kb"));
      } else {
        run->outcome.Problem("a shard did not exit cleanly");
      }
      std::fclose(link.result);
    }
    int status = 0;
    if (link.pid > 0) waitpid(link.pid, &status, 0);
  }
}

void RunFanInTree(Run* run) {
  const Options& opt = run->opt;
  // Fork before this process starts any thread: fork() copies only the
  // calling thread.
  std::vector<ShardLink> shards;
  for (unsigned s = 0; s < kShards; ++s) {
    int cmd_pipe[2], result_pipe[2];
    if (pipe(cmd_pipe) != 0 || pipe(result_pipe) != 0) {
      run->outcome.Problem("pipe failed");
      StopShards(shards, run);
      return;
    }
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
      run->outcome.Problem("fork failed");
      StopShards(shards, run);
      return;
    }
    if (pid == 0) {
      close(cmd_pipe[1]);
      close(result_pipe[0]);
      for (ShardLink& link : shards) {
        std::fclose(link.cmd);
        std::fclose(link.result);
      }
      FILE* cmd = fdopen(cmd_pipe[0], "r");
      FILE* result = fdopen(result_pipe[1], "w");
      _exit(ShardMain(opt, s, cmd, result));
    }
    close(cmd_pipe[0]);
    close(result_pipe[1]);
    shards.push_back(
        {pid, fdopen(cmd_pipe[1], "w"), fdopen(result_pipe[0], "r")});
  }

  const ServerSpec spec = FanInSpec();
  constexpr int kMinRounds = 11;  // the first warms up
  constexpr int kMaxRounds = 200;
  constexpr uint64_t kQueriesPerRound = 500;
  run->SetText("mechanism", "tree");
  run->Set("domain", static_cast<double>(spec.domain));
  run->Set("fanout", static_cast<double>(spec.fanout));
  run->Set("eps", spec.eps);
  run->Set("users_per_round", kFanInUsers);
  run->Set("shards", kShards);
  run->Set("chunk_reports", kChunkReports);
  run->Set("workers", 0);
  run->Set("data_connections", kShards);
  run->Set("generator_threads", 1);
  run->Set("min_rounds", kMinRounds - 1);
  run->Set("warmup_rounds", 1);
  run->SetText("rounds_rule", "repeat until --seconds elapsed");
  run->SetText("query_mode", "closed-loop range queries");

  const uint64_t run_start = NowNanos();
  for (int r = 0; MoreRounds(opt, run_start, r, kMinRounds, kMaxRounds); ++r) {
    ReleaseFreedMemory();
    RoundTrace trace(opt, r - 1);
    Spans spans;
    spans.on = trace.on();
    const uint64_t round_start = NowNanos();
    const CpuTicks ticks0 = ReadCpuTicks();
    auto host = std::make_unique<Host>(0);
    const uint64_t id = host->Add(spec);
    Conn query(&spans);
    if (!host->Start() || !query.Open(host->port())) {
      run->outcome.Problem("query node start or connect failed");
      break;
    }
    for (ShardLink& link : shards) {
      std::fprintf(link.cmd, "ROUND %d %u %d\n", r,
                   static_cast<unsigned>(host->port()), trace.on() ? 1 : 0);
      std::fflush(link.cmd);
    }
    std::string line;
    bool ok = true;
    for (ShardLink& link : shards) {
      if (!ReadLine(link.result, &line) || line.rfind("READY", 0) != 0) {
        ok = false;
        continue;
      }
      const auto kv = ParseKv(line);
      ok = ok && KvNum(kv, "ok") == 1.0;
      run->layers.encode_ns.Add(KvNum(kv, "encode_ns"), KvNum(kv, "reports"));
    }
    if (!ok) {
      run->outcome.Problem("a shard failed its setup");
      break;
    }
    const uint64_t go = NowNanos();
    const double setup_s = static_cast<double>(go - round_start) / 1e9;
    const CpuWindow cpu;
    for (ShardLink& link : shards) {
      std::fprintf(link.cmd, "GO\n");
      std::fflush(link.cmd);
    }
    std::vector<std::map<std::string, std::string>> done;
    for (ShardLink& link : shards) {
      if (!ReadLine(link.result, &line) || line.rfind("DONE", 0) != 0) {
        ok = false;
        continue;
      }
      done.push_back(ParseKv(line));
    }
    const double query_node_cpu_ns = cpu.ServerNs();
    if (!ok) {
      run->outcome.Problem("a shard died mid-round");
      break;
    }
    uint64_t start = UINT64_MAX, stop = 0;
    uint64_t reports = 0, retries = 0, sessions = 0;
    size_t last = 0;
    Layers& l = run->layers;
    Outcome& out = run->outcome;
    for (size_t s = 0; s < done.size(); ++s) {
      const auto& kv = done[s];
      if (KvNum(kv, "ok") != 1.0) out.Problem("shard ingest or push failed");
      if (KvNum(kv, "clean") != 1.0) out.Problem("shard reconciliation failed");
      const uint64_t first = std::stoull(kv.at("first"));
      const uint64_t ack = std::stoull(kv.at("ack"));
      start = std::min(start, first);
      if (ack > stop) {
        stop = ack;
        last = s;
      }
      reports += static_cast<uint64_t>(KvNum(kv, "reports"));
      retries += static_cast<uint64_t>(KvNum(kv, "retries"));
      sessions += static_cast<uint64_t>(KvNum(kv, "sessions"));
      out.failed += static_cast<uint64_t>(KvNum(kv, "failures"));
      l.frame_ns.Add(KvNum(kv, "frame_ns"), KvNum(kv, "frames"));
      l.send_busy.Add(KvNum(kv, "send_ns"), static_cast<double>(ack - first));
      l.bytes.Add(KvNum(kv, "bytes"), KvNum(kv, "reports"));
      l.drain_ms.push_back(KvNum(kv, "drain_ns") / 1e6);
      l.serialize_ms.push_back(KvNum(kv, "serialize_ns") / 1e6);
      l.push_ms.push_back(KvNum(kv, "push_ns") / 1e6);
      l.snapshot_bytes.push_back(KvNum(kv, "snapshot_bytes"));
      l.server_cpu.Add(KvNum(kv, "server_cpu_ns"), 0.0);
      l.sessions.Add(KvNum(kv, "sessions"), 0.0);
    }
    l.server_cpu.Add(query_node_cpu_ns, static_cast<double>(reports));
    l.sessions.Add(0.0, static_cast<double>(stop - start) / 1e9);
    if (spans.on) {
      // The blocking path is the shard whose ack came last.
      PathBreakdown path;
      path.window_ms = KvNum(done[last], "path_window_ms");
      path.unaccounted_ms = KvNum(done[last], "path_unaccounted_ms");
      for (const auto& [key, value] : done[last]) {
        if (key.rfind("self.", 0) == 0) {
          path.self_ms[key.substr(5)] = std::strtod(value.c_str(), nullptr);
        }
      }
      l.ingest_path.Merge(path);
    }
    const double ingest_rate = static_cast<double>(reports) /
                               (static_cast<double>(stop - start) / 1e9);

    Rng qrng(Derive(opt.seed, r, kQueries));
    uint64_t query_id = 0;
    QueryLog log;
    const double first_ms =
        FirstAnswer(query, &spans, 1, id,
                    RandomQuery(qrng, query_id++, id, spec.domain, 1), stop,
                    &log);
    ClosedLoopQueries(query, id, spec.domain, 1, kQueriesPerRound, qrng,
                      &query_id, &log);
    const double steal = StealFrac(ticks0, ReadCpuTicks());

    Expect expect;
    expect.messages = query.messages + kShards + retries;
    expect.sessions = 1;
    expect.finalizes = 1;
    expect.reports = {{id, reports}};
    expect.shards = kShards;
    expect.retries = retries;
    StatsResponse scrape;
    ScrapeRound(*host, expect, id, run, &scrape);
    out.attempted += reports + sessions + 1 + kShards + log.queries;
    out.failed += query.failures + log.failures;

    // Rebuild the union from regenerated shard chunks (encoded on one
    // thread per shard), absorbed into one server -- no snapshot, wire or
    // merge code on this path.
    host.reset();
    CheckInChild(&l, &out, [&](Layers* cl, Outcome* o) {
      std::vector<std::vector<uint64_t>> values(kShards);
      std::vector<Chunks> chunks(kShards);
      {
        std::vector<std::thread> encoders;
        for (unsigned s = 0; s < kShards; ++s) {
          encoders.emplace_back([&, s] {
            values[s] = ShardValues(opt.seed, r, s);
            chunks[s] = ShardChunks(opt.seed, r, s, values[s]);
          });
        }
        for (std::thread& th : encoders) th.join();
      }
      std::unique_ptr<AggregatorServer> ref =
          ldp::service::MakeAggregatorServer(spec);
      Truth truth(spec.domain, 1);
      uint64_t t = NowNanos();
      for (unsigned s = 0; s < kShards; ++s) {
        for (const auto& chunk : chunks[s]) ref->AbsorbBatchSerialized(chunk);
      }
      cl->absorb_ns.Add(static_cast<double>(NowNanos() - t),
                        static_cast<double>(kFanInUsers));
      for (unsigned s = 0; s < kShards; ++s) truth.Add(values[s]);
      chunks.clear();
      values.clear();
      t = NowNanos();
      ref->Finalize();
      cl->finalize_ms.push_back(Ms(NowNanos() - t));
      truth.Finish();
      Verify(log, *ref, truth, 1.0, cl, o);
    });

    if (r == 0) continue;
    RecordPaths(spans, &l);
    run->Round({trace.on(), {ingest_rate}, first_ms, setup_s, steal,
                std::move(log.latency_us)});
  }
  StopShards(shards, run);
}

// ---------------------------------------------------------------------
// Output.

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return out + "\"";
}

using Fields = std::vector<std::pair<std::string, std::string>>;

std::string Object(const Fields& fields) {
  std::string out = "{";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(fields[i].first) + ": " + fields[i].second;
  }
  return out + "}";
}

std::string Array(const std::vector<double>& xs) {
  std::string out = "[";
  for (size_t i = 0; i < xs.size(); ++i) {
    out += (i > 0 ? ", " : "") + Num(xs[i]);
  }
  return out + "]";
}

std::string PathJson(const PathBreakdown& path) {
  Fields self;
  for (const auto& [name, ms] : path.self_ms) self.emplace_back(name, Num(ms));
  return Object({{"window_ms", Num(path.window_ms)},
                 {"self_ms", Object(self)},
                 {"unaccounted_ms", Num(path.unaccounted_ms)}});
}

// Relative slowdown of traced rounds against untraced ones in the same
// run (positive = tracing cost); 0 without both kinds of rounds.
double Overhead(const std::vector<double>& traced,
                const std::vector<double>& untraced, bool higher_is_better) {
  if (traced.empty() || untraced.empty()) return 0.0;
  const double t = Median(traced), u = Median(untraced);
  if (t <= 0.0 || u <= 0.0) return 0.0;
  return higher_is_better ? u / t - 1.0 : t / u - 1.0;
}

// The rounds a run's figures come from: of its untraced (or traced)
// rounds, those with no more stolen CPU time than their median. While the
// hypervisor runs other guests on the machine's CPUs, every figure of a
// round slows with it, by more than the stolen share when a pipeline
// stage or a ParallelFor slice waits for a descheduled CPU (README.md,
// "Noise"). A run without stolen time keeps every round.
struct Kept {
  std::vector<double> ingest, first_ms, setup_s, query_us;
  size_t rounds = 0;
};

Kept KeepSteadiest(const std::vector<RoundFigures>& rounds, bool traced) {
  std::vector<double> steal;
  for (const RoundFigures& r : rounds) {
    if (r.traced == traced) steal.push_back(r.steal);
  }
  const double limit = Median(steal);
  Kept kept;
  for (const RoundFigures& r : rounds) {
    if (r.traced != traced || r.steal > limit) continue;
    ++kept.rounds;
    kept.ingest.insert(kept.ingest.end(), r.ingest.begin(), r.ingest.end());
    kept.first_ms.push_back(r.first_ms);
    kept.setup_s.push_back(r.setup_s);
    kept.query_us.insert(kept.query_us.end(), r.query_us.begin(),
                         r.query_us.end());
  }
  return kept;
}

void Emit(const Run& run) {
  const Layers& l = run.layers;
  const Outcome& out = run.outcome;
  const Kept kept = KeepSteadiest(run.rounds, false);
  const Kept kept_traced = KeepSteadiest(run.rounds, true);
  const double q50 = Percentile(kept.query_us, 0.50);
  const double q99 = Percentile(kept.query_us, 0.99);
  const double rss_mb =
      static_cast<double>(PeakRssKb() + run.extra_rss_kb) / 1024.0;
  auto us = [](const HistogramSnapshot& h, double q) {
    return static_cast<double>(h.Quantile(q)) / 1e3;
  };
  auto ms = [](const HistogramSnapshot& h) {
    return static_cast<double>(h.Quantile(0.5)) / 1e6;
  };
  const double service_query_p50 = us(l.service_query, 0.50);
  // Medians: a round or window the host interrupted for milliseconds
  // reads many times slower, which moves a mean far and a median not at
  // all (README.md, "Noise").
  const Fields e2e = {
      {"ingest_reports_per_s", Num(Median(kept.ingest))},
      {"first_answer_ms", Num(Median(kept.first_ms))},
      {"query_p50_us", Num(q50)},
      {"setup_s", Num(Median(kept.setup_s))},
      {"peak_rss_mb", Num(rss_mb)},
  };
  const Fields per_layer = {
      {"query_p99_us", Num(q99)},
      {"failed_frac",
       Num(out.attempted > 0 ? static_cast<double>(out.failed) /
                                   static_cast<double>(out.attempted)
                             : 0.0)},
      {"protocol.encode_ns_per_report", Num(l.encode_ns.Ratio())},
      {"protocol.frame_ns_per_message", Num(l.frame_ns.Ratio())},
      {"protocol.absorb_ns_per_report", Num(l.absorb_ns.Ratio())},
      {"protocol.finalize_ms", Num(Median(l.finalize_ms))},
      {"protocol.ahead_build_tree_ms", Num(Median(l.build_tree_ms))},
      {"protocol.query_ns", Num(l.query_ns.Ratio())},
      {"net.send_busy_frac", Num(l.send_busy.Ratio())},
      {"net.bytes_per_report", Num(l.bytes.Ratio())},
      {"net.query_overhead_us.p50", Num(q50 - service_query_p50)},
      {"service.absorb_batch_us.p50", Num(us(l.absorb_batch, 0.50))},
      {"service.absorb_batch_us.p99", Num(us(l.absorb_batch, 0.99))},
      {"service.absorb_batches",
       Num(static_cast<double>(l.absorb_batch.count))},
      {"service.drain_ms", Num(Median(l.drain_ms))},
      {"service.finalize_ms", Num(ms(l.service_finalize))},
      {"core.olh_support_scan_ms", Num(Median(l.olh_scan_ms))},
      {"service.query_us.p50", Num(service_query_p50)},
      {"service.query_us.p99", Num(us(l.service_query, 0.99))},
      {"service.sessions_per_s", Num(l.sessions.Ratio())},
      {"service.snapshot_serialize_ms", Num(Median(l.serialize_ms))},
      {"service.snapshot_bytes", Num(Median(l.snapshot_bytes))},
      {"net.snapshot_push_ms", Num(Median(l.push_ms))},
      {"service.merge_restore_ms", Num(ms(l.merge_restore))},
      {"service.merge_reduce_ms", Num(ms(l.merge_reduce))},
      {"process.server_cpu_ns_per_report", Num(l.server_cpu.Ratio())},
      {"obs.scrape_us", Num(Median(l.scrape_us))},
      {"obs.tracing_overhead_frac.ingest",
       Num(Overhead(kept_traced.ingest, kept.ingest, true))},
      {"obs.tracing_overhead_frac.first_answer",
       Num(Overhead(kept_traced.first_ms, kept.first_ms, false))},
      {"trace.unaccounted_frac",
       Num(l.ingest_path.window_ms > 0.0
               ? l.ingest_path.unaccounted_ms / l.ingest_path.window_ms
               : 0.0)},
  };
  // Every measured round, in order (ingest: the median of its windows).
  std::vector<double> traced, ingest, first_ms, setup_s, steal;
  for (const RoundFigures& r : run.rounds) {
    traced.push_back(r.traced ? 1.0 : 0.0);
    ingest.push_back(Median(r.ingest));
    first_ms.push_back(r.first_ms);
    setup_s.push_back(r.setup_s);
    steal.push_back(r.steal);
  }
  const Fields samples = {
      {"rounds", Num(static_cast<double>(run.rounds.size()))},
      {"kept_rounds", Num(static_cast<double>(kept.rounds))},
      {"traced", Array(traced)},
      {"ingest_reports_per_s", Array(ingest)},
      {"first_answer_ms", Array(first_ms)},
      {"setup_s", Array(setup_s)},
      {"steal_frac", Array(steal)},
      {"query_samples", Num(static_cast<double>(kept.query_us.size()))},
  };
  std::string problems = "[";
  for (size_t i = 0; i < out.problems.size(); ++i) {
    problems += (i > 0 ? ", " : "") + Quote(out.problems[i]);
  }
  problems += "]";
  // Any failed operation fails the run: failures are held at zero, not
  // bounded like the timings.
  const bool correct = out.problems.empty() && out.failed == 0 &&
                       out.byte_mismatches == 0 &&
                       out.accuracy_violations == 0 &&
                       out.answers_checked > 0 && kept.rounds > 0;
  const Fields checks = {
      {"answers_checked", Num(static_cast<double>(out.answers_checked))},
      {"byte_mismatches", Num(static_cast<double>(out.byte_mismatches))},
      {"accuracy_violations",
       Num(static_cast<double>(out.accuracy_violations))},
      {"max_abs_z", Num(out.max_z)},
      {"problems", problems},
  };
  const Fields result = {
      {"workload", Quote(run.opt.workload)},
      {"seed", Num(static_cast<double>(run.opt.seed))},
      {"seconds", Num(run.opt.seconds)},
      {"trace", run.opt.trace ? "1" : "0"},
      {"config", Object(run.config)},
      {"end_to_end", Object(e2e)},
      {"per_layer", Object(per_layer)},
      {"blocking_path", Object({{"ingest", PathJson(l.ingest_path)},
                                {"first_answer",
                                 PathJson(l.first_answer_path)}})},
      {"samples", Object(samples)},
      {"checks", Object(checks)},
      {"attempted", Num(static_cast<double>(out.attempted))},
      {"failed", Num(static_cast<double>(out.failed))},
      {"correct", correct ? "true" : "false"},
  };
  std::printf("%s\n", Object(result).c_str());
  std::fflush(stdout);
}

bool ParseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "workload") {
      opt->workload = value;
    } else if (key == "seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "seconds") {
      opt->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "trace") {
      opt->trace = value != "0";
    } else if (key == "out-dir") {
      opt->out_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && (end == value.c_str() || *end != '\0')) {
      return false;
    }
  }
  return !opt->workload.empty() && opt->seconds > 0.0 && opt->seconds < 3600;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  if (!ParseOptions(argc, argv, &run.opt)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload=ingest_haar|grid_finalize|"
                 "fan_in_tree|ahead_two_phase --seed=N "
                 "--seconds=S [--trace=0|1] [--out-dir=DIR]\n");
    return 2;
  }
  // Pipe peers (fan-in shards) may exit first; report that as an error
  // instead of dying on SIGPIPE.
  signal(SIGPIPE, SIG_IGN);
  const std::string& w = run.opt.workload;
  if (w == "ingest_haar") {
    RunIngestHaar(&run);
  } else if (w == "grid_finalize") {
    RunGridFinalize(&run);
  } else if (w == "ahead_two_phase") {
    RunAheadTwoPhase(&run);
  } else if (w == "fan_in_tree") {
    RunFanInTree(&run);
  } else {
    std::fprintf(stderr, "e2e: unknown workload '%s'\n", w.c_str());
    return 2;
  }
  if (run.opt.trace) {
    const std::string path = run.opt.out_dir + "/trace-" + w + ".json";
    if (!ldp::obs::WriteChromeTraceJson(path)) {
      run.outcome.Problem("could not write " + path);
    }
  }
  Emit(run);
  return 0;
}
