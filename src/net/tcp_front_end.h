// TCP transport front-end for the aggregator service.
//
// TcpFrontEnd is the piece that finally puts AggregatorService on a
// socket: an epoll-based, single-event-loop TCP server that speaks the
// existing v2 envelope, unmodified, as its stream framing. The envelope
// header already carries an exact payload length, so a connection is
// just a concatenation of framed messages:
//
//   client                        TcpFrontEnd                 service
//   bytes --TCP--> [8-byte header | payload] split --------> HandleMessage
//          <-TCP-- [kRangeQueryResponse / kMultiDimQueryResponse] <- queries
//
// Stream messages (kStreamBegin/Chunk/End) are fire-and-forget exactly
// as in-process; query requests produce one framed response each, written
// back on the same connection in request order. Anything the service
// counts as malformed is counted and skipped — the connection survives,
// because framing only depends on the magic and length. Bytes that break
// the framing itself (bad magic, oversized declared length) are
// unrecoverable on a byte stream: the connection is closed and counted
// in stats().protocol_errors.
//
// Every message is handled on the event-loop thread, in place in the
// read buffer recv() wrote (with no zero-fill first): the service absorbs
// each chunk inline, inside HandleMessage, so the loop reads no more
// bytes while it absorbs. A readiness event reads at most 1 MiB from one
// connection before routing it, so a sender that outpaces the absorb
// waits in its own socket buffers (TCP flow control), not in the read
// buffer, and a query on another connection waits for at most that much
// absorb.
//
// Fan-in snapshots skip the read buffer. A kStateMerge frame of at least
// one 64 KiB read chunk is offered to the service as soon as its head
// has arrived (AggregatorService::OpenStateIntake). When the push passes
// admission on that head, the service creates the restored clone at
// once, and the connection then recv()s the rest of the frame straight
// into the clone's arrays — the receive is the decode, with no frame
// buffer and no restore copy. The ack is queued in request order when
// the frame's last byte lands. A refused intake (AHEAD and grid
// snapshots, a body length its target's configuration cannot produce,
// any admission failure) leaves the frame on the buffered path. An open
// intake that receives no byte for idle_timeout_ms (kIntakeStallMs when
// that is 0) is closed and counted in net.intake_timeouts; any close
// frees its clone and rolls its reservation back.
//
// Connection lifecycle: accepted connections are non-blocking and live
// until (a) the peer closes or half-closes — remaining complete messages
// are processed and pending responses flushed before the close
// (graceful, so "send session + shutdown(SHUT_WR)" is a correct client),
// (b) they sit idle past config.idle_timeout_ms, or (c) a framing
// violation. Everything runs on one event-loop thread; the only
// cross-thread touch point is Stop() (an eventfd wakeup).
//
// One front-end serves one AggregatorService, which must outlive it.

#ifndef LDPRANGE_NET_TCP_FRONT_END_H_
#define LDPRANGE_NET_TCP_FRONT_END_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "service/aggregator_service.h"

namespace ldp::net {

/// No-progress deadline of an open snapshot intake when
/// TcpFrontEndConfig::idle_timeout_ms is 0: an intake holds a restored
/// clone and a merge-buffer slot, so it may not wait forever.
inline constexpr int64_t kIntakeStallMs = 10'000;

struct TcpFrontEndConfig {
  /// Address to bind; the default serves loopback only (benches, tests,
  /// single-box deployments). "0.0.0.0" listens on all interfaces.
  std::string bind_address = "127.0.0.1";
  /// Port to bind; 0 picks an ephemeral port, published via port().
  uint16_t port = 0;
  int listen_backlog = 256;
  /// Upper bound on one framed message (header + payload). The envelope
  /// field allows 4 GiB; no real chunk or query comes within a mile of
  /// 64 MiB, so anything larger is treated as a framing attack.
  uint32_t max_message_bytes = uint32_t{1} << 26;
  /// Connections idle longer than this are closed (0 disables). It is
  /// also the no-progress deadline of an open snapshot intake
  /// (kIntakeStallMs when 0).
  int64_t idle_timeout_ms = 0;
  /// Accept cap; connections past it are closed immediately on accept.
  size_t max_connections = 16384;
};

/// Front-end counters. Monotonic over the front-end's lifetime; read via
/// stats() from any thread.
struct TcpFrontEndStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;   // every close, whatever the reason
  uint64_t connections_rejected = 0;  // past config.max_connections
  uint64_t idle_closes = 0;
  uint64_t protocol_errors = 0;  // framing violations (connection killed)
  uint64_t messages_routed = 0;  // complete messages handed to the service
  uint64_t responses_sent = 0;   // query responses queued for write
  uint64_t bytes_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t snapshot_intakes = 0;  // pushes received straight into a clone
  uint64_t intake_timeouts = 0;   // intakes closed by their deadline
};

class TcpFrontEnd {
 public:
  /// Binds nothing yet; call Start(). `service` must outlive this object.
  explicit TcpFrontEnd(service::AggregatorService& service,
                       TcpFrontEndConfig config = {});
  ~TcpFrontEnd();

  TcpFrontEnd(const TcpFrontEnd&) = delete;
  TcpFrontEnd& operator=(const TcpFrontEnd&) = delete;

  /// Binds, listens and spawns the event loop. False (with errno intact)
  /// when the socket setup fails; a started front-end must be Stop()ped
  /// (the destructor does).
  bool Start();

  /// Wakes the loop, closes every connection and joins the thread.
  /// Idempotent.
  void Stop();

  bool running() const { return running_; }

  /// The bound port — the ephemeral one when config.port was 0. Valid
  /// after a successful Start().
  uint16_t port() const { return port_; }

  TcpFrontEndStats stats() const;

 private:
  // An allocator whose value-less construct() default-initializes, so
  // resize() leaves the new bytes unwritten for recv() to fill (copies
  // still construct through std::construct_at).
  template <typename T>
  struct DefaultInitAllocator : std::allocator<T> {
    template <typename U>
    void construct(U* p) {
      ::new (static_cast<void*>(p)) U;
    }
  };
  using ReadBuffer = std::vector<uint8_t, DefaultInitAllocator<uint8_t>>;

  struct Connection {
    int fd = -1;
    // Unparsed inbound bytes; [read_pos, size) is live, the consumed
    // prefix is compacted away once it outgrows the live tail. Complete
    // frames are routed where they lie; the service reads them only
    // during HandleMessage.
    ReadBuffer read_buf;
    size_t read_pos = 0;
    // Outbound: FIFO of framed responses, write_pos into the front one.
    std::deque<std::vector<uint8_t>> write_queue;
    size_t write_pos = 0;
    bool want_write = false;  // EPOLLOUT currently armed
    // Whether the fd is registered with epoll at all. An EOF'd connection
    // with nothing to write is deregistered outright: with a zero event
    // mask the kernel would still report EPOLLHUP every round and spin
    // the loop.
    bool in_epoll = true;
    bool peer_eof = false;  // read side done; close once drained+flushed
    // Open snapshot intake of the frame at the front of the stream: while
    // set, reads land in its windows, not in read_buf.
    std::unique_ptr<service::AggregatorService::StateIntake> intake;
    // The large frame at read_pos was refused an intake: it is assembled
    // in read_buf (the buffered path).
    bool frame_declined = false;
    // The read that completed the header of the large frame at the front
    // of the stream (0: none pending), for net.frame_assembly_ns.
    uint64_t frame_start_ns = 0;
    uint64_t last_read_ns = 0;      // obs::NowNanos() of the latest recv
    uint64_t last_activity_ns = 0;  // the idle and intake-stall clock
  };

  enum class ReadResult : uint8_t {
    kDrained,     // this event's read is over: the socket has nothing
                  // more right now, hit EOF, or the read budget is spent
    kLargeFrame,  // a full read put a large frame's header at the front
    kLanded,      // an intake's last byte landed; the stream reads on
    kClosed,      // the connection was closed
  };

  void EventLoop();
  void AcceptReady();
  void HandleReadable(Connection& conn);
  /// recv()s into read_buf, 64 KiB at a time, until the socket drains,
  /// a full read leaves a large frame's header at the front of the
  /// buffer (one 8-byte header peek per full read), or 1 MiB has landed
  /// in this call.
  ReadResult ReceiveBuffered(Connection& conn);
  /// recv()s into the open intake's windows until the socket drains or
  /// the frame completes (then lands it). EOF mid-body is a protocol
  /// error.
  ReadResult ReceiveIntake(Connection& conn);
  /// Counts `n` received bytes and stamps the read.
  void NoteRead(Connection& conn, size_t n);
  /// Offers the large, incomplete frame at read_pos to the service as a
  /// snapshot intake once its head has arrived; on success every
  /// buffered byte has landed in the clone.
  void TryOpenIntake(Connection& conn, size_t available, uint64_t total);
  /// Lands the completed intake and queues its ack. Returns false when
  /// the connection was closed.
  bool FinishIntake(Connection& conn);
  /// Records net.frame_assembly_ns for the large frame just completed.
  void RecordFrameAssembly(Connection& conn);
  void HandleWritable(Connection& conn);
  /// Parses and routes every complete message in the read buffer.
  /// Returns false when the connection was closed (a framing violation,
  /// or a failed response write).
  bool DrainReadBuffer(Connection& conn);
  /// Routes one complete message and queues its response. Returns false
  /// when the connection was closed.
  bool RouteMessage(Connection& conn, std::span<const uint8_t> message);
  /// Queues `response` and flushes what the socket takes now. A failed
  /// write closes — and destroys — the connection.
  void QueueResponse(Connection& conn, std::vector<uint8_t> response);
  void FlushWrites(Connection& conn);
  void UpdateEpoll(Connection& conn, bool want_read);
  void CloseConnection(int fd);
  /// Closes `conn` if it is fully done: peer EOF, nothing buffered,
  /// nothing pending, nothing left to write.
  void MaybeFinishClose(Connection& conn);
  void SweepIdle();

  service::AggregatorService& service_;
  const TcpFrontEndConfig config_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: Stop() wakes the loop
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::thread loop_;

  // Connection table: event-loop thread only.
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  // Connections with an open snapshot intake; while any is open the loop
  // ticks, so their deadline can fire.
  size_t open_intakes_ = 0;
  // Front-end counters, owned by the service's metrics registry under
  // "net.*" names so one stats scrape (kStatsQuery or stats()) sees
  // transport and service in a single snapshot. Counter addresses are
  // stable for the registry's — that is, the service's — lifetime.
  struct NetCounters {
    explicit NetCounters(obs::MetricsRegistry& registry);
    obs::Counter* connections_accepted;
    obs::Counter* connections_closed;
    obs::Counter* connections_rejected;
    obs::Counter* idle_closes;
    obs::Counter* protocol_errors;
    obs::Counter* messages_routed;
    obs::Counter* responses_sent;
    obs::Counter* bytes_received;
    obs::Counter* bytes_sent;
    obs::Counter* snapshot_intakes;
    obs::Counter* intake_timeouts;
    // Per inbound frame of at least one read chunk, intake or buffered:
    // from the read that completed its header to the read that completed
    // the frame.
    obs::LatencyHistogram* frame_assembly_ns;
  };
  NetCounters stats_{service_.registry()};
};

}  // namespace ldp::net

#endif  // LDPRANGE_NET_TCP_FRONT_END_H_
