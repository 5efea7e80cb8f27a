#include "net/tcp_front_end.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "common/check.h"
#include "obs/scoped_timer.h"
#include "obs/trace.h"
#include "protocol/envelope.h"
#include "service/state_wire.h"

namespace ldp::net {

namespace {

// Per-recv scratch size. Large enough that a bulk-streaming connection
// drains the kernel buffer in a few calls, small enough to live on the
// stack.
constexpr size_t kReadChunk = 64 * 1024;

// Bytes ReceiveBuffered reads from one connection per readiness event
// before it routes them. The loop absorbs chunks inline, so without a
// bound a sender that never waits keeps one connection reading and the
// loop then absorbs that whole backlog before it serves anyone else;
// with it, the other ready connections get their turn after at most one
// budget's absorb, and TCP flow control holds the sender. Level-triggered
// EPOLLIN reports the connection again while bytes remain.
constexpr size_t kReadBudget = size_t{1} << 20;

// Events processed per epoll_wait round.
constexpr int kMaxEvents = 64;

// With idle sweeping enabled, or an intake open, the loop must wake even
// when no fd fires.
constexpr int kIdleTickMs = 250;

void CloseFd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

// Header plus announced payload: the whole frame starting at `head`.
uint64_t FrameBytes(const uint8_t* head) {
  const uint32_t payload_len =
      static_cast<uint32_t>(head[4]) | (static_cast<uint32_t>(head[5]) << 8) |
      (static_cast<uint32_t>(head[6]) << 16) |
      (static_cast<uint32_t>(head[7]) << 24);
  return static_cast<uint64_t>(protocol::kEnvelopeHeaderSize) + payload_len;
}

}  // namespace

TcpFrontEnd::NetCounters::NetCounters(obs::MetricsRegistry& registry)
    : connections_accepted(&registry.GetCounter("net.connections_accepted")),
      connections_closed(&registry.GetCounter("net.connections_closed")),
      connections_rejected(&registry.GetCounter("net.connections_rejected")),
      idle_closes(&registry.GetCounter("net.idle_closes")),
      protocol_errors(&registry.GetCounter("net.protocol_errors")),
      messages_routed(&registry.GetCounter("net.messages_routed")),
      responses_sent(&registry.GetCounter("net.responses_sent")),
      bytes_received(&registry.GetCounter("net.bytes_received")),
      bytes_sent(&registry.GetCounter("net.bytes_sent")),
      snapshot_intakes(&registry.GetCounter("net.snapshot_intakes")),
      intake_timeouts(&registry.GetCounter("net.intake_timeouts")),
      frame_assembly_ns(&registry.GetHistogram("net.frame_assembly_ns")) {}

TcpFrontEnd::TcpFrontEnd(service::AggregatorService& service,
                         TcpFrontEndConfig config)
    : service_(service), config_(std::move(config)) {}

TcpFrontEnd::~TcpFrontEnd() { Stop(); }

bool TcpFrontEnd::Start() {
  LDP_CHECK(!running_.load());
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return false;
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    CloseFd(listen_fd_);
    errno = EINVAL;
    return false;
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, config_.listen_backlog) < 0) {
    CloseFd(listen_fd_);
    return false;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) < 0) {
    CloseFd(listen_fd_);
    return false;
  }
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    CloseFd(listen_fd_);
    CloseFd(epoll_fd_);
    CloseFd(wake_fd_);
    return false;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  LDP_CHECK_EQ(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev), 0);
  ev.data.fd = wake_fd_;
  LDP_CHECK_EQ(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev), 0);

  stop_requested_.store(false);
  running_.store(true);
  loop_ = std::thread([this] { EventLoop(); });
  return true;
}

void TcpFrontEnd::Stop() {
  if (loop_.joinable()) {
    stop_requested_.store(true);
    uint64_t kick = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &kick, sizeof(kick));
    loop_.join();
  }
  for (auto& [fd, conn] : conns_) {
    int fd_copy = fd;
    CloseFd(fd_copy);
    stats_.connections_closed->Increment();
  }
  conns_.clear();  // an open intake rolls its reservation back
  open_intakes_ = 0;
  CloseFd(listen_fd_);
  CloseFd(epoll_fd_);
  CloseFd(wake_fd_);
  running_.store(false);
}

TcpFrontEndStats TcpFrontEnd::stats() const {
  TcpFrontEndStats out;
  out.connections_accepted =
      stats_.connections_accepted->value();
  out.connections_closed =
      stats_.connections_closed->value();
  out.connections_rejected =
      stats_.connections_rejected->value();
  out.idle_closes = stats_.idle_closes->value();
  out.protocol_errors =
      stats_.protocol_errors->value();
  out.messages_routed =
      stats_.messages_routed->value();
  out.responses_sent = stats_.responses_sent->value();
  out.bytes_received = stats_.bytes_received->value();
  out.bytes_sent = stats_.bytes_sent->value();
  out.snapshot_intakes = stats_.snapshot_intakes->value();
  out.intake_timeouts = stats_.intake_timeouts->value();
  return out;
}

void TcpFrontEnd::EventLoop() {
  epoll_event events[kMaxEvents];
  while (true) {
    const int timeout_ms = config_.idle_timeout_ms > 0
                               ? static_cast<int>(std::min<int64_t>(
                                     config_.idle_timeout_ms, kIdleTickMs))
                           : open_intakes_ > 0 ? kIdleTickMs
                                               : -1;
    int ready = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed; nothing sane left to do
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t mask = events[i].events;
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        [[maybe_unused]] ssize_t n =
            ::read(wake_fd_, &drained, sizeof(drained));
        continue;
      }
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;  // closed earlier this round
      Connection& conn = *it->second;
      if ((mask & EPOLLOUT) != 0) {
        HandleWritable(conn);
        if (!conns_.contains(fd)) continue;
      }
      if ((mask & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        HandleReadable(conn);
      }
    }
    if (stop_requested_.load()) break;
    if (config_.idle_timeout_ms > 0 || open_intakes_ > 0) SweepIdle();
  }
}

void TcpFrontEnd::AcceptReady() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept failure: try next round
    }
    if (conns_.size() >= config_.max_connections) {
      ::close(fd);
      stats_.connections_rejected->Increment();
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->last_activity_ns = obs::NowNanos();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    conns_.emplace(fd, std::move(conn));
    stats_.connections_accepted->Increment();
  }
}

void TcpFrontEnd::HandleReadable(Connection& conn) {
  if (conn.peer_eof) {  // spurious HUP after EOF already observed
    MaybeFinishClose(conn);
    return;
  }
  while (true) {
    if (conn.intake != nullptr) {
      const ReadResult result = ReceiveIntake(conn);
      if (result == ReadResult::kClosed) return;
      if (result == ReadResult::kDrained) break;
      continue;  // the frame landed; the stream reads on
    }
    const ReadResult result = ReceiveBuffered(conn);
    if (result == ReadResult::kClosed) return;
    if (!DrainReadBuffer(conn)) return;  // connection closed
    // A large frame stopped the read: read on only into its intake (a
    // refused frame is marked, so the next read does not stop for it).
    if (result != ReadResult::kLargeFrame || conn.intake == nullptr) break;
  }
  MaybeFinishClose(conn);
}

void TcpFrontEnd::NoteRead(Connection& conn, size_t n) {
  stats_.bytes_received->Add(n);
  conn.last_read_ns = obs::NowNanos();
  conn.last_activity_ns = conn.last_read_ns;
}

TcpFrontEnd::ReadResult TcpFrontEnd::ReceiveBuffered(Connection& conn) {
  using protocol::kEnvelopeHeaderSize;
  size_t received = 0;
  while (true) {
    const size_t old_size = conn.read_buf.size();
    conn.read_buf.resize(old_size + kReadChunk);
    ssize_t n = ::recv(conn.fd, conn.read_buf.data() + old_size, kReadChunk,
                       0);
    if (n > 0) {
      conn.read_buf.resize(old_size + static_cast<size_t>(n));
      NoteRead(conn, static_cast<size_t>(n));
      if (static_cast<size_t>(n) < kReadChunk) return ReadResult::kDrained;
      received += kReadChunk;
      // The one header peek: a frame of at least a read chunk at the
      // front, incomplete and not yet refused an intake, stops the read
      // so that it can open one after this first read, not after the
      // socket drains.
      const size_t available = conn.read_buf.size() - conn.read_pos;
      if (!conn.frame_declined && available >= kEnvelopeHeaderSize) {
        const uint64_t total =
            FrameBytes(conn.read_buf.data() + conn.read_pos);
        if (total >= kReadChunk && available < total) {
          return ReadResult::kLargeFrame;
        }
      }
      if (received >= kReadBudget) return ReadResult::kDrained;
      continue;
    }
    conn.read_buf.resize(old_size);
    if (n == 0) {
      // Peer EOF (close or shutdown(SHUT_WR)): stop reading, finish
      // processing what is buffered, flush responses, then close.
      conn.peer_eof = true;
      UpdateEpoll(conn, /*want_read=*/false);
      return ReadResult::kDrained;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadResult::kDrained;
    CloseConnection(conn.fd);  // ECONNRESET and friends
    return ReadResult::kClosed;
  }
}

TcpFrontEnd::ReadResult TcpFrontEnd::ReceiveIntake(Connection& conn) {
  while (true) {
    const std::span<uint8_t> window = conn.intake->Window();
    ssize_t n = ::recv(conn.fd, window.data(), window.size(), 0);
    if (n > 0) {
      NoteRead(conn, static_cast<size_t>(n));
      conn.intake->Advance(static_cast<size_t>(n));
      if (conn.intake->complete()) {
        return FinishIntake(conn) ? ReadResult::kLanded : ReadResult::kClosed;
      }
      if (static_cast<size_t>(n) < window.size()) return ReadResult::kDrained;
      continue;
    }
    if (n == 0) {
      // Peer EOF mid-body: the frame can never complete. Closing frees
      // the clone and rolls the reservation back.
      stats_.protocol_errors->Increment();
      CloseConnection(conn.fd);
      return ReadResult::kClosed;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadResult::kDrained;
    CloseConnection(conn.fd);  // ECONNRESET and friends
    return ReadResult::kClosed;
  }
}

void TcpFrontEnd::TryOpenIntake(Connection& conn, size_t available,
                                uint64_t total) {
  if (conn.frame_declined || conn.peer_eof ||
      available < std::min<uint64_t>(total, service::kMaxStateMergeHeadBytes)) {
    return;  // refused before, never completes, or its head is not here
  }
  conn.intake = service_.OpenStateIntake(
      std::span<const uint8_t>(conn.read_buf).subspan(conn.read_pos,
                                                      available),
      static_cast<size_t>(total));
  if (conn.intake == nullptr) {
    conn.frame_declined = true;
    return;
  }
  ++open_intakes_;
  stats_.snapshot_intakes->Increment();
  // Every buffered byte belonged to the frame and has landed in the clone.
  conn.read_buf = ReadBuffer();
  conn.read_pos = 0;
}

bool TcpFrontEnd::FinishIntake(Connection& conn) {
  std::vector<uint8_t> ack = conn.intake->Finish();
  conn.intake.reset();
  --open_intakes_;
  RecordFrameAssembly(conn);
  stats_.messages_routed->Increment();
  const int fd = conn.fd;
  QueueResponse(conn, std::move(ack));
  return conns_.contains(fd);  // a failed write closes the connection
}

void TcpFrontEnd::RecordFrameAssembly(Connection& conn) {
  const uint64_t elapsed = conn.last_read_ns - conn.frame_start_ns;
  stats_.frame_assembly_ns->Record(elapsed);
  if (obs::TracingEnabled()) {
    obs::RecordTraceEvent("net.frame_assembly", conn.frame_start_ns, elapsed);
  }
  conn.frame_start_ns = 0;
}

bool TcpFrontEnd::DrainReadBuffer(Connection& conn) {
  using protocol::kEnvelopeHeaderSize;
  while (conn.intake == nullptr) {
    const size_t available = conn.read_buf.size() - conn.read_pos;
    if (available < kEnvelopeHeaderSize) break;
    const uint8_t* head = conn.read_buf.data() + conn.read_pos;
    // Framing needs only the magic and the length; full validation is
    // the service's job (a malformed-but-framed message is counted and
    // skipped, the stream stays in sync).
    if (head[0] != protocol::kEnvelopeMagic0 ||
        head[1] != protocol::kEnvelopeMagic1) {
      stats_.protocol_errors->Increment();
      CloseConnection(conn.fd);
      return false;
    }
    const uint64_t total = FrameBytes(head);
    if (total > config_.max_message_bytes) {
      stats_.protocol_errors->Increment();
      CloseConnection(conn.fd);
      return false;
    }
    const bool large = total >= kReadChunk;
    if (large && conn.frame_start_ns == 0) {
      conn.frame_start_ns = conn.last_read_ns;
    }
    if (available < total) {
      // The buffered path reserves nothing from `total`: an announced
      // length only counts once its bytes have arrived. Only a snapshot
      // intake may commit memory before then, for a length its target's
      // own configuration produces (AggregatorService::OpenStateIntake).
      if (large) TryOpenIntake(conn, available, total);
      break;  // wait for the rest of the message
    }
    conn.read_pos += static_cast<size_t>(total);
    if (large) RecordFrameAssembly(conn);
    conn.frame_declined = false;
    if (!RouteMessage(conn, {head, static_cast<size_t>(total)})) {
      return false;  // closed
    }
    const size_t tail = conn.read_buf.size() - conn.read_pos;
    if (large && tail < total) {
      // The buffer grew to hold the frame (a state snapshot): let it go
      // with the frame. The bytes after it, fewer than the frame's, move
      // to a fresh buffer.
      conn.read_buf = ReadBuffer(
          conn.read_buf.begin() + static_cast<ptrdiff_t>(conn.read_pos),
          conn.read_buf.end());
      conn.read_pos = 0;
    }
  }
  // Compact once the consumed prefix dominates the buffer.
  if (conn.read_pos > kReadChunk &&
      conn.read_pos * 2 > conn.read_buf.size()) {
    conn.read_buf.erase(conn.read_buf.begin(),
                        conn.read_buf.begin() +
                            static_cast<ptrdiff_t>(conn.read_pos));
    conn.read_pos = 0;
  }
  if (conn.peer_eof && conn.read_buf.size() != conn.read_pos) {
    // Trailing bytes that can never complete a message: the peer hung
    // up mid-frame.
    stats_.protocol_errors->Increment();
    CloseConnection(conn.fd);
    return false;
  }
  return true;
}

bool TcpFrontEnd::RouteMessage(Connection& conn,
                               std::span<const uint8_t> message) {
  std::vector<uint8_t> response = service_.HandleMessage(message);
  stats_.messages_routed->Increment();
  if (response.empty()) return true;
  const int fd = conn.fd;
  QueueResponse(conn, std::move(response));
  return conns_.contains(fd);  // a failed write closes the connection
}

void TcpFrontEnd::QueueResponse(Connection& conn,
                                std::vector<uint8_t> response) {
  conn.write_queue.push_back(std::move(response));
  stats_.responses_sent->Increment();
  FlushWrites(conn);
}

void TcpFrontEnd::FlushWrites(Connection& conn) {
  while (!conn.write_queue.empty()) {
    const std::vector<uint8_t>& front = conn.write_queue.front();
    while (conn.write_pos < front.size()) {
      ssize_t n = ::send(conn.fd, front.data() + conn.write_pos,
                         front.size() - conn.write_pos, MSG_NOSIGNAL);
      if (n > 0) {
        conn.write_pos += static_cast<size_t>(n);
        stats_.bytes_sent->Add(static_cast<uint64_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!conn.want_write) {
          conn.want_write = true;
          UpdateEpoll(conn, /*want_read=*/!conn.peer_eof);
        }
        return;
      }
      CloseConnection(conn.fd);  // EPIPE/ECONNRESET: peer is gone
      return;
    }
    conn.write_queue.pop_front();
    conn.write_pos = 0;
  }
  if (conn.want_write) {
    conn.want_write = false;
    UpdateEpoll(conn, /*want_read=*/!conn.peer_eof);
  }
}

void TcpFrontEnd::HandleWritable(Connection& conn) {
  const int fd = conn.fd;
  FlushWrites(conn);
  if (!conns_.contains(fd)) return;  // FlushWrites closed it
  MaybeFinishClose(conn);
}

void TcpFrontEnd::UpdateEpoll(Connection& conn, bool want_read) {
  const uint32_t mask =
      (want_read ? EPOLLIN : 0u) | (conn.want_write ? EPOLLOUT : 0u);
  if (mask == 0 && conn.peer_eof) {
    if (conn.in_epoll) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
      conn.in_epoll = false;
    }
    return;
  }
  epoll_event ev{};
  ev.events = mask;
  ev.data.fd = conn.fd;
  if (conn.in_epoll) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  } else if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &ev) == 0) {
    conn.in_epoll = true;
  }
}

void TcpFrontEnd::CloseConnection(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  if (it->second->in_epoll) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  }
  if (it->second->intake != nullptr) --open_intakes_;
  ::close(fd);
  conns_.erase(it);  // an open intake rolls its reservation back
  stats_.connections_closed->Increment();
}

void TcpFrontEnd::MaybeFinishClose(Connection& conn) {
  if (conn.peer_eof && conn.read_buf.size() == conn.read_pos &&
      conn.write_queue.empty()) {
    CloseConnection(conn.fd);
  }
}

void TcpFrontEnd::SweepIdle() {
  const uint64_t now = obs::NowNanos();
  const int64_t idle_ms = config_.idle_timeout_ms;
  const uint64_t idle_ns = static_cast<uint64_t>(idle_ms) * 1'000'000;
  const uint64_t stall_ns =
      static_cast<uint64_t>(idle_ms > 0 ? idle_ms : kIntakeStallMs) *
      1'000'000;
  std::vector<int> idle;
  std::vector<int> stalled;
  for (const auto& [fd, conn] : conns_) {
    const uint64_t quiet = now - conn->last_activity_ns;
    if (conn->intake != nullptr) {
      // An open intake holds a clone and a merge-buffer slot: no byte
      // within its deadline closes it.
      if (quiet > stall_ns) stalled.push_back(fd);
    } else if (idle_ms > 0 && quiet > idle_ns) {
      idle.push_back(fd);
    }
  }
  for (int fd : idle) {
    stats_.idle_closes->Increment();
    CloseConnection(fd);
  }
  for (int fd : stalled) {
    stats_.intake_timeouts->Increment();
    CloseConnection(fd);
  }
}

}  // namespace ldp::net
