#include "net/tcp_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <cstring>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

namespace cactis::net {

namespace {

Status Errno(const char* what) {
  return Status(StatusCode::kIoError,
                std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

TcpServer::TcpServer(server::Executor* executor, TcpServerOptions options)
    : executor_(executor), options_(std::move(options)) {}

TcpServer::~TcpServer() { Shutdown(); }

Status TcpServer::Start() {
  if (started_) return Status::OK();

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status s = Errno("bind");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    Status s = Errno("getsockname");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, kListenBacklog) != 0) {
    Status s = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return Errno("eventfd");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return Errno("epoll_ctl(listen)");
  }
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    return Errno("epoll_ctl(wake)");
  }

  executor_->db()->metrics()->RegisterSource(
      "net", [this](obs::MetricsGroup* g) {
        auto c = [&](const char* n, const std::atomic<uint64_t>& v) {
          g->AddCounter(n, v.load(std::memory_order_relaxed));
        };
        c("connections_accepted", stats_.connections_accepted);
        c("connections_closed", stats_.connections_closed);
        g->AddGauge("connections_active",
                    static_cast<double>(stats_.connections_active.load(
                        std::memory_order_relaxed)));
        c("frames_received", stats_.frames_received);
        c("frames_sent", stats_.frames_sent);
        c("bytes_received", stats_.bytes_received);
        c("bytes_sent", stats_.bytes_sent);
        c("framing_errors", stats_.framing_errors);
        c("protocol_errors", stats_.protocol_errors);
        c("backpressure_stalls", stats_.backpressure_stalls);
        c("eager_closes", stats_.eager_closes);
        c("requests_relayed", stats_.requests_relayed);
      });

  stop_.store(false, std::memory_order_release);
  loop_thread_ = std::thread([this] { EventLoop(); });
  aux_thread_ = std::thread([this] { AuxLoop(); });
  started_ = true;
  return Status::OK();
}

void TcpServer::Shutdown() {
  if (!started_ || shut_down_) return;
  shut_down_ = true;

  stop_.store(true, std::memory_order_release);
  Wake();
  loop_thread_.join();

  // Every connection is closed; executor callbacks in flight still hold
  // their Conn and may call SendFrame (a no-op on dead connections) and
  // Wake. Wait for the last one before tearing state down.
  {
    std::unique_lock<std::mutex> lk(inflight_mu_);
    inflight_cv_.wait(lk, [this] { return inflight_ == 0; });
  }

  // The loop posted closes for every torn-down session; drain the
  // auxiliary queue before stopping so no transaction outlives us.
  {
    std::lock_guard<std::mutex> lk(aux_mu_);
    aux_stop_ = true;
  }
  aux_cv_.notify_all();
  aux_thread_.join();

  executor_->db()->metrics()->UnregisterSource("net");

  ::close(wake_fd_);
  ::close(epoll_fd_);
  ::close(listen_fd_);
  wake_fd_ = epoll_fd_ = listen_fd_ = -1;
}

size_t TcpServer::connection_count() const {
  std::lock_guard<std::mutex> lk(conns_mu_);
  return conns_.size();
}

void TcpServer::Wake() {
  uint64_t one = 1;
  ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  (void)n;  // EAGAIN means a wakeup is already pending — that's fine.
}

void TcpServer::PostAux(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lk(aux_mu_);
    aux_q_.push_back(std::move(fn));
  }
  aux_cv_.notify_one();
}

void TcpServer::AuxLoop() {
  for (;;) {
    std::function<void()> fn;
    {
      std::unique_lock<std::mutex> lk(aux_mu_);
      aux_cv_.wait(lk, [this] { return aux_stop_ || !aux_q_.empty(); });
      if (aux_q_.empty()) return;  // stop requested and queue drained
      fn = std::move(aux_q_.front());
      aux_q_.pop_front();
    }
    fn();
  }
}

void TcpServer::EventLoop() {
  std::vector<epoll_event> events(128);
  while (!stop_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(epoll_fd_, events.data(),
                         static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed; nothing sane to do but stop
    }
    for (int i = 0; i < n; ++i) {
      const epoll_event& ev = events[i];
      if (ev.data.fd == wake_fd_) {
        uint64_t drain = 0;
        while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (ev.data.fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      std::shared_ptr<Conn> conn;
      {
        std::lock_guard<std::mutex> lk(conns_mu_);
        auto it = conns_.find(ev.data.fd);
        if (it == conns_.end()) continue;  // closed earlier this batch
        conn = it->second;
      }
      if (ev.events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(conn);
        continue;
      }
      if (ev.events & EPOLLIN) ReadReady(conn);
      if (ev.events & EPOLLOUT) WriteReady(conn);
    }
    // Flush connections that worker callbacks (or this iteration's
    // handlers) marked dirty.
    std::vector<std::shared_ptr<Conn>> dirty;
    {
      std::lock_guard<std::mutex> lk(dirty_mu_);
      dirty.swap(dirty_);
    }
    for (auto& conn : dirty) FlushConn(conn);
  }

  // Teardown: close every connection (posting session closes).
  std::vector<std::shared_ptr<Conn>> all;
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    all.reserve(conns_.size());
    for (auto& [fd, c] : conns_) all.push_back(c);
  }
  for (auto& conn : all) CloseConn(conn);
}

void TcpServer::AcceptReady() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure (EMFILE, ...): retry on next event
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>(fd);
    {
      std::lock_guard<std::mutex> lk(conns_mu_);
      conns_.emplace(fd, conn);
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      std::lock_guard<std::mutex> lk(conns_mu_);
      conns_.erase(fd);
      ::close(fd);
      continue;
    }
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    stats_.connections_active.fetch_add(1, std::memory_order_relaxed);
  }
}

void TcpServer::UpdateEpoll(Conn* conn, bool want_read, bool want_write) {
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

void TcpServer::ReadReady(const std::shared_ptr<Conn>& conn) {
  char buf[64 * 1024];
  for (;;) {
    ssize_t n = ::read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      stats_.bytes_received.fetch_add(static_cast<uint64_t>(n),
                                      std::memory_order_relaxed);
      conn->reader.Feed(std::string_view(buf, static_cast<size_t>(n)));
      if (n < static_cast<ssize_t>(sizeof(buf))) break;
      continue;
    }
    if (n == 0) {  // EOF: client went away
      CloseConn(conn);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    CloseConn(conn);  // ECONNRESET and friends
    return;
  }

  while (auto frame = conn->reader.Next()) {
    stats_.frames_received.fetch_add(1, std::memory_order_relaxed);
    HandleFrame(conn, std::move(*frame));
    std::lock_guard<std::mutex> lk(conn->out_mu);
    if (conn->dead || conn->want_close) return;
  }
  if (conn->reader.poisoned()) {
    stats_.framing_errors.fetch_add(1, std::memory_order_relaxed);
    SendErrorAndClose(conn, conn->reader.error(),
                      conn->reader.error_message());
    return;
  }

  // Write-side flow control: a client that pipelines without reading
  // responses gets its reads parked until the buffer drains.
  size_t pending;
  {
    std::lock_guard<std::mutex> lk(conn->out_mu);
    pending = conn->out.size() - conn->out_off;
  }
  if (!conn->read_stalled && pending > kWriteBufferLimit) {
    conn->read_stalled = true;
    stats_.backpressure_stalls.fetch_add(1, std::memory_order_relaxed);
    UpdateEpoll(conn.get(), /*want_read=*/false, conn->epollout_armed);
  }
}

void TcpServer::HandleFrame(const std::shared_ptr<Conn>& conn, Frame frame) {
  switch (frame.type) {
    case FrameType::kHello: {
      if (conn->has_session) {
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        SendErrorAndClose(conn, WireCode::kUnexpectedFrame,
                          "hello on a connection with a session");
        return;
      }
      auto sid = executor_->OpenSession();
      if (!sid.ok()) {
        SendErrorAndClose(conn, WireCodeFromStatus(sid.status()),
                          sid.status().message());
        return;
      }
      conn->has_session = true;
      conn->session = sid->value;
      SendFrame(conn, FrameType::kHelloOk, conn->session, "");
      return;
    }

    case FrameType::kRequest: {
      if (!conn->has_session) {
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        SendErrorAndClose(conn, WireCode::kUnexpectedFrame,
                          "request before hello");
        return;
      }
      if (frame.session != conn->session) {
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        SendErrorAndClose(conn, WireCode::kSessionMismatch,
                          "request token does not match the session");
        return;
      }
      auto request = DecodeRequestPayload(frame.payload);
      if (!request.ok()) {
        stats_.framing_errors.fetch_add(1, std::memory_order_relaxed);
        SendErrorAndClose(conn, WireCode::kBadFrame,
                          request.status().message());
        return;
      }
      server::Request req;
      req.session = SessionId(conn->session);
      req.statements = std::move(request->statements);
      req.trace_id = request->trace_id;
      {
        std::lock_guard<std::mutex> lk(inflight_mu_);
        ++inflight_;
      }
      stats_.requests_relayed.fetch_add(1, std::memory_order_relaxed);
      const uint64_t token = conn->session;
      executor_->SubmitWithCallback(
          std::move(req), [this, conn, token](server::Response r) {
            SendFrame(conn, FrameType::kResponse, token,
                      EncodeResponsePayload(r));
            {
              // Notify under the lock: Shutdown() may destroy the cv the
              // instant it observes inflight_ == 0, and it can only make
              // that observation after this lock is released — which is
              // strictly after notify_all() has returned.
              std::lock_guard<std::mutex> lk(inflight_mu_);
              --inflight_;
              inflight_cv_.notify_all();
            }
          });
      return;
    }

    case FrameType::kSchema: {
      if (!conn->has_session || frame.session != conn->session) {
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        SendErrorAndClose(conn, WireCode::kUnexpectedFrame,
                          "schema frame without a session");
        return;
      }
      const uint64_t token = conn->session;
      PostAux([this, conn, token, source = std::move(frame.payload)] {
        Status s = executor_->LoadSchema(source);
        if (s.ok()) {
          SendFrame(conn, FrameType::kSchemaOk, token, "");
        } else {
          SendFrame(conn, FrameType::kError, token,
                    EncodeErrorPayload(WireCodeFromStatus(s), s.message()));
        }
      });
      return;
    }

    case FrameType::kMetrics: {
      if (!conn->has_session || frame.session != conn->session) {
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        SendErrorAndClose(conn, WireCode::kUnexpectedFrame,
                          "metrics frame without a session");
        return;
      }
      const uint64_t token = conn->session;
      PostAux([this, conn, token] {
        SendFrame(conn, FrameType::kMetricsOk, token,
                  executor_->SnapshotMetrics());
      });
      return;
    }

    case FrameType::kGoodbye: {
      if (!conn->has_session || frame.session != conn->session) {
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        SendErrorAndClose(conn, WireCode::kUnexpectedFrame,
                          "goodbye without a session");
        return;
      }
      // Goodbye is terminal for the connection: the session closes
      // cleanly (waiting on any in-flight batch, hence the aux thread),
      // kGoodbyeOk is flushed, then the connection closes.
      conn->has_session = false;
      conn->goodbye_pending = true;
      const uint64_t token = conn->session;
      PostAux([this, conn, token] {
        (void)executor_->CloseSession(SessionId(token));
        SendFrame(conn, FrameType::kGoodbyeOk, token, "");
        {
          std::lock_guard<std::mutex> lk(conn->out_mu);
          conn->want_close = true;
        }
        // Already dirty from SendFrame; the loop closes after flushing.
      });
      return;
    }

    default: {
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      SendErrorAndClose(conn, WireCode::kUnexpectedFrame,
                        "server-to-client frame type from a client");
      return;
    }
  }
}

void TcpServer::SendFrame(const std::shared_ptr<Conn>& conn, FrameType type,
                          uint64_t session, std::string_view payload) {
  std::string bytes = EncodeFrame(type, session, payload);
  {
    std::lock_guard<std::mutex> lk(conn->out_mu);
    if (conn->dead) return;
    conn->out.append(bytes);
  }
  stats_.frames_sent.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(dirty_mu_);
    dirty_.push_back(conn);
  }
  Wake();
}

void TcpServer::SendErrorAndClose(const std::shared_ptr<Conn>& conn,
                                  WireCode code, std::string_view message) {
  {
    std::lock_guard<std::mutex> lk(conn->out_mu);
    conn->want_close = true;
  }
  SendFrame(conn, FrameType::kError, conn->session,
            EncodeErrorPayload(code, message));
}

void TcpServer::WriteReady(const std::shared_ptr<Conn>& conn) {
  FlushConn(conn);
}

void TcpServer::FlushConn(const std::shared_ptr<Conn>& conn) {
  bool close_now = false;
  {
    std::unique_lock<std::mutex> lk(conn->out_mu);
    if (conn->dead) return;
    while (conn->out_off < conn->out.size()) {
      ssize_t n = ::write(conn->fd, conn->out.data() + conn->out_off,
                          conn->out.size() - conn->out_off);
      if (n > 0) {
        conn->out_off += static_cast<size_t>(n);
        stats_.bytes_sent.fetch_add(static_cast<uint64_t>(n),
                                    std::memory_order_relaxed);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!conn->epollout_armed) {
          conn->epollout_armed = true;
          UpdateEpoll(conn.get(), !conn->read_stalled, /*want_write=*/true);
        }
        break;
      }
      if (n < 0 && errno == EINTR) continue;
      lk.unlock();
      CloseConn(conn);  // EPIPE / ECONNRESET
      return;
    }
    const size_t pending = conn->out.size() - conn->out_off;
    if (pending == 0) {
      conn->out.clear();
      conn->out_off = 0;
      if (conn->epollout_armed) {
        conn->epollout_armed = false;
        UpdateEpoll(conn.get(), !conn->read_stalled, /*want_write=*/false);
      }
      if (conn->want_close) close_now = true;
    }
    // Flow-control unstall once the buffer drains below half the limit.
    if (conn->read_stalled && pending < kWriteBufferLimit / 2 &&
        !close_now) {
      conn->read_stalled = false;
      UpdateEpoll(conn.get(), /*want_read=*/true, conn->epollout_armed);
    }
  }
  if (close_now) CloseConn(conn);
}

void TcpServer::CloseConn(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    if (conns_.erase(conn->fd) == 0) return;  // already closed
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  {
    std::lock_guard<std::mutex> lk(conn->out_mu);
    conn->dead = true;
  }
  ::close(conn->fd);
  stats_.connections_closed.fetch_add(1, std::memory_order_relaxed);
  stats_.connections_active.fetch_sub(1, std::memory_order_relaxed);

  // Unclean disconnect with a live session: close it now, as a goodbye
  // would, so its transaction rolls back instead of lingering to
  // idle-timeout. (A clean kGoodbye already cleared has_session and
  // posted the close.)
  if (conn->has_session) {
    conn->has_session = false;
    stats_.eager_closes.fetch_add(1, std::memory_order_relaxed);
    const uint64_t token = conn->session;
    server::Executor* exec = executor_;
    PostAux([exec, token] { (void)exec->CloseSession(SessionId(token)); });
  }
}

}  // namespace cactis::net
