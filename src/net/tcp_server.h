// TcpServer: the real network front end of the service layer.
//
// Architecture (DESIGN.md "Network transport"):
//
//   sockets -> epoll event loop -> Executor queue -> worker pool
//                   ^                    |
//                   +---- wakeup <-- completion callbacks
//
// One event-loop thread multiplexes every connection with epoll
// (level-triggered, nonblocking fds). The loop NEVER blocks on database
// work: complete frames are handed to the Executor through
// SubmitWithCallback, and the completion callback — running on a worker
// thread — appends the encoded response to the connection's outbound
// buffer and wakes the loop through an eventfd. Slow control operations
// (schema load, metrics snapshot, session close) run on a small
// auxiliary thread for the same reason.
//
// Backpressure is layered:
//   * Admission control. The executor's bounded queue rejects a request
//     when full; the rejection travels back as a typed kResponse frame
//     (status kRejected, WireCode 100) — bytes are never dropped.
//     Degraded read-only mode surfaces the same way (WireCode 102).
//   * Write-side flow control. When a connection's outbound buffer
//     exceeds kWriteBufferLimit (a client pipelines without reading),
//     the loop stops reading from that socket until the buffer drains
//     below half — per-connection memory stays bounded.
//
// Connection teardown: a clean kGoodbye and an unclean disconnect (EOF,
// reset, poisoned frame stream) both post Executor::CloseSession to the
// auxiliary thread. It waits for any in-flight batch on the session,
// then rolls the open transaction back, so an orphaned transaction never
// lingers to idle-timeout; an unclean one also counts in eager_closes.

#ifndef CACTIS_NET_TCP_SERVER_H_
#define CACTIS_NET_TCP_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "net/wire.h"
#include "server/executor.h"

namespace cactis::net {

struct TcpServerOptions {
  /// Listen address. Loopback by default; "0.0.0.0" to accept remotely.
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; the bound port is reported by port().
  uint16_t port = 0;
};

/// Network-layer counters, exported as the "net" metrics group. All
/// atomics: the event loop, worker callbacks and the metrics exporter
/// touch them without locks.
struct NetStats {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_closed{0};
  std::atomic<uint64_t> connections_active{0};  // gauge
  std::atomic<uint64_t> frames_received{0};
  std::atomic<uint64_t> frames_sent{0};
  std::atomic<uint64_t> bytes_received{0};
  std::atomic<uint64_t> bytes_sent{0};
  std::atomic<uint64_t> framing_errors{0};    // poisoned streams
  std::atomic<uint64_t> protocol_errors{0};   // valid frame, wrong state
  std::atomic<uint64_t> backpressure_stalls{0};
  std::atomic<uint64_t> eager_closes{0};      // unclean disconnects w/ session
  std::atomic<uint64_t> requests_relayed{0};
};

class TcpServer {
 public:
  static constexpr int kListenBacklog = 512;
  /// Per-connection outbound-buffer ceiling before the loop stops
  /// reading from the socket (write-side flow control).
  static constexpr size_t kWriteBufferLimit = 4u << 20;  // 4 MiB

  /// `executor` must be started and must outlive the server.
  TcpServer(server::Executor* executor, TcpServerOptions options);
  ~TcpServer();
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens and starts the event-loop + auxiliary threads.
  Status Start();

  /// Closes every connection (closing their sessions), drains
  /// in-flight completion callbacks, stops the threads. Idempotent.
  /// Call before shutting the executor down (either order is safe, but
  /// this order avoids a burst of kRejected responses).
  void Shutdown();

  /// The bound port (valid after Start(); resolves port 0 requests).
  uint16_t port() const { return port_; }
  const NetStats& stats() const { return stats_; }
  /// Connections currently registered with the loop.
  size_t connection_count() const;

 private:
  struct Conn {
    explicit Conn(int fd_in) : fd(fd_in) {}

    const int fd;

    // --- event-loop thread only ---
    FrameReader reader;
    bool has_session = false;
    uint64_t session = 0;       // token (SessionId.value)
    bool goodbye_pending = false;  // clean close in flight on aux thread
    bool read_stalled = false;  // EPOLLIN parked by flow control
    bool want_close = false;    // close once the outbound buffer drains
    bool epollout_armed = false;

    // --- shared with worker callbacks ---
    std::mutex out_mu;
    std::string out;          // outbound bytes not yet written
    size_t out_off = 0;       // bytes of `out` already written
    bool dead = false;        // unregistered; callbacks must not touch fd
  };

  void EventLoop();
  void AuxLoop();
  /// Enqueues a closure on the auxiliary thread (session teardown,
  /// schema load, metrics snapshot — anything that may block).
  void PostAux(std::function<void()> fn);
  void Wake();

  void AcceptReady();
  void ReadReady(const std::shared_ptr<Conn>& conn);
  void WriteReady(const std::shared_ptr<Conn>& conn);
  /// Dispatches one decoded frame (event-loop thread).
  void HandleFrame(const std::shared_ptr<Conn>& conn, Frame frame);
  /// Appends an encoded frame to the outbound buffer and arms the
  /// writer. Safe from any thread; no-op on dead connections.
  void SendFrame(const std::shared_ptr<Conn>& conn, FrameType type,
                 uint64_t session, std::string_view payload);
  /// Sends kError and schedules the connection to close once flushed.
  void SendErrorAndClose(const std::shared_ptr<Conn>& conn, WireCode code,
                         std::string_view message);
  /// Flushes as much outbound data as the socket accepts; manages
  /// EPOLLOUT arming, flow-control unstall and deferred close
  /// (event-loop thread).
  void FlushConn(const std::shared_ptr<Conn>& conn);
  /// Unregisters the fd, closes it, and posts the session's close if the
  /// client never said goodbye (event-loop thread).
  void CloseConn(const std::shared_ptr<Conn>& conn);
  void UpdateEpoll(Conn* conn, bool want_read, bool want_write);

  server::Executor* executor_;
  TcpServerOptions options_;
  NetStats stats_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  bool shut_down_ = false;

  std::thread loop_thread_;
  std::thread aux_thread_;

  /// Live connections, keyed by fd (event-loop thread, plus sized by
  /// connection_count() under conns_mu_).
  mutable std::mutex conns_mu_;
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;

  /// Connections with freshly appended outbound data, flushed by the
  /// loop after a wakeup.
  std::mutex dirty_mu_;
  std::vector<std::shared_ptr<Conn>> dirty_;

  /// Auxiliary work queue.
  std::mutex aux_mu_;
  std::condition_variable aux_cv_;
  std::deque<std::function<void()>> aux_q_;
  bool aux_stop_ = false;

  /// Executor callbacks not yet delivered; Shutdown drains to zero
  /// before tearing state down.
  std::mutex inflight_mu_;
  std::condition_variable inflight_cv_;
  uint64_t inflight_ = 0;
};

}  // namespace cactis::net

#endif  // CACTIS_NET_TCP_SERVER_H_
