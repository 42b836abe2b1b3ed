// Client: the blocking client library for the Cactis TCP transport.
//
// One Client owns one connection and one server session. The protocol is
// strictly request/response, so every call writes a frame and blocks for
// the reply; a per-request timeout (poll-based) bounds the wait. The
// client is NOT thread-safe — use one Client per thread (sessions
// serialize their batches server-side anyway).
//
// Recovery:
//   * Connect() establishes the socket and performs the kHello
//     handshake, yielding a fresh session.
//   * A connection-level failure (send/recv error, timeout, poisoned
//     stream) closes the socket and marks the client disconnected; the
//     server closes the orphaned session, rolling back its open
//     transaction.
//   * CallRetry() reconnects on connection loss and retries retryable
//     outcomes (kConflict/kTransactionAborted aborts, admission-control
//     kRejected, degraded-mode refusals) with the shared bounded-backoff
//     policy from common/backoff.h. Each reconnect yields a NEW session:
//     any transactional state is gone, which is exactly the semantics of
//     a retried OCB-style transaction.

#ifndef CACTIS_NET_CLIENT_H_
#define CACTIS_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/backoff.h"
#include "common/result.h"
#include "common/status.h"
#include "net/wire.h"

namespace cactis::net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Connect() deadline, milliseconds.
  uint64_t connect_timeout_ms = 5'000;
  /// Per-request reply deadline, milliseconds. 0 waits forever.
  uint64_t request_timeout_ms = 30'000;
  /// Retry budget + delay shape for CallRetry.
  BackoffPolicy retry;
};

class Client {
 public:
  explicit Client(ClientOptions options);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects and performs the hello handshake. Idempotent while
  /// connected; reconnecting after a failure yields a new session.
  Status Connect();

  /// Sends kGoodbye (closing the server session cleanly) and closes the
  /// socket. Safe to call at any time.
  void Close();

  /// Closes the socket WITHOUT the goodbye handshake — simulates a
  /// crashed client. The server notices the dead connection and
  /// closes the session, rolling back its open transaction (soak
  /// bench + disconnect tests).
  void Abandon() { Drop(); }

  bool connected() const { return fd_ >= 0; }
  /// The server session token (0 when disconnected).
  uint64_t session() const { return session_; }

  /// Executes one statement batch and returns the decoded response.
  /// Connection-level failures come back as a Status and leave the
  /// client disconnected.
  Result<WireResponse> Call(const std::vector<std::string>& statements);

  /// Call(), but reconnecting on connection loss and retrying retryable
  /// outcomes under the bounded-backoff policy. Returns the last
  /// response (retryable or not) once the budget is spent.
  Result<WireResponse> CallRetry(const std::vector<std::string>& statements);

  /// Loads schema declarations server-side.
  Status LoadSchema(std::string_view source);

  /// Fetches the server's metrics snapshot (JSON).
  Result<std::string> Metrics();

  /// Retries consumed by the last CallRetry (tests, bench accounting).
  int last_retries() const { return last_retries_; }

  /// Trace id minted for the most recent Call/CallRetry batch. The
  /// server runs statement i of that batch under `last_trace_id() + i`,
  /// so a `profile` response's "trace_id" field matches this value —
  /// clients can correlate their own logs with server-side slow-log and
  /// trace-sink entries. 0 until the first Call.
  uint64_t last_trace_id() const { return last_trace_id_; }

 private:
  /// Writes one frame and blocks for the peer's reply frame.
  Result<Frame> Roundtrip(FrameType type, std::string_view payload);
  Status SendAll(std::string_view bytes);
  /// Reads until the FrameReader yields a frame (or timeout / error).
  Result<Frame> RecvFrame();
  /// Closes the socket without the goodbye handshake.
  void Drop();
  /// Mints the next per-batch trace id (see last_trace_id()).
  uint64_t MintTraceId();

  ClientOptions options_;
  int fd_ = -1;
  uint64_t session_ = 0;
  FrameReader reader_;
  int last_retries_ = 0;
  uint64_t next_call_ = 0;
  uint64_t last_trace_id_ = 0;
};

}  // namespace cactis::net

#endif  // CACTIS_NET_CLIENT_H_
