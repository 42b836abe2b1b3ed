// Tests for src/net: wire framing, payload codecs, the TCP server, the
// client library, and the disconnect/eager-close path.
//
// The unit half exercises FrameReader and the payload codecs in memory;
// the integration half runs a real TcpServer on an ephemeral loopback
// port with real sockets — including raw (non-Client) connections that
// speak deliberately broken frames to verify the typed rejection codes.
// The concurrency tests are TSan targets (see CMake CACTIS_SANITIZE).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "net/wire.h"
#include "server/executor.h"
#include "storage/checksum.h"

namespace cactis::net {
namespace {

// --- FrameReader -------------------------------------------------------------

TEST(WireFrame, RoundTripEmptyPayload) {
  std::string bytes = EncodeFrame(FrameType::kHello, 0, "");
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes);
  FrameReader r;
  r.Feed(bytes);
  auto f = r.Next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, FrameType::kHello);
  EXPECT_EQ(f->session, 0u);
  EXPECT_TRUE(f->payload.empty());
  EXPECT_FALSE(r.Next().has_value());
  EXPECT_FALSE(r.poisoned());
  EXPECT_EQ(r.buffered_bytes(), 0u);
}

TEST(WireFrame, RoundTripMaxPayload) {
  std::string payload(kMaxPayloadBytes, 'x');
  payload[0] = '\0';
  payload[kMaxPayloadBytes - 1] = '\xff';
  std::string bytes = EncodeFrame(FrameType::kResponse, 0x1122334455667788ull,
                                  payload);
  FrameReader r;
  r.Feed(bytes);
  auto f = r.Next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, FrameType::kResponse);
  EXPECT_EQ(f->session, 0x1122334455667788ull);
  EXPECT_EQ(f->payload, payload);
}

TEST(WireFrame, OneBytePayloadOverLimitPoisons) {
  FrameReader r(/*max_payload=*/16);
  r.Feed(EncodeFrame(FrameType::kRequest, 1, std::string(17, 'p')));
  EXPECT_FALSE(r.Next().has_value());
  EXPECT_TRUE(r.poisoned());
  EXPECT_EQ(r.error(), WireCode::kFrameTooLarge);
}

TEST(WireFrame, OneByteAtATimeReassembly) {
  std::string bytes = EncodeFrame(FrameType::kRequest, 7, "hello, wire");
  FrameReader r;
  for (size_t i = 0; i + 1 < bytes.size(); ++i) {
    r.Feed(std::string_view(&bytes[i], 1));
    EXPECT_FALSE(r.Next().has_value()) << "frame complete early at byte " << i;
  }
  r.Feed(std::string_view(&bytes.back(), 1));
  auto f = r.Next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->payload, "hello, wire");
  EXPECT_FALSE(r.poisoned());
}

TEST(WireFrame, CoalescedFramesDecodeInOrder) {
  std::string bytes = EncodeFrame(FrameType::kHello, 0, "");
  bytes += EncodeFrame(FrameType::kRequest, 3, "one");
  bytes += EncodeFrame(FrameType::kGoodbye, 3, "");
  FrameReader r;
  r.Feed(bytes);
  auto a = r.Next();
  auto b = r.Next();
  auto c = r.Next();
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(a->type, FrameType::kHello);
  EXPECT_EQ(b->type, FrameType::kRequest);
  EXPECT_EQ(b->payload, "one");
  EXPECT_EQ(c->type, FrameType::kGoodbye);
  EXPECT_FALSE(r.Next().has_value());
}

/// Rewrites one header byte and recomputes (or preserves) the CRC.
std::string Corrupt(std::string bytes, size_t offset, char value,
                    bool fix_crc) {
  bytes[offset] = value;
  if (fix_crc) {
    std::string_view frame(bytes);
    uint32_t crc = storage::Crc32(frame.substr(kFrameHeaderBytes),
                                  storage::Crc32(frame.substr(0, 20)));
    std::memcpy(&bytes[20], &crc, sizeof(crc));
  }
  return bytes;
}

TEST(WireFrame, BadMagicPoisons) {
  FrameReader r;
  r.Feed(Corrupt(EncodeFrame(FrameType::kHello, 0, ""), 0, '\x00', true));
  EXPECT_FALSE(r.Next().has_value());
  EXPECT_EQ(r.error(), WireCode::kBadMagic);
}

TEST(WireFrame, VersionMismatchPoisons) {
  FrameReader r;
  r.Feed(Corrupt(EncodeFrame(FrameType::kHello, 0, ""), 4, '\x09', true));
  EXPECT_FALSE(r.Next().has_value());
  EXPECT_EQ(r.error(), WireCode::kVersionMismatch);
}

TEST(WireFrame, UnknownTypePoisons) {
  FrameReader r;
  r.Feed(Corrupt(EncodeFrame(FrameType::kHello, 0, ""), 5, '\x63', true));
  EXPECT_FALSE(r.Next().has_value());
  EXPECT_EQ(r.error(), WireCode::kBadFrame);
}

TEST(WireFrame, NonzeroFlagsPoison) {
  FrameReader r;
  r.Feed(Corrupt(EncodeFrame(FrameType::kHello, 0, ""), 6, '\x01', true));
  EXPECT_FALSE(r.Next().has_value());
  EXPECT_EQ(r.error(), WireCode::kBadFrame);
}

TEST(WireFrame, BadCrcPoisons) {
  std::string bytes = EncodeFrame(FrameType::kRequest, 1, "payload");
  bytes[kFrameHeaderBytes + 2] ^= 0x40;  // flip a payload bit, keep the CRC
  FrameReader r;
  r.Feed(bytes);
  EXPECT_FALSE(r.Next().has_value());
  EXPECT_EQ(r.error(), WireCode::kBadCrc);
}

TEST(WireFrame, PoisonedReaderStaysSilent) {
  FrameReader r;
  r.Feed(Corrupt(EncodeFrame(FrameType::kHello, 0, ""), 0, '\x00', true));
  EXPECT_FALSE(r.Next().has_value());
  ASSERT_TRUE(r.poisoned());
  // Even pristine frames fed afterwards must not decode: the stream is
  // desynchronized and cannot be trusted.
  r.Feed(EncodeFrame(FrameType::kHello, 0, ""));
  EXPECT_FALSE(r.Next().has_value());
  EXPECT_EQ(r.error(), WireCode::kBadMagic);
}

// --- Payload codecs ----------------------------------------------------------

TEST(WireCodec, RequestPayloadRoundTrip) {
  RequestPayload req;
  req.trace_id = 0x8000'1234'5678'9a00ull;
  req.statements = {"begin", "set obj(1).v = v + 1", "commit",
                    std::string("\0binary;stmt\n", 13), ""};
  auto decoded = DecodeRequestPayload(EncodeRequestPayload(req));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(*decoded, req);
}

TEST(WireCodec, RequestPayloadVectorOverloadMintsNoTraceId) {
  // The statement-vector convenience overload leaves trace_id = 0,
  // which tells the executor to mint a server-side id.
  auto decoded =
      DecodeRequestPayload(EncodeRequestPayload({std::string("commit")}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->trace_id, 0u);
  EXPECT_EQ(decoded->statements, std::vector<std::string>{"commit"});
}

TEST(WireCodec, RequestPayloadRejectsTruncation) {
  std::string bytes = EncodeRequestPayload({"get obj(1).v"});
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto r = DecodeRequestPayload(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(r.ok()) << "decoded from a " << cut << "-byte prefix";
  }
}

TEST(WireCodec, RequestPayloadRejectsAbsurdCount) {
  // A count field far beyond what the payload could hold must fail fast,
  // not attempt a 4-billion-element reserve. (First 8 bytes: trace id.)
  std::string bytes(8, '\x00');
  bytes.append(4, '\xff');
  EXPECT_FALSE(DecodeRequestPayload(bytes).ok());
}

TEST(WireCodec, RequestPayloadRejectsTrailingGarbage) {
  std::string bytes = EncodeRequestPayload({"commit"});
  bytes += "extra";
  EXPECT_FALSE(DecodeRequestPayload(bytes).ok());
}

TEST(WireCodec, ErrorPayloadRoundTrip) {
  auto decoded =
      DecodeErrorPayload(EncodeErrorPayload(WireCode::kRejected, "queue full"));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->first, WireCode::kRejected);
  EXPECT_EQ(decoded->second, "queue full");
}

TEST(WireCodec, ResponsePayloadRoundTrip) {
  server::Response resp;
  resp.status = server::ResponseStatus::kError;
  resp.payload = "42\nok";
  resp.metrics.queue_wait_us = 11;
  resp.metrics.exec_us = 22;
  resp.metrics.statements_run = 2;
  resp.metrics.session_ts = 33;
  resp.statements.push_back({Status::OK(), "42"});
  resp.statements.push_back({Status::NotFound("no such object"), ""});
  auto decoded = DecodeResponsePayload(EncodeResponsePayload(resp));
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->status, server::ResponseStatus::kError);
  EXPECT_EQ(decoded->payload, "42\nok");
  EXPECT_EQ(decoded->queue_wait_us, 11u);
  EXPECT_EQ(decoded->exec_us, 22u);
  EXPECT_EQ(decoded->statements_run, 2u);
  EXPECT_EQ(decoded->session_ts, 33u);
  ASSERT_EQ(decoded->statements.size(), 2u);
  EXPECT_EQ(decoded->statements[0].code, WireCode::kOk);
  EXPECT_EQ(decoded->statements[0].text, "42");
  EXPECT_EQ(decoded->statements[1].code, WireCode::kNotFound);
  // Failed statements carry the rendered Status (code prefix + message).
  EXPECT_NE(decoded->statements[1].text.find("no such object"),
            std::string::npos);
  // The batch-level code is the first failing statement's code.
  EXPECT_EQ(decoded->code, WireCode::kNotFound);
}

TEST(WireCodec, RetryableCodes) {
  EXPECT_TRUE(IsRetryableWireCode(WireCode::kConflict));
  EXPECT_TRUE(IsRetryableWireCode(WireCode::kTransactionAborted));
  EXPECT_TRUE(IsRetryableWireCode(WireCode::kRejected));
  EXPECT_TRUE(IsRetryableWireCode(WireCode::kDegraded));
  EXPECT_TRUE(IsRetryableWireCode(WireCode::kUnavailable));
  EXPECT_FALSE(IsRetryableWireCode(WireCode::kOk));
  EXPECT_FALSE(IsRetryableWireCode(WireCode::kParseError));
  EXPECT_FALSE(IsRetryableWireCode(WireCode::kNotFound));
  EXPECT_FALSE(IsRetryableWireCode(WireCode::kBadCrc));
  EXPECT_FALSE(IsRetryableWireCode(WireCode::kSessionMismatch));
}

TEST(WireCodec, StatusCodesSurviveTheWire) {
  for (StatusCode c : {StatusCode::kInvalidArgument, StatusCode::kNotFound,
                       StatusCode::kConflict, StatusCode::kTransactionAborted,
                       StatusCode::kParseError, StatusCode::kInternal}) {
    Status s(c, "m");
    Status back = StatusFromWireCode(WireCodeFromStatus(s), "m");
    EXPECT_EQ(back.code(), c) << WireCodeToString(WireCodeFromStatus(s));
  }
}

// --- Integration: real sockets ----------------------------------------------

constexpr const char* kSchema = R"(
  object class counter is
    attributes
      v : int;
  end object;
)";

/// A raw TCP connection speaking hand-crafted frames: the hostile-client
/// half of the tests, where net::Client is too well-behaved.
class RawConn {
 public:
  ~RawConn() { Close(); }

  void Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0)
        << std::strerror(errno);
  }

  void Send(std::string_view bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
      ASSERT_GT(n, 0) << std::strerror(errno);
      off += static_cast<size_t>(n);
    }
  }

  /// Blocks for the next frame; fails the test after ~5s of silence.
  std::optional<Frame> Recv() {
    char buf[4096];
    for (int spin = 0; spin < 5000; ++spin) {
      if (auto f = reader_.Next()) return f;
      if (reader_.poisoned()) return std::nullopt;
      ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n > 0) {
        reader_.Feed(std::string_view(buf, static_cast<size_t>(n)));
        continue;
      }
      if (n == 0) return std::nullopt;  // peer closed
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    return std::nullopt;
  }

  /// True once the peer closes the connection (EOF).
  bool WaitForClose() {
    char buf[4096];
    for (;;) {
      ssize_t n = ::read(fd_, buf, sizeof(buf));
      if (n == 0) return true;
      if (n < 0 && errno != EINTR) return false;
    }
  }

  /// Hello handshake; returns the session token.
  uint64_t Hello() {
    Send(EncodeFrame(FrameType::kHello, 0, ""));
    auto f = Recv();
    EXPECT_TRUE(f && f->type == FrameType::kHelloOk);
    return f ? f->session : 0;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  FrameReader reader_;
};

class NetIntegrationTest : public ::testing::Test {
 protected:
  void StartServer(size_t workers, size_t queue_depth = 64) {
    db_ = std::make_unique<core::Database>();
    ASSERT_TRUE(db_->LoadSchema(kSchema).ok());
    server::ServerOptions sopts;
    sopts.num_workers = workers;
    sopts.max_queue_depth = queue_depth;
    exec_ = std::make_unique<server::Executor>(db_.get(), sopts);
    exec_->Start();
    server_ = std::make_unique<TcpServer>(exec_.get(), TcpServerOptions{});
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_) server_->Shutdown();
    if (exec_) exec_->Shutdown();
  }

  ClientOptions Opts() {
    ClientOptions o;
    o.port = server_->port();
    o.request_timeout_ms = 10'000;
    return o;
  }

  /// Polls until the server holds exactly `n` sessions (eager closes land
  /// on the server's aux thread, asynchronously to the socket close).
  bool WaitForSessionCount(size_t n, int timeout_ms = 5'000) {
    for (int i = 0; i < timeout_ms; ++i) {
      if (exec_->session_count() == n) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return exec_->session_count() == n;
  }

  std::unique_ptr<core::Database> db_;
  std::unique_ptr<server::Executor> exec_;
  std::unique_ptr<TcpServer> server_;
};

TEST_F(NetIntegrationTest, HelloRequestGoodbye) {
  StartServer(/*workers=*/2);
  Client c(Opts());
  ASSERT_TRUE(c.Connect().ok());
  EXPECT_NE(c.session(), 0u);

  auto created = c.Call({"create counter"});
  ASSERT_TRUE(created.ok()) << created.status().message();
  ASSERT_TRUE(created->ok());
  const std::string obj = created->payload;  // "obj(N)"

  auto set = c.Call({"set " + obj + ".v = 5"});
  ASSERT_TRUE(set.ok() && set->ok());
  auto got = c.Call({"get " + obj + ".v"});
  ASSERT_TRUE(got.ok() && got->ok());
  EXPECT_EQ(got->payload, "5");

  c.Close();
  EXPECT_FALSE(c.connected());
  EXPECT_TRUE(WaitForSessionCount(0));
}

TEST_F(NetIntegrationTest, ReconnectYieldsFreshSession) {
  StartServer(2);
  Client c(Opts());
  ASSERT_TRUE(c.Connect().ok());
  uint64_t first = c.session();
  c.Close();
  ASSERT_TRUE(c.Connect().ok());
  EXPECT_NE(c.session(), first);
  c.Close();
}

TEST_F(NetIntegrationTest, ConcurrentClientsNoLostUpdates) {
  StartServer(/*workers=*/4);
  // One shared object, hammered by RMW transactions from many real
  // connections. Conflicts abort; CallRetry retries them; the final
  // value must equal the number of SUCCESSFUL commits exactly.
  Client setup(Opts());
  ASSERT_TRUE(setup.Connect().ok());
  auto created = setup.Call({"create counter"});
  ASSERT_TRUE(created.ok() && created->ok());
  const std::string obj = created->payload;
  ASSERT_TRUE(setup.Call({"set " + obj + ".v = 0"}).ok());

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 50;
  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      ClientOptions o = Opts();
      o.retry.max_attempts = 32;
      o.retry.base_us = 50;
      o.retry.max_us = 5'000;
      Client c(o);
      if (!c.Connect().ok()) {
        failures.fetch_add(kOpsPerThread);
        return;
      }
      for (int i = 0; i < kOpsPerThread; ++i) {
        auto r = c.CallRetry({"begin", "set " + obj + ".v = v + 1", "commit"});
        if (r.ok() && r->ok()) {
          commits.fetch_add(1);
        } else {
          failures.fetch_add(1);
        }
      }
      c.Close();
    });
  }
  for (auto& th : threads) th.join();

  auto got = setup.Call({"get " + obj + ".v"});
  ASSERT_TRUE(got.ok() && got->ok());
  EXPECT_EQ(got->payload, std::to_string(commits.load()));
  EXPECT_GT(commits.load(), 0u);
  setup.Close();
  EXPECT_TRUE(WaitForSessionCount(0));
}

TEST_F(NetIntegrationTest, AbandonRollsBackOpenTransaction) {
  StartServer(2);
  Client setup(Opts());
  ASSERT_TRUE(setup.Connect().ok());
  auto created = setup.Call({"create counter"});
  ASSERT_TRUE(created.ok() && created->ok());
  const std::string obj = created->payload;
  ASSERT_TRUE(setup.Call({"set " + obj + ".v = 10"}).ok());

  {
    // Stage an uncommitted increment, then vanish without goodbye — the
    // crashed-client case. The server must eager-close the session and
    // roll the transaction back.
    Client doomed(Opts());
    ASSERT_TRUE(doomed.Connect().ok());
    auto staged = doomed.Call({"begin", "set " + obj + ".v = v + 1"});
    ASSERT_TRUE(staged.ok() && staged->ok());
    doomed.Abandon();
  }
  // Both the doomed session (eager close) and only it must go away.
  ASSERT_TRUE(WaitForSessionCount(1));

  auto got = setup.Call({"get " + obj + ".v"});
  ASSERT_TRUE(got.ok() && got->ok());
  EXPECT_EQ(got->payload, "10") << "uncommitted increment leaked in";
  setup.Close();
}

TEST_F(NetIntegrationTest, CleanGoodbyeAlsoRollsBack) {
  StartServer(2);
  Client setup(Opts());
  ASSERT_TRUE(setup.Connect().ok());
  auto created = setup.Call({"create counter"});
  ASSERT_TRUE(created.ok() && created->ok());
  const std::string obj = created->payload;
  ASSERT_TRUE(setup.Call({"set " + obj + ".v = 3"}).ok());

  Client polite(Opts());
  ASSERT_TRUE(polite.Connect().ok());
  ASSERT_TRUE(polite.Call({"begin", "set " + obj + ".v = v + 1"}).ok());
  polite.Close();  // goodbye handshake, session closes cleanly
  ASSERT_TRUE(WaitForSessionCount(1));

  auto got = setup.Call({"get " + obj + ".v"});
  ASSERT_TRUE(got.ok() && got->ok());
  EXPECT_EQ(got->payload, "3");
  setup.Close();
}

TEST_F(NetIntegrationTest, BackpressureSurfacesAsTypedRejection) {
  // workers=0: nothing drains the queue, so it fills deterministically.
  StartServer(/*workers=*/0, /*queue_depth=*/2);
  RawConn conn;
  conn.Connect(server_->port());
  uint64_t token = conn.Hello();
  ASSERT_NE(token, 0u);

  // Pipeline queue_depth + 2 requests without reading: the first two
  // occupy the queue, the rest must come back IMMEDIATELY as typed
  // kRejected responses — never silently dropped, never disconnected.
  std::string batch = EncodeRequestPayload({"create counter"});
  for (int i = 0; i < 4; ++i) {
    conn.Send(EncodeFrame(FrameType::kRequest, token, batch));
  }
  for (int i = 0; i < 2; ++i) {
    auto f = conn.Recv();
    ASSERT_TRUE(f && f->type == FrameType::kResponse) << "reject " << i;
    auto resp = DecodeResponsePayload(f->payload);
    ASSERT_TRUE(resp.ok());
    EXPECT_TRUE(resp->rejected());
    EXPECT_EQ(resp->code, WireCode::kRejected);
    EXPECT_TRUE(resp->retryable());
  }

  // Drain the queued pair manually; their (ok) responses still arrive on
  // the same connection — backpressure rejected the overflow only.
  ASSERT_TRUE(exec_->RunOne());
  ASSERT_TRUE(exec_->RunOne());
  for (int i = 0; i < 2; ++i) {
    auto f = conn.Recv();
    ASSERT_TRUE(f && f->type == FrameType::kResponse) << "queued " << i;
    auto resp = DecodeResponsePayload(f->payload);
    ASSERT_TRUE(resp.ok());
    EXPECT_TRUE(resp->ok());
  }
}

TEST_F(NetIntegrationTest, VersionMismatchRejectedOverSocket) {
  StartServer(2);
  RawConn conn;
  conn.Connect(server_->port());
  std::string hello = EncodeFrame(FrameType::kHello, 0, "");
  hello[4] = '\x07';  // wrong protocol version
  {  // recompute the CRC so ONLY the version is wrong
    uint32_t crc = storage::Crc32(std::string_view(hello).substr(0, 20));
    std::memcpy(&hello[20], &crc, sizeof(crc));
  }
  conn.Send(hello);
  auto f = conn.Recv();
  ASSERT_TRUE(f && f->type == FrameType::kError);
  auto err = DecodeErrorPayload(f->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->first, WireCode::kVersionMismatch);
  EXPECT_TRUE(conn.WaitForClose());  // poisoned streams are torn down
}

TEST_F(NetIntegrationTest, GarbageBytesRejectedOverSocket) {
  StartServer(2);
  RawConn conn;
  conn.Connect(server_->port());
  conn.Send("GET / HTTP/1.1\r\nHost: not-a-cactis-peer\r\n\r\n");
  auto f = conn.Recv();
  ASSERT_TRUE(f && f->type == FrameType::kError);
  auto err = DecodeErrorPayload(f->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->first, WireCode::kBadMagic);
  EXPECT_TRUE(conn.WaitForClose());
}

TEST_F(NetIntegrationTest, SessionMismatchRejectedOverSocket) {
  StartServer(2);
  RawConn conn;
  conn.Connect(server_->port());
  uint64_t token = conn.Hello();
  ASSERT_NE(token, 0u);
  conn.Send(EncodeFrame(FrameType::kRequest, token + 1,
                        EncodeRequestPayload({"create counter"})));
  auto f = conn.Recv();
  ASSERT_TRUE(f && f->type == FrameType::kError);
  auto err = DecodeErrorPayload(f->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->first, WireCode::kSessionMismatch);
  EXPECT_TRUE(conn.WaitForClose());
}

TEST_F(NetIntegrationTest, RequestBeforeHelloRejected) {
  StartServer(2);
  RawConn conn;
  conn.Connect(server_->port());
  conn.Send(EncodeFrame(FrameType::kRequest, 99,
                        EncodeRequestPayload({"create counter"})));
  auto f = conn.Recv();
  ASSERT_TRUE(f && f->type == FrameType::kError);
  auto err = DecodeErrorPayload(f->payload);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->first, WireCode::kUnexpectedFrame);
}

TEST_F(NetIntegrationTest, EagerCloseOfUnknownSessionIsNotFound) {
  StartServer(2);
  EXPECT_EQ(exec_->CloseSessionEager(SessionId(424242)).code(),
            StatusCode::kNotFound);
}

TEST_F(NetIntegrationTest, EagerCloseIsExactlyOnce) {
  StartServer(2);
  auto sid = exec_->OpenSession();
  ASSERT_TRUE(sid.ok());
  EXPECT_TRUE(exec_->CloseSessionEager(*sid).ok());
  EXPECT_EQ(exec_->session_count(), 0u);
  // The second close must observe the session is already gone.
  EXPECT_EQ(exec_->CloseSessionEager(*sid).code(), StatusCode::kNotFound);
}

TEST_F(NetIntegrationTest, SchemaAndMetricsOverTheWire) {
  StartServer(2);
  Client c(Opts());
  ASSERT_TRUE(c.Connect().ok());
  ASSERT_TRUE(c.LoadSchema(R"(
    object class gadget is
      attributes
        weight : int;
    end object;
  )").ok());
  auto created = c.Call({"create gadget"});
  ASSERT_TRUE(created.ok() && created->ok());

  auto metrics = c.Metrics();
  ASSERT_TRUE(metrics.ok());
  // The server registers a "net" metrics group; its counters must be in
  // the snapshot fetched over the very transport they count.
  EXPECT_NE(metrics->find("net"), std::string::npos);
  c.Close();
}

}  // namespace
}  // namespace cactis::net
