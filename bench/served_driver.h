// One driver for the served-system experiments (E13, E15 and E17's
// served arms), in the spirit of OCB's parameterised generator (Darmont
// et al.): a workload is a description, and the driver seeds the counter
// hot and cold sets, runs closed-loop client sessions over the in-process
// loopback or real TCP, records client-observed latency, audits the
// final counter values against a shadow count of acknowledged
// increments, and checks that no session outlives its client.

#ifndef CACTIS_BENCH_SERVED_DRIVER_H_
#define CACTIS_BENCH_SERVED_DRIVER_H_

#include <sys/resource.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "obs/metrics.h"
#include "server/executor.h"
#include "server/transport.h"

namespace cactis::bench {

constexpr int kHotSet = 8;        // counters every workload contends on
constexpr uint64_t kHotPct = 80;  // ops on the hot set when a cold set exists

/// A loopback client sends each statement of an operation as its own
/// request; a TCP client sends the operation's statements as one batch.
enum class Transport { kLoopback, kTcp };

struct ServedWorkload {
  Transport transport = Transport::kLoopback;
  /// An increment is `begin`, `set obj(N).v = v + 1`, `commit`; false
  /// sends the `set` alone, as an auto-commit statement.
  bool explicit_txn = true;
  size_t sessions = 8;
  size_t threads = 0;  // driver threads sharing the sessions; 0 = one each
  int ops_per_session = 0;
  int read_pct = 95;  // auto-commit `get obj(N).v`; the rest increment
  int cold_set = 0;   // counters beyond the hot set
  /// Per-op chance that a session (TCP only) leaves cleanly, vanishes, or
  /// vanishes with an uncommitted increment (3:2:1), then reconnects.
  int churn_pct = 0;
  uint64_t seed = 1;  // driver thread t draws from Rng(seed * (t + 1))
  uint64_t platter_write_us = 0;  // simulated disk write latency
  core::DatabaseOptions db;
  server::ServerOptions server;
};

/// Client-observed latency in power-of-two microsecond buckets.
struct LatencyHistogram {
  std::array<uint64_t, obs::Histogram::kBuckets> buckets{};
  uint64_t count = 0;

  void Record(uint64_t us) {
    ++buckets[obs::Histogram::BucketOf(us)];
    ++count;
  }
  double QuantileUs(double q) const {
    return obs::BucketQuantile(buckets, count, q);
  }
};

/// What the clients saw. Over TCP, `aborts` and `rejects` count the
/// operations net::Client's own bounded retries gave up on; over the
/// loopback the driver retries without bound and counts every response.
struct ClientTally {
  uint64_t reads = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t rejects = 0;
  uint64_t reconnects = 0;   // TCP client retries
  uint64_t op_failures = 0;  // non-retryable errors
  uint64_t clean_churns = 0;
  uint64_t abrupt_churns = 0;
  uint64_t dirty_churns = 0;  // vanished with an uncommitted increment
  LatencyHistogram latency;   // per operation, retries included

  void Merge(const ClientTally& o) {
    for (auto f : {&ClientTally::reads, &ClientTally::commits,
                   &ClientTally::aborts, &ClientTally::rejects,
                   &ClientTally::reconnects, &ClientTally::op_failures,
                   &ClientTally::clean_churns, &ClientTally::abrupt_churns,
                   &ClientTally::dirty_churns}) {
      this->*f += o.*f;
    }
    for (size_t i = 0; i < latency.buckets.size(); ++i) {
      latency.buckets[i] += o.latency.buckets[i];
    }
    latency.count += o.latency.count;
  }
};

struct ServedRun {
  ClientTally clients;
  double wall_s = 0;  // from the start barrier to the last client's end
  /// Server sessions open at the start barrier, when every client has
  /// connected and none has started (the setup session included).
  uint64_t peak_sessions = 0;
  uint64_t lost_updates = 0;   // |shadow - final| summed over counters
  uint64_t session_leaks = 0;  // sessions left once every client is gone
  uint64_t eager_closes = 0;   // the TCP server's counters (0 on loopback)
  uint64_t connections_accepted = 0;
  uint64_t frames_received = 0;
  uint64_t frames_sent = 0;
  uint64_t framing_errors = 0;
};

namespace served_detail {

inline void MustOk(const server::Response& r, const char* what) {
  Die(r.ok() ? Status::OK() : Status::Internal(r.payload), what);
}

/// The statements of one operation.
using Op = std::vector<std::string>;

inline Op OpOn(const std::string& obj, bool is_read, bool explicit_txn) {
  if (is_read) return {"get " + obj + ".v"};
  std::string set = "set " + obj + ".v = v + 1";
  if (!explicit_txn) return {std::move(set)};
  return {"begin", std::move(set), "commit"};
}

/// One closed-loop client: a loopback session, or a TCP connection.
class ClientSession {
 public:
  explicit ClientSession(server::LoopbackTransport* loopback)
      : loopback_(loopback), id_(MustV(loopback->Connect(), "connect")) {}

  explicit ClientSession(const net::ClientOptions& options)
      : tcp_(std::make_unique<net::Client>(options)) {
    // Every session must be live at the start barrier; retry briefly in
    // case the accept queue refuses a burst of connects.
    for (int attempt = 0; attempt < 50 && !tcp_->Connect().ok(); ++attempt) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

  /// Runs `op`; true once the server acknowledged all of it.
  bool Run(const Op& op, ClientTally* tally) {
    return tcp_ != nullptr ? RunTcp(op, tally) : RunLoopback(op, tally);
  }

  // Churn (TCP only).
  void Close() { tcp_->Close(); }
  void Abandon() { tcp_->Abandon(); }
  void AbandonMidTransaction(const std::string& obj) {
    (void)tcp_->Call({"begin", "set " + obj + ".v = v + 1"});
    tcp_->Abandon();
  }
  void Reconnect() { (void)tcp_->Connect(); }

  void Finish() {
    if (tcp_ != nullptr) {
      tcp_->Close();
    } else {
      Die(loopback_->Disconnect(id_), "disconnect");
    }
  }

 private:
  // A rejected statement is resent; an aborted one restarts the
  // operation (the server has rolled its transaction back).
  bool RunLoopback(const Op& op, ClientTally* tally) {
    for (;;) {
      bool aborted = false;
      for (const std::string& statement : op) {
        server::Response r = loopback_->Call(id_, statement);
        while (r.rejected()) {
          ++tally->rejects;
          std::this_thread::yield();
          r = loopback_->Call(id_, statement);
        }
        if (r.aborted()) {
          ++tally->aborts;
          aborted = true;
          break;
        }
        if (!r.ok()) {
          ++tally->op_failures;
          return false;
        }
      }
      if (!aborted) return true;
    }
  }

  // CallRetry reconnects and retries rejected and aborted responses under
  // the client's bounded backoff; what is left is counted, not retried.
  bool RunTcp(const Op& op, ClientTally* tally) {
    Result<net::WireResponse> r = tcp_->CallRetry(op);
    tally->reconnects += static_cast<uint64_t>(tcp_->last_retries());
    if (r.ok() && r->rejected()) {
      ++tally->rejects;
    } else if (r.ok() && r->aborted()) {
      ++tally->aborts;
    } else if (!r.ok() || !r->ok()) {
      ++tally->op_failures;
    } else {
      return true;
    }
    return false;
  }

  server::LoopbackTransport* loopback_ = nullptr;
  SessionId id_;
  std::unique_ptr<net::Client> tcp_;
};

/// One driver thread: connects its slice of sessions, waits at the start
/// barrier, then runs the ops round-robin across the slice so every
/// session stays open for the whole run.
inline void DriveSlice(const ServedWorkload& w, size_t tid, size_t sessions,
                       server::LoopbackTransport* loopback, uint16_t port,
                       const std::vector<std::string>& objs,
                       std::vector<std::atomic<uint64_t>>* shadow,
                       ClientTally* tally, std::latch* connected,
                       std::latch* go) {
  Rng rng(w.seed * (tid + 1));
  std::vector<ClientSession> clients;
  clients.reserve(sessions);
  for (size_t i = 0; i < sessions; ++i) {
    if (w.transport == Transport::kLoopback) {
      clients.emplace_back(loopback);
      continue;
    }
    net::ClientOptions copts;
    copts.port = port;
    copts.request_timeout_ms = 60'000;
    copts.retry.max_attempts = 12;
    copts.retry.base_us = 100;
    copts.retry.max_us = 20'000;
    copts.retry.jitter_seed = 0xC0FFEE + tid;
    clients.emplace_back(copts);
  }
  connected->count_down();
  go->wait();

  auto pick = [&]() -> size_t {
    if (w.cold_set > 0 && rng.Uniform(100) >= kHotPct) {
      return kHotSet + rng.Uniform(static_cast<uint64_t>(w.cold_set));
    }
    return rng.Uniform(kHotSet);
  };
  for (int op = 0; op < w.ops_per_session; ++op) {
    for (ClientSession& c : clients) {
      const size_t j = pick();
      const bool is_read =
          rng.Uniform(100) < static_cast<uint64_t>(w.read_pct);
      const auto t0 = std::chrono::steady_clock::now();
      const bool acked = c.Run(OpOn(objs[j], is_read, w.explicit_txn), tally);
      tally->latency.Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
      if (!acked) continue;
      if (is_read) {
        ++tally->reads;
      } else {
        (*shadow)[j].fetch_add(1, std::memory_order_relaxed);
        ++tally->commits;
      }
      if (w.churn_pct == 0 ||
          rng.Uniform(100) >= static_cast<uint64_t>(w.churn_pct)) {
        continue;
      }
      const uint64_t kind = rng.Uniform(6);
      if (kind < 3) {
        ++tally->clean_churns;
        c.Close();
      } else if (kind < 5) {
        ++tally->abrupt_churns;
        c.Abandon();
      } else {
        ++tally->dirty_churns;
        c.AbandonMidTransaction(objs[pick()]);
      }
      c.Reconnect();
    }
  }
  for (ClientSession& c : clients) c.Finish();
}

}  // namespace served_detail

/// Runs `w` against a fresh database and executor. `inspect` sees both
/// once every client has finished, before the audit's reads and before
/// shutdown — the moment to copy server, WAL and trace counters or dump
/// artifacts.
inline ServedRun RunServed(
    const ServedWorkload& w,
    const std::function<void(core::Database&, server::Executor&)>& inspect =
        {}) {
  using served_detail::MustOk;
  if (w.transport == Transport::kTcp) {
    // S sockets plus the server side of each need ~2S+ descriptors, and
    // CI defaults are often 1024: raise the soft limit to the hard one.
    rlimit rl{};
    if (getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur < rl.rlim_max) {
      rl.rlim_cur = rl.rlim_max;
      setrlimit(RLIMIT_NOFILE, &rl);
    }
  }

  core::Database db(w.db);
  Die(db.LoadSchema(kCounterSchema), "schema");
  db.disk()->set_write_latency_us(w.platter_write_us);
  server::Executor exec(&db, w.server);
  exec.Start();
  server::LoopbackTransport loopback(&exec);
  const SessionId setup = MustV(loopback.Connect(), "connect");
  std::vector<std::string> objs;  // "obj(N)"; every `v` starts at 0
  for (int i = 0; i < kHotSet + w.cold_set; ++i) {
    server::Response r = loopback.Call(setup, "create counter");
    MustOk(r, "create");
    objs.push_back(r.payload);
  }
  std::unique_ptr<net::TcpServer> tcp;
  if (w.transport == Transport::kTcp) {
    tcp = std::make_unique<net::TcpServer>(&exec, net::TcpServerOptions{});
    Die(tcp->Start(), "tcp server");
  }

  const size_t threads = w.threads == 0 ? w.sessions : w.threads;
  std::vector<std::atomic<uint64_t>> shadow(objs.size());
  std::vector<ClientTally> tallies(threads);
  std::latch connected(static_cast<std::ptrdiff_t>(threads));
  std::latch go(1);
  std::vector<std::thread> drivers;
  for (size_t t = 0; t < threads; ++t) {
    drivers.emplace_back(
        served_detail::DriveSlice, std::cref(w), t,
        (t + 1) * w.sessions / threads - t * w.sessions / threads, &loopback,
        tcp != nullptr ? tcp->port() : uint16_t{0}, std::cref(objs), &shadow,
        &tallies[t], &connected, &go);
  }
  connected.wait();
  ServedRun run;
  run.peak_sessions = exec.session_count();
  const auto t0 = std::chrono::steady_clock::now();
  go.count_down();
  for (auto& d : drivers) d.join();
  run.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  for (const ClientTally& t : tallies) run.clients.Merge(t);
  if (inspect) inspect(db, exec);

  // Every client is gone, so only the setup session may remain. Eager
  // closes of vanished TCP clients may still be in flight: allow them a
  // few seconds.
  for (int spin = 0; spin < 500; ++spin) {
    run.session_leaks =
        exec.session_count() > 1 ? exec.session_count() - 1 : 0;
    if (run.session_leaks == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Lost-update audit: each final value must equal its shadow count. An
  // uncommitted increment left by a vanished client, or a retry that
  // applied twice, would overshoot.
  for (size_t j = 0; j < objs.size(); ++j) {
    server::Response r = loopback.Call(setup, "get " + objs[j] + ".v");
    MustOk(r, "audit get");
    const uint64_t got = std::strtoull(r.payload.c_str(), nullptr, 10);
    const uint64_t want = shadow[j].load();
    run.lost_updates += want > got ? want - got : got - want;
  }

  if (tcp != nullptr) {
    const net::NetStats& ns = tcp->stats();
    run.eager_closes = ns.eager_closes.load();
    run.connections_accepted = ns.connections_accepted.load();
    run.frames_received = ns.frames_received.load();
    run.frames_sent = ns.frames_sent.load();
    run.framing_errors = ns.framing_errors.load();
    tcp->Shutdown();
  }
  exec.Shutdown();
  return run;
}

/// The served-system invariants: nothing lost, leaked or corrupted, and
/// every session live at once. Prints each broken one to stderr and
/// returns how many broke; a bench exits nonzero on any.
inline int ReportViolations(const char* experiment, const ServedWorkload& w,
                            const ServedRun& r) {
  int broken = 0;
  auto check = [&](bool ok, const char* what, uint64_t value) {
    if (ok) return;
    ++broken;
    std::fprintf(stderr, "%s FAILED: %s = %llu\n", experiment, what,
                 static_cast<unsigned long long>(value));
  };
  check(r.lost_updates == 0, "lost_updates", r.lost_updates);
  check(r.session_leaks == 0, "session_leaks", r.session_leaks);
  check(r.clients.op_failures == 0, "op_failures", r.clients.op_failures);
  check(r.framing_errors == 0, "framing_errors", r.framing_errors);
  check(r.peak_sessions >= w.sessions, "peak_sessions (< sessions)",
        r.peak_sessions);
  return broken;
}

/// Writes a side artifact (slow-statement log, telemetry window) next to
/// the bench JSON.
inline void DumpArtifact(const std::string& name, const std::string& doc) {
  const std::string path = BenchPath(name);
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(doc.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("artifact -> %s\n", path.c_str());
  }
}

}  // namespace cactis::bench

#endif  // CACTIS_BENCH_SERVED_DRIVER_H_
