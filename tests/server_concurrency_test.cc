// Multi-session concurrency through the service layer: conflicting
// updates from many client threads must each end in a commit or a clean
// abort, and the final state must be serializable (no lost updates).
// This suite is the TSan target: run it under -DCACTIS_SANITIZE=thread.

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/object_cache.h"
#include "server/executor.h"
#include "server/statement.h"
#include "server/transport.h"
#include "storage/buffer_pool.h"
#include "storage/record_store.h"
#include "storage/simulated_disk.h"

namespace cactis::server {
namespace {

const char* kSchema = R"(
  object class counter is
    attributes
      v : int;
  end object;
)";

InstanceId MustParseObj(const std::string& payload) {
  uint64_t n = 0;
  if (std::sscanf(payload.c_str(), "obj(%" SCNu64 ")", &n) != 1) {
    ADD_FAILURE() << "not an obj payload: " << payload;
  }
  return InstanceId(n);
}

// Calls until admission control lets the request through (kRejected
// means "nothing executed, try again").
Response CallAdmitted(LoopbackTransport* client, SessionId s,
                      const std::string& text) {
  for (;;) {
    Response r = client->Call(s, text);
    if (!r.rejected()) return r;
    std::this_thread::yield();
  }
}

// One serializable increment as a multi-request transaction — begin,
// read-modify-write set, commit each round-trip separately, so the
// transactions of different sessions genuinely interleave statement by
// statement. A kAborted anywhere rolls the attempt back cleanly; retry
// from begin. Returns the abort count.
int IncrementUntilCommitted(LoopbackTransport* client, SessionId s,
                            const std::string& obj) {
  int aborts = 0;
  for (int attempt = 0; attempt < 10000; ++attempt) {
    Response b = CallAdmitted(client, s, "begin");
    if (!b.ok()) {
      ADD_FAILURE() << "begin failed: " << b.payload;
      return aborts;
    }
    Response w = CallAdmitted(client, s, "set " + obj + ".v = v + 1");
    if (w.aborted()) {
      ++aborts;
      continue;
    }
    if (!w.ok()) {
      ADD_FAILURE() << "set failed: " << w.payload;
      return aborts;
    }
    Response c = CallAdmitted(client, s, "commit");
    if (c.aborted()) {
      ++aborts;
      continue;
    }
    if (!c.ok()) {
      ADD_FAILURE() << "commit failed: " << c.payload;
      return aborts;
    }
    return aborts;
  }
  ADD_FAILURE() << "increment never committed";
  return aborts;
}

TEST(ServerConcurrencyTest, ConflictingIncrementsLoseNoUpdates) {
  core::Database db;
  ASSERT_TRUE(db.LoadSchema(kSchema).ok());
  ServerOptions opts;
  opts.num_workers = 4;
  opts.max_queue_depth = 256;
  Executor exec(&db, opts);
  exec.Start();
  LoopbackTransport client(&exec);

  auto setup = *client.Connect();
  auto id = MustParseObj(client.Call(setup, "create counter as c").payload);
  const std::string obj = FormatInstance(id);

  constexpr int kThreads = 8;
  constexpr int kIncrements = 30;
  // Every increment is a read-modify-write transaction spanning three
  // round trips: the read of `v` inside the set expression goes through
  // the session's open transaction and marks the read timestamp, so a
  // racing writer aborts instead of silently clobbering.
  std::atomic<int> total_aborts{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto s = client.Connect();
      ASSERT_TRUE(s.ok());
      for (int i = 0; i < kIncrements; ++i) {
        total_aborts.fetch_add(IncrementUntilCommitted(&client, *s, obj));
      }
      EXPECT_TRUE(client.Disconnect(*s).ok());
    });
  }
  for (auto& th : threads) th.join();

  Response final = client.Call(setup, "get " + obj + ".v");
  ASSERT_TRUE(final.ok()) << final.payload;
  EXPECT_EQ(final.payload, std::to_string(kThreads * kIncrements))
      << "lost updates detected";
  // Contention this heavy must actually exercise the abort path.
  EXPECT_GT(total_aborts.load(), 0);
  EXPECT_EQ(exec.stats().txn_aborts.load(),
            static_cast<uint64_t>(total_aborts.load()));
  exec.Shutdown();
}

TEST(ServerConcurrencyTest, DisjointSessionsCommitWithoutConflicts) {
  core::Database db;
  ASSERT_TRUE(db.LoadSchema(kSchema).ok());
  ServerOptions opts;
  opts.num_workers = 4;
  Executor exec(&db, opts);
  exec.Start();
  LoopbackTransport client(&exec);

  constexpr int kThreads = 6;
  constexpr int kRounds = 20;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&client] {
      auto s = *client.Connect();
      auto r = client.Call(s, "create counter as mine");
      ASSERT_TRUE(r.ok()) << r.payload;
      for (int i = 0; i < kRounds; ++i) {
        // Each thread touches only its own instance: no conflicts.
        auto w = client.Call(s, "begin; set mine.v = v + 1; commit");
        ASSERT_TRUE(w.ok()) << w.payload;
      }
      auto g = client.Call(s, "get mine.v");
      EXPECT_EQ(g.payload, std::to_string(kRounds));
      EXPECT_TRUE(client.Disconnect(s).ok());
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(exec.stats().txn_conflicts.load(), 0u);
  exec.Shutdown();
}

TEST(ServerConcurrencyTest, SessionChurnWhileServing) {
  core::Database db;
  ASSERT_TRUE(db.LoadSchema(kSchema).ok());
  ServerOptions opts;
  opts.num_workers = 3;
  Executor exec(&db, opts);
  exec.Start();
  LoopbackTransport client(&exec);

  std::atomic<bool> stop{false};
  // Churners open a session, run one statement, disconnect — racing the
  // reaper, the workers, and each other on the session table.
  std::vector<std::thread> churners;
  for (int t = 0; t < 4; ++t) {
    churners.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto s = client.Connect();
        if (!s.ok()) continue;
        client.Call(*s, "create counter as x; set x.v = 1");
        (void)client.Disconnect(*s);
      }
    });
  }
  std::thread worker([&] {
    auto s = *client.Connect();
    for (int i = 0; i < 50; ++i) {
      auto r = client.Call(s, "instances counter");
      EXPECT_NE(r.status, ResponseStatus::kNoSession);
    }
    stop.store(true, std::memory_order_relaxed);
  });
  worker.join();
  for (auto& th : churners) th.join();
  exec.Shutdown();
  EXPECT_EQ(exec.session_count(), 0u);
}

TEST(ServerConcurrencyTest, AdmissionControlUnderLoadNeverHangs) {
  core::Database db;
  ASSERT_TRUE(db.LoadSchema(kSchema).ok());
  ServerOptions opts;
  opts.num_workers = 2;
  opts.max_queue_depth = 4;  // tiny: force rejections
  Executor exec(&db, opts);
  exec.Start();
  LoopbackTransport client(&exec);

  constexpr int kThreads = 6;
  constexpr int kRequests = 40;
  std::atomic<int> completed{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto s = *client.Connect();
      for (int i = 0; i < kRequests; ++i) {
        Response r = client.Call(s, "instances counter");
        if (r.rejected()) {
          ++rejected;
        } else {
          ASSERT_TRUE(r.ok()) << r.payload;
          ++completed;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // Every request got exactly one answer.
  EXPECT_EQ(completed.load() + rejected.load(), kThreads * kRequests);
  EXPECT_EQ(exec.stats().requests_completed.load() +
                exec.stats().requests_rejected.load(),
            exec.stats().requests_submitted.load());
  exec.Shutdown();
}

// The property of the concurrent read path: snapshot readers running
// beside a writer must never observe a torn or retrograde value — a
// reader observing the counter decrease would mean it saw an increment
// that was later rolled back.
TEST(ServerConcurrencyTest, ConcurrentReadersSeeMonotonicValues) {
  core::Database db;
  ASSERT_TRUE(db.LoadSchema(kSchema).ok());
  ServerOptions opts;
  opts.num_workers = 6;
  opts.max_queue_depth = 256;
  Executor exec(&db, opts);
  exec.Start();
  LoopbackTransport client(&exec);

  auto setup = *client.Connect();
  auto id = MustParseObj(client.Call(setup, "create counter as c").payload);
  ASSERT_TRUE(client.Call(setup, "set " + FormatInstance(id) + ".v = 0").ok());
  const std::string obj = FormatInstance(id);

  constexpr int kReaders = 4;
  constexpr int kReadsEach = 200;
  constexpr int kIncrements = 15;

  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      auto s = *client.Connect();
      int64_t last = -1;
      for (int i = 0; i < kReadsEach; ++i) {
        Response r = CallAdmitted(&client, s, "get " + obj + ".v");
        ASSERT_TRUE(r.ok()) << r.payload;
        int64_t v = std::stoll(r.payload);
        EXPECT_GE(v, last) << "reader observed the counter decrease";
        last = v;
      }
      EXPECT_TRUE(client.Disconnect(s).ok());
    });
  }
  threads.emplace_back([&] {
    auto s = *client.Connect();
    for (int i = 0; i < kIncrements; ++i) {
      IncrementUntilCommitted(&client, s, obj);
    }
    EXPECT_TRUE(client.Disconnect(s).ok());
  });
  for (auto& th : threads) th.join();

  Response final = client.Call(setup, "get " + obj + ".v");
  ASSERT_TRUE(final.ok()) << final.payload;
  EXPECT_EQ(final.payload, std::to_string(kIncrements)) << "lost updates";
  // The reads must have been answered off the statement mutex: an
  // auto-commit get of a committed intrinsic attribute resolves on the
  // lock-free MVCC snapshot path.
  EXPECT_GT(exec.stats().snapshot_reads.load(), 0u);
  exec.Shutdown();
}

// Snapshot readers record deferred touches from many threads without the
// statement mutex: the recording must be clean, and the drained touch
// counts must equal what the readers recorded.
TEST(ServerConcurrencyTest, ObjectCacheConcurrentTouchStress) {
  storage::SimulatedDisk disk(4096);
  storage::BufferPool pool(&disk, 64);
  storage::RecordStore store(&disk, &pool);
  schema::Catalog catalog;
  core::ObjectCache cache(&catalog, &store);

  constexpr uint64_t kInstances = 16;
  constexpr int kThreads = 8;
  constexpr int kTouchesEach = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kTouchesEach; ++i) {
        cache.NoteSharedTouch(
            InstanceId(static_cast<uint64_t>((i + t) % kInstances) + 1));
      }
    });
  }
  for (auto& th : threads) th.join();

  std::unordered_map<InstanceId, uint64_t> counts;
  cache.DrainTouches(&counts);
  uint64_t total = 0;
  for (const auto& [id, n] : counts) total += n;
  // Shards drop touches only past 4096 per shard; 16k touches over 8
  // shards stays under that, so nothing may be lost.
  EXPECT_EQ(total, static_cast<uint64_t>(kThreads) * kTouchesEach);
}

// Idle-session reaping (next-deadline watermark) must work while reader
// threads are running: the reaper disposes corpses under the statement
// mutex and must interleave cleanly with the lock-free snapshot reads.
TEST(ServerConcurrencyTest, ReapsIdleSessionsWhileReadersRun) {
  core::Database db;
  ASSERT_TRUE(db.LoadSchema(kSchema).ok());
  std::atomic<uint64_t> fake_now_ms{1000};
  ServerOptions opts;
  opts.num_workers = 4;
  opts.session_timeout_ms = 500;
  opts.now_ms = [&fake_now_ms] {
    return fake_now_ms.load(std::memory_order_relaxed);
  };
  Executor exec(&db, opts);
  exec.Start();
  LoopbackTransport client(&exec);

  auto setup = *client.Connect();
  auto id = MustParseObj(client.Call(setup, "create counter as c").payload);
  const std::string obj = FormatInstance(id);

  // Sessions that go idle (one holds an open transaction that must roll
  // back on expiry).
  constexpr int kIdle = 5;
  std::vector<SessionId> idle;
  for (int i = 0; i < kIdle; ++i) {
    auto s = *client.Connect();
    client.Call(s, i == 0 ? "begin" : "instances counter");
    idle.push_back(s);
  }

  std::atomic<bool> expired{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      auto s = *client.Connect();
      // Keep reading (snapshot traffic) until the reaper has fired,
      // plus a bounded tail so the test cannot hang. The clock jump can
      // expire a reader's own session between its requests — that's
      // correct behavior, so just reconnect.
      for (int i = 0; i < 3000 && !expired.load(); ++i) {
        Response r = CallAdmitted(&client, s, "get " + obj + ".v");
        if (r.status == ResponseStatus::kNoSession) s = *client.Connect();
      }
      client.Disconnect(s);
    });
  }

  // Let the readers spin, then advance past the timeout: the next
  // request's reap pass collects every idle session.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  fake_now_ms.store(2000, std::memory_order_relaxed);
  while (exec.stats().sessions_expired.load() <
         static_cast<uint64_t>(kIdle)) {
    Response r = client.Call(setup, "get " + obj + ".v");
    ASSERT_NE(r.status, ResponseStatus::kRejected) << r.payload;
  }
  expired.store(true);
  for (auto& th : readers) th.join();

  EXPECT_GE(exec.stats().sessions_expired.load(),
            static_cast<uint64_t>(kIdle));
  for (SessionId s : idle) {
    EXPECT_EQ(client.Call(s, "instances counter").status,
              ResponseStatus::kNoSession);
  }
  exec.Shutdown();
}

// Group commit end to end: concurrent committers must all be
// acknowledged durably, and the WAL must report batches (the whole point
// is fewer, larger writes under concurrency).
TEST(ServerConcurrencyTest, ConcurrentCommitsGroupIntoBatches) {
  core::Database db;
  ASSERT_TRUE(db.LoadSchema(kSchema).ok());
  ServerOptions opts;
  opts.num_workers = 6;
  opts.max_queue_depth = 256;
  Executor exec(&db, opts);
  exec.Start();
  LoopbackTransport client(&exec);

  constexpr int kThreads = 6;
  constexpr int kCommitsEach = 25;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&client] {
      auto s = *client.Connect();
      auto r = CallAdmitted(&client, s, "create counter as mine");
      ASSERT_TRUE(r.ok()) << r.payload;
      const std::string obj = FormatInstance(MustParseObj(r.payload));
      Response z = CallAdmitted(&client, s, "set " + obj + ".v = 0");
      ASSERT_TRUE(z.ok()) << z.payload;
      // Disjoint objects: no conflicts, so every commit succeeds — the
      // interesting contention is purely in the WAL's group-commit queue.
      for (int i = 0; i < kCommitsEach; ++i) {
        Response w = CallAdmitted(
            &client, s, "begin; set " + obj + ".v = v + 1; commit");
        ASSERT_TRUE(w.ok()) << w.payload;
      }
      Response g = CallAdmitted(&client, s, "get " + obj + ".v");
      EXPECT_EQ(g.payload, std::to_string(kCommitsEach));
      EXPECT_TRUE(client.Disconnect(s).ok());
    });
  }
  for (auto& th : threads) th.join();
  exec.Shutdown();

  // Every acknowledged commit reached the WAL exactly once (batched or
  // not), and every one was published to the version history.
  ASSERT_NE(db.wal(), nullptr);
  const txn::WalStats& ws = db.wal()->stats();
  // Per thread: create + initial set + kCommitsEach increments.
  const uint64_t expected_commits =
      static_cast<uint64_t>(kThreads) * (kCommitsEach + 2);
  EXPECT_EQ(db.committed_transactions(), expected_commits);
  EXPECT_GE(ws.entries_appended, expected_commits);
  // Group-commit accounting: every staged commit was carried by exactly
  // one flush, and flushes never outnumber the entries they carried.
  // (Whether multi-entry batches actually form is scheduling-dependent —
  // the in-memory flush is so fast that stagers rarely pile up here;
  // bench_recovery measures the batching win with real commit pressure.)
  EXPECT_EQ(ws.group_batched_entries, expected_commits);
  EXPECT_GE(ws.group_batched_entries, ws.group_batches);
  EXPECT_GT(ws.group_batches, 0u);
}

// Metrics snapshots must be safe while workers execute: 8 RMW threads
// hammer a shared counter while a snapshotter drains the full metrics
// document (server group included: cost aggregates, per-session
// accounting, the slow-statement log) in a loop. Run under TSan.
TEST(ServerConcurrencyTest, SnapshotMetricsDuringExecutionIsSafe) {
  core::Database db;
  ASSERT_TRUE(db.LoadSchema(kSchema).ok());
  ServerOptions opts;
  opts.num_workers = 4;
  opts.max_queue_depth = 256;
  opts.slow_statement_us = 0;  // exercise the slow log under load too
  opts.slow_log_capacity = 16;
  Executor exec(&db, opts);
  exec.Start();
  LoopbackTransport client(&exec);

  auto setup = *client.Connect();
  auto id = MustParseObj(client.Call(setup, "create counter as c").payload);
  const std::string obj = FormatInstance(id);

  constexpr int kThreads = 8;
  constexpr int kIncrements = 15;
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto s = *client.Connect();
      for (int i = 0; i < kIncrements; ++i) {
        IncrementUntilCommitted(&client, s, obj);
      }
      EXPECT_TRUE(client.Disconnect(s).ok());
    });
  }
  std::thread snapshotter([&] {
    int snapshots = 0;
    while (!done.load(std::memory_order_relaxed)) {
      std::string m = exec.SnapshotMetrics();
      EXPECT_NE(m.find("per_session"), std::string::npos);
      EXPECT_NE(m.find("slow_statements"), std::string::npos);
      EXPECT_NE(m.find("cost_blocks_read"), std::string::npos);
      ++snapshots;
    }
    EXPECT_GT(snapshots, 0);
  });
  for (auto& th : threads) th.join();
  done.store(true, std::memory_order_relaxed);
  snapshotter.join();

  Response final = client.Call(setup, "get " + obj + ".v");
  EXPECT_EQ(final.payload, std::to_string(kThreads * kIncrements))
      << "lost updates while snapshotting";
  exec.Shutdown();
}

// Trace-context propagation under real worker concurrency: with tracing
// on and 4 workers serving a mixed read/RMW load, essentially every
// recorded trace event must carry the trace id of the statement that
// caused it (zero would mean the thread-local context leaked or was
// missing). Run under TSan.
TEST(ServerConcurrencyTest, TraceIdsPropagateUnderWorkerConcurrency) {
  core::DatabaseOptions db_opts;
  db_opts.enable_tracing = true;
  db_opts.trace_capacity = 1 << 16;  // keep everything this test records
  core::Database db(db_opts);
  ASSERT_TRUE(db.LoadSchema(kSchema).ok());
  ServerOptions opts;
  opts.num_workers = 4;
  opts.max_queue_depth = 256;
  Executor exec(&db, opts);
  exec.Start();
  LoopbackTransport client(&exec);

  constexpr int kThreads = 4;
  constexpr int kRounds = 25;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&client] {
      auto s = *client.Connect();
      auto r = CallAdmitted(&client, s, "create counter as mine");
      ASSERT_TRUE(r.ok()) << r.payload;
      const std::string obj = FormatInstance(MustParseObj(r.payload));
      for (int i = 0; i < kRounds; ++i) {
        // E13-flavored mix: transactional RMW plus repeated reads.
        Response w = CallAdmitted(
            &client, s, "begin; set " + obj + ".v = v + 1; commit");
        ASSERT_TRUE(w.ok()) << w.payload;
        Response g = CallAdmitted(&client, s, "get " + obj + ".v");
        ASSERT_TRUE(g.ok()) << g.payload;
      }
      EXPECT_TRUE(client.Disconnect(s).ok());
    });
  }
  for (auto& th : threads) th.join();
  // All clients joined: workers are idle, the trace ring is quiescent.
  const auto& events = db.trace()->events();
  ASSERT_FALSE(events.empty());
  size_t traced = 0;
  for (const auto& e : events) {
    if (e.trace_id != 0) ++traced;
  }
  // >= 99% of events attribute to a statement (schema load and shutdown
  // drains are the only legitimately unattributed recorders, and neither
  // ran inside this window).
  EXPECT_GE(traced * 100, events.size() * 99)
      << traced << " of " << events.size() << " events traced";
  EXPECT_EQ(db.trace()->dropped(), 0u);
  exec.Shutdown();
}

}  // namespace
}  // namespace cactis::server
