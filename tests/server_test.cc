// Service layer: session lifecycle, timeout expiry, admission control,
// statement batching, conflict surfacing, cursors, and the "server"
// metrics group.

#include <cinttypes>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "core/database.h"
#include "server/executor.h"
#include "server/statement.h"
#include "server/transport.h"
#include "storage/fault_policy.h"

namespace cactis::server {
namespace {

const char* kSchema = R"(
  relationship link;
  object class node is
    relationships
      in  : link multi socket;
      out : link multi plug;
    attributes
      label : string;
      weight : int;
  end object;
  object class leaf is
    attributes
      v : int;
  end object;
)";

// Executor with manual draining (num_workers = 0) and an injectable
// clock: every test step is deterministic.
class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.LoadSchema(kSchema).ok());
    ServerOptions opts;
    opts.num_workers = 0;
    opts.max_queue_depth = 8;
    opts.session_timeout_ms = 1000;
    opts.now_ms = [this] { return now_ms_; };
    exec_ = std::make_unique<Executor>(&db_, opts);
    client_ = std::make_unique<LoopbackTransport>(exec_.get());
  }

  // Submit + drain + await, all on this thread.
  Response Call(SessionId s, std::string_view text) {
    auto fut = client_->Submit(s, text);
    while (exec_->RunOne()) {
    }
    return fut.get();
  }

  static InstanceId ParseObj(const std::string& payload) {
    uint64_t n = 0;
    EXPECT_EQ(std::sscanf(payload.c_str(), "obj(%" SCNu64 ")", &n), 1)
        << payload;
    return InstanceId(n);
  }

  core::Database db_;
  uint64_t now_ms_ = 0;
  std::unique_ptr<Executor> exec_;
  std::unique_ptr<LoopbackTransport> client_;
};

TEST(SessionManagerTest, SessionNewerThanTheReapClockIsNotExpired) {
  // A reaper's clock reading can predate a session opened concurrently;
  // the session's later timestamp must not wrap round to "idle forever".
  SessionManager sessions(/*timeout_ms=*/60'000);
  auto s = sessions.Open(/*now_ms=*/1000);
  EXPECT_TRUE(sessions.ReapExpired(/*now_ms=*/999).empty());
  EXPECT_NE(sessions.Find(s->id), nullptr);
  EXPECT_EQ(sessions.ReapExpired(1000 + 60'000).size(), 1u);
}

TEST_F(ServerTest, SessionLifecycle) {
  ASSERT_EQ(exec_->session_count(), 0u);
  auto s = client_->Connect();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(exec_->session_count(), 1u);
  ASSERT_TRUE(client_->Disconnect(*s).ok());
  EXPECT_EQ(exec_->session_count(), 0u);
  // Closing twice is NotFound; talking to a closed session is kNoSession.
  EXPECT_FALSE(client_->Disconnect(*s).ok());
  EXPECT_EQ(Call(*s, "create leaf").status, ResponseStatus::kNoSession);
  EXPECT_EQ(exec_->stats().sessions_opened.load(), 1u);
  EXPECT_EQ(exec_->stats().sessions_closed.load(), 1u);
}

TEST_F(ServerTest, AutoCommitCreateSetGet) {
  auto s = *client_->Connect();
  auto r = Call(s, "create leaf as x");
  ASSERT_EQ(r.status, ResponseStatus::kOk) << r.payload;
  EXPECT_EQ(r.payload.substr(0, 4), "obj(");
  ASSERT_EQ(Call(s, "set x.v = 40 + 2").status, ResponseStatus::kOk);
  auto g = Call(s, "get x.v");
  ASSERT_EQ(g.status, ResponseStatus::kOk);
  EXPECT_EQ(g.payload, "42");
}

TEST_F(ServerTest, BatchRunsAllStatementsInOneRequest) {
  auto s = *client_->Connect();
  auto r = Call(s, "create leaf as x; set x.v = 7; get x.v");
  ASSERT_EQ(r.status, ResponseStatus::kOk) << r.payload;
  ASSERT_EQ(r.statements.size(), 3u);
  EXPECT_EQ(r.metrics.statements_run, 3u);
  EXPECT_EQ(r.statements[2].payload, "7");
}

TEST_F(ServerTest, BatchStopsAtFirstError) {
  auto s = *client_->Connect();
  auto r = Call(s, "create leaf as x; set x.nope = 1; set x.v = 5");
  EXPECT_EQ(r.status, ResponseStatus::kError);
  EXPECT_EQ(r.metrics.statements_run, 2u);  // third never ran
  EXPECT_EQ(Call(s, "get x.v").payload, "0");
}

TEST_F(ServerTest, ExplicitTransactionCommitPersists) {
  auto s = *client_->Connect();
  auto id = ParseObj(Call(s, "create leaf as x").payload);
  auto r = Call(s, "begin; set x.v = 9; commit");
  ASSERT_EQ(r.status, ResponseStatus::kOk) << r.payload;
  EXPECT_EQ(Call(s, "get " + FormatInstance(id) + ".v").payload, "9");
}

TEST_F(ServerTest, ExplicitTransactionAbortRollsBack) {
  auto s = *client_->Connect();
  ASSERT_EQ(Call(s, "create leaf as x; set x.v = 1").status,
            ResponseStatus::kOk);
  ASSERT_EQ(Call(s, "begin; set x.v = 99; abort").status,
            ResponseStatus::kOk);
  EXPECT_EQ(Call(s, "get x.v").payload, "1");
}

TEST_F(ServerTest, SetExpressionReadsTargetAttributes) {
  auto s = *client_->Connect();
  ASSERT_EQ(Call(s, "create leaf as x; set x.v = 10").status,
            ResponseStatus::kOk);
  ASSERT_EQ(Call(s, "begin; set x.v = v + 5; commit").status,
            ResponseStatus::kOk);
  EXPECT_EQ(Call(s, "get x.v").payload, "15");
}

TEST_F(ServerTest, ConflictSurfacesAsCleanAbort) {
  auto setup = *client_->Connect();
  auto id = ParseObj(Call(setup, "create leaf as c").payload);
  auto obj = FormatInstance(id);

  auto a = *client_->Connect();
  auto b = *client_->Connect();
  ASSERT_EQ(Call(a, "begin").status, ResponseStatus::kOk);  // older ts
  ASSERT_EQ(Call(b, "begin").status, ResponseStatus::kOk);  // newer ts
  // b reads, pushing the read timestamp past a's.
  ASSERT_EQ(Call(b, "get " + obj + ".v").status, ResponseStatus::kOk);
  // a (older) writes: timestamp ordering rejects it, the transaction
  // rolls back, and the client sees kAborted — the retry signal.
  auto r = Call(a, "set " + obj + ".v = 5");
  EXPECT_EQ(r.status, ResponseStatus::kAborted) << r.payload;
  ASSERT_EQ(Call(b, "commit").status, ResponseStatus::kOk);
  EXPECT_GE(exec_->stats().txn_conflicts.load(), 1u);
  EXPECT_GE(exec_->stats().txn_aborts.load(), 1u);
  // The aborted session is still usable: retry succeeds.
  ASSERT_EQ(Call(a, "begin; set " + obj + ".v = 5; commit").status,
            ResponseStatus::kOk);
  EXPECT_EQ(Call(setup, "get " + obj + ".v").payload, "5");
}

TEST_F(ServerTest, QueueFullRejectsImmediately) {
  auto s = *client_->Connect();
  // No workers: requests pile up until we drain manually.
  std::vector<std::future<Response>> inflight;
  for (size_t i = 0; i < exec_->options().max_queue_depth; ++i) {
    inflight.push_back(client_->Submit(s, "create leaf"));
  }
  auto rejected = client_->Submit(s, "create leaf");
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready)
      << "rejection must complete without a worker";
  auto r = rejected.get();
  EXPECT_EQ(r.status, ResponseStatus::kRejected);
  EXPECT_EQ(r.payload, "request queue full");
  EXPECT_EQ(exec_->stats().requests_rejected.load(), 1u);

  while (exec_->RunOne()) {
  }
  for (auto& f : inflight) {
    EXPECT_EQ(f.get().status, ResponseStatus::kOk);
  }
  EXPECT_EQ(exec_->stats().queue_depth.load(), 0u);
  EXPECT_EQ(exec_->stats().queue_depth_peak.load(),
            exec_->options().max_queue_depth);
}

TEST_F(ServerTest, IdleSessionExpiresAndRollsBack) {
  auto idle = *client_->Connect();
  auto live = *client_->Connect();
  auto id = ParseObj(Call(live, "create leaf as c").payload);
  auto obj = FormatInstance(id);

  // idle opens a transaction and goes quiet mid-flight.
  ASSERT_EQ(Call(idle, "begin; set " + obj + ".v = 77").status,
            ResponseStatus::kOk);

  now_ms_ += 2000;  // past session_timeout_ms
  // Any request processing reaps; live's request is the trigger.
  ASSERT_EQ(Call(live, "get " + obj + ".v").status, ResponseStatus::kOk);
  EXPECT_EQ(exec_->stats().sessions_expired.load(), 1u);
  EXPECT_EQ(exec_->session_count(), 1u);
  EXPECT_EQ(Call(idle, "commit").status, ResponseStatus::kNoSession);
  // The expired session's uncommitted write rolled back.
  EXPECT_EQ(Call(live, "get " + obj + ".v").payload, "0");
}

TEST_F(ServerTest, ActivityKeepsSessionAlive) {
  auto s = *client_->Connect();
  for (int i = 0; i < 5; ++i) {
    now_ms_ += 800;  // under the 1000 ms timeout each step
    ASSERT_EQ(Call(s, "instances leaf").status, ResponseStatus::kOk)
        << "step " << i;
  }
  EXPECT_EQ(exec_->stats().sessions_expired.load(), 0u);
}

TEST_F(ServerTest, CursorSelectAndFetch) {
  auto s = *client_->Connect();
  ASSERT_EQ(Call(s,
                 "create leaf as a; set a.v = 1;"
                 "create leaf as b; set b.v = 5;"
                 "create leaf as c; set c.v = 9")
                .status,
            ResponseStatus::kOk);
  auto r = Call(s, "select leaf where v > 2");
  ASSERT_EQ(r.status, ResponseStatus::kOk) << r.payload;
  EXPECT_EQ(r.payload, "count=2");
  auto f1 = Call(s, "fetch");
  EXPECT_EQ(f1.payload.substr(0, 4), "obj(");
  auto f2 = Call(s, "fetch 5");  // over-asks: returns the remainder
  EXPECT_EQ(f2.payload.substr(0, 4), "obj(");
  EXPECT_EQ(Call(s, "fetch").payload, "end");

  EXPECT_EQ(Call(s, "instances leaf").payload, "count=3");
}

TEST_F(ServerTest, ConnectAndDisconnect) {
  auto s = *client_->Connect();
  ASSERT_EQ(Call(s, "create node as a; create node as b").status,
            ResponseStatus::kOk);
  ASSERT_EQ(Call(s, "connect a.out to b.in").status, ResponseStatus::kOk);
  ASSERT_EQ(Call(s, "disconnect a.out to b.in").status,
            ResponseStatus::kOk);
  // Nothing left to disconnect.
  EXPECT_EQ(Call(s, "disconnect a.out to b.in").status,
            ResponseStatus::kError);
}

TEST_F(ServerTest, ParseErrorIsError) {
  auto s = *client_->Connect();
  EXPECT_EQ(Call(s, "frobnicate x").status, ResponseStatus::kError);
  EXPECT_EQ(Call(s, "set = 3").status, ResponseStatus::kError);
  EXPECT_EQ(exec_->stats().statement_errors.load(), 2u);
}

TEST_F(ServerTest, UnknownBindingIsError) {
  auto s = *client_->Connect();
  EXPECT_EQ(Call(s, "get ghost.v").status, ResponseStatus::kError);
}

TEST_F(ServerTest, BindingsArePerSession) {
  auto s1 = *client_->Connect();
  auto s2 = *client_->Connect();
  ASSERT_EQ(Call(s1, "create leaf as mine").status, ResponseStatus::kOk);
  EXPECT_EQ(Call(s2, "get mine.v").status, ResponseStatus::kError);
}

TEST_F(ServerTest, MetricsGroupVisibleInSnapshot) {
  auto s = *client_->Connect();
  ASSERT_EQ(Call(s, "create leaf as x; set x.v = 1; get x.v").status,
            ResponseStatus::kOk);
  std::string snap = exec_->SnapshotMetrics();
  EXPECT_NE(snap.find("\"server\""), std::string::npos) << snap;
  EXPECT_NE(snap.find("requests_completed"), std::string::npos);
  EXPECT_NE(snap.find("queue_depth"), std::string::npos);
  EXPECT_NE(snap.find("active_sessions"), std::string::npos);
  EXPECT_NE(snap.find("statement_latency_p99_us"), std::string::npos);
  EXPECT_GE(exec_->stats().latency_count.load(), 3u);
  EXPECT_GE(exec_->stats().LatencyQuantileUs(0.99),
            exec_->stats().LatencyQuantileUs(0.5));
}

TEST_F(ServerTest, RequestMetricsReported) {
  auto s = *client_->Connect();
  auto r = Call(s, "begin; create leaf as x; commit");
  ASSERT_EQ(r.status, ResponseStatus::kOk);
  EXPECT_EQ(r.metrics.statements_run, 3u);
  EXPECT_GT(r.metrics.session_ts, 0u);
}

TEST_F(ServerTest, ReorganizeStatementReportsPlacement) {
  auto s = *client_->Connect();
  ASSERT_EQ(Call(s, "create node as a; create node as b; create node as c")
                .status,
            ResponseStatus::kOk);
  ASSERT_EQ(Call(s, "connect a.out to b.in; connect b.out to c.in").status,
            ResponseStatus::kOk);
  auto r = Call(s, "reorganize");
  ASSERT_EQ(r.status, ResponseStatus::kOk) << r.payload;
  EXPECT_NE(r.payload.find("\"policy\":\"dstc\""), std::string::npos)
      << r.payload;
  EXPECT_NE(r.payload.find("\"instances\":3"), std::string::npos)
      << r.payload;
  EXPECT_NE(r.payload.find("\"blocks\":"), std::string::npos);
  EXPECT_NE(r.payload.find("\"fill_factor_pct\":"), std::string::npos);
  EXPECT_EQ(db_.cluster_stats().reorg_runs, 1u);
  // The metrics snapshot carries the new cluster group.
  std::string snap = db_.SnapshotMetrics();
  EXPECT_NE(snap.find("\"cluster\""), std::string::npos) << snap;
  EXPECT_NE(snap.find("reorg_runs"), std::string::npos);
}

TEST_F(ServerTest, ReorganizeSelectsPolicy) {
  auto s = *client_->Connect();
  ASSERT_EQ(Call(s, "create leaf").status, ResponseStatus::kOk);
  auto r = Call(s, "reorganize typegraph");
  ASSERT_EQ(r.status, ResponseStatus::kOk) << r.payload;
  EXPECT_NE(r.payload.find("\"policy\":\"typegraph\""), std::string::npos)
      << r.payload;
  EXPECT_EQ(db_.cluster_policy(), cluster::PolicyKind::kTypeGraph);
  // `reorg` is an accepted alias; the selected policy sticks.
  r = Call(s, "reorg greedy_usage");
  ASSERT_EQ(r.status, ResponseStatus::kOk) << r.payload;
  EXPECT_EQ(db_.cluster_policy(), cluster::PolicyKind::kGreedyUsage);
}

TEST_F(ServerTest, ReorganizeRejectsUnknownPolicy) {
  auto s = *client_->Connect();
  auto r = Call(s, "reorganize quicksort");
  EXPECT_EQ(r.status, ResponseStatus::kError);
  EXPECT_NE(r.statements[0].status.ToString().find(
                "unknown clustering policy"),
            std::string::npos)
      << r.statements[0].status.ToString();
  EXPECT_EQ(db_.cluster_stats().reorg_runs, 0u);
}

TEST_F(ServerTest, ReorganizeRejectedWhileDegraded) {
  auto s = *client_->Connect();
  ASSERT_EQ(Call(s, "create leaf as x").status, ResponseStatus::kOk);

  storage::TransientStorm storm;
  db_.disk()->set_fault_policy(&storm);
  storm.storming.store(true);
  EXPECT_NE(Call(s, "set x.v = 1").status, ResponseStatus::kOk);
  ASSERT_TRUE(exec_->degraded());

  // Reorganize is a mutation: refused fast, nothing repacked.
  auto r = Call(s, "reorganize");
  EXPECT_EQ(r.status, ResponseStatus::kUnavailable) << r.payload;
  EXPECT_EQ(db_.cluster_stats().reorg_runs, 0u);

  // Storm over: a probe restores read-write and reorganize runs.
  storm.storming.store(false);
  ASSERT_TRUE(exec_->ProbeOnce());
  r = Call(s, "reorganize");
  EXPECT_EQ(r.status, ResponseStatus::kOk) << r.payload;
  EXPECT_EQ(db_.cluster_stats().reorg_runs, 1u);
}

TEST_F(ServerTest, ProfileReorganizeAttributesCost) {
  auto s = *client_->Connect();
  ASSERT_EQ(Call(s, "create node as a; create node as b").status,
            ResponseStatus::kOk);
  ASSERT_EQ(Call(s, "connect a.out to b.in").status, ResponseStatus::kOk);
  auto r = Call(s, "profile reorganize");
  ASSERT_EQ(r.status, ResponseStatus::kOk) << r.payload;
  // The repack rewrites every record's block under the statement's
  // RequestScope, so the cost JSON must attribute those writes.
  EXPECT_NE(r.payload.find("\"cost\""), std::string::npos) << r.payload;
  EXPECT_EQ(r.payload.find("\"blocks_written\":0,"), std::string::npos)
      << "reorganize charged no writes: " << r.payload;
  EXPECT_EQ(db_.cluster_stats().reorg_runs, 1u);
}

TEST_F(ServerTest, ExplainReorganizeReportsPlanWithoutRunning) {
  auto s = *client_->Connect();
  ASSERT_EQ(Call(s, "create leaf").status, ResponseStatus::kOk);
  auto r = Call(s, "explain reorganize typegraph");
  ASSERT_EQ(r.status, ResponseStatus::kOk) << r.payload;
  EXPECT_NE(r.payload.find("typegraph"), std::string::npos) << r.payload;
  // Explain neither repacks nor changes the configured policy.
  EXPECT_EQ(db_.cluster_stats().reorg_runs, 0u);
  EXPECT_EQ(db_.cluster_policy(), cluster::kDefaultPolicy);
}

TEST_F(ServerTest, ShutdownRejectsQueuedAndExpiresSessions) {
  auto s = *client_->Connect();
  auto queued = client_->Submit(s, "create leaf");
  exec_->Shutdown();
  EXPECT_EQ(queued.get().status, ResponseStatus::kRejected);
  EXPECT_EQ(exec_->session_count(), 0u);
  auto post = client_->Submit(s, "create leaf");
  EXPECT_EQ(post.get().status, ResponseStatus::kRejected);
}

TEST(ServerThreadedTest, WorkersServeRequests) {
  core::Database db;
  ASSERT_TRUE(db.LoadSchema("object class leaf is attributes v : int; "
                            "end object;")
                  .ok());
  ServerOptions opts;
  opts.num_workers = 2;
  Executor exec(&db, opts);
  exec.Start();
  LoopbackTransport client(&exec);
  auto s = *client.Connect();
  auto r = client.Call(s, "create leaf as x; set x.v = 3; get x.v");
  ASSERT_EQ(r.status, ResponseStatus::kOk) << r.payload;
  EXPECT_EQ(r.statements.back().payload, "3");
  exec.Shutdown();
}

TEST(StatementTest, SplitStatementsHandlesQuotesAndComments) {
  auto parts = SplitStatements(
      "set x.label = \"a;b\"; -- trailing comment\n"
      "get x.label\n"
      "\n");
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "set x.label = \"a;b\"");
  EXPECT_EQ(parts[1], "get x.label");
}

TEST(StatementTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseStatement("").ok());
  EXPECT_FALSE(ParseStatement("create").ok());
  EXPECT_FALSE(ParseStatement("set x = 1").ok());
  EXPECT_FALSE(ParseStatement("connect a.p b.q").ok());
  EXPECT_FALSE(ParseStatement("select leaf").ok());  // missing where
}

TEST(StatementTest, ParseTargets) {
  auto st = ParseStatement("get obj(12).v");
  ASSERT_TRUE(st.ok()) << st.status();
  EXPECT_EQ(st->kind, StatementKind::kGet);
  EXPECT_EQ(st->a.raw, InstanceId(12));
  EXPECT_EQ(st->attr_a, "v");
  EXPECT_EQ(FormatInstance(InstanceId(12)), "obj(12)");
}

}  // namespace
}  // namespace cactis::server
