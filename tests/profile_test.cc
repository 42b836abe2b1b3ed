// Request-scoped observability: `profile` / `explain` statement forms,
// cost attribution, the slow-statement log, and trace-id propagation.
// Deterministic throughout (num_workers = 0, manual draining); the
// threaded/TSan variants live in server_concurrency_test.cc.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "core/database.h"
#include "obs/slow_log.h"
#include "server/executor.h"
#include "server/statement.h"
#include "server/transport.h"

namespace cactis::server {
namespace {

const char* kCounterSchema = R"(
  object class counter is
    attributes
      v : int;
  end object;
)";

const char* kDerivedSchema = R"(
  object class item is
    attributes
      a : int;
      b : int;
      total : int;
    rules
      total = a + b;
  end object;
)";

InstanceId ParseObj(const std::string& payload) {
  uint64_t n = 0;
  EXPECT_EQ(std::sscanf(payload.c_str(), "obj(%" SCNu64 ")", &n), 1)
      << payload;
  return InstanceId(n);
}

// Extracts `"key":<uint>` from a JSON document (first occurrence).
uint64_t JsonUint(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  auto pos = json.find(needle);
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << json;
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

bool JsonHas(const std::string& json, const std::string& fragment) {
  return json.find(fragment) != std::string::npos;
}

// Deterministic executor: submit + drain on this thread.
class ProfileTest : public ::testing::Test {
 protected:
  void Init(const char* schema, core::DatabaseOptions db_opts = {},
            ServerOptions opts = {}) {
    db_ = std::make_unique<core::Database>(db_opts);
    ASSERT_TRUE(db_->LoadSchema(schema).ok());
    opts.num_workers = 0;
    exec_ = std::make_unique<Executor>(db_.get(), opts);
    client_ = std::make_unique<LoopbackTransport>(exec_.get());
    session_ = *client_->Connect();
  }

  Response Call(std::string_view text) {
    auto fut = client_->Submit(session_, text);
    while (exec_->RunOne()) {
    }
    return fut.get();
  }

  std::unique_ptr<core::Database> db_;
  std::unique_ptr<Executor> exec_;
  std::unique_ptr<LoopbackTransport> client_;
  SessionId session_;
};

// --- Parsing ----------------------------------------------------------------

TEST(ProfileParseTest, ProfileAndExplainModifiers) {
  auto p = ParseStatement("profile get obj(1).v");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  EXPECT_EQ(p->modifier, StatementModifier::kProfile);
  EXPECT_EQ(p->kind, StatementKind::kGet);

  auto e = ParseStatement("explain set obj(1).v = v + 1");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(e->modifier, StatementModifier::kExplain);
  EXPECT_EQ(e->kind, StatementKind::kSet);

  // The wrapped statement parses with full expression fidelity.
  ASSERT_NE(e->expr, nullptr);

  auto plain = ParseStatement("get obj(1).v");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->modifier, StatementModifier::kNone);
}

TEST(ProfileParseTest, RejectsNestingAndBareModifier) {
  EXPECT_FALSE(ParseStatement("profile profile get obj(1).v").ok());
  EXPECT_FALSE(ParseStatement("explain profile get obj(1).v").ok());
  EXPECT_FALSE(ParseStatement("profile explain get obj(1).v").ok());
  EXPECT_FALSE(ParseStatement("profile").ok());
  EXPECT_FALSE(ParseStatement("explain").ok());
}

TEST(ProfileParseTest, ExplainRoutesExclusive) {
  auto e = ParseStatement("explain get obj(1).v");
  ASSERT_TRUE(e.ok());
  EXPECT_FALSE(IsReadOnlyStatement(*e));
  // profile follows the wrapped statement's routing.
  auto p = ParseStatement("profile get obj(1).v");
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(IsReadOnlyStatement(*p));
}

// --- profile ----------------------------------------------------------------

TEST_F(ProfileTest, ProfileReturnsCostJson) {
  Init(kCounterSchema);
  auto id = ParseObj(Call("create counter as c").payload);
  Response r = Call("profile set " + FormatInstance(id) + ".v = 7");
  ASSERT_TRUE(r.ok()) << r.payload;
  EXPECT_GT(JsonUint(r.payload, "trace_id"), 0u);
  EXPECT_GT(JsonUint(r.payload, "session"), 0u);
  EXPECT_GT(JsonUint(r.payload, "seq"), 0u);
  EXPECT_TRUE(JsonHas(r.payload, "\"status\":\"ok\""));
  EXPECT_TRUE(JsonHas(r.payload, "\"result\":\"ok\""));
  // Every glossary field is present.
  for (const char* key :
       {"blocks_read", "blocks_written", "cache_hits", "cache_misses",
        "attrs_reevaluated", "chunks_scheduled", "wal_bytes", "queue_wait_us",
        "lock_wait_shared_us", "lock_wait_excl_us", "exec_us",
        "snapshot_path"}) {
    EXPECT_TRUE(JsonHas(r.payload, std::string("\"") + key + "\":"))
        << key << " missing in " << r.payload;
  }
  // An auto-commit set stages a WAL delta: attributed bytes are nonzero.
  EXPECT_GT(JsonUint(r.payload, "wal_bytes"), 0u);
  EXPECT_EQ(exec_->stats().profile_statements.load(), 1u);
}

// Acceptance: a cold RMW reports strictly more blocks_read than the same
// statement re-profiled hot.
TEST_F(ProfileTest, ProfileColdReadsMoreBlocksThanHot) {
  core::DatabaseOptions db_opts;
  db_opts.block_size = 512;    // small blocks: instances span many
  db_opts.buffer_capacity = 2; // tiny pool: early blocks get evicted
  Init(kCounterSchema, db_opts);

  auto first = ParseObj(Call("create counter as c0").payload);
  // Enough instances to roll the fill block far past the first one and
  // flush it out of the two-frame pool.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(Call("create counter").ok());
  }

  const std::string stmt =
      "profile set " + FormatInstance(first) + ".v = v + 1";
  Response cold = Call(stmt);
  ASSERT_TRUE(cold.ok()) << cold.payload;
  const uint64_t cold_reads = JsonUint(cold.payload, "blocks_read");
  EXPECT_GE(cold_reads, 1u) << cold.payload;

  Response hot = Call(stmt);
  ASSERT_TRUE(hot.ok()) << hot.payload;
  const uint64_t hot_reads = JsonUint(hot.payload, "blocks_read");
  EXPECT_LT(hot_reads, cold_reads)
      << "cold: " << cold.payload << "\nhot: " << hot.payload;

  // The increments themselves both executed.
  Response v = Call("get " + FormatInstance(first) + ".v");
  EXPECT_EQ(v.payload, "2");
}

TEST_F(ProfileTest, ProfiledReadUsesSnapshotPath) {
  Init(kCounterSchema);
  auto id = ParseObj(Call("create counter as c").payload);
  const std::string obj = FormatInstance(id);
  ASSERT_TRUE(Call("set " + obj + ".v = 3").ok());
  // An auto-commit read of a committed intrinsic attribute resolves on
  // the lock-free MVCC snapshot path, and the profile says so.
  ASSERT_TRUE(Call("get " + obj + ".v").ok());
  Response r = Call("profile get " + obj + ".v");
  ASSERT_TRUE(r.ok()) << r.payload;
  EXPECT_TRUE(JsonHas(r.payload, "\"result\":\"3\"")) << r.payload;
  EXPECT_TRUE(JsonHas(r.payload, "\"snapshot_path\":true")) << r.payload;
}

// --- explain ----------------------------------------------------------------

TEST_F(ProfileTest, ExplainReportsAttributePlan) {
  Init(kDerivedSchema);
  auto id = ParseObj(Call("create item as i").payload);
  const std::string obj = FormatInstance(id);

  Response r = Call("explain get " + obj + ".total");
  ASSERT_TRUE(r.ok()) << r.payload;
  EXPECT_TRUE(JsonHas(r.payload, "\"explain\":\"get\"")) << r.payload;
  EXPECT_TRUE(JsonHas(r.payload, "\"class\":\"item\"")) << r.payload;
  EXPECT_TRUE(JsonHas(r.payload, "\"attr_kind\":\"derived\"")) << r.payload;
  EXPECT_TRUE(JsonHas(r.payload, "\"depends_on\":[\"a\",\"b\"]"))
      << r.payload;
  EXPECT_TRUE(JsonHas(r.payload, "\"policy\":")) << r.payload;
  EXPECT_TRUE(JsonHas(r.payload, "\"action\":")) << r.payload;

  // Intrinsic attribute: its dependents include the derived total.
  Response a = Call("explain set " + obj + ".a = 5");
  ASSERT_TRUE(a.ok()) << a.payload;
  EXPECT_TRUE(JsonHas(a.payload, "\"attr_kind\":\"intrinsic\"")) << a.payload;
  EXPECT_TRUE(JsonHas(a.payload, "\"dependents\":[\"total\"]")) << a.payload;
  EXPECT_TRUE(JsonHas(a.payload, "invalidate 1 dependent")) << a.payload;
  EXPECT_EQ(exec_->stats().explain_statements.load(), 2u);
}

TEST_F(ProfileTest, ExplainHasNoSideEffects) {
  Init(kDerivedSchema);
  auto id = ParseObj(Call("create item as i").payload);
  const std::string obj = FormatInstance(id);
  ASSERT_TRUE(Call("set " + obj + ".a = 5").ok());

  // Explaining the assignment must not perform it...
  ASSERT_TRUE(Call("explain set " + obj + ".a = 99").ok());
  EXPECT_EQ(Call("get " + obj + ".a").payload, "5");
  // ...and explaining a get must not evaluate the derived value: the
  // plan still reports it out of date afterwards.
  Response before = Call("explain get " + obj + ".total");
  EXPECT_TRUE(JsonHas(before.payload, "\"out_of_date\":true"))
      << before.payload;
  Response again = Call("explain get " + obj + ".total");
  EXPECT_TRUE(JsonHas(again.payload, "\"out_of_date\":true")) << again.payload;
}

TEST_F(ProfileTest, ExplainUnknownTargetsFailCleanly) {
  Init(kCounterSchema);
  EXPECT_FALSE(Call("explain get obj(999).v").ok());
  auto id = ParseObj(Call("create counter as c").payload);
  EXPECT_FALSE(Call("explain get " + FormatInstance(id) + ".nope").ok());
  // Non-attribute statements explain without touching the database.
  Response sel = Call("explain select counter where v > 0");
  ASSERT_TRUE(sel.ok()) << sel.payload;
  EXPECT_TRUE(JsonHas(sel.payload, "\"explain\":\"select\"")) << sel.payload;
  EXPECT_TRUE(JsonHas(sel.payload, "\"predicate\":")) << sel.payload;
  Response beg = Call("explain begin");
  ASSERT_TRUE(beg.ok()) << beg.payload;
  EXPECT_TRUE(JsonHas(beg.payload, "\"txn_open\":false")) << beg.payload;
}

// --- Slow-statement log -----------------------------------------------------

TEST_F(ProfileTest, SlowLogKeepsWorstAndDrains) {
  ServerOptions opts;
  opts.slow_statement_us = 0;  // log everything
  opts.slow_log_capacity = 4;
  Init(kCounterSchema, {}, opts);

  ASSERT_TRUE(Call("create counter as c").ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(Call("set c.v = " + std::to_string(i)).ok());
  }
  const obs::SlowStatementLog& log = exec_->slow_log();
  EXPECT_EQ(log.size(), 4u);             // capacity-bounded
  EXPECT_EQ(log.total_logged(), 7u);     // every admitted statement counted
  EXPECT_EQ(exec_->stats().slow_statements.load(), 7u);

  auto entries = log.Snapshot();
  ASSERT_EQ(entries.size(), 4u);
  for (size_t i = 1; i < entries.size(); ++i) {
    EXPECT_GE(entries[i - 1].latency_us, entries[i].latency_us);
  }
  for (const auto& e : entries) {
    EXPECT_GT(e.trace_id, 0u);
    EXPECT_FALSE(e.text.empty());
  }

  std::string drained = exec_->DrainSlowLogJson();
  EXPECT_TRUE(JsonHas(drained, "\"stmt\":")) << drained;
  EXPECT_TRUE(JsonHas(drained, "\"latency_us\":")) << drained;
  EXPECT_TRUE(JsonHas(drained, "\"cost\":")) << drained;
  EXPECT_EQ(exec_->slow_log().size(), 0u);
  EXPECT_EQ(exec_->SnapshotSlowLogJson(), "[]");
  // total_logged survives the drain.
  EXPECT_EQ(exec_->slow_log().total_logged(), 7u);
}

TEST_F(ProfileTest, SlowLogDisabledByZeroCapacity) {
  ServerOptions opts;
  opts.slow_statement_us = 0;
  opts.slow_log_capacity = 0;
  Init(kCounterSchema, {}, opts);
  ASSERT_TRUE(Call("create counter as c; set c.v = 1").ok());
  EXPECT_EQ(exec_->slow_log().size(), 0u);
  EXPECT_EQ(exec_->slow_log().total_logged(), 0u);
  EXPECT_EQ(exec_->stats().slow_statements.load(), 0u);
}

// --- Trace-id propagation (deterministic) -----------------------------------

TEST_F(ProfileTest, TraceIdsReachDiskEvalAndWalEvents) {
  core::DatabaseOptions db_opts;
  db_opts.enable_tracing = true;
  Init(kDerivedSchema, db_opts);

  auto id = ParseObj(Call("create item as i").payload);
  const std::string obj = FormatInstance(id);
  db_->trace()->Clear();  // drop setup noise (create, schema load)

  ASSERT_TRUE(Call("begin").ok());
  ASSERT_TRUE(Call("set " + obj + ".a = 2; set " + obj + ".b = 3").ok());
  ASSERT_TRUE(Call("commit").ok());
  ASSERT_TRUE(Call("get " + obj + ".total").ok());

  const auto& events = db_->trace()->events();
  ASSERT_FALSE(events.empty());
  std::set<uint64_t> distinct;
  for (const auto& e : events) {
    EXPECT_NE(e.trace_id, 0u)
        << "untraced event kind=" << static_cast<int>(e.kind);
    distinct.insert(e.trace_id);
  }
  // begin / set / set / commit / get are five statements with five
  // distinct trace ids; at least the eval-bearing ones show up here.
  EXPECT_GE(distinct.size(), 3u);

  // The drained JSON carries the trace field for per-statement slicing.
  std::string json = db_->trace()->ToJson();
  EXPECT_TRUE(JsonHas(json, "\"trace\":")) << json;
}

// --- Metrics surfacing ------------------------------------------------------

TEST_F(ProfileTest, ServerMetricsCarryCostsSlowLogAndSessions) {
  ServerOptions opts;
  opts.slow_statement_us = 0;
  opts.slow_log_capacity = 8;
  Init(kCounterSchema, {}, opts);

  ASSERT_TRUE(Call("create counter as c").ok());
  ASSERT_TRUE(Call("set c.v = 41; set c.v = v + 1").ok());
  ASSERT_TRUE(Call("get c.v").ok());

  std::string m = exec_->SnapshotMetrics();
  for (const char* key :
       {"cost_blocks_read", "cost_blocks_written", "cost_wal_bytes",
        "cost_lock_wait_excl_us", "profile_statements", "explain_statements",
        "slow_statements", "slow_statements_logged"}) {
    EXPECT_TRUE(JsonHas(m, std::string("\"") + key + "\":")) << key;
  }
  EXPECT_TRUE(JsonHas(m, "\"slow_statements\":")) << m;
  EXPECT_TRUE(JsonHas(m, "\"per_session\":[{\"session\":")) << m;
  EXPECT_TRUE(JsonHas(m, "\"exec_us\":")) << m;
  // The database group exports the trace ring's drop counter.
  EXPECT_TRUE(JsonHas(m, "\"trace_dropped_events\":")) << m;

  // Per-session statement counts reflect this session's work.
  uint64_t stmts = JsonUint(m.substr(m.find("per_session")), "statements");
  EXPECT_EQ(stmts, 4u);
}

}  // namespace
}  // namespace cactis::server
