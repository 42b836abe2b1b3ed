// Telemetry pipeline: the time-series Sampler (delta conversion, ring
// wrap, windowed summaries), the drift Watchdog (hysteresis, clustering
// drift fire/clear), the `metrics history` / `alerts` statements, wire
// trace-id propagation, and the registry's snapshot-vs-unregister
// lifecycle. Everything runs on fake clocks and manual ticks; the only
// real-time pieces are the socket integration tests.

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/watchdog.h"
#include "server/executor.h"
#include "server/statement.h"
#include "server/transport.h"

namespace cactis {
namespace {

using core::Database;
using obs::Alert;
using obs::HistogramData;
using obs::MetricsGroup;
using obs::MetricsSnapshot;
using obs::Sample;
using obs::Sampler;
using obs::SamplerOptions;
using obs::SeriesPoint;
using obs::Watchdog;
using server::Executor;
using server::LoopbackTransport;
using server::Response;
using server::ResponseStatus;
using server::ServerOptions;

// --- helpers -----------------------------------------------------------------

/// First number following `"key":` after position `from` (0 = start).
double NumberAfter(const std::string& doc, const std::string& key,
                   size_t from = 0) {
  std::string needle = "\"" + key + "\":";
  size_t pos = doc.find(needle, from);
  EXPECT_NE(pos, std::string::npos) << key << " not in " << doc;
  if (pos == std::string::npos) return -1;
  return std::strtod(doc.c_str() + pos + needle.size(), nullptr);
}

size_t CountOccurrences(const std::string& doc, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = doc.find(needle); pos != std::string::npos;
       pos = doc.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// A hand-built snapshot source for driving the sampler deterministically.
struct FakeMetrics {
  uint64_t reads = 0;
  double depth = 0;
  HistogramData lat;

  MetricsSnapshot Snapshot() const {
    MetricsSnapshot snap;
    MetricsGroup disk;
    disk.AddCounter("reads", reads);
    snap.groups.emplace_back("disk", disk);
    MetricsGroup server;
    server.AddGauge("queue_depth", depth);
    server.AddHistogram("latency_us", lat);
    snap.groups.emplace_back("server", server);
    return snap;
  }

  void RecordLatency(uint64_t sample) {
    ++lat.count;
    lat.sum += sample;
    ++lat.buckets[obs::Histogram::BucketOf(sample)];
  }
};

struct FakeClockSampler {
  uint64_t now_ms = 1000;
  FakeMetrics metrics;
  std::unique_ptr<Sampler> sampler;

  explicit FakeClockSampler(size_t ring_capacity = 8) {
    SamplerOptions opts;
    opts.interval_ms = 0;  // manual ticks only
    opts.ring_capacity = ring_capacity;
    opts.now_ms = [this] { return now_ms; };
    sampler = std::make_unique<Sampler>([this] { return metrics.Snapshot(); },
                                        std::move(opts));
  }

  void Tick(uint64_t advance_ms = 1000) {
    now_ms += advance_ms;
    sampler->SampleOnce();
  }
};

// --- Sampler -----------------------------------------------------------------

TEST(SamplerTest, CounterDeltaAndRateConversion) {
  FakeClockSampler fx;
  fx.metrics.reads = 100;
  fx.sampler->SampleOnce();  // first sample: no interval, delta 0
  fx.metrics.reads = 150;
  fx.Tick(1000);
  fx.metrics.reads = 650;
  fx.Tick(2000);

  auto window = fx.sampler->Window();
  ASSERT_EQ(window.size(), 3u);
  const SeriesPoint* p0 = window[0].Find("disk.reads");
  const SeriesPoint* p1 = window[1].Find("disk.reads");
  const SeriesPoint* p2 = window[2].Find("disk.reads");
  ASSERT_TRUE(p0 && p1 && p2);
  EXPECT_EQ(p0->raw, 100u);
  EXPECT_EQ(p0->delta, 0u);  // nothing to diff against
  EXPECT_EQ(p1->delta, 50u);
  EXPECT_DOUBLE_EQ(p1->rate_per_s, 50.0);
  EXPECT_EQ(p2->delta, 500u);
  EXPECT_DOUBLE_EQ(p2->rate_per_s, 250.0);  // 500 over 2 s
}

TEST(SamplerTest, RingWrapKeepsRatesCorrect) {
  FakeClockSampler fx(/*ring_capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    fx.metrics.reads += 5;
    fx.Tick(1000);
  }
  EXPECT_EQ(fx.sampler->samples_taken(), 10u);
  auto window = fx.sampler->Window();
  ASSERT_EQ(window.size(), 4u);  // older ticks fell off
  // Rates must survive the wrap: deltas diff against prev_ state, not
  // against whatever the ring slot used to hold.
  for (const Sample& s : window) {
    const SeriesPoint* p = s.Find("disk.reads");
    ASSERT_TRUE(p);
    EXPECT_EQ(p->delta, 5u);
    EXPECT_DOUBLE_EQ(p->rate_per_s, 5.0);
  }
  // Oldest-first ordering across the wrap seam.
  for (size_t i = 1; i < window.size(); ++i) {
    EXPECT_GT(window[i].t_ms, window[i - 1].t_ms);
  }
  // Window(n) trims from the old end.
  auto last2 = fx.sampler->Window(2);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_EQ(last2[1].t_ms, window[3].t_ms);
}

TEST(SamplerTest, CounterResetRestartsDelta) {
  FakeClockSampler fx;
  fx.metrics.reads = 100;
  fx.Tick();
  fx.metrics.reads = 40;  // subsystem reset (ResetStats)
  fx.Tick();
  auto window = fx.sampler->Window();
  const SeriesPoint* p = window.back().Find("disk.reads");
  ASSERT_TRUE(p);
  EXPECT_EQ(p->delta, 40u);  // restarted from the new raw, not 2^64 - 60
}

TEST(SamplerTest, HistogramQuantilesDescribeTheInterval) {
  FakeClockSampler fx;
  fx.Tick();  // establish a baseline to diff against
  // First measured interval: 100 samples around 8 (bucket upper bound 8).
  for (int i = 0; i < 100; ++i) fx.metrics.RecordLatency(5);
  fx.Tick();
  // Next interval: 10 slow samples around 1024. Lifetime-wise they are
  // 9%; interval-wise they are 100% — the quantiles must say 1024.
  for (int i = 0; i < 10; ++i) fx.metrics.RecordLatency(700);
  fx.Tick();
  auto window = fx.sampler->Window();
  const SeriesPoint* p = window.back().Find("server.latency_us");
  ASSERT_TRUE(p);
  EXPECT_EQ(p->delta, 10u);
  EXPECT_DOUBLE_EQ(p->p50, 1024.0);
  EXPECT_DOUBLE_EQ(p->p99, 1024.0);
  // The earlier interval reported the fast bucket.
  const SeriesPoint* q = window[1].Find("server.latency_us");
  ASSERT_TRUE(q);
  EXPECT_EQ(q->delta, 100u);
  EXPECT_DOUBLE_EQ(q->p50, 8.0);
}

TEST(SamplerTest, HistoryJsonSummaryAndGroupFilter) {
  FakeClockSampler fx;
  fx.metrics.depth = 3;
  fx.metrics.reads = 10;
  fx.Tick();
  fx.metrics.depth = 9;
  fx.metrics.reads = 30;
  fx.Tick();
  fx.metrics.depth = 5;
  fx.metrics.reads = 60;
  fx.Tick();

  std::string all = fx.sampler->HistoryJson("");
  EXPECT_EQ(NumberAfter(all, "count"), 3);
  // Gauge summary: last/min/max over the window.
  size_t sum = all.find("\"summary\"");
  ASSERT_NE(sum, std::string::npos);
  EXPECT_EQ(NumberAfter(all, "last", sum), 5);
  EXPECT_EQ(NumberAfter(all, "min", sum), 3);
  EXPECT_EQ(NumberAfter(all, "max", sum), 9);
  // Counter summary: total delta across the window (20 + 30; the first
  // tick has nothing to diff against).
  size_t reads_pos = all.find("\"disk.reads\"", sum);
  ASSERT_NE(reads_pos, std::string::npos);
  EXPECT_EQ(NumberAfter(all, "delta", reads_pos), 50);

  // Group filter: only "disk.*" series appear.
  std::string disk_only = fx.sampler->HistoryJson("disk");
  EXPECT_NE(disk_only.find("disk.reads"), std::string::npos);
  EXPECT_EQ(disk_only.find("server.queue_depth"), std::string::npos);
  // `n` limits the window, not just the serialization.
  std::string last1 = fx.sampler->HistoryJson("", 1);
  EXPECT_EQ(NumberAfter(last1, "count"), 1);
  EXPECT_EQ(CountOccurrences(last1, "\"t_ms\""), 1u);
}

// --- Watchdog ----------------------------------------------------------------

Sample MakeSample(uint64_t t_ms) {
  Sample s;
  s.t_ms = t_ms;
  s.interval_ms = 1000;
  return s;
}

void AddGaugePoint(Sample* s, const std::string& name, double v) {
  SeriesPoint p;
  p.kind = SeriesPoint::Kind::kGauge;
  p.value = v;
  s->series.emplace_back(name, p);
}

void AddCounterPoint(Sample* s, const std::string& name, uint64_t raw,
                     uint64_t delta) {
  SeriesPoint p;
  p.kind = SeriesPoint::Kind::kCounter;
  p.raw = raw;
  p.delta = delta;
  p.rate_per_s = delta;  // 1 s interval
  s->series.emplace_back(name, p);
}

size_t CountRuleEvents(const std::vector<Alert>& log, const std::string& rule,
                       const std::string& state) {
  size_t n = 0;
  for (const Alert& a : log) {
    if (a.rule == rule && a.state == state) ++n;
  }
  return n;
}

TEST(WatchdogTest, FlappingGaugeEmitsOneAlertNotFifty) {
  static_assert(Watchdog::kFireAfter == 2 && Watchdog::kClearAfter == 2);
  Watchdog wd;
  uint64_t t = 0;

  auto observe_depth = [&](double depth) {
    Sample s = MakeSample(t += 1000);
    AddGaugePoint(&s, "server.queue_depth", depth);
    AddGaugePoint(&s, "server.max_queue_depth", 64);
    wd.Observe(s);
  };

  // Threshold = 0.8 * 64 = 51.2. Flap around it for 50 ticks: never two
  // consecutive breaches, so the rule must never raise.
  for (int i = 0; i < 50; ++i) observe_depth(i % 2 == 0 ? 60 : 10);
  EXPECT_FALSE(wd.IsActive("queue_saturation"));
  EXPECT_TRUE(wd.Log().empty());

  // Sustained breach: raises exactly once, stays silently raised.
  for (int i = 0; i < 10; ++i) observe_depth(60);
  EXPECT_TRUE(wd.IsActive("queue_saturation"));
  EXPECT_EQ(CountRuleEvents(wd.Log(), "queue_saturation", "raised"), 1u);

  // One calm tick is not enough to clear...
  observe_depth(10);
  EXPECT_TRUE(wd.IsActive("queue_saturation"));
  // ...two are.
  observe_depth(10);
  EXPECT_FALSE(wd.IsActive("queue_saturation"));
  EXPECT_EQ(CountRuleEvents(wd.Log(), "queue_saturation", "cleared"), 1u);
  EXPECT_EQ(wd.Log().size(), 2u);
}

TEST(WatchdogTest, DegradedFlipFiresAndClearsImmediately) {
  Watchdog wd;  // kFireAfter = 2, but degraded fires after 1
  Sample s1 = MakeSample(1000);
  AddGaugePoint(&s1, "server.degraded", 1);
  wd.Observe(s1);
  EXPECT_TRUE(wd.IsActive("degraded"));
  Sample s2 = MakeSample(2000);
  AddGaugePoint(&s2, "server.degraded", 0);
  wd.Observe(s2);
  EXPECT_FALSE(wd.IsActive("degraded"));
  EXPECT_EQ(wd.Log().size(), 2u);
}

TEST(WatchdogTest, WalBacklogAndAdmissionRejects) {
  static_assert(Watchdog::kRejectRatePerS == 1.0);
  Watchdog wd;
  uint64_t t = 0;
  uint64_t wedged = 0, rejected = 0;

  auto observe = [&](uint64_t wedged_delta, uint64_t reject_delta) {
    Sample s = MakeSample(t += 1000);
    wedged += wedged_delta;
    rejected += reject_delta;
    AddCounterPoint(&s, "wal.wedged_flushes", wedged, wedged_delta);
    AddCounterPoint(&s, "wal.give_ups", 0, 0);
    AddCounterPoint(&s, "server.requests_rejected", rejected, reject_delta);
    wd.Observe(s);
  };

  observe(0, 0);
  EXPECT_FALSE(wd.IsActive("wal_backlog"));
  observe(1, 5);
  observe(2, 5);
  EXPECT_TRUE(wd.IsActive("wal_backlog"));
  EXPECT_TRUE(wd.IsActive("admission_rejects"));
  observe(0, 0);
  observe(0, 0);
  EXPECT_FALSE(wd.IsActive("wal_backlog"));
  EXPECT_FALSE(wd.IsActive("admission_rejects"));

  std::string json = wd.AlertsJson();
  EXPECT_NE(json.find("\"wal_backlog\""), std::string::npos);
  EXPECT_NE(json.find("\"admission_rejects\""), std::string::npos);
  EXPECT_EQ(NumberAfter(json, "count"), 4);  // 2 raises + 2 clears
}

TEST(WatchdogTest, DriftRaisesOnceAndReorganizeClears) {
  static_assert(Watchdog::kDriftFrac == 0.25);
  static_assert(Watchdog::kDriftMinCrossings == 32);
  Watchdog wd;
  uint64_t t = 0;
  uint64_t reads = 0, crossings = 0;

  auto observe = [&](uint64_t reorg_runs, uint64_t reads_delta,
                     uint64_t crossings_delta) {
    Sample s = MakeSample(t += 1000);
    reads += reads_delta;
    crossings += crossings_delta;
    AddCounterPoint(&s, "cluster.reorg_runs", reorg_runs, 0);
    AddCounterPoint(&s, "disk.reads", reads, reads_delta);
    AddCounterPoint(&s, "cluster.traversal_crossings", crossings,
                    crossings_delta);
    wd.Observe(s);
  };

  // Epoch 1 adopted (tick skipped), then a baseline window: 100 reads /
  // 100 crossings = 1.0 blocks per traversal.
  observe(1, 0, 0);
  observe(1, 100, 100);
  EXPECT_FALSE(wd.IsActive("recluster_recommended"));

  // Healthy windows at the baseline do not advance the rule.
  observe(1, 110, 100);  // 1.1 < 1.25 threshold
  observe(1, 90, 100);
  EXPECT_FALSE(wd.IsActive("recluster_recommended"));

  // Quiet ticks (too few crossings) carry no signal either way.
  observe(1, 500, 3);
  EXPECT_FALSE(wd.IsActive("recluster_recommended"));

  // Workload shift: 2.0 blocks/traversal, 60% above baseline. Two
  // qualifying windows raise the advisory exactly once.
  observe(1, 200, 100);
  EXPECT_FALSE(wd.IsActive("recluster_recommended"));  // streak = 1
  observe(1, 200, 100);
  EXPECT_TRUE(wd.IsActive("recluster_recommended"));
  for (int i = 0; i < 5; ++i) observe(1, 200, 100);  // stays raised, silent
  EXPECT_EQ(CountRuleEvents(wd.Log(), "recluster_recommended", "raised"), 1u);

  // The operator reorganizes: epoch bumps, advisory force-clears, and
  // the breach streak does not survive into the new epoch.
  observe(2, 5000, 10);  // the rewrite's own I/O; skipped entirely
  EXPECT_FALSE(wd.IsActive("recluster_recommended"));
  auto log = wd.Log();
  EXPECT_EQ(CountRuleEvents(log, "recluster_recommended", "cleared"), 1u);
  EXPECT_EQ(log.back().detail, "baseline reset by reorganize");

  // The new epoch re-baselines: the same 2.0 figure is now normal.
  observe(2, 200, 100);  // new baseline = 2.0
  observe(2, 200, 100);
  observe(2, 200, 100);
  EXPECT_FALSE(wd.IsActive("recluster_recommended"));
  EXPECT_EQ(CountRuleEvents(wd.Log(), "recluster_recommended", "raised"), 1u);
}

TEST(WatchdogTest, AlertLogIsBounded) {
  // Every degraded flip is one event (no hysteresis), so 140 alternating
  // ticks emit 140 events into a log that keeps kAlertCapacity of them.
  constexpr size_t kTicks = Watchdog::kAlertCapacity + 12;
  Watchdog wd;
  for (size_t i = 0; i < kTicks; ++i) {
    Sample s = MakeSample(1000 * (i + 1));
    AddGaugePoint(&s, "server.degraded", i % 2 == 0 ? 1 : 0);
    wd.Observe(s);
  }
  EXPECT_EQ(wd.Log().size(), Watchdog::kAlertCapacity);
  std::string json = wd.AlertsJson();
  EXPECT_EQ(NumberAfter(json, "dropped"), 12);
  // Oldest events dropped; the survivors are the most recent ones.
  EXPECT_EQ(wd.Log().front().seq, 13u);
  EXPECT_EQ(wd.Log().back().seq, kTicks);
}

// --- Sampler + Watchdog through the Executor ---------------------------------

const char* kSchema = R"(
  relationship link;
  object class node is
    relationships
      in  : link multi socket;
      out : link multi plug;
    attributes
      pad : string;
      v : int;
  end object;
)";

class TelemetryExecutorTest : public ::testing::Test {
 protected:
  void StartExecutor(size_t buffer_capacity = 64) {
    core::DatabaseOptions dopts;
    dopts.buffer_capacity = buffer_capacity;
    db_ = std::make_unique<Database>(dopts);
    ASSERT_TRUE(db_->LoadSchema(kSchema).ok());
    ServerOptions opts;
    opts.num_workers = 0;          // manual draining
    opts.sampler_interval_ms = 0;  // manual ticks
    opts.now_ms = [this] { return now_ms_; };
    exec_ = std::make_unique<Executor>(db_.get(), opts);
    exec_->Start();
    client_ = std::make_unique<LoopbackTransport>(exec_.get());
    session_ = *client_->Connect();
  }

  void TearDown() override {
    if (exec_) exec_->Shutdown();
  }

  Response Call(std::string_view text) {
    auto fut = client_->Submit(session_, text);
    while (exec_->RunOne()) {
    }
    return fut.get();
  }

  void Tick(uint64_t advance_ms = 1000) {
    now_ms_ += advance_ms;
    exec_->SampleMetricsOnce();
  }

  std::unique_ptr<Database> db_;
  uint64_t now_ms_ = 0;
  std::unique_ptr<Executor> exec_;
  std::unique_ptr<LoopbackTransport> client_;
  SessionId session_;
};

TEST_F(TelemetryExecutorTest, MetricsHistoryStatementReturnsRatedSamples) {
  StartExecutor();
  Tick();
  for (int round = 0; round < 3; ++round) {
    ASSERT_EQ(Call("create node").status, ResponseStatus::kOk);
    ASSERT_EQ(Call("create node").status, ResponseStatus::kOk);
    Tick();
  }

  Response r = Call("metrics history server 3");
  ASSERT_EQ(r.status, ResponseStatus::kOk) << r.payload;
  const std::string& json = r.payload;
  EXPECT_EQ(NumberAfter(json, "count"), 3);
  EXPECT_EQ(CountOccurrences(json, "\"t_ms\""), 3u);
  // Group filter: no disk/txn series in a server-group window.
  EXPECT_EQ(json.find("\"disk."), std::string::npos);
  EXPECT_EQ(json.find("\"txn."), std::string::npos);
  // Each sampled interval saw exactly 2 requests over exactly 1 s, so
  // the rate conversion must report 2/s — per sample, and in the window
  // summary (total delta 6 over 3 s). rfind lands on the summary entry,
  // which is serialized after the samples.
  size_t pos = json.rfind("\"server.requests_completed\"");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_EQ(NumberAfter(json, "delta", pos), 6);
  EXPECT_EQ(NumberAfter(json, "rate_per_s", pos), 2);
  // And the per-sample points carry the interval figures.
  size_t first = json.find("\"server.requests_completed\"");
  ASSERT_NE(first, pos);
  EXPECT_EQ(NumberAfter(json, "delta", first), 2);
  EXPECT_EQ(NumberAfter(json, "rate_per_s", first), 2);

  // Unfiltered history carries the database groups too.
  Response all = Call("metrics history");
  ASSERT_EQ(all.status, ResponseStatus::kOk);
  EXPECT_NE(all.payload.find("\"disk.reads\""), std::string::npos);
  EXPECT_NE(all.payload.find("\"txn.committed\""), std::string::npos);
}

TEST_F(TelemetryExecutorTest, TxnGroupCountsCommitsAndAborts) {
  StartExecutor();
  Tick();
  ASSERT_EQ(Call("begin; create node; commit").status, ResponseStatus::kOk);
  ASSERT_EQ(Call("begin; create node; abort").status, ResponseStatus::kOk);
  Tick();

  // The transaction lifecycle is one source group like every other.
  const std::string snap = exec_->SnapshotMetrics();
  const size_t txn = snap.find("\"txn\":{");
  ASSERT_NE(txn, std::string::npos) << snap;
  EXPECT_GE(NumberAfter(snap, "begun", txn), 2);
  EXPECT_GE(NumberAfter(snap, "committed", txn), 1);
  EXPECT_GE(NumberAfter(snap, "aborted", txn), 1);
  const size_t hist =
      snap.find("\"commit_delta_records\":{\"count\":", txn);
  ASSERT_NE(hist, std::string::npos) << snap;
  EXPECT_GE(NumberAfter(snap, "count", hist), 1);

  // Its sampler series keep their dotted names; the latest sample saw
  // the commit.
  Response r = Call("metrics history txn 1");
  ASSERT_EQ(r.status, ResponseStatus::kOk) << r.payload;
  const size_t series = r.payload.find("\"txn.committed\"");
  ASSERT_NE(series, std::string::npos) << r.payload;
  EXPECT_GE(NumberAfter(r.payload, "delta", series), 1);
  EXPECT_NE(r.payload.find("\"txn.aborted\""), std::string::npos);
  EXPECT_NE(r.payload.find("\"txn.commit_delta_records\""),
            std::string::npos);
  EXPECT_EQ(r.payload.find("\"server."), std::string::npos);
}

TEST_F(TelemetryExecutorTest, AlertsStatementAnswersAndStartsEmpty) {
  StartExecutor();
  Tick();
  Tick();
  Response r = Call("alerts");
  ASSERT_EQ(r.status, ResponseStatus::kOk);
  EXPECT_NE(r.payload.find("\"active\":[]"), std::string::npos);
  EXPECT_EQ(NumberAfter(r.payload, "count"), 0);
}

TEST_F(TelemetryExecutorTest, StatementParsing) {
  using server::ParseStatement;
  using server::StatementKind;
  auto st = ParseStatement("metrics history");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->kind, StatementKind::kMetricsHistory);
  EXPECT_EQ(st->class_name, "");
  EXPECT_EQ(st->count, 0);

  st = ParseStatement("metrics history disk");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->class_name, "disk");
  EXPECT_EQ(st->count, 0);

  st = ParseStatement("metrics history wal 5");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->class_name, "wal");
  EXPECT_EQ(st->count, 5);

  st = ParseStatement("metrics history 7");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->class_name, "");
  EXPECT_EQ(st->count, 7);

  EXPECT_FALSE(ParseStatement("metrics").ok());
  EXPECT_FALSE(ParseStatement("metrics history disk 0").ok());
  EXPECT_FALSE(ParseStatement("metrics history disk 5 junk").ok());

  st = ParseStatement("alerts");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->kind, StatementKind::kAlerts);
  EXPECT_FALSE(ParseStatement("alerts now").ok());
}

TEST_F(TelemetryExecutorTest, DriftAlertFiresOnShiftAndClearsOnReorganize) {
  // Tiny buffer pool: block reads escape the cache, so a read-heavy
  // phase shows up in disk.reads.
  StartExecutor(/*buffer_capacity=*/2);

  // A dozen padded objects spread over multiple blocks, plus one edge
  // for the traversal engine to cross.
  const std::string pad(1500, 'x');
  for (int i = 0; i < 12; ++i) {
    ASSERT_EQ(Call("create node").status, ResponseStatus::kOk);
    ASSERT_EQ(Call("set obj(" + std::to_string(i + 1) + ").pad = \"" + pad +
                   "\"")
                  .status,
              ResponseStatus::kOk);
  }
  auto edge = db_->Connect(InstanceId(1), "out", InstanceId(2), "in");
  ASSERT_TRUE(edge.ok());

  // Fresh placement: Reorganize records the post-reorg epoch.
  ASSERT_EQ(Call("reorganize").status, ResponseStatus::kOk);
  Tick();  // watchdog adopts the epoch (tick skipped by design)

  // Locality phase: traversals cross edges but stay in cache — the
  // baseline blocks/traversal figure is low.
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 100; ++i) db_->NoteTraversal(*edge);
    Tick();
  }
  ASSERT_FALSE(exec_->watchdog()->IsActive("recluster_recommended"));

  // Shifted workload: mutations now spray block fetches across all
  // objects (a 2-block pool cannot hold 12 padded objects; reads alone
  // would be served from the MVCC snapshot without touching disk), so
  // observed blocks/traversal rises far above the post-reorg baseline.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 12; ++i) {
      ASSERT_EQ(Call("set obj(" + std::to_string(i + 1) +
                     ").v = " + std::to_string(round))
                    .status,
                ResponseStatus::kOk);
    }
    // Enough crossings that the tick carries a clustering signal.
    for (uint64_t i = 0; i < Watchdog::kDriftMinCrossings + 8; ++i) {
      db_->NoteTraversal(*edge);
    }
    Tick();
  }
  EXPECT_TRUE(exec_->watchdog()->IsActive("recluster_recommended"));
  EXPECT_EQ(CountRuleEvents(exec_->watchdog()->Log(), "recluster_recommended",
                            "raised"),
            1u);
  // The advisory is visible through the statement surface.
  Response alerts = Call("alerts");
  EXPECT_NE(alerts.payload.find("\"active\":[\"recluster_recommended\"]"),
            std::string::npos);

  // Doing what the advisory asks clears it on the next tick.
  ASSERT_EQ(Call("reorganize").status, ResponseStatus::kOk);
  Tick();
  EXPECT_FALSE(exec_->watchdog()->IsActive("recluster_recommended"));
  EXPECT_EQ(CountRuleEvents(exec_->watchdog()->Log(), "recluster_recommended",
                            "cleared"),
            1u);
}

// --- Wire: trace-id propagation and history over TCP -------------------------

class TelemetryNetTest : public ::testing::Test {
 protected:
  void StartServer() {
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->LoadSchema(kSchema).ok());
    ServerOptions sopts;
    sopts.num_workers = 2;
    sopts.sampler_interval_ms = 0;  // ticks driven by the test
    sopts.now_ms = [this] { return now_ms_.load(); };
    exec_ = std::make_unique<Executor>(db_.get(), sopts);
    exec_->Start();
    server_ = std::make_unique<net::TcpServer>(exec_.get(),
                                               net::TcpServerOptions{});
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_) server_->Shutdown();
    if (exec_) exec_->Shutdown();
  }

  net::ClientOptions Opts() {
    net::ClientOptions o;
    o.port = server_->port();
    o.request_timeout_ms = 10'000;
    return o;
  }

  void Tick() {
    now_ms_.fetch_add(1000);
    exec_->SampleMetricsOnce();
  }

  std::unique_ptr<Database> db_;
  std::atomic<uint64_t> now_ms_{0};
  std::unique_ptr<Executor> exec_;
  std::unique_ptr<net::TcpServer> server_;
};

TEST_F(TelemetryNetTest, RemoteProfileCarriesClientMintedTraceId) {
  StartServer();
  net::Client c(Opts());
  ASSERT_TRUE(c.Connect().ok());
  auto created = c.Call({"create node"});
  ASSERT_TRUE(created.ok() && created->ok());
  EXPECT_NE(c.last_trace_id(), 0u);

  // One batch, two profiled statements: statement i runs under
  // last_trace_id() + i, and each profile JSON reports exactly that id —
  // the client can line its own log up with the server's slow log.
  auto r = c.Call({"profile set obj(1).v = 7", "profile get obj(1).v"});
  ASSERT_TRUE(r.ok() && r->ok()) << r->payload;
  const uint64_t id = c.last_trace_id();
  EXPECT_NE(id, 0u);
  EXPECT_NE(id & (1ull << 63), 0u);  // client-minted marker bit
  ASSERT_EQ(r->statements.size(), 2u);
  char expect0[64], expect1[64];
  std::snprintf(expect0, sizeof(expect0), "\"trace_id\":%llu",
                static_cast<unsigned long long>(id));
  std::snprintf(expect1, sizeof(expect1), "\"trace_id\":%llu",
                static_cast<unsigned long long>(id + 1));
  EXPECT_NE(r->statements[0].text.find(expect0), std::string::npos)
      << r->statements[0].text;
  EXPECT_NE(r->statements[1].text.find(expect1), std::string::npos)
      << r->statements[1].text;

  // Every batch gets a fresh id.
  auto r2 = c.Call({"profile get obj(1).v"});
  ASSERT_TRUE(r2.ok() && r2->ok());
  EXPECT_NE(c.last_trace_id(), id);
}

TEST_F(TelemetryNetTest, MetricsHistoryOverTheWire) {
  StartServer();
  net::Client c(Opts());
  ASSERT_TRUE(c.Connect().ok());
  Tick();
  for (int round = 0; round < 4; ++round) {
    auto r = c.Call({"create node"});
    ASSERT_TRUE(r.ok() && r->ok());
    Tick();
  }
  auto hist = c.Call({"metrics history server 4"});
  ASSERT_TRUE(hist.ok() && hist->ok()) << hist->payload;
  const std::string& json = hist->payload;
  EXPECT_EQ(NumberAfter(json, "count"), 4);
  EXPECT_EQ(CountOccurrences(json, "\"t_ms\""), 4u);
  // Rate conversion survives the wire: each interval completed exactly
  // one request in exactly one second (the summary totals 4 over 4 s,
  // the per-sample points say 1 delta at 1/s).
  size_t pos = json.rfind("\"server.requests_completed\"");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_EQ(NumberAfter(json, "delta", pos), 4);
  EXPECT_EQ(NumberAfter(json, "rate_per_s", pos), 1);
  size_t first = json.find("\"server.requests_completed\"");
  ASSERT_NE(first, pos);
  EXPECT_EQ(NumberAfter(json, "delta", first), 1);
  EXPECT_EQ(NumberAfter(json, "rate_per_s", first), 1);
  // The watchdog surface answers over the wire too.
  auto alerts = c.Call({"alerts"});
  ASSERT_TRUE(alerts.ok() && alerts->ok());
  EXPECT_NE(alerts->payload.find("\"active\""), std::string::npos);
}

// --- Registry lifecycle: snapshot vs unregister (TSan target) ----------------

TEST(MetricsLifecycleTest, SnapshotRacesServerStartStop) {
  // Regression: TcpServer::Shutdown unregisters its "net" metrics source
  // and then destroys the stats the callback reads. A concurrent
  // SnapshotMetrics() must either run the callback before the
  // unregister completes or never run it again — never mid-teardown.
  Database db;
  ASSERT_TRUE(db.LoadSchema(kSchema).ok());
  ServerOptions sopts;
  sopts.num_workers = 2;
  sopts.sampler_interval_ms = 10;  // a real sampler thread joins the fray
  Executor exec(&db, sopts);
  exec.Start();

  std::atomic<bool> stop{false};
  std::vector<std::thread> snappers;
  for (int i = 0; i < 2; ++i) {
    snappers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::string json = exec.SnapshotMetrics();
        ASSERT_FALSE(json.empty());
      }
    });
  }

  // The cycles run in a lambda so a failed assertion returns from it
  // alone: the snappers below are then still stopped and joined (a
  // joinable std::thread destroyed on the way out would call
  // std::terminate and hide the failure message).
  auto cycles = [&] {
    for (int cycle = 0; cycle < 10; ++cycle) {
      net::TcpServer server(&exec, net::TcpServerOptions{});
      Status started = server.Start();
      ASSERT_TRUE(started.ok()) << started.ToString();
      net::Client c([&] {
        net::ClientOptions o;
        o.port = server.port();
        return o;
      }());
      Status connected = c.Connect();
      ASSERT_TRUE(connected.ok()) << connected.ToString();
      auto r = c.Call({"create node"});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      server.Shutdown();  // unregisters "net", then destroys its stats
    }
  };
  cycles();

  stop.store(true);
  for (auto& t : snappers) t.join();
  exec.Shutdown();
}

}  // namespace
}  // namespace cactis
