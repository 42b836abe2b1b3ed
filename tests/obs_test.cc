// Unit tests for the observability layer: metrics registry (snapshot
// sources), histogram bucketing, trace sink ring semantics, and the JSON
// documents both produce — including the database-level
// SnapshotMetrics() / trace()->ToJson() integration.

#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "core/database.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace.h"

namespace cactis::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON validator — enough to assert the emitted documents are
// well-formed without pulling in a parser dependency. Returns true when
// the whole input is exactly one valid JSON value.
class JsonChecker {
 public:
  static bool Valid(const std::string& s) {
    JsonChecker c(s);
    c.SkipWs();
    if (!c.Value()) return false;
    c.SkipWs();
    return c.pos_ == s.size();
  }

 private:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  bool Eat(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }

  bool Value() {
    switch (Peek()) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Literal(const char* lit) {
    for (const char* p = lit; *p; ++p) {
      if (!Eat(*p)) return false;
    }
    return true;
  }

  bool Object() {
    if (!Eat('{')) return false;
    SkipWs();
    if (Eat('}')) return true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Eat(':')) return false;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Eat('}')) return true;
      if (!Eat(',')) return false;
    }
  }

  bool Array() {
    if (!Eat('[')) return false;
    SkipWs();
    if (Eat(']')) return true;
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Eat(']')) return true;
      if (!Eat(',')) return false;
    }
  }

  bool String() {
    if (!Eat('"')) return false;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        char e = s_[pos_++];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= s_.size() ||
                !std::isxdigit(static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
            ++pos_;
          }
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;
      }
    }
    return false;
  }

  bool Number() {
    size_t start = pos_;
    Eat('-');
    if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Eat('.')) {
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(Peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// JsonWriter

TEST(JsonWriterTest, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(JsonEscape("a\"b\\c\n\t"), "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(JsonEscape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonWriterTest, NestedDocumentIsValid) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String("bench \"quoted\"");
  w.Key("values");
  w.BeginArray();
  w.Uint(1);
  w.Int(-2);
  w.Double(3.5);
  w.Bool(true);
  w.Null();
  w.EndArray();
  w.Key("nested");
  w.BeginObject();
  w.Key("k");
  w.Uint(0);
  w.EndObject();
  w.EndObject();
  EXPECT_TRUE(JsonChecker::Valid(w.str())) << w.str();
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Double(1.0 / 0.0);
  w.Double(0.0 / 0.0);
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null]");
}

// ---------------------------------------------------------------------------
// Histogram and MetricsRegistry

TEST(HistogramTest, PowerOfTwoBuckets) {
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(1023), 10u);
  EXPECT_EQ(Histogram::BucketOf(1024), 11u);
  // Huge samples collapse into the last bucket instead of overflowing.
  EXPECT_EQ(Histogram::BucketOf(~0ull), Histogram::kBuckets - 1);

  Histogram h;
  h.Record(0);
  h.Record(3);
  h.Record(3);
  h.Record(100);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 106u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(7), 1u);  // 100 is in [64, 128)

  const HistogramData d = h.Data();
  EXPECT_EQ(d.count, 4u);
  EXPECT_EQ(d.sum, 106u);
  EXPECT_EQ(d.buckets[2], 2u);
  EXPECT_EQ(h.Quantile(0.5), 4.0);    // rank 2: a 3, bucket [2, 4)
  EXPECT_EQ(h.Quantile(1.0), 128.0);  // the 100
}

TEST(MetricsRegistryTest, SourcesExportAtSnapshotTime) {
  MetricsRegistry reg;
  uint64_t live_counter = 1;
  reg.RegisterSource("storage", [&](MetricsGroup* g) {
    g->AddCounter("reads", live_counter);
    g->AddGauge("fill", 0.5);
  });

  live_counter = 42;  // sources read current state, not registration state
  std::string json = reg.SnapshotJson();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("\"storage\""), std::string::npos);
  EXPECT_NE(json.find("\"reads\":42"), std::string::npos);

  // Re-registering the same group replaces it (no duplicate groups).
  reg.RegisterSource("storage", [](MetricsGroup* g) {
    g->AddCounter("reads", 7);
  });
  json = reg.SnapshotJson();
  EXPECT_NE(json.find("\"reads\":7"), std::string::npos);
  EXPECT_EQ(json.find("\"reads\":42"), std::string::npos);

  reg.UnregisterSource("storage");
  json = reg.SnapshotJson();
  EXPECT_EQ(json.find("\"storage\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// TraceSink

TEST(TraceSinkTest, DisabledByDefaultRecordsNothing) {
  TraceSink sink(8);
  sink.Record(SpanKind::kBlockFetch, 1);
  EXPECT_EQ(sink.events().size(), 0u);
  EXPECT_EQ(sink.total_recorded(), 0u);
}

TEST(TraceSinkTest, RingDropsOldestAndKeepsSequence) {
  TraceSink sink(3);
  sink.set_enabled(true);
  for (uint64_t i = 0; i < 5; ++i) {
    sink.Record(SpanKind::kWalAppend, i, i * 10);
  }
  EXPECT_EQ(sink.events().size(), 3u);
  EXPECT_EQ(sink.total_recorded(), 5u);
  EXPECT_EQ(sink.dropped(), 2u);
  // Oldest two (seq 0, 1) fell off; the survivors keep their seq.
  EXPECT_EQ(sink.events().front().seq, 2u);
  EXPECT_EQ(sink.events().back().seq, 4u);
  EXPECT_EQ(sink.events().back().subject, 4u);
  EXPECT_EQ(sink.events().back().detail, 40u);

  sink.Clear();
  EXPECT_EQ(sink.events().size(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSinkTest, JsonRoundTripShape) {
  TraceSink sink(16);
  sink.set_enabled(true);
  sink.Record(SpanKind::kTxnBegin, 1);
  sink.Record(SpanKind::kComputeChunk, 5, 2);
  sink.Record(SpanKind::kTxnCommit, 1, 3);
  std::string json = sink.ToJson();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("\"kind\":\"txn_begin\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"compute_chunk\""), std::string::npos);
  EXPECT_NE(json.find("\"total\":3"), std::string::npos);
  // Every event carries its request attribution (0 outside a statement).
  EXPECT_NE(json.find("\"trace\":0"), std::string::npos);
}

TEST(TraceSinkTest, EventsStampTheCurrentRequestContext) {
  TraceSink sink(16);
  sink.set_enabled(true);
  sink.Record(SpanKind::kBlockFetch, 1);
  {
    RequestContext ctx;
    ctx.trace_id = 42;
    StatementCost cost;
    RequestScope scope(ctx, &cost);
    sink.Record(SpanKind::kBlockFetch, 2);
  }
  sink.Record(SpanKind::kBlockFetch, 3);
  ASSERT_EQ(sink.events().size(), 3u);
  EXPECT_EQ(sink.events()[0].trace_id, 0u);
  EXPECT_EQ(sink.events()[1].trace_id, 42u);
  EXPECT_EQ(sink.events()[2].trace_id, 0u);  // scope restored on exit
  EXPECT_NE(sink.ToJson().find("\"trace\":42"), std::string::npos);
}

TEST(TraceSinkTest, EveryKindHasAName) {
  for (int k = 0; k <= static_cast<int>(SpanKind::kTxnAbort); ++k) {
    EXPECT_FALSE(SpanKindName(static_cast<SpanKind>(k)).empty()) << k;
  }
}

// ---------------------------------------------------------------------------
// Database integration

TEST(DatabaseObservabilityTest, SnapshotCoversAllSubsystems) {
  core::DatabaseOptions opts;
  opts.buffer_capacity = 4;
  core::Database db(opts);
  ASSERT_TRUE(db.LoadSchema(R"(
    object class cell is
      attributes
        base : int;
        acc : int;
      rules
        acc = base + 1;
    end object;
  )")
                  .ok());
  auto id = db.Create("cell");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(db.Set(*id, "base", Value::Int(5)).ok());
  auto v = db.Get(*id, "acc");
  ASSERT_TRUE(v.ok());

  std::string json = db.SnapshotMetrics();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  for (const char* group :
       {"\"disk\"", "\"buffer_pool\"", "\"eval\"", "\"scheduler\"",
        "\"concurrency\"", "\"wal\"", "\"database\""}) {
    EXPECT_NE(json.find(group), std::string::npos) << group << " missing";
  }
  // The workload above began and committed implicit transactions: the
  // "txn" group counts them.
  EXPECT_NE(json.find("\"txn\":{\"begun\":"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"begun\":0"), std::string::npos) << json;
  EXPECT_NE(json.find("\"commit_delta_records\":{\"count\":"),
            std::string::npos)
      << json;
  // Every metric lives in a source group: nothing beside "sources".
  EXPECT_EQ(json.rfind("{\"sources\":{", 0), 0u) << json;
}

TEST(MetricsRegistryTest, GroupsSpliceRawJsonValues) {
  MetricsRegistry registry;
  registry.RegisterSource("svc", [](MetricsGroup* g) {
    g->AddCounter("n", 3);
    g->AddJson("nested",
               [](JsonWriter* w) { w->Raw(R"([{"k":1},{"k":2}])"); });
  });
  std::string json = registry.SnapshotJson();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("\"nested\":[{\"k\":1},{\"k\":2}]"), std::string::npos)
      << json;
  registry.UnregisterSource("svc");
}

TEST(MetricsRegistryTest, SamplerTickRendersNoJsonValues) {
  MetricsRegistry registry;
  int renders = 0;
  registry.RegisterSource("svc", [&renders](MetricsGroup* g) {
    g->AddCounter("n", 3);
    g->AddJson("nested", [&renders](JsonWriter* w) {
      ++renders;
      w->Raw("[]");
    });
  });
  SamplerOptions opts;
  opts.interval_ms = 0;
  Sampler sampler([&registry] { return registry.Snapshot(); }, opts);
  sampler.SampleOnce();
  sampler.SampleOnce();
  EXPECT_EQ(renders, 0);
  ASSERT_EQ(sampler.Window(1).size(), 1u);
  EXPECT_NE(sampler.Window(1)[0].Find("svc.n"), nullptr);

  EXPECT_NE(registry.SnapshotJson().find("\"nested\":[]"), std::string::npos);
  EXPECT_EQ(renders, 1);
}

TEST(DatabaseObservabilityTest, ExportsTraceRingCountersIncludingDrops) {
  core::DatabaseOptions opts;
  opts.enable_tracing = true;
  opts.trace_capacity = 4;  // tiny ring: force drops
  core::Database db(opts);
  ASSERT_TRUE(db.LoadSchema("object class c is attributes a : int; end object;")
                  .ok());
  auto id = db.Create("c");
  ASSERT_TRUE(id.ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(db.Set(*id, "a", Value::Int(i)).ok());
  }
  ASSERT_GT(db.trace()->dropped(), 0u);

  std::string json = db.SnapshotMetrics();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("\"trace_events_total\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace_dropped_events\":"), std::string::npos) << json;
  // The exported drop counter matches the sink's.
  const std::string key = "\"trace_dropped_events\":";
  uint64_t exported =
      std::stoull(json.substr(json.find(key) + key.size()));
  EXPECT_EQ(exported, db.trace()->dropped());
}

TEST(DatabaseObservabilityTest, TracingCapturesTxnAndBlockEvents) {
  core::DatabaseOptions opts;
  opts.enable_tracing = true;
  opts.trace_capacity = 1 << 14;
  core::Database db(opts);
  ASSERT_TRUE(db.LoadSchema("object class c is attributes a : int; end object;")
                  .ok());
  auto id = db.Create("c");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(db.Set(*id, "a", Value::Int(1)).ok());

  bool saw_begin = false, saw_commit = false, saw_fetch = false;
  for (const obs::TraceEvent& e : db.trace()->events()) {
    saw_begin |= e.kind == SpanKind::kTxnBegin;
    saw_commit |= e.kind == SpanKind::kTxnCommit;
    saw_fetch |= e.kind == SpanKind::kBlockFetch;
  }
  EXPECT_TRUE(saw_begin);
  EXPECT_TRUE(saw_commit);
  EXPECT_TRUE(saw_fetch);
  EXPECT_TRUE(JsonChecker::Valid(db.trace()->ToJson()));

  // set_tracing(false) stops the stream.
  db.set_tracing(false);
  uint64_t before = db.trace()->total_recorded();
  ASSERT_TRUE(db.Set(*id, "a", Value::Int(2)).ok());
  EXPECT_EQ(db.trace()->total_recorded(), before);
}

}  // namespace
}  // namespace cactis::obs
