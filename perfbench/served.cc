// Served-system benchmark: the measuring program behind perfbench/run.py.
//
// One process serves one workload the way a deployment would: a
// core::Database behind a server::Executor (default options) behind a
// net::TcpServer on loopback, driven by kClients closed-loop client
// threads, one net::Client connection each. Every figure is measured from
// outside the system: client round trips, the public stats structs, and
// the metrics snapshots the executor exports.
//
// Phases of one run:
//   1. Set-up of the served database: schema, population, warm-up reads,
//      reorganize (derived_dag only), checkpoint. Timed.
//   2. Serve: start executor + TCP server, connect the clients, run a fixed
//      number of warm-up operations per client (not timed).
//   3. Timed window (--seconds). Metrics snapshots bracket exactly this
//      window. Every call's round trip and the server's queue/exec split
//      from the response are recorded; percentiles are exact, from the raw
//      samples.
//   4. With --trace 1, a second window of the same length wraps every
//      statement in `profile` and records spans per client call.
//   5. Audit through a fresh client: no lost update, and on derived_dag
//      every sink's `acc` equals a from-scratch recompute over the DAG.
//   6. Shut the server down and recover the served platter into a fresh
//      database, which must equal the acknowledged-write shadow. Then
//      checkpoint, commit a fixed tail of increments to the core, and
//      recover that platter kRepeats times (timed; the first is checked
//      too). kRepeats - 1 more set-ups run on fresh databases between the
//      recoveries, with a short pause before each pair, so the repetitions
//      are spread over seconds instead of one burst of host load. The
//      traced run does one of each.
//   7. With --trace 1, replay a slice of the op stream directly against
//      the core::Database to time core get and set+commit.
//
// The last line on stdout is one JSON report; perfbench/run.py turns it
// into named metrics. Progress goes to stderr.
//
//   perfbench_served --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out FILE]

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/database.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "obs/json_writer.h"
#include "server/executor.h"
#include "server/statement.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace cactis::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kClients = 4;
// Untimed operations per client between connecting and the timed window.
constexpr int kWarmupOpsPerClient = 256;
// Calls per client whose spans are kept for the trace file (the
// aggregates cover every traced call).
constexpr size_t kTraceCallsPerClient = 2000;
// Ops replayed directly against core::Database in the traced run.
constexpr size_t kCoreReplayOps = 2000;
// Set-ups and recoveries per untraced run (see phase 6), and the pause
// before each repetition.
constexpr int kRepeats = 10;
constexpr std::chrono::milliseconds kRepeatPause{150};

constexpr const char* kCounterSchema = R"(
  object class counter is
    attributes
      v : int;
  end object;
)";

// The `cell` class of the experiment harness (bench/bench_util.h): an
// integer aggregation flowing across `prev` edges.
constexpr const char* kCellSchema = R"(
  object class cell is
    relationships
      prev : chain multi socket;
      next : chain multi plug;
    attributes
      base : int;
      acc  : int;
    rules
      acc = begin
        t : int;
        t = base;
        for each p related to prev do
          t = t + p.acc;
        end;
        return t;
      end;
  end object;
)";

struct Workload {
  const char* name;
  const char* why;
  bool dag;             // derived_dag shape instead of flat counters
  int counters;         // flat counters
  int hot_set;          // counters in the hot set (0 = uniform)
  int hot_pct;          // share of operations on the hot set
  int read_pct;         // share of operations that are reads
  int dag_depth, dag_width, dag_fanin;
  uint64_t write_latency_us;  // simulated platter write latency
  bool reorganize;
  int recovery_tail;  // commits replayed by each timed recovery
  // Equal time slices of the window; the reported timings are medians
  // over them. As many as keep a thousand samples of each operation kind
  // per slice, so a slice's p99 has at least ten beyond it.
  int slices;
};

constexpr Workload kWorkloads[] = {
    {"intrinsic_rw",
     "per-statement overhead: wire, queue, parse, MVCC snapshot reads, "
     "group commit; core eval, scheduling and clustering are idle",
     false, 4096, 64, 80, 90, 0, 0, 0, 0, false, 20000, 10},
    {"derived_dag",
     "derived reads and incremental re-evaluation over a layered DAG larger "
     "than the buffer pool: core eval, scheduler, clustering, storage",
     true, 0, 0, 0, 80, 5, 512, 3, 0, true, 300, 3},
    {"durable_commits",
     "commit path on a 200 us platter: WAL staging, group commit, "
     "durability wait, publish, and a long recovery tail",
     false, 4096, 0, 0, 20, 0, 0, 0, 200, false, 50000, 10},
};

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void Check(const Status& s, const char* what) {
  if (!s.ok()) Fail(std::string(what) + ": " + s.ToString());
}

template <typename T>
T Must(Result<T> r, const char* what) {
  Check(r.status(), what);
  return std::move(r).value();
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

uint64_t Nanos(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// --- The data set ------------------------------------------------------------

// The populated database plus everything the checks need to know about
// it. Objects are addressed by index; `names` holds their "obj(N)" form.
struct DataSet {
  std::unique_ptr<core::Database> db;
  std::vector<InstanceId> ids;
  std::vector<std::string> names;
  // Flat counters: the hot set (indices into ids).
  std::vector<uint32_t> hot;
  // derived_dag: cell index = layer * width + position; preds[i] lists the
  // cells whose `acc` flows into cell i. Sources are layer 0, sinks the
  // last layer.
  std::vector<std::vector<uint32_t>> preds;
  std::vector<uint32_t> sources, sinks;
  double reorg_s = 0;
};

const char* SchemaOf(const Workload& w) {
  return w.dag ? kCellSchema : kCounterSchema;
}

// acc of every cell, from scratch, given every cell's base.
std::vector<int64_t> RecomputeAcc(const DataSet& d,
                                  const std::vector<int64_t>& base) {
  std::vector<int64_t> acc(base.size());
  for (size_t i = 0; i < base.size(); ++i) {  // layers are in index order
    acc[i] = base[i];
    for (uint32_t p : d.preds[i]) acc[i] += acc[p];
  }
  return acc;
}

DataSet Populate(const Workload& w, uint64_t seed) {
  DataSet d;
  d.db = std::make_unique<core::Database>();
  Check(d.db->LoadSchema(SchemaOf(w)), "schema");
  core::Database* db = d.db.get();
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);

  auto create_batch = [&](const char* cls, const char* attr, int64_t value,
                          int n) {
    constexpr int kBatch = 256;
    for (int lo = 0; lo < n; lo += kBatch) {
      auto t = db->Begin();
      for (int i = lo; i < std::min(n, lo + kBatch); ++i) {
        InstanceId id = Must(t->Create(cls), "create");
        Check(t->Set(id, attr, Value::Int(value)), "init");
        d.ids.push_back(id);
        d.names.push_back(server::FormatInstance(id));
      }
      Check(t->Commit(), "populate commit");
    }
  };

  if (!w.dag) {
    create_batch("counter", "v", 0, w.counters);
    std::vector<uint32_t> perm(w.counters);
    for (int i = 0; i < w.counters; ++i) perm[i] = i;
    for (int i = w.counters - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.Uniform(i + 1)]);
    }
    d.hot.assign(perm.begin(), perm.begin() + w.hot_set);
    // Warm-up: one read of every counter.
    for (InstanceId id : d.ids) Must(db->Get(id, "v"), "warm-up get");
  } else {
    const int cells = w.dag_depth * w.dag_width;
    create_batch("cell", "base", 1, cells);
    d.preds.resize(cells);
    for (int layer = 1; layer < w.dag_depth; ++layer) {
      auto t = db->Begin();
      for (int pos = 0; pos < w.dag_width; ++pos) {
        const uint32_t cell = layer * w.dag_width + pos;
        while (static_cast<int>(d.preds[cell].size()) < w.dag_fanin) {
          const uint32_t p =
              (layer - 1) * w.dag_width + rng.Uniform(w.dag_width);
          if (std::find(d.preds[cell].begin(), d.preds[cell].end(), p) !=
              d.preds[cell].end()) {
            continue;
          }
          d.preds[cell].push_back(p);
          Must(t->Connect(d.ids[cell], "prev", d.ids[p], "next"), "connect");
        }
      }
      Check(t->Commit(), "connect commit");
    }
    for (int pos = 0; pos < w.dag_width; ++pos) {
      d.sources.push_back(pos);
      d.sinks.push_back((w.dag_depth - 1) * w.dag_width + pos);
    }
    // Warm-up: one get per sink makes its `acc` (and, transitively, the
    // accs it reads) important, so writes re-evaluate them eagerly.
    for (uint32_t s : d.sinks) Must(db->Get(d.ids[s], "acc"), "warm-up get");
  }
  if (w.reorganize) {
    const auto t0 = Clock::now();
    Check(db->Reorganize(), "reorganize");
    d.reorg_s = Seconds(t0, Clock::now());
  }
  Check(db->Checkpoint(), "checkpoint");
  return d;
}

// One write operation straight against the core: read, increment, commit.
Status CoreIncrement(core::Database* db, InstanceId id, const char* attr) {
  auto t = db->Begin();
  CACTIS_ASSIGN_OR_RETURN(Value v, t->Get(id, attr));
  CACTIS_ASSIGN_OR_RETURN(int64_t n, v.AsInt());
  CACTIS_RETURN_IF_ERROR(t->Set(id, attr, Value::Int(n + 1)));
  return t->Commit();
}

// Moves the calling thread to the next CPU of the process's affinity mask
// on each Next(), round-robin, and restores the mask on destruction. On a
// shared host one core can run slow for seconds; rotating the repeated
// set-ups and recoveries over every core keeps one slow core from setting
// a whole run's figure. Create no threads while one is alive: they would
// inherit the single-CPU mask.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&mask_);
    if (sched_getaffinity(0, sizeof mask_, &mask_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &mask_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof mask_, &mask_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);  // best effort
  }

 private:
  cpu_set_t mask_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// --- Operations ----------------------------------------------------------------

struct Op {
  bool read;
  uint32_t obj;  // index into DataSet::ids
};

// Deterministic per-client operation stream.
class OpStream {
 public:
  OpStream(const Workload& w, const DataSet& d, uint64_t seed, int client)
      : w_(w), d_(d), rng_(seed * 1000003ull + client * 7919ull + 1) {}

  Op Next() {
    Op op;
    op.read = rng_.Uniform(100) < static_cast<uint64_t>(w_.read_pct);
    if (w_.dag) {
      const auto& pool = op.read ? d_.sinks : d_.sources;
      op.obj = pool[rng_.Uniform(pool.size())];
    } else if (!d_.hot.empty() &&
               rng_.Uniform(100) < static_cast<uint64_t>(w_.hot_pct)) {
      op.obj = d_.hot[rng_.Uniform(d_.hot.size())];
    } else {
      op.obj = static_cast<uint32_t>(rng_.Uniform(d_.ids.size()));
    }
    return op;
  }

 private:
  const Workload& w_;
  const DataSet& d_;
  Rng rng_;
};

// Statement texts per object, built once so the client loop builds no strings.
struct Statements {
  std::vector<std::vector<std::string>> read, write, read_prof, write_prof;

  Statements(const Workload& w, const DataSet& d) {
    const std::string attr = w.dag ? "acc" : "v";
    const std::string wattr = w.dag ? "base" : "v";
    for (const std::string& n : d.names) {
      read.push_back({"get " + n + "." + attr});
      write.push_back(
          {"begin", "set " + n + "." + wattr + " = " + wattr + " + 1",
           "commit"});
      read_prof.push_back({"profile " + read.back()[0]});
      write_prof.push_back({"profile begin", "profile " + write.back()[1],
                            "profile commit"});
    }
  }
};

// --- Measurements ----------------------------------------------------------------

struct CallRec {
  double done_s;      // completion, seconds since the run's epoch
  uint64_t rtt_ns;
  uint32_t queue_us;  // server queue wait (response field)
  uint32_t exec_us;   // server execution, all statements (response field)
  uint32_t retries;
  bool read;
};

// Exact nearest-rank quantiles over raw samples.
struct Summary {
  double p50 = 0, p90 = 0, p99 = 0, mean = 0;
  size_t n = 0;
};

Summary Summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  auto rank = [&](double q) {
    const auto i = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<size_t>(i, 1, v.size()) - 1];
  };
  s.p50 = rank(0.50);
  s.p90 = rank(0.90);
  s.p99 = rank(0.99);
  double sum = 0;
  for (double x : v) sum += x;
  s.mean = sum / static_cast<double>(v.size());
  return s;
}

void WriteSummary(obs::JsonWriter* w, const char* key, const Summary& s) {
  w->Key(key).BeginObject();
  w->Key("p50").Double(s.p50);
  w->Key("p90").Double(s.p90);
  w->Key("p99").Double(s.p99);
  w->Key("mean").Double(s.mean);
  w->Key("n").Uint(s.n);
  w->EndObject();
}

// One span of the trace file (Chrome trace-event "X" record).
struct Span {
  const char* name;
  int tid;
  double ts_us, dur_us;
  uint64_t trace_id;
  std::string args;  // extra rendered JSON members, may be empty
};

// Per-span-name totals over every traced call: self = span minus the time
// its children cover.
struct SpanTotals {
  uint64_t count = 0;
  double total_us = 0, self_us = 0;
};

// Everything one client thread observed.
struct ClientLog {
  std::vector<CallRec> calls;
  uint64_t attempted = 0, failed = 0;
  std::vector<int64_t> acked;      // per object: acknowledged increments
  std::vector<int64_t> ambiguous;  // per object: writes with unknown fate
  std::vector<int64_t> max_read;   // per object: largest value read
  std::string first_error;
  // Traced window only.
  std::vector<double> parse_us, get_exec_us, commit_exec_us, attrs_per_get;
  std::vector<Span> spans;
  size_t kept_calls = 0;  // calls whose spans are in `spans`
  std::vector<std::pair<const char*, SpanTotals>> totals;

  void AddTotal(const char* name, const SpanTotals& add) {
    for (auto& [n, t] : totals) {
      if (n == name) {
        t.count += add.count;
        t.total_us += add.total_us;
        t.self_us += add.self_us;
        return;
      }
    }
    totals.push_back({name, add});
  }
};

// Pulls `"key":<uint>` out of a profile document (keys there are unique).
uint64_t JsonUint(std::string_view doc, std::string_view key) {
  std::string pat;
  pat.reserve(key.size() + 3);
  pat.append(1, '"').append(key).append("\":");
  size_t at = doc.find(pat);
  if (at == std::string_view::npos) return 0;
  return std::strtoull(doc.data() + at + pat.size(), nullptr, 10);
}

// The "result" string of a profile document (numbers need no unescaping).
std::string_view JsonResult(std::string_view doc) {
  constexpr std::string_view kPat = "\"result\":\"";
  size_t at = doc.find(kPat);
  if (at == std::string_view::npos) return {};
  size_t start = at + kPat.size();
  size_t end = doc.find('"', start);
  return end == std::string_view::npos ? std::string_view{}
                                       : doc.substr(start, end - start);
}

// Records one traced call: the client span, and under it the server's
// queue wait and per-statement exec (with lock wait and parse inside), laid
// out from the reported durations. The remainder of the client span is
// the network and client-library share.
void TraceCall(ClientLog* log, int tid, Clock::time_point epoch,
               Clock::time_point t0, uint64_t rtt_ns, bool read,
               uint64_t trace_id, const net::WireResponse& resp,
               const std::vector<double>& parse_us) {
  const double start = std::chrono::duration<double, std::micro>(t0 - epoch)
                           .count();
  const double rtt = static_cast<double>(rtt_ns) / 1000.0;
  const bool keep = log->kept_calls < kTraceCallsPerClient;
  if (keep) ++log->kept_calls;

  double queue = 0, exec_sum = 0;
  struct StmtCost {
    double exec, lock, parse;
    uint64_t blocks_read, blocks_written, attrs, chunks, wal_bytes;
  };
  std::vector<StmtCost> costs;
  for (size_t i = 0; i < resp.statements.size(); ++i) {
    std::string_view doc = resp.statements[i].text;
    StmtCost c;
    c.exec = static_cast<double>(JsonUint(doc, "exec_us"));
    c.lock = static_cast<double>(JsonUint(doc, "lock_wait_shared_us") +
                                 JsonUint(doc, "lock_wait_excl_us"));
    c.parse = i < parse_us.size() ? parse_us[i] : 0;
    c.blocks_read = JsonUint(doc, "blocks_read");
    c.blocks_written = JsonUint(doc, "blocks_written");
    c.attrs = JsonUint(doc, "attrs_reevaluated");
    c.chunks = JsonUint(doc, "chunks_scheduled");
    c.wal_bytes = JsonUint(doc, "wal_bytes");
    if (i == 0) queue = static_cast<double>(JsonUint(doc, "queue_wait_us"));
    exec_sum += c.exec;
    costs.push_back(c);
  }
  const double server = std::min(rtt, queue + exec_sum);
  const char* client_name = read ? "client.read" : "client.write";
  log->AddTotal(client_name, {1, rtt, rtt - server});
  if (keep) log->spans.push_back({client_name, tid, start, rtt, trace_id, ""});
  double at = start + (rtt - server) / 2;  // half the remainder each way
  if (queue > 0) {
    log->AddTotal("server.queue_wait", {1, queue, queue});
    if (keep) log->spans.push_back({"server.queue_wait", tid, at, queue,
                                    trace_id, ""});
    at += queue;
  }
  for (const StmtCost& c : costs) {
    const double parse = std::min(c.parse, c.exec);
    const double lock = std::min(c.lock, c.exec - parse);
    log->AddTotal("server.exec", {1, c.exec, c.exec - parse - lock});
    log->AddTotal("lang.parse", {1, parse, parse});
    if (lock > 0) log->AddTotal("server.lock_wait", {1, lock, lock});
    if (keep) {
      char args[256];
      std::snprintf(args, sizeof args,
                    "\"blocks_read\":%llu,\"blocks_written\":%llu,"
                    "\"attrs_reevaluated\":%llu,\"chunks_scheduled\":%llu,"
                    "\"wal_bytes\":%llu",
                    static_cast<unsigned long long>(c.blocks_read),
                    static_cast<unsigned long long>(c.blocks_written),
                    static_cast<unsigned long long>(c.attrs),
                    static_cast<unsigned long long>(c.chunks),
                    static_cast<unsigned long long>(c.wal_bytes));
      log->spans.push_back({"server.exec", tid, at, c.exec, trace_id, args});
      log->spans.push_back({"lang.parse", tid, at, parse, trace_id, ""});
      if (lock > 0) {
        log->spans.push_back(
            {"server.lock_wait", tid, at + parse, lock, trace_id, ""});
      }
    }
    at += c.exec;
  }
  // Per-statement figures for the per-layer metrics.
  if (read) {
    log->get_exec_us.push_back(costs.empty() ? 0 : costs[0].exec);
    log->attrs_per_get.push_back(
        costs.empty() ? 0 : static_cast<double>(costs[0].attrs));
  } else if (costs.size() == 3) {
    log->commit_exec_us.push_back(costs[2].exec);
  }
}

struct Shared {
  const Workload* w;
  const DataSet* d;
  const Statements* stmts;
  uint16_t port;
  uint64_t seed;
};

// One client thread: a closed loop of operations until `deadline` (or
// `max_ops`, for the warm-up). Calls are recorded when `record` is set;
// with `traced`, statements are `profile`-wrapped and spans recorded.
class ClientThread {
 public:
  ClientThread(const Shared& sh, int idx)
      : sh_(sh), idx_(idx), ops_(*sh.w, *sh.d, sh.seed, idx) {
    net::ClientOptions o;
    o.port = sh.port;
    o.request_timeout_ms = 60'000;
    o.retry.max_attempts = 32;
    o.retry.base_us = 50;
    o.retry.max_us = 5'000;
    o.retry.jitter_seed = sh.seed * 31 + idx;
    client_ = std::make_unique<net::Client>(o);
    const size_t n = sh.d->ids.size();
    log_.acked.assign(n, 0);
    log_.ambiguous.assign(n, 0);
    log_.max_read.assign(n, -1);
  }

  Status Connect() { return client_->Connect(); }
  void Close() { client_->Close(); }
  ClientLog& log() { return log_; }

  void Run(Clock::time_point deadline, uint64_t max_ops, bool record,
           bool traced, Clock::time_point epoch) {
    std::vector<double> parse_us;
    for (uint64_t k = 0; k < max_ops; ++k) {
      if (Clock::now() >= deadline) break;
      const Op op = ops_.Next();
      const auto& texts =
          traced ? (op.read ? sh_.stmts->read_prof : sh_.stmts->write_prof)
                 : (op.read ? sh_.stmts->read : sh_.stmts->write);
      if (traced) {
        // lang layer: the parser on this op's own statement texts.
        parse_us.clear();
        for (const std::string& text :
             (op.read ? sh_.stmts->read : sh_.stmts->write)[op.obj]) {
          const auto p0 = Clock::now();
          auto parsed = server::ParseStatement(text);
          parse_us.push_back(static_cast<double>(Nanos(p0, Clock::now())) /
                             1000.0);
          if (!parsed.ok()) Note("parse: " + parsed.status().ToString());
        }
        log_.parse_us.insert(log_.parse_us.end(), parse_us.begin(),
                             parse_us.end());
      }
      ++log_.attempted;
      const auto t0 = Clock::now();
      Result<net::WireResponse> r = client_->CallRetry(texts[op.obj]);
      const auto t1 = Clock::now();
      if (!r.ok() || !r->ok()) {
        ++log_.failed;
        if (!op.read && !r.ok()) ++log_.ambiguous[op.obj];
        Note(r.ok() ? r->payload : r.status().ToString());
        continue;
      }
      if (op.read) {
        std::string_view text = r->statements.empty()
                                    ? std::string_view{}
                                    : std::string_view(r->statements[0].text);
        if (traced) text = JsonResult(text);
        int64_t v = 0;
        const char* end = text.data() + text.size();
        auto [ptr, ec] = std::from_chars(text.data(), end, v);
        if (text.empty() || ec != std::errc() || ptr != end) {
          Note("unparsable read result '" + std::string(text) + "'");
          ++log_.failed;
          continue;
        }
        log_.max_read[op.obj] = std::max<int64_t>(log_.max_read[op.obj], v);
      } else {
        ++log_.acked[op.obj];
      }
      if (!record) continue;
      const uint64_t rtt = Nanos(t0, t1);
      log_.calls.push_back({Seconds(epoch, t1), rtt,
                            static_cast<uint32_t>(r->queue_wait_us),
                            static_cast<uint32_t>(r->exec_us),
                            static_cast<uint32_t>(client_->last_retries()),
                            op.read});
      if (traced) {
        TraceCall(&log_, idx_, epoch, t0, rtt, op.read,
                  client_->last_trace_id(), *r, parse_us);
      }
    }
  }

 private:
  void Note(const std::string& e) {
    if (log_.first_error.empty()) log_.first_error = e;
  }

  const Shared& sh_;
  int idx_;
  OpStream ops_;
  std::unique_ptr<net::Client> client_;
  ClientLog log_;
};

// Runs fn(client) on one thread per client and waits for all of them.
template <typename Fn>
void OnEveryClient(std::vector<std::unique_ptr<ClientThread>>* clients,
                   Fn fn) {
  std::vector<std::thread> threads;
  for (auto& c : *clients) threads.emplace_back([&c, &fn] { fn(c.get()); });
  for (auto& t : threads) t.join();
}

struct Window {
  double start_s = 0;  // since the run's epoch
  double seconds = 0;
  std::vector<CallRec> calls;
  ClientLog merged_traced;  // traced window: merged per-layer samples
};

// Runs every client over one window and gathers what they recorded.
Window RunWindow(std::vector<std::unique_ptr<ClientThread>>* clients,
                 double seconds, bool traced, Clock::time_point epoch) {
  for (auto& c : *clients) {
    c->log().calls.clear();
    c->log().calls.reserve(1 << 16);
  }
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  OnEveryClient(clients, [&](ClientThread* c) {
    c->Run(deadline, UINT64_MAX, /*record=*/true, traced, epoch);
  });
  Window win;
  win.start_s = Seconds(epoch, start);
  win.seconds = Seconds(start, Clock::now());
  for (auto& c : *clients) {
    ClientLog& l = c->log();
    win.calls.insert(win.calls.end(), l.calls.begin(), l.calls.end());
    if (traced) {
      ClientLog& m = win.merged_traced;
      auto append = [](std::vector<double>* to, std::vector<double>* from) {
        to->insert(to->end(), from->begin(), from->end());
        from->clear();
      };
      append(&m.parse_us, &l.parse_us);
      append(&m.get_exec_us, &l.get_exec_us);
      append(&m.commit_exec_us, &l.commit_exec_us);
      append(&m.attrs_per_get, &l.attrs_per_get);
      for (auto& s : l.spans) m.spans.push_back(std::move(s));
      l.spans.clear();
      for (const auto& [name, t] : l.totals) m.AddTotal(name, t);
      l.totals.clear();
    }
  }
  return win;
}

void WriteWindow(obs::JsonWriter* w, const Window& win, int slices) {
  std::vector<double> read_lat, write_lat, queue, overhead, retries;
  uint64_t reads = 0;
  for (const CallRec& c : win.calls) {
    const double rtt = static_cast<double>(c.rtt_ns) / 1000.0;
    (c.read ? read_lat : write_lat).push_back(rtt);
    queue.push_back(c.queue_us);
    if (c.read) {
      ++reads;
      overhead.push_back(rtt - c.queue_us - c.exec_us);
    } else {
      retries.push_back(c.retries);
    }
  }
  const uint64_t ops = win.calls.size();
  w->Key("seconds").Double(win.seconds);
  w->Key("ops").Uint(ops);
  w->Key("reads").Uint(reads);
  w->Key("writes").Uint(ops - reads);
  w->Key("throughput_ops_s").Double(static_cast<double>(ops) / win.seconds);
  WriteSummary(w, "read_us", Summarize(std::move(read_lat)));
  WriteSummary(w, "write_us", Summarize(std::move(write_lat)));
  WriteSummary(w, "queue_wait_us", Summarize(std::move(queue)));
  WriteSummary(w, "read_net_overhead_us", Summarize(std::move(overhead)));
  WriteSummary(w, "write_retries", Summarize(std::move(retries)));

  // The same figures per equal time slice, by completion time: the
  // reported timings are medians over the slices, so a few seconds of
  // host load (which can triple a slice's p99) do not move them.
  std::vector<std::vector<double>> slice_read(slices), slice_write(slices);
  const double len = win.seconds / slices;
  for (const CallRec& c : win.calls) {
    const int k = std::clamp(
        static_cast<int>((c.done_s - win.start_s) / len), 0, slices - 1);
    (c.read ? slice_read[k] : slice_write[k])
        .push_back(static_cast<double>(c.rtt_ns) / 1000.0);
  }
  w->Key("slices").BeginArray();
  for (int k = 0; k < slices; ++k) {
    w->BeginObject();
    w->Key("throughput_ops_s")
        .Double(static_cast<double>(slice_read[k].size() +
                                    slice_write[k].size()) / len);
    WriteSummary(w, "read_us", Summarize(std::move(slice_read[k])));
    WriteSummary(w, "write_us", Summarize(std::move(slice_write[k])));
    w->EndObject();
  }
  w->EndArray();
}

std::string NetStatsJson(const net::NetStats& s) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("bytes_received").Uint(s.bytes_received.load());
  w.Key("bytes_sent").Uint(s.bytes_sent.load());
  w.EndObject();
  return w.str();
}

void WriteTraceFile(const std::string& path, const std::vector<Span>& spans) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit").String("ms");
  w.Key("traceEvents").BeginArray();
  for (const Span& s : spans) {
    w.BeginObject();
    w.Key("name").String(s.name);
    w.Key("cat").String(std::string_view(s.name).substr(
        0, std::string_view(s.name).find('.')));
    w.Key("ph").String("X");
    w.Key("pid").Uint(1);
    w.Key("tid").Uint(static_cast<uint64_t>(s.tid));
    w.Key("ts").Double(s.ts_us);
    w.Key("dur").Double(s.dur_us);
    char id[20];
    std::snprintf(id, sizeof id, "%016llx",
                  static_cast<unsigned long long>(s.trace_id));
    w.Key("args").Raw("{\"trace_id\":\"" + std::string(id) + "\"" +
                      (s.args.empty() ? "" : "," + s.args) + "}");
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Fail("cannot open trace file " + path);
  const std::string& doc = w.str();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  if (std::fclose(f) != 0 || !ok) Fail("short write to " + path);
}

// --- Correctness ---------------------------------------------------------------

struct Checks {
  uint64_t lost_updates = 0;      // served values vs acked shadow
  uint64_t dag_mismatches = 0;    // sink acc vs from-scratch recompute
  uint64_t read_violations = 0;   // a read above the final value
  uint64_t recovery_mismatches = 0;
  std::vector<std::string> notes;

  bool ok() const {
    return lost_updates == 0 && dag_mismatches == 0 && read_violations == 0 &&
           recovery_mismatches == 0;
  }
  void Note(const std::string& s) {
    if (notes.size() < 8) notes.push_back(s);
  }
};

// Final value of every object according to the acknowledged writes, with
// the allowance for writes whose acknowledgement was lost.
struct Shadow {
  std::vector<int64_t> value;  // counters: v; dag: base
  std::vector<int64_t> slack;
};

Shadow BuildShadow(const Workload& w, const DataSet& d,
                   const std::vector<std::unique_ptr<ClientThread>>& clients) {
  Shadow s;
  s.value.assign(d.ids.size(), w.dag ? 1 : 0);
  s.slack.assign(d.ids.size(), 0);
  for (const auto& c : clients) {
    for (size_t i = 0; i < d.ids.size(); ++i) {
      s.value[i] += c->log().acked[i];
      s.slack[i] += c->log().ambiguous[i];
    }
  }
  return s;
}

// Compares a database's state (read through `get`) with the shadow:
// counters' `v` and sources' `base` must hold exactly the acknowledged
// increments (mismatches -> *value_bad); every sink's `acc` must equal a
// from-scratch recompute over the DAG (mismatches -> *acc_bad).
template <typename GetFn>
void Audit(const Workload& w, const DataSet& d, const Shadow& s, GetFn get,
           const char* where, uint64_t* value_bad, uint64_t* acc_bad,
           Checks* checks) {
  auto expect = [&](uint32_t i, const char* attr, int64_t lo, int64_t hi,
                    uint64_t* bad) {
    Result<int64_t> got = get(i, attr);
    if (!got.ok() || *got < lo || *got > hi) {
      ++*bad;
      checks->Note(std::string(where) + ": " + d.names[i] + "." + attr +
                   " = " +
                   (got.ok() ? std::to_string(*got) : got.status().ToString()) +
                   ", expected " + std::to_string(lo) +
                   (hi != lo ? ".." + std::to_string(hi) : ""));
    }
  };
  if (!w.dag) {
    for (uint32_t i = 0; i < d.ids.size(); ++i) {
      expect(i, "v", s.value[i], s.value[i] + s.slack[i], value_bad);
    }
    return;
  }
  for (uint32_t i : d.sources) {
    expect(i, "base", s.value[i], s.value[i] + s.slack[i], value_bad);
  }
  std::vector<int64_t> lo = RecomputeAcc(d, s.value);
  std::vector<int64_t> upper = s.value;
  for (size_t i = 0; i < upper.size(); ++i) upper[i] += s.slack[i];
  std::vector<int64_t> hi = RecomputeAcc(d, upper);
  for (uint32_t i : d.sinks) expect(i, "acc", lo[i], hi[i], acc_bad);
}

// --- Main ------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--trace-out") a.trace_out = v;
    else Fail("unknown argument " + k);
  }
  if (a.seconds <= 0) Fail("--seconds must be positive");
  return a;
}

bool DebugOrSanitized() {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return true;
#else
  return std::string_view(PERFBENCH_BUILD_TYPE) == "Debug";
#endif
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (DebugOrSanitized()) {
    Fail(std::string("refusing to measure a Debug or sanitizer build (")
         + PERFBENCH_BUILD_TYPE + ")");
  }
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wp = &w;
  }
  if (wp == nullptr) Fail("unknown workload '" + args.workload + "'");
  const Workload& w = *wp;

  // 1. Set-up of the served database.
  std::vector<double> setup_s;
  auto t_setup = Clock::now();
  DataSet data = Populate(w, args.seed);
  setup_s.push_back(Seconds(t_setup, Clock::now()));
  core::Database* db = data.db.get();
  const uint64_t blocks_after_setup = db->block_count();
  const core::ClusterStats cluster = db->cluster_stats();

  // 2. Serve.
  db->disk()->set_write_latency_us(w.write_latency_us);
  server::Executor exec(db, server::ServerOptions{});
  exec.Start();
  net::TcpServer tcp(&exec, net::TcpServerOptions{});
  Check(tcp.Start(), "tcp server");
  const Statements stmts(w, data);
  const Shared shared{&w, &data, &stmts, tcp.port(), args.seed};
  std::vector<std::unique_ptr<ClientThread>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<ClientThread>(shared, i));
    Check(clients.back()->Connect(), "client connect");
  }
  const auto epoch = Clock::now();
  OnEveryClient(&clients, [&](ClientThread* c) {
    c->Run(Clock::time_point::max(), kWarmupOpsPerClient, /*record=*/false,
           /*traced=*/false, epoch);
  });

  // 3. Timed window, bracketed by the metrics snapshots.
  const double window_s = args.trace ? args.seconds / 2 : args.seconds;
  const std::string metrics_before = exec.SnapshotMetrics();
  const std::string net_before = NetStatsJson(tcp.stats());
  Window plain = RunWindow(&clients, window_s, /*traced=*/false, epoch);
  const std::string metrics_after = exec.SnapshotMetrics();
  const std::string net_after = NetStatsJson(tcp.stats());
  std::fprintf(stderr, "window: %zu ops in %.2f s\n", plain.calls.size(),
               plain.seconds);

  // 4. Traced window.
  Window traced;
  if (args.trace) {
    traced = RunWindow(&clients, window_s, /*traced=*/true, epoch);
    if (!args.trace_out.empty()) {
      WriteTraceFile(args.trace_out, traced.merged_traced.spans);
    }
  }

  uint64_t attempted = 0, failed = 0;
  std::string first_error;
  for (auto& c : clients) {
    attempted += c->log().attempted;
    failed += c->log().failed;
    if (first_error.empty()) first_error = c->log().first_error;
    c->Close();
  }

  // 5. Audit the served state through a fresh client.
  Checks checks;
  Shadow shadow = BuildShadow(w, data, clients);
  {
    net::ClientOptions o;
    o.port = tcp.port();
    net::Client auditor(o);
    Check(auditor.Connect(), "audit connect");
    Audit(
        w, data, shadow,
        [&](uint32_t i, const char* attr) -> Result<int64_t> {
          auto r = auditor.Call({"get " + data.names[i] + "." + attr});
          if (!r.ok()) return r.status();
          if (!r->ok()) return Status::Internal(r->payload);
          return static_cast<int64_t>(std::strtoll(r->payload.c_str(),
                                                   nullptr, 10));
        },
        "served", &checks.lost_updates, &checks.dag_mismatches, &checks);
    auditor.Close();
  }
  {
    // Values only grow, so no read may exceed the final value.
    std::vector<int64_t> upper = shadow.value;
    for (size_t i = 0; i < upper.size(); ++i) upper[i] += shadow.slack[i];
    if (w.dag) upper = RecomputeAcc(data, upper);
    for (auto& c : clients) {
      for (size_t i = 0; i < data.ids.size(); ++i) {
        if (c->log().max_read[i] > upper[i]) {
          ++checks.read_violations;
          checks.Note("read of " + data.names[i] + " = " +
                      std::to_string(c->log().max_read[i]) +
                      " exceeds final " + std::to_string(upper[i]));
        }
      }
    }
  }

  // 6. Stop serving. Recover the served platter: every acknowledged write
  // must survive.
  tcp.Shutdown();
  exec.Shutdown();
  auto audit_recovered = [&](core::Database* rec, const char* where) {
    Audit(
        w, data, shadow,
        [&](uint32_t i, const char* attr) -> Result<int64_t> {
          auto v = rec->Get(data.ids[i], attr);
          if (!v.ok()) return v.status();
          return v->AsInt();
        },
        where, &checks.recovery_mismatches, &checks.recovery_mismatches,
        &checks);
  };
  // Recovers the served platter into the fresh `rec`; returns the seconds
  // Recover() took and sets *entries to the WAL entries it replayed.
  auto recover = [&](core::Database* rec, uint64_t* entries) {
    Check(rec->LoadSchema(SchemaOf(w)), "recovery schema");
    const uint64_t e0 = rec->wal()->stats().entries_appended;
    const auto t0 = Clock::now();
    Check(rec->Recover(*db->disk()), "recover");
    const double s = Seconds(t0, Clock::now());
    *entries = rec->wal()->stats().entries_appended - e0;
    return s;
  };
  double served_recover_s = 0;
  uint64_t served_recover_entries = 0;
  {
    core::Database rec;
    served_recover_s = recover(&rec, &served_recover_entries);
    audit_recovered(&rec, "recovered");
  }

  // The timed recoveries replay a fixed tail, so recover_s measures the
  // recovery path rather than how many commits the window happened to
  // fit: checkpoint, then commit recovery_tail increments to the core (at
  // zero device latency; the platter's content is the same).
  const char* wattr = w.dag ? "base" : "v";
  db->disk()->set_write_latency_us(0);
  Check(db->Checkpoint(), "checkpoint");
  {
    OpStream tail(w, data, args.seed, kClients + 1);
    for (int n = 0; n < w.recovery_tail;) {
      const Op op = tail.Next();
      if (op.read) continue;
      Check(CoreIncrement(db, data.ids[op.obj], wattr), "tail commit");
      ++shadow.value[op.obj];
      ++n;
    }
  }
  // Timed recoveries, with the remaining set-ups interleaved.
  std::vector<double> recover_s;
  uint64_t recover_entries = 0;
  {
    CpuRotation rotation;
    const int repeats = args.trace ? 1 : kRepeats;
    for (int k = 0; k < repeats; ++k) {
      if (k > 0) std::this_thread::sleep_for(kRepeatPause);
      rotation.Next();
      if (k + 1 < repeats) {
        t_setup = Clock::now();
        const DataSet again = Populate(w, args.seed);
        setup_s.push_back(Seconds(t_setup, Clock::now()));
      }
      core::Database rec;
      recover_s.push_back(recover(&rec, &recover_entries));
      if (k == 0) audit_recovered(&rec, "recovered tail");
    }
  }

  // 7. Core replay: the same op shape straight against the database.
  std::vector<double> core_get_us, core_set_us;
  if (args.trace) {
    db->disk()->set_write_latency_us(w.write_latency_us);
    OpStream ops(w, data, args.seed, kClients);
    const char* rattr = w.dag ? "acc" : "v";
    for (size_t k = 0; k < kCoreReplayOps; ++k) {
      const Op op = ops.Next();
      const InstanceId id = data.ids[op.obj];
      const auto t0 = Clock::now();
      if (op.read) {
        Must(db->Get(id, rattr), "core get");
        core_get_us.push_back(Nanos(t0, Clock::now()) / 1000.0);
      } else {
        Check(CoreIncrement(db, id, wattr), "core set+commit");
        core_set_us.push_back(Nanos(t0, Clock::now()) / 1000.0);
      }
    }
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  // The report.
  obs::JsonWriter out;
  out.BeginObject();
  out.Key("workload").String(w.name);
  out.Key("seed").Uint(args.seed);
  out.Key("trace").Bool(args.trace);
  out.Key("host_cpus").Uint(std::thread::hardware_concurrency());
  out.Key("build_type").String(PERFBENCH_BUILD_TYPE);
  out.Key("config").BeginObject();
  out.Key("why").String(w.why);
  out.Key("clients").Uint(kClients);
  out.Key("loop").String("closed");
  out.Key("pool_capacity_blocks").Uint(db->options().buffer_capacity);
  out.Key("block_size").Uint(db->options().block_size);
  out.Key("write_latency_us").Uint(w.write_latency_us);
  out.Key("read_pct").Uint(w.read_pct);
  if (w.dag) {
    out.Key("dag_depth").Uint(w.dag_depth);
    out.Key("dag_width").Uint(w.dag_width);
    out.Key("dag_fanin").Uint(w.dag_fanin);
  } else {
    out.Key("counters").Uint(w.counters);
    out.Key("hot_set").Uint(w.hot_set);
    out.Key("hot_pct").Uint(w.hot_pct);
  }
  out.Key("reorganize").Bool(w.reorganize);
  out.Key("recovery_tail_commits").Uint(w.recovery_tail);
  out.Key("warmup_ops_per_client").Uint(kWarmupOpsPerClient);
  out.Key("window_s").Double(window_s);
  out.Key("slices").Uint(w.slices);
  out.EndObject();
  out.Key("setup_s").BeginArray();
  for (double s : setup_s) out.Double(s);
  out.EndArray();
  out.Key("reorg_s").Double(data.reorg_s);
  out.Key("blocks").Uint(blocks_after_setup);
  out.Key("fill_factor").Double(cluster.fill_factor);
  out.Key("window").BeginObject();
  WriteWindow(&out, plain, w.slices);
  out.EndObject();
  out.Key("metrics_before").Raw(metrics_before);
  out.Key("metrics_after").Raw(metrics_after);
  out.Key("net_before").Raw(net_before);
  out.Key("net_after").Raw(net_after);
  if (args.trace) {
    const ClientLog& t = traced.merged_traced;
    out.Key("traced").BeginObject();
    WriteWindow(&out, traced, w.slices);
    WriteSummary(&out, "parse_us", Summarize(t.parse_us));
    WriteSummary(&out, "get_exec_us", Summarize(t.get_exec_us));
    WriteSummary(&out, "commit_exec_us", Summarize(t.commit_exec_us));
    WriteSummary(&out, "attrs_per_get", Summarize(t.attrs_per_get));
    WriteSummary(&out, "core_get_us", Summarize(core_get_us));
    WriteSummary(&out, "core_set_commit_us", Summarize(core_set_us));
    out.Key("spans").BeginObject();
    for (const auto& [name, tot] : t.totals) {
      out.Key(name).BeginObject();
      out.Key("count").Uint(tot.count);
      out.Key("total_us").Double(tot.total_us);
      out.Key("self_us").Double(tot.self_us);
      out.EndObject();
    }
    out.EndObject();
    out.Key("spans_written").Uint(t.spans.size());
    out.EndObject();
  }
  out.Key("recover_s").BeginArray();
  for (double s : recover_s) out.Double(s);
  out.EndArray();
  out.Key("recover_entries").Uint(recover_entries);
  out.Key("served_recover_s").Double(served_recover_s);
  out.Key("served_recover_entries").Uint(served_recover_entries);
  out.Key("peak_rss_mb").Double(static_cast<double>(ru.ru_maxrss) / 1024.0);
  out.Key("attempted").Uint(attempted);
  out.Key("failed").Uint(failed);
  out.Key("first_error").String(first_error);
  out.Key("checks").BeginObject();
  out.Key("lost_updates").Uint(checks.lost_updates);
  out.Key("dag_mismatches").Uint(checks.dag_mismatches);
  out.Key("read_violations").Uint(checks.read_violations);
  out.Key("recovery_mismatches").Uint(checks.recovery_mismatches);
  out.Key("notes").BeginArray();
  for (const std::string& n : checks.notes) out.String(n);
  out.EndArray();
  out.EndObject();
  out.Key("correct").Bool(checks.ok());
  out.EndObject();
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace cactis::perfbench

int main(int argc, char** argv) {
  return cactis::perfbench::Main(argc, argv);
}
