// Shared helpers for the experiment harness: table printing, workload
// graph builders, and the machine-readable BENCH_<name>.json emitter.
// Every bench binary prints paper-style rows; the measured quantities are
// deterministic counters (rule evaluations, mark visits, block reads), so
// runs are exactly reproducible. The JSON record mirrors the printed
// tables (plus config and wall time) so the perf trajectory can be
// tracked across commits without scraping stdout.

#ifndef CACTIS_BENCH_BENCH_UTIL_H_
#define CACTIS_BENCH_BENCH_UTIL_H_

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/database.h"
#include "obs/json_writer.h"

namespace cactis::bench {

/// The one-class workload schema used across experiments: an integer
/// aggregation flowing across `prev` edges (the same shape as milestone
/// expected-completion propagation).
inline const char* kCellSchema = R"(
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

/// The served experiments' schema: one integer counter per instance,
/// incremented by read-modify-write transactions and audited against a
/// client-side shadow count.
inline const char* kCounterSchema = R"(
  object class counter is
    attributes
      v : int;
  end object;
)";

/// Reads an integer environment knob; unset or empty means `fallback`.
/// The benches read three: CACTIS_BENCH_SMOKE (reduced CI sizes),
/// CACTIS_BENCH_TRIALS (repeats where a bench takes the best of several)
/// and CACTIS_BENCH_TRACE (request tracing in bench_server).
inline int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return fallback;
  return std::atoi(v);
}

/// Where a bench writes its output file `name`: into $CACTIS_BENCH_DIR
/// when set, else the working directory.
inline std::string BenchPath(const std::string& name) {
  const char* dir = std::getenv("CACTIS_BENCH_DIR");
  return (dir != nullptr && dir[0] != '\0' ? std::string(dir) + "/" : "") +
         name;
}

inline void Die(const Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
inline T MustV(Result<T> r, const char* what) {
  Die(r.status(), what);
  return std::move(r).value();
}

/// A layered DAG: `depth` layers of `width` cells; each non-root cell
/// consumes `fanin` distinct cells of the previous layer (or all of them
/// when fanin >= width). Returns layers[depth][width].
struct LayeredDag {
  std::vector<std::vector<InstanceId>> layers;
  int edge_count = 0;
};

inline LayeredDag BuildLayeredDag(core::Database* db, int depth, int width,
                                  int fanin, Rng* rng) {
  LayeredDag dag;
  dag.layers.resize(depth);
  for (int d = 0; d < depth; ++d) {
    for (int w = 0; w < width; ++w) {
      InstanceId id = MustV(db->Create("cell"), "create");
      Die(db->Set(id, "base", Value::Int(1)), "set");
      dag.layers[d].push_back(id);
    }
  }
  for (int d = 1; d < depth; ++d) {
    for (int w = 0; w < width; ++w) {
      // Choose `fanin` distinct producers from the previous layer.
      std::vector<int> pick;
      if (fanin >= width) {
        for (int i = 0; i < width; ++i) pick.push_back(i);
      } else {
        while (static_cast<int>(pick.size()) < fanin) {
          int c = static_cast<int>(rng->Uniform(width));
          bool dup = false;
          for (int p : pick) dup |= (p == c);
          if (!dup) pick.push_back(c);
        }
      }
      for (int p : pick) {
        Die(db->Connect(dag.layers[d][w], "prev", dag.layers[d - 1][p],
                        "next")
                .status(),
            "connect");
        ++dag.edge_count;
      }
    }
  }
  return dag;
}

/// Builds a linear chain of cells, returning ids front (root) to back.
inline std::vector<InstanceId> BuildChain(core::Database* db, int n) {
  std::vector<InstanceId> ids;
  for (int i = 0; i < n; ++i) {
    InstanceId id = MustV(db->Create("cell"), "create");
    Die(db->Set(id, "base", Value::Int(1)), "set");
    ids.push_back(id);
    if (i > 0) {
      Die(db->Connect(ids[i], "prev", ids[i - 1], "next").status(),
          "connect");
    }
  }
  return ids;
}

/// Simple fixed-width table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<size_t> width(headers_.size());
    for (size_t i = 0; i < headers_.size(); ++i) width[i] = headers_[i].size();
    for (const auto& row : rows_) {
      for (size_t i = 0; i < row.size() && i < width.size(); ++i) {
        if (row[i].size() > width[i]) width[i] = row[i].size();
      }
    }
    auto line = [&] {
      std::printf("+");
      for (size_t w : width) {
        for (size_t i = 0; i < w + 2; ++i) std::printf("-");
        std::printf("+");
      }
      std::printf("\n");
    };
    line();
    std::printf("|");
    for (size_t i = 0; i < headers_.size(); ++i) {
      std::printf(" %-*s |", static_cast<int>(width[i]), headers_[i].c_str());
    }
    std::printf("\n");
    line();
    for (const auto& row : rows_) {
      std::printf("|");
      for (size_t i = 0; i < row.size(); ++i) {
        std::printf(" %*s |", static_cast<int>(width[i]), row[i].c_str());
      }
      std::printf("\n");
    }
    line();
  }

  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Num(uint64_t v) { return std::to_string(v); }
inline std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

/// Machine-readable record of one bench run, written as
/// BENCH_<name>.json into $CACTIS_BENCH_DIR (or the working directory).
/// Schema (documented in EXPERIMENTS.md):
///   {"bench": "...", "schema_version": 1,
///    "config": {...}, "counters": {...},
///    "tables": {"<t>": {"columns": [...], "rows": [[...], ...]}},
///    "metrics": {...},            // optional embedded SnapshotMetrics()
///    "wall_time_seconds": 0.42}
/// Table cells that parse fully as numbers are emitted as JSON numbers,
/// everything else as strings. All counters are deterministic; only
/// wall_time_seconds varies between runs.
class BenchReport {
 public:
  explicit BenchReport(std::string name)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

  void SetConfig(const std::string& key, const std::string& value) {
    config_.emplace_back(key, "\"" + obs::JsonEscape(value) + "\"");
  }
  void SetConfig(const std::string& key, const char* value) {
    SetConfig(key, std::string(value));
  }
  void SetConfig(const std::string& key, uint64_t value) {
    config_.emplace_back(key, std::to_string(value));
  }
  void SetConfig(const std::string& key, int value) {
    config_.emplace_back(key, std::to_string(value));
  }
  void SetConfig(const std::string& key, double value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    config_.emplace_back(key, buf);
  }
  void SetConfig(const std::string& key, bool value) {
    config_.emplace_back(key, value ? "true" : "false");
  }

  void SetCounter(const std::string& name, uint64_t value) {
    counters_.emplace_back(name, value);
  }

  /// Snapshots a printed table into the record (call once per table,
  /// after its rows are complete).
  void AddTable(const std::string& name, const Table& table) {
    tables_.emplace_back(name, table);
  }

  /// Embeds a pre-rendered Database::SnapshotMetrics() document.
  void AttachMetricsJson(std::string snapshot_json) {
    metrics_json_ = std::move(snapshot_json);
  }

  std::string ToJson() const {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("bench").String(name_);
    w.Key("schema_version").Uint(1);
    w.Key("config").BeginObject();
    for (const auto& [k, v] : config_) w.Key(k).Raw(v);
    w.EndObject();
    w.Key("counters").BeginObject();
    for (const auto& [k, v] : counters_) w.Key(k).Uint(v);
    w.EndObject();
    w.Key("tables").BeginObject();
    for (const auto& [tname, table] : tables_) {
      w.Key(tname).BeginObject();
      w.Key("columns").BeginArray();
      for (const auto& h : table.headers()) w.String(h);
      w.EndArray();
      w.Key("rows").BeginArray();
      for (const auto& row : table.rows()) {
        w.BeginArray();
        for (const auto& cell : row) WriteCell(&w, cell);
        w.EndArray();
      }
      w.EndArray();
      w.EndObject();
    }
    w.EndObject();
    if (!metrics_json_.empty()) w.Key("metrics").Raw(metrics_json_);
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
    w.Key("wall_time_seconds").Double(secs);
    w.EndObject();
    return w.str();
  }

  /// Writes BENCH_<name>.json and reports where it landed on stdout.
  /// Exits via Die() on I/O failure so a bench cannot silently lose its
  /// record.
  void Write() const {
    const std::string path = BenchPath("BENCH_" + name_ + ".json");
    std::string doc = ToJson();
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      Die(Status::IoError("cannot open " + path), "bench report");
    }
    size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
    int closed = std::fclose(f);
    if (written != doc.size() || closed != 0) {
      Die(Status::IoError("short write to " + path), "bench report");
    }
    std::printf("\n[bench json: %s]\n", path.c_str());
  }

 private:
  static void WriteCell(obs::JsonWriter* w, const std::string& cell) {
    // Emit numeric-looking cells as JSON numbers ("1290", "5.08") and
    // everything else ("greedy", "5.08x") as strings.
    // strtod also accepts "inf"/"nan", which are not JSON tokens, so the
    // first character must look like the start of a JSON number.
    if (!cell.empty() &&
        (std::isdigit(static_cast<unsigned char>(cell[0])) ||
         cell[0] == '-')) {
      char* end = nullptr;
      double v = std::strtod(cell.c_str(), &end);
      if (end != nullptr && *end == '\0' && std::isfinite(v)) {
        w->Raw(cell);
        return;
      }
    }
    w->String(cell);
  }

  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::pair<std::string, std::string>> config_;  // rendered JSON
  std::vector<std::pair<std::string, uint64_t>> counters_;
  std::vector<std::pair<std::string, Table>> tables_;
  std::string metrics_json_;
};

}  // namespace cactis::bench

#endif  // CACTIS_BENCH_BENCH_UTIL_H_
