#ifndef CACTIS_OBS_METRICS_H_
#define CACTIS_OBS_METRICS_H_

// Unified metrics layer.
//
// Two complementary mechanisms share one registry and one JSON snapshot:
//
//  1. Snapshot sources. Subsystems that already keep their own stats
//     structs (DiskStats, BufferPoolStats, EvalStats, ...) register a
//     callback that exports those counters into a MetricsGroup at
//     snapshot time. The hot path pays nothing: counting stays in the
//     existing struct fields and the export runs only when someone asks
//     for a snapshot.
//
//  2. Registry-owned instruments. Counter / Gauge / Histogram objects
//     handed out by name for call sites with no pre-existing struct
//     (e.g. transaction lifecycle counts). Each instrument checks a
//     shared enabled flag before touching its state, so disabled-mode
//     overhead is a predicted-not-taken branch.
//
// The histogram is "histogram-lite": power-of-two buckets (bucket i
// counts samples with i significant bits) plus count and sum. Enough to
// see a distribution's shape without per-sample storage.
//
// Thread-safety: the registry's own structures (source list, instrument
// tables) are guarded by an internal mutex, so registering and
// unregistering sources is safe against a concurrent snapshot — in
// particular, UnregisterSource() does not return while a snapshot may
// still be invoking the callback, which makes "unregister, then destroy
// the state the callback reads" a correct shutdown sequence (the
// TcpServer does exactly this). Source callbacks therefore must not call
// back into the registry. Instrument updates are relaxed atomics: cheap,
// and safe to read from a sampler thread while workers count.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cactis::obs {

class MetricsRegistry;

class Counter {
 public:
  void Increment(uint64_t n = 1) {
    if (enabled_->load(std::memory_order_relaxed)) {
      value_.fetch_add(n, std::memory_order_relaxed);
    }
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Counter(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  std::atomic<uint64_t> value_{0};
};

class Gauge {
 public:
  void Set(double v) {
    if (enabled_->load(std::memory_order_relaxed)) {
      value_.store(v, std::memory_order_relaxed);
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  explicit Gauge(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  std::atomic<double> value_{0};
};

class Histogram {
 public:
  static constexpr size_t kBuckets = 32;

  void Record(uint64_t sample) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    buckets_[BucketOf(sample)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(sample, std::memory_order_relaxed);
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  // Bucket 0 holds sample 0; bucket i >= 1 holds samples in
  // [2^(i-1), 2^i). Samples beyond 2^31 collapse into the last bucket.
  static size_t BucketOf(uint64_t sample) {
    size_t b = 0;
    while (sample > 0 && b + 1 < kBuckets) {
      sample >>= 1;
      ++b;
    }
    return b;
  }

 private:
  friend class MetricsRegistry;
  explicit Histogram(const std::atomic<bool>* enabled) : enabled_(enabled) {}
  const std::atomic<bool>* enabled_;
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

/// Quantile `q` of a power-of-two bucket distribution holding `count`
/// samples: the upper bound of the bucket that holds the nearest-rank
/// sample, rank ceil(q * count) clamped to [1, count]. Bucket 0 reports
/// 0 and bucket i >= 1 reports 2^i, so the estimate never undershoots
/// and is at most 2x high; an empty distribution reports 0. The one
/// quantile estimator behind the server's latency gauges, the sampler's
/// interval quantiles and the benches' client latencies.
inline double BucketQuantile(
    const std::array<uint64_t, Histogram::kBuckets>& buckets, uint64_t count,
    double q) {
  if (count == 0) return 0.0;
  const double want =
      std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(count));
  const uint64_t rank =
      std::clamp<uint64_t>(static_cast<uint64_t>(want), 1, count);
  uint64_t seen = 0;
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      return i == 0 ? 0.0 : static_cast<double>(uint64_t{1} << i);
    }
  }
  return static_cast<double>(uint64_t{1} << (Histogram::kBuckets - 1));
}

/// A histogram's exported state: a point-in-time copy a sampler can
/// diff against an earlier copy to get interval quantiles.
struct HistogramData {
  uint64_t count = 0;
  uint64_t sum = 0;
  std::array<uint64_t, Histogram::kBuckets> buckets{};
};

// The sink a snapshot source fills in. Entries keep insertion order so
// snapshots are deterministic.
class MetricsGroup {
 public:
  void AddCounter(std::string name, uint64_t value) {
    counters_.emplace_back(std::move(name), value);
  }
  void AddGauge(std::string name, double value) {
    gauges_.emplace_back(std::move(name), value);
  }
  void AddHistogram(std::string name, HistogramData data) {
    histograms_.emplace_back(std::move(name), std::move(data));
  }
  /// A pre-serialised JSON value spliced verbatim into the group (the
  /// caller vouches for validity). For structured exports that are
  /// neither counter nor gauge — e.g. the server's slow-statement log
  /// and per-session accounting arrays.
  void AddJson(std::string name, std::string json) {
    json_.emplace_back(std::move(name), std::move(json));
  }

  const std::vector<std::pair<std::string, uint64_t>>& counters() const {
    return counters_;
  }
  const std::vector<std::pair<std::string, double>>& gauges() const {
    return gauges_;
  }
  const std::vector<std::pair<std::string, HistogramData>>& histograms()
      const {
    return histograms_;
  }
  const std::vector<std::pair<std::string, std::string>>& json_values()
      const {
    return json_;
  }

 private:
  std::vector<std::pair<std::string, uint64_t>> counters_;
  std::vector<std::pair<std::string, double>> gauges_;
  std::vector<std::pair<std::string, HistogramData>> histograms_;
  std::vector<std::pair<std::string, std::string>> json_;
};

/// A full structured snapshot: every source exported into its group,
/// plus the registry-owned instruments (whose names are already dotted,
/// e.g. "txn.begun"). This is what the time-series Sampler consumes;
/// SnapshotJson() is the same data serialised for humans.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, MetricsGroup>> groups;
  MetricsGroup instruments;
};

class MetricsRegistry {
 public:
  using SourceFn = std::function<void(MetricsGroup*)>;

  explicit MetricsRegistry(bool enabled = true) : enabled_(enabled) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Enables/disables registry-owned instruments. Snapshot sources are
  // unaffected: their counting lives in subsystem stats structs that
  // predate this registry.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Registers (or replaces) the snapshot source for `group`. The
  // callback must outlive its registration. UnregisterSource() blocks
  // until any in-flight snapshot has finished with the callback, after
  // which it is guaranteed never to run again.
  void RegisterSource(const std::string& group, SourceFn fn);
  void UnregisterSource(const std::string& group);

  // Named instruments, created on first use. Pointers stay valid for
  // the registry's lifetime.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Structured export of every source group plus the registry-owned
  /// instruments. Callers that need a consistent view across subsystems
  /// must provide their own serialization (the Executor samples under
  /// its statement lock).
  MetricsSnapshot Snapshot() const;

  // One JSON document:
  //   {"enabled":bool,
  //    "sources":{<group>:{<counter>:n,...},...},
  //    "counters":{<name>:n,...},
  //    "gauges":{<name>:x,...},
  //    "histograms":{<name>:{"count":n,"sum":n,"buckets":[...]},...}}
  // Within a source group, exported counters render as integers,
  // exported gauges as floating-point numbers, and exported histograms
  // as {"count","sum","buckets"} objects.
  std::string SnapshotJson() const;

 private:
  std::atomic<bool> enabled_;
  // Guards the source list and instrument tables — including while a
  // snapshot invokes source callbacks, so unregistration synchronises
  // with snapshots (see class comment).
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, SourceFn>> sources_;
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> histograms_;
};

}  // namespace cactis::obs

#endif  // CACTIS_OBS_METRICS_H_
