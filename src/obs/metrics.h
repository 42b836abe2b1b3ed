#ifndef CACTIS_OBS_METRICS_H_
#define CACTIS_OBS_METRICS_H_

// Unified metrics layer.
//
// Every metric is a field of a subsystem stats struct (DiskStats,
// BufferPoolStats, EvalStats, TxnStats, ServerStats, ...). Each struct
// registers a snapshot source: a callback that exports its fields into
// a MetricsGroup when someone asks for a snapshot. The hot path pays
// only for the counting itself; the export runs at snapshot time.
//
// The one histogram type is power-of-two buckets (bucket i counts
// samples with i significant bits) plus count, sum and max: enough to
// see a distribution's shape without per-sample storage.
//
// Thread-safety: the source list is guarded by an internal mutex, so
// registering and unregistering sources is safe against a concurrent
// snapshot — in particular, UnregisterSource() does not return while a
// snapshot may still be invoking the callback, which makes "unregister,
// then destroy the state the callback reads" a correct shutdown sequence
// (the TcpServer does exactly this). Source callbacks therefore must not
// call back into the registry.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace cactis::obs {

class JsonWriter;
struct HistogramData;

/// A power-of-two histogram of relaxed atomics: workers record while a
/// snapshot reads.
class Histogram {
 public:
  static constexpr size_t kBuckets = 32;

  void Record(uint64_t sample) {
    buckets_[BucketOf(sample)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(sample, std::memory_order_relaxed);
    uint64_t prev = max_.load(std::memory_order_relaxed);
    while (sample > prev && !max_.compare_exchange_weak(
                                prev, sample, std::memory_order_relaxed)) {
    }
  }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }
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

  /// A point-in-time copy; its count is the sum of the buckets copied.
  HistogramData Data() const;
  /// BucketQuantile over Data(), e.g. q=0.5 / q=0.99; 0 when empty.
  double Quantile(double q) const;

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
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
  /// Writes exactly one JSON value.
  using JsonFn = std::function<void(JsonWriter*)>;

  void AddCounter(std::string name, uint64_t value) {
    counters_.emplace_back(std::move(name), value);
  }
  void AddGauge(std::string name, double value) {
    gauges_.emplace_back(std::move(name), value);
  }
  void AddHistogram(std::string name, HistogramData data) {
    histograms_.emplace_back(std::move(name), std::move(data));
  }
  /// A structured value that is neither counter, gauge nor histogram —
  /// e.g. the server's slow-statement log and per-session cost arrays.
  /// `render` runs only for MetricsRegistry::SnapshotJson(), right here,
  /// inside the source callback and so under the registry mutex that
  /// keeps the source alive; a structured Snapshot() (the sampler's
  /// tick) drops it unrun.
  void AddJson(std::string name, const JsonFn& render);

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

 private:
  friend class MetricsRegistry;

  bool keep_json_ = false;
  std::vector<std::pair<std::string, uint64_t>> counters_;
  std::vector<std::pair<std::string, double>> gauges_;
  std::vector<std::pair<std::string, HistogramData>> histograms_;
  std::vector<std::pair<std::string, std::string>> json_;  // rendered
};

/// A full structured snapshot: every source exported into its group.
/// This is what the time-series Sampler consumes; SnapshotJson() is the
/// same data serialised for humans, plus the structured JSON values.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, MetricsGroup>> groups;
};

class MetricsRegistry {
 public:
  using SourceFn = std::function<void(MetricsGroup*)>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Registers (or replaces) the snapshot source for `group`. The
  // callback must outlive its registration. UnregisterSource() blocks
  // until any in-flight snapshot has finished with the callback, after
  // which it is guaranteed never to run again.
  void RegisterSource(const std::string& group, SourceFn fn);
  void UnregisterSource(const std::string& group);

  /// Structured export of every source group, without the JSON values.
  /// Sources read fields that are readable from any thread, so this runs
  /// alongside the subsystems' writers; the result is not a consistent
  /// cut across (or within) groups.
  MetricsSnapshot Snapshot() const;

  // One JSON document:
  //   {"sources":{<group>:{<counter>:n,...,<gauge>:x,...,
  //                        <histogram>:{"count":n,"sum":n,"buckets":[...]},
  //                        <json value>:...},...}}
  // Within a group, counters render as integers, gauges as
  // floating-point numbers, then histograms, then JSON values.
  std::string SnapshotJson() const;

 private:
  // Runs every source into a fresh group, rendering its JSON values
  // only when `keep_json`.
  MetricsSnapshot Collect(bool keep_json) const;

  // Guards the source list — including while a snapshot invokes source
  // callbacks, so unregistration synchronises with snapshots (see file
  // comment).
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, SourceFn>> sources_;
};

}  // namespace cactis::obs

#endif  // CACTIS_OBS_METRICS_H_
