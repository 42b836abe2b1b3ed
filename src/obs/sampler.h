#ifndef CACTIS_OBS_SAMPLER_H_
#define CACTIS_OBS_SAMPLER_H_

// Time-series telemetry: a background thread that periodically snapshots
// a MetricsRegistry into a bounded in-memory ring of *typed deltas*.
//
// A raw metrics snapshot answers "how many blocks have ever been read";
// an operator (or the drift watchdog) needs "how many blocks per second
// are being read *right now*". Each sampling tick therefore converts the
// cumulative snapshot into per-interval figures:
//
//   * counters    -> interval delta + rate/s (reset-tolerant: a counter
//                    that goes backwards restarts its delta from the new
//                    raw value),
//   * gauges      -> the level at sample time (windowed min/max/last are
//                    computed over the queried window),
//   * histograms  -> interval p50/p99 derived from *bucket deltas*, so
//                    the quantiles describe the last interval, not the
//                    process lifetime.
//
// Series are named "<group>.<name>". A tick takes the registry's
// structured Snapshot(), which renders none of the groups' JSON values.
//
// The sampler owns no locks of its consumers: the snapshot callback is
// supplied by the embedder (the Executor's reads its database's registry
// directly), and ring/prev state is guarded by one internal mutex.
// SampleOnce() is public so tests and benches can drive the pipeline
// with a fake clock, deterministic tick by tick — the same pattern as
// the Executor's degraded-probe thread.

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"

namespace cactis::obs {

/// One series' value inside one sample.
struct SeriesPoint {
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  uint64_t raw = 0;        ///< counter: cumulative value at sample time
  uint64_t delta = 0;      ///< counter: interval delta; histogram: count delta
  double rate_per_s = 0;   ///< counter/histogram: delta over the interval
  double value = 0;        ///< gauge: level at sample time
  double p50 = 0;          ///< histogram: interval median (bucket upper bound)
  double p99 = 0;          ///< histogram: interval p99
};

/// One sampling tick: every series observed at one instant.
struct Sample {
  uint64_t t_ms = 0;
  uint64_t interval_ms = 0;  ///< elapsed since the previous tick (0 = first)
  std::vector<std::pair<std::string, SeriesPoint>> series;

  const SeriesPoint* Find(std::string_view name) const {
    for (const auto& [n, p] : series) {
      if (n == name) return &p;
    }
    return nullptr;
  }
};

struct SamplerOptions {
  /// Thread tick period. 0 disables the background thread entirely
  /// (SampleOnce() still works, so embedders can sample manually).
  uint64_t interval_ms = 1000;
  /// Samples retained; older ticks fall off the ring.
  size_t ring_capacity = 120;
  /// Injectable clock for deterministic tests. Defaults to a
  /// steady-clock millisecond counter.
  std::function<uint64_t()> now_ms;
};

class Sampler {
 public:
  using SnapshotFn = std::function<MetricsSnapshot()>;
  /// Invoked after every tick with the freshly built sample (the
  /// Watchdog's hook). Runs on the sampling thread, outside the
  /// sampler's mutex. Set before Start().
  using ObserverFn = std::function<void(const Sample&)>;

  explicit Sampler(SnapshotFn snapshot, SamplerOptions options = {});
  ~Sampler();

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void SetObserver(ObserverFn fn) { observer_ = std::move(fn); }

  void Start();
  void Stop();

  /// Takes one sample synchronously: snapshot, delta conversion, ring
  /// append, observer callback. The background thread calls exactly
  /// this; tests call it with a fake clock.
  void SampleOnce();

  /// The last up-to-`n` samples, oldest first (n == 0: whole ring).
  std::vector<Sample> Window(size_t n = 0) const;

  /// JSON view of the last `n` samples (n == 0: whole ring), series
  /// filtered to `group` when non-empty (exact group match, i.e. the
  /// series-name prefix before the first dot). Schema:
  ///   {"interval_ms":N,"samples_taken":N,"count":N,
  ///    "samples":[{"t_ms":..,"interval_ms":..,"series":{
  ///       "disk.reads":{"kind":"counter","raw":..,"delta":..,
  ///                     "rate_per_s":..},
  ///       "server.queue_depth":{"kind":"gauge","value":..},
  ///       "server.statement_latency_us":{"kind":"histogram",
  ///                     "delta":..,"p50":..,"p99":..}}},...],
  ///    "summary":{"server.queue_depth":{"kind":"gauge","last":..,
  ///                     "min":..,"max":..},
  ///               "disk.reads":{"kind":"counter","delta":..,
  ///                     "rate_per_s":..}, ...}}
  /// The summary aggregates the returned window: gauges report windowed
  /// min/max/last, counters total delta plus mean rate, histograms the
  /// latest interval's p50/p99.
  std::string HistoryJson(const std::string& group, size_t n = 0) const;

  uint64_t samples_taken() const;
  uint64_t interval_ms() const { return options_.interval_ms; }

 private:
  struct PrevHistogram {
    uint64_t count = 0;
    std::array<uint64_t, Histogram::kBuckets> buckets{};
  };

  void Loop();
  uint64_t Now() const;

  SnapshotFn snapshot_;
  SamplerOptions options_;
  ObserverFn observer_;

  mutable std::mutex mu_;
  std::vector<Sample> ring_;  // ring_[ (first_ + i) % capacity ]
  size_t first_ = 0;
  size_t size_ = 0;
  uint64_t samples_taken_ = 0;
  uint64_t last_t_ms_ = 0;
  bool has_prev_ = false;
  std::unordered_map<std::string, uint64_t> prev_counters_;
  std::unordered_map<std::string, PrevHistogram> prev_histograms_;

  std::mutex thread_mu_;
  std::condition_variable thread_cv_;
  std::thread thread_;
  bool stop_ = false;
  bool started_ = false;
};

}  // namespace cactis::obs

#endif  // CACTIS_OBS_SAMPLER_H_
