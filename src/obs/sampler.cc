#include "obs/sampler.h"

#include <algorithm>
#include <chrono>

#include "obs/json_writer.h"

namespace cactis::obs {

namespace {

bool InGroup(std::string_view series, const std::string& group) {
  if (group.empty()) return true;
  return series.size() > group.size() + 1 &&
         series.compare(0, group.size(), group) == 0 &&
         series[group.size()] == '.';
}

}  // namespace

Sampler::Sampler(SnapshotFn snapshot, SamplerOptions options)
    : snapshot_(std::move(snapshot)), options_(std::move(options)) {
  if (options_.ring_capacity == 0) options_.ring_capacity = 1;
  ring_.resize(options_.ring_capacity);
}

Sampler::~Sampler() { Stop(); }

uint64_t Sampler::Now() const {
  if (options_.now_ms) return options_.now_ms();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Sampler::Start() {
  std::lock_guard<std::mutex> lk(thread_mu_);
  if (started_ || stop_ || options_.interval_ms == 0) return;
  started_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void Sampler::Stop() {
  {
    std::lock_guard<std::mutex> lk(thread_mu_);
    stop_ = true;
  }
  thread_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Sampler::Loop() {
  std::unique_lock<std::mutex> lk(thread_mu_);
  while (!stop_) {
    if (thread_cv_.wait_for(lk,
                            std::chrono::milliseconds(options_.interval_ms),
                            [this] { return stop_; })) {
      return;
    }
    lk.unlock();
    SampleOnce();
    lk.lock();
  }
}

void Sampler::SampleOnce() {
  const uint64_t t = Now();
  // Keep the embedder's snapshot callback outside our mutex: a
  // registry snapshot takes the registry's own.
  MetricsSnapshot snap = snapshot_ ? snapshot_() : MetricsSnapshot{};

  Sample sample;
  sample.t_ms = t;

  std::lock_guard<std::mutex> lk(mu_);
  sample.interval_ms = has_prev_ && t > last_t_ms_ ? t - last_t_ms_ : 0;
  const double secs = sample.interval_ms / 1000.0;

  auto add_counter = [&](const std::string& name, uint64_t raw) {
    SeriesPoint p;
    p.kind = SeriesPoint::Kind::kCounter;
    p.raw = raw;
    auto it = prev_counters_.find(name);
    // Reset tolerance: a counter that went backwards restarts its
    // delta from the new raw value rather than reporting a huge one.
    p.delta = it == prev_counters_.end() || it->second > raw
                  ? (has_prev_ ? raw : 0)
                  : raw - it->second;
    p.rate_per_s = secs > 0 ? p.delta / secs : 0.0;
    prev_counters_[name] = raw;
    sample.series.emplace_back(name, p);
  };
  auto add_gauge = [&](const std::string& name, double v) {
    SeriesPoint p;
    p.kind = SeriesPoint::Kind::kGauge;
    p.value = v;
    sample.series.emplace_back(name, p);
  };
  auto add_histogram = [&](const std::string& name, const HistogramData& d) {
    SeriesPoint p;
    p.kind = SeriesPoint::Kind::kHistogram;
    p.raw = d.count;
    PrevHistogram& prev = prev_histograms_[name];
    std::array<uint64_t, Histogram::kBuckets> deltas{};
    if (prev.count <= d.count) {
      for (size_t i = 0; i < Histogram::kBuckets; ++i) {
        deltas[i] =
            d.buckets[i] >= prev.buckets[i] ? d.buckets[i] - prev.buckets[i]
                                            : d.buckets[i];
      }
      p.delta = d.count - prev.count;
    } else {
      deltas = d.buckets;  // histogram reset; restart from raw
      p.delta = d.count;
    }
    if (!has_prev_) p.delta = 0;
    p.rate_per_s = secs > 0 ? p.delta / secs : 0.0;
    p.p50 = BucketQuantile(deltas, p.delta, 0.5);
    p.p99 = BucketQuantile(deltas, p.delta, 0.99);
    prev.count = d.count;
    prev.buckets = d.buckets;
    sample.series.emplace_back(name, p);
  };

  for (const auto& [group, g] : snap.groups) {
    for (const auto& [name, v] : g.counters()) add_counter(group + "." + name, v);
    for (const auto& [name, v] : g.gauges()) add_gauge(group + "." + name, v);
    for (const auto& [name, v] : g.histograms()) {
      add_histogram(group + "." + name, v);
    }
  }

  has_prev_ = true;
  last_t_ms_ = t;
  ++samples_taken_;

  const size_t cap = ring_.size();
  if (size_ < cap) {
    ring_[(first_ + size_) % cap] = sample;
    ++size_;
  } else {
    ring_[first_] = sample;
    first_ = (first_ + 1) % cap;
  }

  if (observer_) {
    // Outside mu_ would be nicer, but the observer only reads the local
    // copy; holding mu_ here keeps Window()/HistoryJson() callers from
    // seeing a ring the watchdog has not digested yet. The watchdog
    // never calls back into the sampler.
    observer_(sample);
  }
}

std::vector<Sample> Sampler::Window(size_t n) const {
  std::lock_guard<std::mutex> lk(mu_);
  const size_t take = n == 0 ? size_ : std::min(n, size_);
  std::vector<Sample> out;
  out.reserve(take);
  for (size_t i = size_ - take; i < size_; ++i) {
    out.push_back(ring_[(first_ + i) % ring_.size()]);
  }
  return out;
}

uint64_t Sampler::samples_taken() const {
  std::lock_guard<std::mutex> lk(mu_);
  return samples_taken_;
}

std::string Sampler::HistoryJson(const std::string& group, size_t n) const {
  std::vector<Sample> window = Window(n);
  uint64_t taken;
  {
    std::lock_guard<std::mutex> lk(mu_);
    taken = samples_taken_;
  }

  JsonWriter w;
  w.BeginObject();
  w.Key("interval_ms").Uint(options_.interval_ms);
  w.Key("samples_taken").Uint(taken);
  w.Key("count").Uint(window.size());

  w.Key("samples").BeginArray();
  for (const Sample& s : window) {
    w.BeginObject();
    w.Key("t_ms").Uint(s.t_ms);
    w.Key("interval_ms").Uint(s.interval_ms);
    w.Key("series").BeginObject();
    for (const auto& [name, p] : s.series) {
      if (!InGroup(name, group)) continue;
      w.Key(name).BeginObject();
      switch (p.kind) {
        case SeriesPoint::Kind::kCounter:
          w.Key("kind").String("counter");
          w.Key("raw").Uint(p.raw);
          w.Key("delta").Uint(p.delta);
          w.Key("rate_per_s").Double(p.rate_per_s);
          break;
        case SeriesPoint::Kind::kGauge:
          w.Key("kind").String("gauge");
          w.Key("value").Double(p.value);
          break;
        case SeriesPoint::Kind::kHistogram:
          w.Key("kind").String("histogram");
          w.Key("delta").Uint(p.delta);
          w.Key("p50").Double(p.p50);
          w.Key("p99").Double(p.p99);
          break;
      }
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();

  // Windowed aggregates, computed over exactly the samples returned
  // above. Series order follows the latest sample.
  w.Key("summary").BeginObject();
  if (!window.empty()) {
    const Sample& latest = window.back();
    double window_secs = 0;
    for (const Sample& s : window) window_secs += s.interval_ms / 1000.0;
    for (const auto& [name, p] : latest.series) {
      if (!InGroup(name, group)) continue;
      w.Key(name).BeginObject();
      switch (p.kind) {
        case SeriesPoint::Kind::kCounter: {
          uint64_t total_delta = 0;
          for (const Sample& s : window) {
            if (const SeriesPoint* q = s.Find(name)) total_delta += q->delta;
          }
          w.Key("kind").String("counter");
          w.Key("delta").Uint(total_delta);
          w.Key("rate_per_s")
              .Double(window_secs > 0 ? total_delta / window_secs : 0.0);
          break;
        }
        case SeriesPoint::Kind::kGauge: {
          double mn = p.value, mx = p.value;
          for (const Sample& s : window) {
            if (const SeriesPoint* q = s.Find(name)) {
              mn = std::min(mn, q->value);
              mx = std::max(mx, q->value);
            }
          }
          w.Key("kind").String("gauge");
          w.Key("last").Double(p.value);
          w.Key("min").Double(mn);
          w.Key("max").Double(mx);
          break;
        }
        case SeriesPoint::Kind::kHistogram:
          w.Key("kind").String("histogram");
          w.Key("p50").Double(p.p50);
          w.Key("p99").Double(p.p99);
          break;
      }
      w.EndObject();
    }
  }
  w.EndObject();

  w.EndObject();
  return w.str();
}

}  // namespace cactis::obs
