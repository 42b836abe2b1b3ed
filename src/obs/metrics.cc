#include "obs/metrics.h"

#include "obs/json_writer.h"

namespace cactis::obs {

void MetricsRegistry::RegisterSource(const std::string& group, SourceFn fn) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, source] : sources_) {
    if (name == group) {
      source = std::move(fn);
      return;
    }
  }
  sources_.emplace_back(group, std::move(fn));
}

void MetricsRegistry::UnregisterSource(const std::string& group) {
  // Taking mu_ here is what gives callers the "never runs again"
  // guarantee: snapshots invoke callbacks under the same mutex.
  std::lock_guard<std::mutex> lk(mu_);
  for (auto it = sources_.begin(); it != sources_.end(); ++it) {
    if (it->first == group) {
      sources_.erase(it);
      return;
    }
  }
}

void MetricsGroup::AddJson(std::string name, const JsonFn& render) {
  if (!keep_json_) return;
  JsonWriter w;
  render(&w);
  json_.emplace_back(std::move(name), w.str());
}

MetricsSnapshot MetricsRegistry::Collect(bool keep_json) const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lk(mu_);
  snap.groups.reserve(sources_.size());
  for (const auto& [group, fn] : sources_) {
    MetricsGroup g;
    g.keep_json_ = keep_json;
    if (fn) fn(&g);
    snap.groups.emplace_back(group, std::move(g));
  }
  return snap;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  return Collect(/*keep_json=*/false);
}

namespace {

void WriteHistogramData(JsonWriter* w, const HistogramData& d) {
  w->BeginObject();
  w->Key("count").Uint(d.count);
  w->Key("sum").Uint(d.sum);
  // Trailing all-zero buckets are trimmed; bucket i covers
  // [2^(i-1), 2^i) with bucket 0 reserved for zero samples.
  size_t last = 0;
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    if (d.buckets[i] != 0) last = i + 1;
  }
  w->Key("buckets").BeginArray();
  for (size_t i = 0; i < last; ++i) w->Uint(d.buckets[i]);
  w->EndArray();
  w->EndObject();
}

}  // namespace

std::string MetricsRegistry::SnapshotJson() const {
  const MetricsSnapshot snap = Collect(/*keep_json=*/true);
  JsonWriter w;
  w.BeginObject();
  w.Key("sources").BeginObject();
  for (const auto& [group, g] : snap.groups) {
    w.Key(group).BeginObject();
    for (const auto& [name, value] : g.counters()) w.Key(name).Uint(value);
    for (const auto& [name, value] : g.gauges()) w.Key(name).Double(value);
    for (const auto& [name, value] : g.histograms()) {
      w.Key(name);
      WriteHistogramData(&w, value);
    }
    for (const auto& [name, json] : g.json_) w.Key(name).Raw(json);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return w.str();
}

HistogramData Histogram::Data() const {
  HistogramData d;
  d.sum = sum();
  for (size_t i = 0; i < kBuckets; ++i) {
    d.buckets[i] = bucket(i);
    d.count += d.buckets[i];
  }
  return d;
}

double Histogram::Quantile(double q) const {
  const HistogramData d = Data();
  return BucketQuantile(d.buckets, d.count, q);
}

}  // namespace cactis::obs
