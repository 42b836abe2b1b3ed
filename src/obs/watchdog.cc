#include "obs/watchdog.h"

#include <algorithm>

#include "obs/json_writer.h"

namespace cactis::obs {

void Watchdog::Emit(const std::string& rule, const char* state, double value,
                    double threshold, const std::string& detail,
                    uint64_t t_ms) {
  Alert a;
  a.seq = next_seq_++;
  a.t_ms = t_ms;
  a.rule = rule;
  a.state = state;
  a.value = value;
  a.threshold = threshold;
  a.detail = detail;
  log_.push_back(std::move(a));
  while (log_.size() > kAlertCapacity) {
    log_.pop_front();
    ++dropped_;
  }
}

void Watchdog::Step(const std::string& rule, bool breaching, double value,
                    double threshold, const std::string& detail,
                    uint64_t t_ms, uint32_t fire_after, uint32_t clear_after) {
  RuleState& st = rules_[rule];
  if (breaching) {
    st.calm_streak = 0;
    if (!st.raised && ++st.breach_streak >= fire_after) {
      st.raised = true;
      st.breach_streak = 0;
      Emit(rule, "raised", value, threshold, detail, t_ms);
    }
  } else {
    st.breach_streak = 0;
    if (st.raised && ++st.calm_streak >= clear_after) {
      st.raised = false;
      st.calm_streak = 0;
      Emit(rule, "cleared", value, threshold, detail, t_ms);
    }
  }
}

void Watchdog::ForceClear(const std::string& rule, const std::string& detail,
                          uint64_t t_ms) {
  RuleState& st = rules_[rule];
  st.breach_streak = 0;
  st.calm_streak = 0;
  if (st.raised) {
    st.raised = false;
    Emit(rule, "cleared", 0, 0, detail, t_ms);
  }
}

void Watchdog::Observe(const Sample& s) {
  std::lock_guard<std::mutex> lk(mu_);
  const uint64_t t = s.t_ms;

  // --- queue saturation ---
  const SeriesPoint* depth = s.Find("server.queue_depth");
  const SeriesPoint* cap = s.Find("server.max_queue_depth");
  if (depth != nullptr && cap != nullptr && cap->value > 0) {
    const double threshold = kQueueSaturationFrac * cap->value;
    Step("queue_saturation", depth->value >= threshold, depth->value,
         threshold, "request queue near admission limit", t, kFireAfter,
         kClearAfter);
  }

  // --- degraded-mode flips (no hysteresis: a flip is the event) ---
  if (const SeriesPoint* deg = s.Find("server.degraded")) {
    Step("degraded", deg->value != 0, deg->value, 1.0,
         "server in degraded read-only mode", t, 1, 1);
  }

  // --- WAL flush backlog ---
  {
    const SeriesPoint* wedged = s.Find("wal.wedged_flushes");
    const SeriesPoint* give_ups = s.Find("wal.give_ups");
    if (wedged != nullptr || give_ups != nullptr) {
      const uint64_t failing = (wedged != nullptr ? wedged->delta : 0) +
                               (give_ups != nullptr ? give_ups->delta : 0);
      Step("wal_backlog", failing > 0, static_cast<double>(failing), 0.0,
           "WAL flushes failing or refused this interval", t, kFireAfter,
           kClearAfter);
    }
  }

  // --- admission-control rejections ---
  if (const SeriesPoint* rej = s.Find("server.requests_rejected")) {
    Step("admission_rejects",
         rej->delta > 0 && rej->rate_per_s >= kRejectRatePerS,
         rej->rate_per_s, kRejectRatePerS,
         "admission control rejecting requests", t, kFireAfter,
         kClearAfter);
  }

  // --- clustering drift -> recluster_recommended ---
  const SeriesPoint* runs = s.Find("cluster.reorg_runs");
  const SeriesPoint* reads = s.Find("disk.reads");
  const SeriesPoint* crossings = s.Find("cluster.traversal_crossings");
  if (runs != nullptr && reads != nullptr && crossings != nullptr) {
    if (!drift_have_epoch_ || runs->raw != drift_epoch_) {
      // Reorganize() ran (or first sight of the series): adopt the new
      // epoch, drop the baseline, and clear any standing advisory — the
      // operator did what the alert asked for. The tick that contains
      // the reorg itself is skipped entirely, so the rewrite's own I/O
      // never pollutes a drift window.
      drift_epoch_ = runs->raw;
      drift_have_epoch_ = true;
      drift_have_baseline_ = false;
      ForceClear("recluster_recommended", "baseline reset by reorganize", t);
    } else if (crossings->delta >= kDriftMinCrossings) {
      const double bpt =
          static_cast<double>(reads->delta) / crossings->delta;
      if (!drift_have_baseline_) {
        // First qualifying window after the reorg: this is the
        // post-reorg blocks/traversal figure drift is measured against.
        drift_baseline_ = bpt;
        drift_have_baseline_ = true;
      } else {
        const double threshold = drift_baseline_ * (1.0 + kDriftFrac);
        Step("recluster_recommended", bpt > threshold, bpt, threshold,
             "observed blocks/traversal drifted above the post-reorg "
             "baseline; placement is stale",
             t, kFireAfter, kClearAfter);
      }
    }
    // Ticks with too few crossings carry no signal: streaks freeze.
  }
}

std::vector<Alert> Watchdog::Log(size_t n) const {
  std::lock_guard<std::mutex> lk(mu_);
  const size_t take = n == 0 ? log_.size() : std::min(n, log_.size());
  return std::vector<Alert>(log_.end() - take, log_.end());
}

std::vector<std::string> Watchdog::Active() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  for (const auto& [rule, st] : rules_) {
    if (st.raised) out.push_back(rule);
  }
  return out;
}

bool Watchdog::IsActive(const std::string& rule) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = rules_.find(rule);
  return it != rules_.end() && it->second.raised;
}

std::string Watchdog::AlertsJson(size_t n) const {
  std::lock_guard<std::mutex> lk(mu_);
  JsonWriter w;
  w.BeginObject();
  w.Key("active").BeginArray();
  for (const auto& [rule, st] : rules_) {
    if (st.raised) w.String(rule);
  }
  w.EndArray();
  const size_t take = n == 0 ? log_.size() : std::min(n, log_.size());
  w.Key("count").Uint(take);
  w.Key("dropped").Uint(dropped_);
  w.Key("alerts").BeginArray();
  for (size_t i = log_.size() - take; i < log_.size(); ++i) {
    const Alert& a = log_[i];
    w.BeginObject();
    w.Key("seq").Uint(a.seq);
    w.Key("t_ms").Uint(a.t_ms);
    w.Key("rule").String(a.rule);
    w.Key("state").String(a.state);
    w.Key("value").Double(a.value);
    w.Key("threshold").Double(a.threshold);
    w.Key("detail").String(a.detail);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace cactis::obs
