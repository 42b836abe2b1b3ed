#ifndef CACTIS_OBS_WATCHDOG_H_
#define CACTIS_OBS_WATCHDOG_H_

// Declarative rules over sampler ticks, emitting structured alerts into
// a bounded log.
//
// Every rule is level-triggered with hysteresis: it must breach for
// kFireAfter consecutive ticks to raise and hold below threshold for
// kClearAfter consecutive ticks to clear, so a gauge flapping around
// its threshold produces one raised alert, not one per tick. A raised
// rule stays raised (silently) until it clears; raise and clear are the
// only events the log records.
//
// Built-in rules (series names refer to the Sampler's "<group>.<name>"
// scheme; a rule whose inputs are absent from a sample simply does not
// advance):
//
//   queue_saturation       server.queue_depth >= frac * server.max_queue_depth
//   degraded               server.degraded != 0 (fires/clears immediately:
//                          a mode flip is an event, not noise)
//   wal_backlog            interval delta of wal.wedged_flushes +
//                          wal.give_ups > 0 — flushes are failing faster
//                          than the probe restores them
//   admission_rejects      rate of server.requests_rejected >= threshold/s
//   recluster_recommended  observed blocks/traversal — interval
//                          delta(disk.reads) / delta(cluster.traversal_
//                          crossings) — exceeds the post-reorg baseline
//                          by kDriftFrac. The baseline is the first
//                          qualifying window after the epoch recorded by
//                          Database::Reorganize() (a cluster.reorg_runs
//                          bump resets it and force-clears the alert).
//                          This advisory is the trigger half of the
//                          ROADMAP's online-reclustering item.
//
// Thread-safety: Observe() and the accessors take one internal mutex;
// the sampler calls Observe() from its tick thread while statements read
// AlertsJson() lock-free with respect to the database.

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/sampler.h"

namespace cactis::obs {

struct Alert {
  uint64_t seq = 0;
  uint64_t t_ms = 0;
  std::string rule;
  std::string state;  ///< "raised" | "cleared"
  double value = 0;
  double threshold = 0;
  std::string detail;
};

class Watchdog {
 public:
  static constexpr size_t kAlertCapacity = 128;  ///< raise/clear events kept
  static constexpr uint32_t kFireAfter = 2;   ///< breaching ticks to raise
  static constexpr uint32_t kClearAfter = 2;  ///< calm ticks to clear
  static constexpr double kQueueSaturationFrac = 0.8;
  static constexpr double kRejectRatePerS = 1.0;
  /// Drift tolerance: recommend reclustering when windowed
  /// blocks/traversal exceeds baseline * (1 + kDriftFrac).
  static constexpr double kDriftFrac = 0.25;
  /// Ticks with fewer traversal crossings than this carry no clustering
  /// signal and neither advance nor clear the drift rule.
  static constexpr uint64_t kDriftMinCrossings = 32;

  /// Evaluates every rule against one sampler tick.
  void Observe(const Sample& sample);

  /// The alert log, oldest first (n == 0: everything retained), plus
  /// currently-active rules:
  ///   {"active":["recluster_recommended",...],"count":N,"dropped":N,
  ///    "alerts":[{"seq":..,"t_ms":..,"rule":"..","state":"raised",
  ///               "value":..,"threshold":..,"detail":".."},...]}
  std::string AlertsJson(size_t n = 0) const;

  std::vector<Alert> Log(size_t n = 0) const;
  std::vector<std::string> Active() const;
  bool IsActive(const std::string& rule) const;

 private:
  struct RuleState {
    uint32_t breach_streak = 0;
    uint32_t calm_streak = 0;
    bool raised = false;
  };

  /// One hysteresis step for `rule`. Returns the rule's raised state.
  void Step(const std::string& rule, bool breaching, double value,
            double threshold, const std::string& detail, uint64_t t_ms,
            uint32_t fire_after, uint32_t clear_after);
  void Emit(const std::string& rule, const char* state, double value,
            double threshold, const std::string& detail, uint64_t t_ms);
  /// Clears `rule` immediately (no hysteresis) if raised.
  void ForceClear(const std::string& rule, const std::string& detail,
                  uint64_t t_ms);

  mutable std::mutex mu_;
  std::map<std::string, RuleState> rules_;
  std::deque<Alert> log_;
  uint64_t next_seq_ = 1;
  uint64_t dropped_ = 0;

  // Clustering-drift state. The epoch marker is cluster.reorg_runs; a
  // change means Reorganize() ran and recorded a fresh placement.
  bool drift_have_epoch_ = false;
  uint64_t drift_epoch_ = 0;
  bool drift_have_baseline_ = false;
  double drift_baseline_ = 0;
};

}  // namespace cactis::obs

#endif  // CACTIS_OBS_WATCHDOG_H_
