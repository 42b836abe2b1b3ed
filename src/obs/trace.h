#ifndef CACTIS_OBS_TRACE_H_
#define CACTIS_OBS_TRACE_H_

// Span-event tracer for chunk traversals and storage traffic.
//
// The evaluator's behaviour is a sequence of chunk runs interleaved with
// block faults; the paper's §2.2–§2.3 arguments are all about that
// ordering. A TraceSink captures it as a bounded ring of (kind, subject,
// detail) events cheap enough to leave compiled in: when disabled (the
// default), Record() is a single branch.
//
// Event vocabulary — `subject` and `detail` are kind-dependent:
//   mark/gather/resolve/compute chunk : subject = instance id,
//                                       detail  = attribute index
//   block fetch / evict / discard     : subject = block id,
//                                       detail  = 1 if dirty write-back
//   wal append                        : subject = log sequence number,
//                                       detail  = payload bytes
//   txn begin / commit / abort        : subject = transaction id,
//                                       detail  = delta record count
//                                                 (commit only)

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

#include "common/relaxed_counter.h"
#include "obs/request_context.h"

namespace cactis::obs {

enum class SpanKind : uint8_t {
  kMarkChunk = 0,
  kGatherChunk,
  kResolveChunk,
  kComputeChunk,
  kBlockFetch,
  kBlockEvict,
  kBlockDiscard,
  kWalAppend,
  kTxnBegin,
  kTxnCommit,
  kTxnAbort,
};

std::string_view SpanKindName(SpanKind kind);

struct TraceEvent {
  SpanKind kind;
  uint64_t seq = 0;  // sink-assigned, monotonic across drops
  uint64_t subject = 0;
  uint64_t detail = 0;
  /// Request identity: RequestScope::CurrentTraceId() of the recording
  /// thread at Record() time. 0 when no statement was in flight (e.g.
  /// direct library use outside the service layer, session disposal).
  uint64_t trace_id = 0;
};

class TraceSink {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit TraceSink(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  size_t capacity() const { return capacity_; }

  // NOT thread-safe: every Record() site runs under the service layer's
  // exclusive statement lock (or in single-threaded library use), which
  // also means the recording thread's RequestScope identifies the
  // statement the event belongs to. Only total_recorded() and dropped()
  // may be read from any thread (metrics). The trace_id lookup happens
  // after the enabled check, preserving the one-branch disabled
  // discipline.
  void Record(SpanKind kind, uint64_t subject, uint64_t detail = 0) {
    if (!enabled_) return;
    if (events_.size() == capacity_) {
      events_.pop_front();
      ++dropped_;
    }
    events_.push_back(TraceEvent{kind, next_seq_, subject, detail,
                                 RequestScope::CurrentTraceId()});
    ++next_seq_;
  }

  const std::deque<TraceEvent>& events() const { return events_; }
  // Total events ever recorded, including those dropped off the ring.
  uint64_t total_recorded() const { return next_seq_; }
  uint64_t dropped() const { return dropped_; }

  void Clear() {
    events_.clear();
    dropped_ = 0;
    next_seq_ = 0;
  }

  // {"capacity":n,"total":n,"dropped":n,
  //  "events":[{"seq":n,"kind":"block_fetch","subject":n,"detail":n,
  //             "trace":n},...]}
  std::string ToJson() const;

 private:
  bool enabled_ = false;
  size_t capacity_;
  std::deque<TraceEvent> events_;
  RelaxedCounter next_seq_ = 0;
  RelaxedCounter dropped_ = 0;
};

}  // namespace cactis::obs

#endif  // CACTIS_OBS_TRACE_H_
