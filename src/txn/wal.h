// Write-ahead delta log: durability for the paper's delta machinery.
//
// Sections 2.2/3 of the paper sell cheap rollback because "all of the
// actions ... can be undone simply by restoring the old value" — but that
// only survives a failure if the deltas themselves are durable. The WAL
// journals every committed TransactionDelta (and the version meta-actions
// that reposition history) to dedicated disk blocks *before* the commit is
// acknowledged; the data blocks may then be written back lazily by the
// buffer pool. After a crash, Database::Recover() replays the journal from
// the surviving platter: committed transactions redo, an incomplete tail
// entry (the transaction that was mid-append when power died) is
// discarded.
//
// On-disk layout. The log is a chain of write-once blocks:
//
//   superblock (the first block the WAL allocates; block 1 of a fresh
//   database):  [crc32][magic u64][first-entry block id u64]
//
//   entry chunk: [crc32][chunk magic u32][entry seq u64][chunk index u32]
//                [chunk count u32][next block id u64]
//                [payload piece (length-prefixed)]
//
// An entry's payload (one serialized WalEvent) is split across as many
// chunks as needed; each chunk, including the last, names the block the
// chain continues in, and that block is pre-allocated before any chunk is
// written. Every chunk block is written exactly once, so a torn write can
// only ever hit the *unsealed* tail of the log — committed entries are
// never rewritten and therefore never at risk. Recovery walks the chain
// until it meets an empty block (clean end), a checksum failure (torn
// tail), or a sequence discontinuity, and truncates there. The chunk
// magic lets an offline *salvage sweep* tell WAL chunks apart from data
// blocks: when the chain stops at a damaged block, the sweep looks for
// sealed chunks with a later sequence number anywhere on the platter —
// finding one proves the damage sits *before* the durable tail (real
// corruption, recovery must fail); finding none means the damage is the
// unsealed tail itself, which is safely discarded and reported as
// wal.salvaged_tail_bytes.
//
// Checkpointing (txn/checkpoint.h) truncates the log: TruncateBefore()
// frees the blocks of every entry older than the checkpoint LSN, so the
// log holds only the tail that recovery actually replays.
//
// Transient disk faults (kUnavailable) are retried in place with bounded
// exponential backoff: rewriting the same chunk block after a transient
// error is safe because the platter was untouched. Retries, give-ups and
// backoff time are surfaced through WalStats.

#ifndef CACTIS_TXN_WAL_H_
#define CACTIS_TXN_WAL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/backoff.h"
#include "common/relaxed_counter.h"
#include "common/result.h"
#include "common/serial.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/simulated_disk.h"
#include "txn/delta.h"

namespace cactis::txn {

/// One journaled event. Commits carry the transaction's delta; the meta
/// events mirror the version facility's history repositioning so recovery
/// reproduces it.
enum class WalEventKind : uint8_t {
  kCommit = 1,    ///< a committed transaction delta (redo on recovery)
  kUndo = 2,      ///< the Undo meta-action popped the last commit
  kCheckout = 3,  ///< history repositioned to `checkout_target`
  kVersion = 4,   ///< the current position was named `version_name`
  kBatch = 5,     ///< group-commit container: N events in one log entry.
                  ///< Never carried in a WalEvent — ScanPlatter flattens
                  ///< batches back into their member events.
};

std::string_view WalEventKindToString(WalEventKind kind);

struct WalEvent {
  WalEventKind kind = WalEventKind::kCommit;
  TransactionDelta delta;        // kCommit
  uint64_t checkout_target = 0;  // kCheckout
  std::string version_name;      // kVersion

  static WalEvent Commit(TransactionDelta d) {
    WalEvent e;
    e.kind = WalEventKind::kCommit;
    e.delta = std::move(d);
    return e;
  }
  static WalEvent Undo() {
    WalEvent e;
    e.kind = WalEventKind::kUndo;
    return e;
  }
  static WalEvent Checkout(uint64_t target) {
    WalEvent e;
    e.kind = WalEventKind::kCheckout;
    e.checkout_target = target;
    return e;
  }
  static WalEvent Version(std::string name) {
    WalEvent e;
    e.kind = WalEventKind::kVersion;
    e.version_name = std::move(name);
    return e;
  }
};

/// Serialization of deltas and events (exposed so tests can round-trip
/// every DeltaOp without a disk).
void EncodeDeltaRecord(const DeltaRecord& rec, BinaryWriter* w);
Result<DeltaRecord> DecodeDeltaRecord(BinaryReader* r);
void EncodeDelta(const TransactionDelta& delta, BinaryWriter* w);
Result<TransactionDelta> DecodeDelta(BinaryReader* r);
std::string EncodeEvent(const WalEvent& event);
Result<WalEvent> DecodeEvent(std::string_view bytes);

/// Written by the flush leader outside the statement mutex and read by
/// metrics snapshots under it, hence RelaxedCounter and the atomic
/// histogram.
struct WalStats {
  RelaxedCounter entries_appended = 0;
  RelaxedCounter blocks_written = 0;  ///< WAL block writes (E-metric overhead)
  RelaxedCounter bytes_logged = 0;
  RelaxedCounter group_batches = 0;  ///< flushes (one chained write each)
  RelaxedCounter group_batched_entries = 0;  ///< events carried by flushes
  RelaxedCounter retries = 0;   ///< transient write faults retried in place
  RelaxedCounter give_ups = 0;  ///< retry budgets exhausted (flush failed)
  RelaxedCounter backoff_us = 0;  ///< total time slept between retries
  RelaxedCounter wedged_flushes = 0;  ///< flushes refused while wedged
  RelaxedCounter truncated_entries = 0;  ///< entries dropped by TruncateBefore
  RelaxedCounter truncated_blocks = 0;   ///< blocks freed by TruncateBefore
  RelaxedCounter salvaged_tail_bytes = 0;  ///< damaged tail bytes discarded
  obs::Histogram batch_size;  ///< entries per flush

  void ExportTo(obs::MetricsGroup* g) const {
    g->AddCounter("entries_appended", entries_appended);
    g->AddCounter("blocks_written", blocks_written);
    g->AddCounter("bytes_logged", bytes_logged);
    g->AddCounter("group_batches", group_batches);
    g->AddCounter("group_batched_entries", group_batched_entries);
    g->AddCounter("retries", retries);
    g->AddCounter("give_ups", give_ups);
    g->AddCounter("backoff_us", backoff_us);
    g->AddCounter("wedged_flushes", wedged_flushes);
    g->AddCounter("truncated_entries", truncated_entries);
    g->AddCounter("truncated_blocks", truncated_blocks);
    g->AddCounter("salvaged_tail_bytes", salvaged_tail_bytes);
    g->AddHistogram("batch_size", batch_size.Data());
  }
};

/// Result of an offline platter scan: the replayable events, the sequence
/// number the log's next entry would carry, and how many bytes of damaged
/// unsealed tail (torn or bit-rotted last entry) were discarded.
struct WalScanResult {
  std::vector<WalEvent> events;
  uint64_t next_seq = 1;
  uint64_t salvaged_tail_bytes = 0;
};

class WriteAheadLog {
 public:
  /// The WAL must be created before anything else touches the disk so its
  /// superblock lands at a well-known address for recovery.
  static constexpr uint64_t kMagic = 0x434143544957414CULL;  // "CACTIWAL"
  /// Leading u32 of every entry chunk; distinguishes WAL chunks from data
  /// and checkpoint blocks during salvage sweeps.
  static constexpr uint32_t kChunkMagic = 0x57414C43;  // "CLAW"
  static constexpr uint64_t kSuperblockId = 1;

  explicit WriteAheadLog(storage::SimulatedDisk* disk) : disk_(disk) {}

  /// Allocates the superblock and the first tail block and seals the
  /// superblock. Must be called exactly once, on a disk whose next
  /// allocation is block kSuperblockId.
  Status Initialize();

  /// Journals one event durably: the commit path calls this *before*
  /// acknowledging the transaction. On failure (crash, transient error)
  /// nothing is acknowledged and recovery will discard the partial entry.
  /// Equivalent to Stage() + WaitDurable() + ForgetTicket-on-failure.
  Status Append(const WalEvent& event);

  // --- Group commit --------------------------------------------------------
  //
  // Concurrent committers amortize disk appends: each caller Stages its
  // event (cheap, returns a ticket), then blocks in WaitDurable. The
  // first waiter with undurable work elects itself flush leader, drains
  // the whole staging queue, and writes it as ONE chained log entry (a
  // kBatch container when more than one event is staged — a batch of one
  // is byte-identical to a classic Append). Followers sleep on a
  // condition variable until the leader broadcasts the commit ack.
  //
  // Stage must run under the database's exclusive statement lock (it
  // orders tickets against the in-memory commit order); WaitDurable must
  // NOT hold that lock, so readers and other writers proceed while the
  // leader is on the disk. A failed flush records a per-ticket failure
  // status (queried via TicketFailed, released via ForgetTicket) and the
  // un-advanced tail means the next flush rewrites the same chain — the
  // same transient-error retry semantics Append always had.

  /// Encodes and enqueues one event; returns its commit ticket. Tickets
  /// are issued in WAL order: callers must invoke Stage in the order the
  /// events must appear on the platter (i.e. under the exclusive lock).
  uint64_t Stage(const WalEvent& event);

  /// Blocks until the ticket's batch is flushed; returns the flush
  /// outcome for this ticket. Must be called exactly once per ticket.
  Status WaitDurable(uint64_t ticket);

  /// True while `ticket` has a recorded flush failure.
  bool TicketFailed(uint64_t ticket);

  /// Releases the failure record for `ticket` (no-op if none).
  void ForgetTicket(uint64_t ticket);

  /// True after a flush exhausted its retry budget. A wedged log fails
  /// every subsequent flush fast (no disk attempt) until ClearWedge():
  /// letting a later batch land while the failed ones are still being
  /// rolled back in memory would diverge the in-memory state from the
  /// platter. The health probe clears the wedge once storage answers.
  bool wedged();
  void ClearWedge();

  /// Blocks until no flush is running and nothing is staged. Callers
  /// hold the exclusive statement lock, so no new Stage can race in.
  void WaitIdle();

  /// Highest ticket whose flush has completed (successfully or not).
  uint64_t ResolvedTicket();

  const WalStats& stats() const { return stats_; }

  /// The block the next entry's first chunk will land in (pre-allocated,
  /// never yet written) and the sequence number it will carry. Together
  /// they are the resume point a checkpoint records. Callers hold the
  /// exclusive statement lock with the log idle.
  BlockId tail_block() const { return tail_block_; }
  uint64_t next_seq() const { return next_seq_; }

  /// Frees the blocks of every sealed entry with seq < `before_seq`
  /// (checkpoint truncation: those entries are covered by the checkpoint
  /// image and will never be replayed). Counted in WalStats. Caller holds
  /// the exclusive statement lock and has called WaitIdle(), so no flush
  /// leader is touching the chain.
  Status TruncateBefore(uint64_t before_seq);

  /// Bounded-backoff policy for transient write faults. Replaceable so
  /// tests can shrink (or zero) the budget.
  void set_retry_policy(BackoffPolicy policy) { retry_policy_ = policy; }

  /// Recovery credit: records tail bytes a platter scan had to discard so
  /// the loss shows up in this (recovered) database's metrics.
  void NoteSalvagedTailBytes(uint64_t bytes) {
    stats_.salvaged_tail_bytes += bytes;
  }

  /// Optional span tracer; records one wal_append event per entry.
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }

  /// Offline scan of a platter (possibly of a crashed disk): returns every
  /// complete journal entry in order, silently truncating at the first
  /// empty block, checksum failure, or sequence discontinuity. NotFound if
  /// the platter carries no WAL superblock.
  static Result<std::vector<WalEvent>> ScanPlatter(
      const storage::SimulatedDisk& platter);

  /// Reads the superblock of a platter and returns the first entry block.
  /// NotFound if the platter carries no WAL.
  static Result<BlockId> ReadFirstBlock(const storage::SimulatedDisk& platter);

  /// Scan from an explicit resume point (checkpoint-aware recovery): walks
  /// the chain starting at `start_block`, expecting `start_seq` first.
  /// When the chain stops at a damaged block, a salvage sweep over every
  /// allocated block decides between a discardable unsealed tail (scan
  /// succeeds, salvaged_tail_bytes > 0) and damage before the durable tail
  /// (kCorruption: an acked commit would be lost).
  static Result<WalScanResult> ScanPlatterFrom(
      const storage::SimulatedDisk& platter, BlockId start_block,
      uint64_t start_seq);

 private:
  struct StagedEntry {
    uint64_t ticket = 0;
    std::string payload;  // one encoded WalEvent
  };

  /// Usable payload bytes per chunk block.
  size_t ChunkCapacity() const;

  /// Writes `batch` as one chained log entry. Leader-only (at most one
  /// caller at a time, enforced by flush_in_progress_); holds no locks,
  /// so tail_block_/next_seq_/stats_ are leader-private while it runs.
  Status WriteBatch(const std::vector<StagedEntry>& batch);

  /// Writes one framed block, retrying transient faults with bounded
  /// backoff (rewriting is safe: a transient fault leaves the platter
  /// unchanged). Runs leader-private, like WriteBatch.
  Status WriteWithRetry(BlockId id, const std::string& framed);

  storage::SimulatedDisk* disk_;
  BlockId tail_block_;       ///< pre-allocated, never-written next head
  uint64_t next_seq_ = 1;    ///< entry sequence number of the next Append
  WalStats stats_;
  BackoffPolicy retry_policy_;
  /// Chunk blocks of each sealed entry, oldest first, for TruncateBefore.
  /// Leader-private (appended by WriteBatch, drained by TruncateBefore
  /// under the exclusive lock with the log idle).
  std::deque<std::pair<uint64_t, std::vector<BlockId>>> entry_blocks_;
  obs::TraceSink* trace_ = nullptr;

  std::mutex group_mu_;
  std::condition_variable group_cv_;
  std::deque<StagedEntry> staged_;
  uint64_t next_ticket_ = 0;      ///< last issued ticket
  uint64_t resolved_ticket_ = 0;  ///< all tickets <= this have an outcome
  std::unordered_map<uint64_t, Status> failed_tickets_;
  bool flush_in_progress_ = false;
  bool wedged_ = false;  ///< set on flush give-up, cleared by ClearWedge()
};

}  // namespace cactis::txn

#endif  // CACTIS_TXN_WAL_H_
