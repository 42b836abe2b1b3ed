// Write-ahead log: serialization round trips for every DeltaOp, event
// framing, append/scan over a disk, chunked entries, torn-tail
// truncation and salvage accounting, transient-fault retry, truncation
// behind a checkpoint, and the group-commit staging queue (batch
// formation, flattening on scan, per-ticket failure reporting).

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/backoff.h"
#include "storage/checksum.h"
#include "storage/fault_policy.h"
#include "storage/simulated_disk.h"
#include "txn/wal.h"

namespace cactis::txn {
namespace {

TransactionDelta DeltaWithEveryOp() {
  TransactionDelta delta;
  delta.txn = TxnId(42);
  delta.commit_seq = 7;

  DeltaRecord set;
  set.op = DeltaOp::kSetAttr;
  set.instance = InstanceId(3);
  set.attr_index = 2;
  set.old_value = Value::Int(10);
  set.new_value = Value::String("replacement");
  delta.records.push_back(set);

  DeltaRecord create;
  create.op = DeltaOp::kCreate;
  create.instance = InstanceId(4);
  create.class_id = ClassId(9);
  delta.records.push_back(create);

  DeltaRecord del;
  del.op = DeltaOp::kDelete;
  del.instance = InstanceId(5);
  del.class_id = ClassId(9);
  del.intrinsic_snapshot.emplace_back(0, Value::Real(2.5));
  del.intrinsic_snapshot.emplace_back(3, Value::Bool(true));
  delta.records.push_back(del);

  DeltaRecord conn;
  conn.op = DeltaOp::kConnect;
  conn.instance = InstanceId(3);
  conn.edge = EdgeId(11);
  conn.from = InstanceId(3);
  conn.from_port = 1;
  conn.to = InstanceId(4);
  conn.to_port = 0;
  delta.records.push_back(conn);

  DeltaRecord disc = conn;
  disc.op = DeltaOp::kDisconnect;
  delta.records.push_back(disc);

  return delta;
}

void ExpectSameDelta(const TransactionDelta& a, const TransactionDelta& b) {
  EXPECT_EQ(a.txn, b.txn);
  EXPECT_EQ(a.commit_seq, b.commit_seq);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (size_t i = 0; i < a.records.size(); ++i) {
    const DeltaRecord& x = a.records[i];
    const DeltaRecord& y = b.records[i];
    EXPECT_EQ(x.op, y.op) << "record " << i;
    EXPECT_EQ(x.instance, y.instance);
    EXPECT_EQ(x.attr_index, y.attr_index);
    EXPECT_EQ(x.old_value, y.old_value);
    EXPECT_EQ(x.new_value, y.new_value);
    EXPECT_EQ(x.class_id, y.class_id);
    EXPECT_EQ(x.intrinsic_snapshot, y.intrinsic_snapshot);
    EXPECT_EQ(x.edge, y.edge);
    EXPECT_EQ(x.from, y.from);
    EXPECT_EQ(x.from_port, y.from_port);
    EXPECT_EQ(x.to, y.to);
    EXPECT_EQ(x.to_port, y.to_port);
  }
}

TEST(WalCodecTest, DeltaRoundTripsEveryOp) {
  TransactionDelta delta = DeltaWithEveryOp();
  BinaryWriter w;
  EncodeDelta(delta, &w);
  BinaryReader r(w.data());
  auto decoded = DecodeDelta(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  ExpectSameDelta(delta, *decoded);
}

TEST(WalCodecTest, EventRoundTrips) {
  // Commit.
  WalEvent commit = WalEvent::Commit(DeltaWithEveryOp());
  auto commit2 = DecodeEvent(EncodeEvent(commit));
  ASSERT_TRUE(commit2.ok());
  EXPECT_EQ(commit2->kind, WalEventKind::kCommit);
  ExpectSameDelta(commit.delta, commit2->delta);

  // Undo.
  auto undo = DecodeEvent(EncodeEvent(WalEvent::Undo()));
  ASSERT_TRUE(undo.ok());
  EXPECT_EQ(undo->kind, WalEventKind::kUndo);

  // Checkout.
  auto checkout = DecodeEvent(EncodeEvent(WalEvent::Checkout(13)));
  ASSERT_TRUE(checkout.ok());
  EXPECT_EQ(checkout->kind, WalEventKind::kCheckout);
  EXPECT_EQ(checkout->checkout_target, 13u);

  // Version.
  auto version = DecodeEvent(EncodeEvent(WalEvent::Version("release-1")));
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(version->kind, WalEventKind::kVersion);
  EXPECT_EQ(version->version_name, "release-1");
}

TEST(WalCodecTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(DecodeEvent("").ok());
  EXPECT_FALSE(DecodeEvent(std::string(1, '\x09')).ok());  // unknown kind
  std::string undo_with_tail = EncodeEvent(WalEvent::Undo()) + "x";
  EXPECT_FALSE(DecodeEvent(undo_with_tail).ok());
}

TEST(WalLogTest, AppendThenScanRoundTrips) {
  storage::SimulatedDisk disk(4096);
  WriteAheadLog wal(&disk);
  ASSERT_TRUE(wal.Initialize().ok());

  ASSERT_TRUE(wal.Append(WalEvent::Commit(DeltaWithEveryOp())).ok());
  ASSERT_TRUE(wal.Append(WalEvent::Version("v1")).ok());
  ASSERT_TRUE(wal.Append(WalEvent::Undo()).ok());
  ASSERT_TRUE(wal.Append(WalEvent::Checkout(1)).ok());
  EXPECT_EQ(wal.stats().entries_appended, 4u);

  auto events = WriteAheadLog::ScanPlatter(disk);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_EQ(events->size(), 4u);
  EXPECT_EQ((*events)[0].kind, WalEventKind::kCommit);
  ExpectSameDelta((*events)[0].delta, DeltaWithEveryOp());
  EXPECT_EQ((*events)[1].kind, WalEventKind::kVersion);
  EXPECT_EQ((*events)[1].version_name, "v1");
  EXPECT_EQ((*events)[2].kind, WalEventKind::kUndo);
  EXPECT_EQ((*events)[3].kind, WalEventKind::kCheckout);
  EXPECT_EQ((*events)[3].checkout_target, 1u);
}

TEST(WalLogTest, LargeEntrySpansMultipleChunks) {
  // A tiny block size forces even modest entries across several chunks.
  storage::SimulatedDisk disk(64);
  WriteAheadLog wal(&disk);
  ASSERT_TRUE(wal.Initialize().ok());

  WalEvent big = WalEvent::Version(std::string(500, 'x'));
  uint64_t before = wal.stats().blocks_written;
  ASSERT_TRUE(wal.Append(big).ok());
  EXPECT_GT(wal.stats().blocks_written - before, 10u);  // 500B / ~32B chunks

  ASSERT_TRUE(wal.Append(WalEvent::Undo()).ok());
  auto events = WriteAheadLog::ScanPlatter(disk);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 2u);
  EXPECT_EQ((*events)[0].version_name, std::string(500, 'x'));
  EXPECT_EQ((*events)[1].kind, WalEventKind::kUndo);
}

TEST(WalLogTest, TornTailEntryIsDiscarded) {
  storage::SimulatedDisk disk(4096);
  WriteAheadLog wal(&disk);
  ASSERT_TRUE(wal.Initialize().ok());
  ASSERT_TRUE(wal.Append(WalEvent::Version("v1")).ok());
  ASSERT_TRUE(wal.Append(WalEvent::Version("v2")).ok());

  // The next append suffers a torn write (power loss mid-write): the
  // entry must not be acknowledged and the scan must not surface it.
  storage::ScriptedFaults faults;
  faults.torn_write_at = static_cast<int64_t>(disk.write_attempts());
  disk.set_fault_policy(&faults);
  EXPECT_FALSE(wal.Append(WalEvent::Version("v3")).ok());
  EXPECT_TRUE(disk.crashed());

  auto events = WriteAheadLog::ScanPlatter(disk);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 2u);
  EXPECT_EQ((*events)[1].version_name, "v2");
}

TEST(WalLogTest, CrashBeforeWriteLosesOnlyTheTailEntry) {
  storage::SimulatedDisk disk(4096);
  WriteAheadLog wal(&disk);
  ASSERT_TRUE(wal.Initialize().ok());
  ASSERT_TRUE(wal.Append(WalEvent::Checkout(0)).ok());

  storage::ScriptedFaults faults;
  faults.crash_after_writes = static_cast<int64_t>(disk.write_attempts());
  disk.set_fault_policy(&faults);
  EXPECT_FALSE(wal.Append(WalEvent::Version("lost")).ok());

  auto events = WriteAheadLog::ScanPlatter(disk);
  ASSERT_TRUE(events.ok());
  ASSERT_EQ(events->size(), 1u);
  EXPECT_EQ((*events)[0].kind, WalEventKind::kCheckout);
}

// A torn tail is SALVAGED, not fatal: the committed prefix survives and
// the scan reports how many damaged bytes it dropped.
TEST(WalLogTest, TornTailIsSalvagedWithByteCredit) {
  storage::SimulatedDisk disk(4096);
  WriteAheadLog wal(&disk);
  ASSERT_TRUE(wal.Initialize().ok());
  ASSERT_TRUE(wal.Append(WalEvent::Version("v1")).ok());
  ASSERT_TRUE(wal.Append(WalEvent::Version("v2")).ok());

  storage::ScriptedFaults faults;
  faults.torn_write_at = static_cast<int64_t>(disk.write_attempts());
  disk.set_fault_policy(&faults);
  EXPECT_FALSE(wal.Append(WalEvent::Version("torn")).ok());

  auto first = WriteAheadLog::ReadFirstBlock(disk);
  ASSERT_TRUE(first.ok());
  auto scan = WriteAheadLog::ScanPlatterFrom(disk, *first, 1);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->events.size(), 2u);
  EXPECT_EQ(scan->events[1].version_name, "v2");
  EXPECT_EQ(scan->next_seq, 3u);
  EXPECT_GT(scan->salvaged_tail_bytes, 0u);
}

// Bit rot on the LAST entry is indistinguishable from a torn tail (the
// entry's ack raced the damage): salvage the committed prefix.
TEST(WalLogTest, BitRotOnLastEntrySalvagesCommittedPrefix) {
  storage::SimulatedDisk disk(4096);
  WriteAheadLog wal(&disk);
  ASSERT_TRUE(wal.Initialize().ok());
  ASSERT_TRUE(wal.Append(WalEvent::Version("v1")).ok());

  storage::ScriptedFaults faults;
  faults.corrupt_write_at = static_cast<int64_t>(disk.write_attempts());
  disk.set_fault_policy(&faults);
  // The write "succeeds" — the damage is silent until the scan's
  // checksum verification.
  ASSERT_TRUE(wal.Append(WalEvent::Version("rotted")).ok());

  auto first = WriteAheadLog::ReadFirstBlock(disk);
  ASSERT_TRUE(first.ok());
  auto scan = WriteAheadLog::ScanPlatterFrom(disk, *first, 1);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->events.size(), 1u);
  EXPECT_EQ(scan->events[0].version_name, "v1");
  EXPECT_GT(scan->salvaged_tail_bytes, 0u);
}

// Damage BEFORE the last durable entry is a different story: sealed
// entries lie beyond the hole, so dropping the tail would lose an
// acknowledged commit. That must hard-fail as corruption.
TEST(WalLogTest, DamageBeforeSealedEntriesIsCorruption) {
  storage::SimulatedDisk disk(4096);
  WriteAheadLog wal(&disk);
  ASSERT_TRUE(wal.Initialize().ok());
  ASSERT_TRUE(wal.Append(WalEvent::Version("v1")).ok());

  storage::ScriptedFaults faults;
  faults.corrupt_write_at = static_cast<int64_t>(disk.write_attempts());
  disk.set_fault_policy(&faults);
  ASSERT_TRUE(wal.Append(WalEvent::Version("rotted")).ok());
  ASSERT_TRUE(wal.Append(WalEvent::Version("v3")).ok());  // sealed beyond

  auto first = WriteAheadLog::ReadFirstBlock(disk);
  ASSERT_TRUE(first.ok());
  auto scan = WriteAheadLog::ScanPlatterFrom(disk, *first, 1);
  EXPECT_TRUE(scan.status().IsCorruption()) << scan.status().ToString();
}

// TruncateBefore frees the platter blocks of entries a checkpoint made
// redundant; the surviving tail still scans from the recorded resume
// point and the log stays appendable.
TEST(WalLogTest, TruncateBeforeFreesBlocksAndKeepsTail) {
  storage::SimulatedDisk disk(4096);
  WriteAheadLog wal(&disk);
  ASSERT_TRUE(wal.Initialize().ok());
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(
        wal.Append(WalEvent::Version("old" + std::to_string(i))).ok());
  }
  // The checkpoint's WAL resume point: everything before it goes.
  const BlockId resume_block = wal.tail_block();
  const uint64_t resume_seq = wal.next_seq();
  ASSERT_TRUE(wal.Append(WalEvent::Version("tail1")).ok());
  ASSERT_TRUE(wal.Append(WalEvent::Version("tail2")).ok());

  const size_t allocated_before = disk.AllocatedBlocks().size();
  ASSERT_TRUE(wal.TruncateBefore(resume_seq).ok());
  EXPECT_EQ(wal.stats().truncated_entries, 3u);
  EXPECT_GE(wal.stats().truncated_blocks, 3u);
  EXPECT_LT(disk.AllocatedBlocks().size(), allocated_before);

  auto scan = WriteAheadLog::ScanPlatterFrom(disk, resume_block, resume_seq);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->events.size(), 2u);
  EXPECT_EQ(scan->events[0].version_name, "tail1");
  EXPECT_EQ(scan->events[1].version_name, "tail2");

  // Truncation is idempotent and the log keeps appending normally.
  ASSERT_TRUE(wal.TruncateBefore(resume_seq).ok());
  EXPECT_EQ(wal.stats().truncated_entries, 3u);
  ASSERT_TRUE(wal.Append(WalEvent::Version("tail3")).ok());
  auto again = WriteAheadLog::ScanPlatterFrom(disk, resume_block, resume_seq);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->events.size(), 3u);
}

TEST(WalLogTest, ScanRejectsPlatterWithoutWal) {
  storage::SimulatedDisk empty(512);
  EXPECT_TRUE(WriteAheadLog::ScanPlatter(empty).status().IsNotFound());

  // A block 1 that carries non-WAL data is not mistaken for a superblock.
  storage::SimulatedDisk junk(512);
  BlockId block = junk.Allocate();
  ASSERT_TRUE(junk.Write(block, storage::WrapWithChecksum("not a wal")).ok());
  EXPECT_TRUE(WriteAheadLog::ScanPlatter(junk).status().IsNotFound());
}

// A Stage+WaitDurable with nobody else staged is a batch of one, which
// must be indistinguishable from the classic Append path — same platter
// layout, same scan, same block/byte accounting.
TEST(WalGroupCommitTest, SingletonBatchMatchesClassicAppend) {
  storage::SimulatedDisk a(4096);
  storage::SimulatedDisk b(4096);
  WriteAheadLog wal_a(&a);
  WriteAheadLog wal_b(&b);
  ASSERT_TRUE(wal_a.Initialize().ok());
  ASSERT_TRUE(wal_b.Initialize().ok());

  const WalEvent events[] = {WalEvent::Commit(DeltaWithEveryOp()),
                             WalEvent::Version("v1"), WalEvent::Undo()};
  for (const WalEvent& e : events) {
    ASSERT_TRUE(wal_a.Append(e).ok());
    uint64_t t = wal_b.Stage(e);
    ASSERT_TRUE(wal_b.WaitDurable(t).ok());
  }

  EXPECT_EQ(wal_a.stats().blocks_written, wal_b.stats().blocks_written);
  EXPECT_EQ(wal_a.stats().bytes_logged, wal_b.stats().bytes_logged);
  auto ea = WriteAheadLog::ScanPlatter(a);
  auto eb = WriteAheadLog::ScanPlatter(b);
  ASSERT_TRUE(ea.ok());
  ASSERT_TRUE(eb.ok());
  ASSERT_EQ(ea->size(), 3u);
  ASSERT_EQ(eb->size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ((*ea)[i].kind, (*eb)[i].kind);
  }
}

// Pre-staging several events with nobody waiting, then calling the first
// WaitDurable, must drain the whole queue as ONE chained write — and the
// kBatch container must be invisible to recovery (the scan flattens it
// back into the staged events, in ticket order).
TEST(WalGroupCommitTest, StagedBacklogFlushesAsOneBatch) {
  storage::SimulatedDisk disk(4096);
  WriteAheadLog wal(&disk);
  ASSERT_TRUE(wal.Initialize().ok());

  constexpr int kStaged = 5;
  uint64_t tickets[kStaged];
  for (int i = 0; i < kStaged; ++i) {
    tickets[i] = wal.Stage(WalEvent::Version("v" + std::to_string(i)));
  }
  // Any waiter elects itself leader and flushes everything staged.
  ASSERT_TRUE(wal.WaitDurable(tickets[kStaged - 1]).ok());
  for (int i = 0; i < kStaged - 1; ++i) {
    ASSERT_TRUE(wal.WaitDurable(tickets[i]).ok());
  }
  EXPECT_EQ(wal.ResolvedTicket(), tickets[kStaged - 1]);

  const WalStats& ws = wal.stats();
  EXPECT_EQ(ws.entries_appended, static_cast<uint64_t>(kStaged));
  EXPECT_EQ(ws.group_batches, 1u);
  EXPECT_EQ(ws.group_batched_entries, static_cast<uint64_t>(kStaged));
  // Power-of-two histogram: a 5-entry flush lands in bucket [4, 8).
  EXPECT_EQ(ws.batch_size.bucket(3), 1u);

  auto events = WriteAheadLog::ScanPlatter(disk);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_EQ(events->size(), static_cast<size_t>(kStaged));
  for (int i = 0; i < kStaged; ++i) {
    EXPECT_EQ((*events)[i].kind, WalEventKind::kVersion);
    EXPECT_EQ((*events)[i].version_name, "v" + std::to_string(i));
  }
}

// Classic appends and multi-entry batches interleave in one log; the
// scan yields one flat, ordered stream.
TEST(WalGroupCommitTest, BatchesAndAppendsInterleaveInScan) {
  storage::SimulatedDisk disk(4096);
  WriteAheadLog wal(&disk);
  ASSERT_TRUE(wal.Initialize().ok());

  ASSERT_TRUE(wal.Append(WalEvent::Version("first")).ok());
  uint64_t t1 = wal.Stage(WalEvent::Version("batched-a"));
  uint64_t t2 = wal.Stage(WalEvent::Version("batched-b"));
  ASSERT_TRUE(wal.WaitDurable(t2).ok());
  ASSERT_TRUE(wal.WaitDurable(t1).ok());
  ASSERT_TRUE(wal.Append(WalEvent::Checkout(2)).ok());

  auto events = WriteAheadLog::ScanPlatter(disk);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_EQ(events->size(), 4u);
  EXPECT_EQ((*events)[0].version_name, "first");
  EXPECT_EQ((*events)[1].version_name, "batched-a");
  EXPECT_EQ((*events)[2].version_name, "batched-b");
  EXPECT_EQ((*events)[3].kind, WalEventKind::kCheckout);
}

/// Shrinks retry delays to microseconds so fault-path tests stay fast.
BackoffPolicy FastRetry() {
  BackoffPolicy p;
  p.base_us = 1;
  p.max_us = 4;
  return p;
}

// A single transient hiccup is absorbed INSIDE the flush: the write is
// retried with backoff, the ticket still becomes durable, and the retry
// is visible only in the stats.
TEST(WalGroupCommitTest, TransientHiccupIsRetriedTransparently) {
  storage::SimulatedDisk disk(4096);
  WriteAheadLog wal(&disk);
  wal.set_retry_policy(FastRetry());
  ASSERT_TRUE(wal.Initialize().ok());

  storage::ScriptedFaults faults;
  faults.transient_write_error_at =
      static_cast<int64_t>(disk.write_attempts());
  disk.set_fault_policy(&faults);

  uint64_t t = wal.Stage(WalEvent::Version("hiccup"));
  EXPECT_TRUE(wal.WaitDurable(t).ok());
  EXPECT_FALSE(wal.TicketFailed(t));
  EXPECT_GE(wal.stats().retries, 1u);
  EXPECT_EQ(wal.stats().give_ups, 0u);

  auto events = WriteAheadLog::ScanPlatter(disk);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_EQ(events->size(), 1u);
  EXPECT_EQ((*events)[0].version_name, "hiccup");
}

// A flush that dies on a *persistent* transient storm (the retry budget
// is exhausted) must be reported to the ticket's owner (and only
// released by the owner), must not advance the tail, and must leave the
// log appendable once the storm clears.
TEST(WalGroupCommitTest, FailedFlushReportsPerTicketAndStaysAppendable) {
  storage::SimulatedDisk disk(4096);
  WriteAheadLog wal(&disk);
  wal.set_retry_policy(FastRetry());
  ASSERT_TRUE(wal.Initialize().ok());
  ASSERT_TRUE(wal.Append(WalEvent::Version("keep")).ok());

  storage::TransientStorm storm;
  storm.storming.store(true);
  disk.set_fault_policy(&storm);

  uint64_t t = wal.Stage(WalEvent::Version("hiccup"));
  EXPECT_FALSE(wal.WaitDurable(t).ok());
  // The storm outlasted the retry budget...
  EXPECT_GE(wal.stats().give_ups, 1u);
  // ...and the failure record survives until the owner releases it.
  EXPECT_TRUE(wal.TicketFailed(t));
  wal.ForgetTicket(t);
  EXPECT_FALSE(wal.TicketFailed(t));

  // The failed flush wedged the log: even with the storm over, flushes
  // refuse fast (no disk attempt) until the health probe clears the
  // wedge — a success interleaved with failed-batch rollback would let
  // the in-memory state diverge from the platter.
  storm.storming.store(false);
  EXPECT_TRUE(wal.wedged());
  EXPECT_TRUE(wal.Append(WalEvent::Version("refused")).IsUnavailable());
  EXPECT_GE(wal.stats().wedged_flushes, 1u);

  // Un-wedged, the un-advanced tail means the next append rewrites the
  // same chain position: the log stays consistent, the failed entries
  // are gone.
  wal.ClearWedge();
  ASSERT_TRUE(wal.Append(WalEvent::Version("after")).ok());
  auto events = WriteAheadLog::ScanPlatter(disk);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  ASSERT_EQ(events->size(), 2u);
  EXPECT_EQ((*events)[0].version_name, "keep");
  EXPECT_EQ((*events)[1].version_name, "after");
}

// Concurrency stress over the staging queue: many threads race Stage +
// WaitDurable; leader election and the commit-ack broadcast must lose
// nothing. (TSan target.)
TEST(WalGroupCommitTest, ConcurrentStagersAllBecomeDurable) {
  storage::SimulatedDisk disk(4096);
  WriteAheadLog wal(&disk);
  ASSERT_TRUE(wal.Initialize().ok());

  constexpr int kThreads = 8;
  constexpr int kEventsEach = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&wal, t] {
      for (int i = 0; i < kEventsEach; ++i) {
        uint64_t ticket = wal.Stage(WalEvent::Version(
            std::to_string(t) + ":" + std::to_string(i)));
        ASSERT_TRUE(wal.WaitDurable(ticket).ok());
      }
    });
  }
  for (auto& th : threads) th.join();
  wal.WaitIdle();

  constexpr uint64_t kTotal =
      static_cast<uint64_t>(kThreads) * kEventsEach;
  EXPECT_EQ(wal.stats().entries_appended, kTotal);
  EXPECT_EQ(wal.stats().group_batched_entries, kTotal);
  EXPECT_LE(wal.stats().group_batches, kTotal);
  auto events = WriteAheadLog::ScanPlatter(disk);
  ASSERT_TRUE(events.ok()) << events.status().ToString();
  EXPECT_EQ(events->size(), static_cast<size_t>(kTotal));
}

}  // namespace
}  // namespace cactis::txn
