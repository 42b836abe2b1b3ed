#include "txn/wal.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/error_taxonomy.h"
#include "obs/request_context.h"
#include "storage/checksum.h"

namespace cactis::txn {
namespace {

// Fixed bytes of a chunk header: chunk magic (4) + entry seq (8) +
// chunk index (4) + chunk count (4) + next block (8) + payload length
// prefix (4).
constexpr size_t kChunkHeaderBytes = 32;

Status EncodeFailure(std::string what) {
  return Status::Corruption("WAL " + std::move(what));
}

/// Parses a raw platter block as a sealed WAL chunk and returns its entry
/// sequence number; nullopt for anything that is not a well-formed chunk
/// (data blocks, checkpoint blocks, torn frames). Used by the salvage
/// sweep to look for sealed entries beyond a damaged block.
std::optional<uint64_t> SealedChunkSeq(const std::string& raw) {
  Result<std::string_view> content = storage::UnwrapChecksum(raw);
  if (!content.ok() || content->empty()) return std::nullopt;
  BinaryReader r(*content);
  Result<uint32_t> magic = r.GetU32();
  if (!magic.ok() || *magic != WriteAheadLog::kChunkMagic) return std::nullopt;
  Result<uint64_t> seq = r.GetU64();
  if (!seq.ok()) return std::nullopt;
  return *seq;
}

}  // namespace

std::string_view WalEventKindToString(WalEventKind kind) {
  switch (kind) {
    case WalEventKind::kCommit:
      return "commit";
    case WalEventKind::kUndo:
      return "undo";
    case WalEventKind::kCheckout:
      return "checkout";
    case WalEventKind::kVersion:
      return "version";
    case WalEventKind::kBatch:
      return "batch";
  }
  return "unknown";
}

void EncodeDeltaRecord(const DeltaRecord& rec, BinaryWriter* w) {
  w->PutU8(static_cast<uint8_t>(rec.op));
  w->PutU64(rec.instance.value);
  switch (rec.op) {
    case DeltaOp::kSetAttr:
      w->PutU32(static_cast<uint32_t>(rec.attr_index));
      ValueCodec::Encode(rec.old_value, w);
      ValueCodec::Encode(rec.new_value, w);
      break;
    case DeltaOp::kCreate:
      w->PutU64(rec.class_id.value);
      break;
    case DeltaOp::kDelete:
      w->PutU64(rec.class_id.value);
      w->PutU32(static_cast<uint32_t>(rec.intrinsic_snapshot.size()));
      for (const auto& [index, value] : rec.intrinsic_snapshot) {
        w->PutU32(static_cast<uint32_t>(index));
        ValueCodec::Encode(value, w);
      }
      break;
    case DeltaOp::kConnect:
    case DeltaOp::kDisconnect:
      w->PutU64(rec.edge.value);
      w->PutU64(rec.from.value);
      w->PutU32(static_cast<uint32_t>(rec.from_port));
      w->PutU64(rec.to.value);
      w->PutU32(static_cast<uint32_t>(rec.to_port));
      break;
  }
}

Result<DeltaRecord> DecodeDeltaRecord(BinaryReader* r) {
  DeltaRecord rec;
  CACTIS_ASSIGN_OR_RETURN(uint8_t op, r->GetU8());
  if (op > static_cast<uint8_t>(DeltaOp::kDisconnect)) {
    return EncodeFailure("delta record has unknown op " + std::to_string(op));
  }
  rec.op = static_cast<DeltaOp>(op);
  CACTIS_ASSIGN_OR_RETURN(rec.instance.value, r->GetU64());
  switch (rec.op) {
    case DeltaOp::kSetAttr: {
      CACTIS_ASSIGN_OR_RETURN(uint32_t index, r->GetU32());
      rec.attr_index = index;
      CACTIS_ASSIGN_OR_RETURN(rec.old_value, ValueCodec::Decode(r));
      CACTIS_ASSIGN_OR_RETURN(rec.new_value, ValueCodec::Decode(r));
      break;
    }
    case DeltaOp::kCreate: {
      CACTIS_ASSIGN_OR_RETURN(rec.class_id.value, r->GetU64());
      break;
    }
    case DeltaOp::kDelete: {
      CACTIS_ASSIGN_OR_RETURN(rec.class_id.value, r->GetU64());
      CACTIS_ASSIGN_OR_RETURN(uint32_t count, r->GetU32());
      rec.intrinsic_snapshot.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        CACTIS_ASSIGN_OR_RETURN(uint32_t index, r->GetU32());
        CACTIS_ASSIGN_OR_RETURN(Value value, ValueCodec::Decode(r));
        rec.intrinsic_snapshot.emplace_back(index, std::move(value));
      }
      break;
    }
    case DeltaOp::kConnect:
    case DeltaOp::kDisconnect: {
      CACTIS_ASSIGN_OR_RETURN(rec.edge.value, r->GetU64());
      CACTIS_ASSIGN_OR_RETURN(rec.from.value, r->GetU64());
      CACTIS_ASSIGN_OR_RETURN(uint32_t from_port, r->GetU32());
      rec.from_port = from_port;
      CACTIS_ASSIGN_OR_RETURN(rec.to.value, r->GetU64());
      CACTIS_ASSIGN_OR_RETURN(uint32_t to_port, r->GetU32());
      rec.to_port = to_port;
      break;
    }
  }
  return rec;
}

void EncodeDelta(const TransactionDelta& delta, BinaryWriter* w) {
  w->PutU64(delta.txn.value);
  w->PutU64(delta.commit_seq);
  w->PutU32(static_cast<uint32_t>(delta.records.size()));
  for (const DeltaRecord& rec : delta.records) EncodeDeltaRecord(rec, w);
}

Result<TransactionDelta> DecodeDelta(BinaryReader* r) {
  TransactionDelta delta;
  CACTIS_ASSIGN_OR_RETURN(delta.txn.value, r->GetU64());
  CACTIS_ASSIGN_OR_RETURN(delta.commit_seq, r->GetU64());
  CACTIS_ASSIGN_OR_RETURN(uint32_t count, r->GetU32());
  delta.records.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    CACTIS_ASSIGN_OR_RETURN(DeltaRecord rec, DecodeDeltaRecord(r));
    delta.records.push_back(std::move(rec));
  }
  return delta;
}

std::string EncodeEvent(const WalEvent& event) {
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(event.kind));
  switch (event.kind) {
    case WalEventKind::kCommit:
      EncodeDelta(event.delta, &w);
      break;
    case WalEventKind::kUndo:
      break;
    case WalEventKind::kCheckout:
      w.PutU64(event.checkout_target);
      break;
    case WalEventKind::kVersion:
      w.PutString(event.version_name);
      break;
    case WalEventKind::kBatch:
      // Batch containers are framed directly by WriteBatch (the members
      // are each EncodeEvent'd); a kBatch WalEvent never exists.
      break;
  }
  return w.Take();
}

Result<WalEvent> DecodeEvent(std::string_view bytes) {
  BinaryReader r(bytes);
  WalEvent event;
  CACTIS_ASSIGN_OR_RETURN(uint8_t kind, r.GetU8());
  if (kind < static_cast<uint8_t>(WalEventKind::kCommit) ||
      kind > static_cast<uint8_t>(WalEventKind::kVersion)) {
    return EncodeFailure("event has unknown kind " + std::to_string(kind));
  }
  event.kind = static_cast<WalEventKind>(kind);
  switch (event.kind) {
    case WalEventKind::kCommit: {
      CACTIS_ASSIGN_OR_RETURN(event.delta, DecodeDelta(&r));
      break;
    }
    case WalEventKind::kUndo:
      break;
    case WalEventKind::kCheckout: {
      CACTIS_ASSIGN_OR_RETURN(event.checkout_target, r.GetU64());
      break;
    }
    case WalEventKind::kBatch:
      // Unreachable: the kind range check above rejects batch containers
      // (ScanPlatter unwraps them before DecodeEvent ever runs).
      return EncodeFailure("batch container passed to DecodeEvent");
    case WalEventKind::kVersion: {
      CACTIS_ASSIGN_OR_RETURN(event.version_name, r.GetString());
      break;
    }
  }
  if (!r.AtEnd()) {
    return EncodeFailure("event payload has trailing bytes");
  }
  return event;
}

size_t WriteAheadLog::ChunkCapacity() const {
  size_t overhead = storage::kChecksumFrameBytes + kChunkHeaderBytes;
  if (disk_->block_size() <= overhead) return 0;
  return disk_->block_size() - overhead;
}

Status WriteAheadLog::Initialize() {
  if (ChunkCapacity() == 0) {
    return Status::InvalidArgument(
        "disk block size too small for a WAL chunk (need > " +
        std::to_string(storage::kChecksumFrameBytes + kChunkHeaderBytes) +
        " bytes)");
  }
  BlockId super = disk_->Allocate();
  if (super.value != kSuperblockId) {
    return Status::Internal(
        "WAL superblock must be the first allocated block, got " +
        std::to_string(super.value));
  }
  tail_block_ = disk_->Allocate();
  if (!tail_block_.valid()) {
    return Status::IoError("disk crashed before the WAL could initialize");
  }
  BinaryWriter w;
  w.PutU64(kMagic);
  w.PutU64(tail_block_.value);
  CACTIS_RETURN_IF_ERROR(
      WriteWithRetry(super, storage::WrapWithChecksum(w.data())));
  ++stats_.blocks_written;
  return Status::OK();
}

Status WriteAheadLog::WriteWithRetry(BlockId id, const std::string& framed) {
  Status s = disk_->Write(id, framed);
  if (s.ok() || !IsTransientFault(s)) return s;
  Backoff backoff(retry_policy_);
  while (backoff.ShouldRetry()) {
    ++stats_.retries;
    s = disk_->Write(id, framed);
    if (s.ok() || !IsTransientFault(s)) break;
  }
  stats_.backoff_us += backoff.slept_us();
  if (!s.ok() && IsTransientFault(s)) ++stats_.give_ups;
  return s;
}

Status WriteAheadLog::TruncateBefore(uint64_t before_seq) {
  while (!entry_blocks_.empty() && entry_blocks_.front().first < before_seq) {
    for (BlockId b : entry_blocks_.front().second) {
      CACTIS_RETURN_IF_ERROR(disk_->Free(b));
      ++stats_.truncated_blocks;
    }
    ++stats_.truncated_entries;
    entry_blocks_.pop_front();
  }
  return Status::OK();
}

Status WriteAheadLog::Append(const WalEvent& event) {
  uint64_t ticket = Stage(event);
  Status s = WaitDurable(ticket);
  if (!s.ok()) ForgetTicket(ticket);
  return s;
}

uint64_t WriteAheadLog::Stage(const WalEvent& event) {
  StagedEntry entry;
  entry.payload = EncodeEvent(event);
  // Charged to the staging statement: the flush may be performed later by
  // another ticket's leader, but these bytes exist because of this
  // commit.
  if (auto* c = obs::RequestScope::CurrentCost()) {
    c->wal_bytes += entry.payload.size();
  }
  std::lock_guard<std::mutex> lk(group_mu_);
  entry.ticket = ++next_ticket_;
  if (trace_) {
    // The trace sink is not thread-safe; Stage runs under the exclusive
    // statement lock, so record here rather than at flush time. The
    // subject is the ticket (== the platter seq in single-threaded runs).
    trace_->Record(obs::SpanKind::kWalAppend, entry.ticket,
                   entry.payload.size());
  }
  uint64_t ticket = entry.ticket;
  staged_.push_back(std::move(entry));
  return ticket;
}

Status WriteAheadLog::WaitDurable(uint64_t ticket) {
  std::unique_lock<std::mutex> lk(group_mu_);
  for (;;) {
    auto failed = failed_tickets_.find(ticket);
    if (failed != failed_tickets_.end()) return failed->second;
    if (resolved_ticket_ >= ticket) return Status::OK();
    if (!flush_in_progress_) {
      if (staged_.empty()) {
        // Our entry is neither staged, resolved, nor in flight — cannot
        // happen when Stage/WaitDurable are paired, but never spin.
        group_cv_.wait(lk);
        continue;
      }
      flush_in_progress_ = true;
      std::vector<StagedEntry> batch(
          std::make_move_iterator(staged_.begin()),
          std::make_move_iterator(staged_.end()));
      staged_.clear();
      if (wedged_) {
        // A previous flush gave up and its batches are still being rolled
        // back: refuse fast, without touching the disk. (Mutating stats_
        // is safe here: flush_in_progress_ keeps every other leader out.)
        Status s = Status::Unavailable("wal wedged after failed flush");
        ++stats_.wedged_flushes;
        for (const StagedEntry& e : batch) failed_tickets_.emplace(e.ticket, s);
        resolved_ticket_ = batch.back().ticket;
        flush_in_progress_ = false;
        group_cv_.notify_all();
        continue;
      }
      lk.unlock();
      Status s = WriteBatch(batch);
      lk.lock();
      flush_in_progress_ = false;
      if (!s.ok()) {
        wedged_ = true;
        for (const StagedEntry& e : batch) failed_tickets_.emplace(e.ticket, s);
      }
      resolved_ticket_ = batch.back().ticket;
      group_cv_.notify_all();
      continue;
    }
    group_cv_.wait(lk);
  }
}

bool WriteAheadLog::TicketFailed(uint64_t ticket) {
  std::lock_guard<std::mutex> lk(group_mu_);
  return failed_tickets_.contains(ticket);
}

void WriteAheadLog::ForgetTicket(uint64_t ticket) {
  std::lock_guard<std::mutex> lk(group_mu_);
  failed_tickets_.erase(ticket);
}

bool WriteAheadLog::wedged() {
  std::lock_guard<std::mutex> lk(group_mu_);
  return wedged_;
}

void WriteAheadLog::ClearWedge() {
  std::lock_guard<std::mutex> lk(group_mu_);
  wedged_ = false;
}

void WriteAheadLog::WaitIdle() {
  std::unique_lock<std::mutex> lk(group_mu_);
  group_cv_.wait(lk,
                 [&] { return !flush_in_progress_ && staged_.empty(); });
}

uint64_t WriteAheadLog::ResolvedTicket() {
  std::lock_guard<std::mutex> lk(group_mu_);
  return resolved_ticket_;
}

Status WriteAheadLog::WriteBatch(const std::vector<StagedEntry>& batch) {
  if (!tail_block_.valid()) {
    return Status::Internal("WAL used before Initialize()");
  }
  // A batch of one is written exactly as a classic Append; a larger batch
  // wraps its members in a kBatch container so the whole group costs one
  // chained log entry.
  std::string payload;
  if (batch.size() == 1) {
    payload = batch.front().payload;
  } else {
    BinaryWriter w;
    w.PutU8(static_cast<uint8_t>(WalEventKind::kBatch));
    w.PutU32(static_cast<uint32_t>(batch.size()));
    for (const StagedEntry& e : batch) w.PutString(e.payload);
    payload = w.Take();
  }
  size_t cap = ChunkCapacity();
  size_t chunk_count = payload.empty() ? 1 : (payload.size() + cap - 1) / cap;

  // Pre-allocate the whole chain plus the new tail before writing anything:
  // every chunk names its successor, and a crash mid-append leaves an
  // incomplete entry that the scan discards.
  std::vector<BlockId> blocks;
  blocks.reserve(chunk_count + 1);
  blocks.push_back(tail_block_);
  for (size_t i = 0; i < chunk_count; ++i) {
    BlockId next = disk_->Allocate();
    if (!next.valid()) return Status::IoError("disk crashed during WAL append");
    blocks.push_back(next);
  }

  for (size_t i = 0; i < chunk_count; ++i) {
    size_t offset = i * cap;
    size_t piece_len =
        payload.size() > offset ? std::min(cap, payload.size() - offset) : 0;
    BinaryWriter w;
    w.PutU32(kChunkMagic);
    w.PutU64(next_seq_);
    w.PutU32(static_cast<uint32_t>(i));
    w.PutU32(static_cast<uint32_t>(chunk_count));
    w.PutU64(blocks[i + 1].value);
    w.PutString(std::string_view(payload).substr(offset, piece_len));
    CACTIS_RETURN_IF_ERROR(
        WriteWithRetry(blocks[i], storage::WrapWithChecksum(w.data())));
    ++stats_.blocks_written;
  }

  entry_blocks_.emplace_back(
      next_seq_, std::vector<BlockId>(blocks.begin(), blocks.end() - 1));
  tail_block_ = blocks.back();
  ++next_seq_;
  stats_.entries_appended += batch.size();
  stats_.bytes_logged += payload.size();
  ++stats_.group_batches;
  stats_.group_batched_entries += batch.size();
  stats_.batch_size.Record(batch.size());
  return Status::OK();
}

Result<BlockId> WriteAheadLog::ReadFirstBlock(
    const storage::SimulatedDisk& platter) {
  Result<std::string> super = platter.PeekRaw(BlockId(kSuperblockId));
  if (!super.ok()) return Status::NotFound("platter has no WAL superblock");
  Result<std::string_view> super_payload = storage::UnwrapChecksum(*super);
  if (!super_payload.ok() || super_payload->empty()) {
    return Status::NotFound("platter WAL superblock unreadable");
  }
  BinaryReader sr(*super_payload);
  Result<uint64_t> magic = sr.GetU64();
  if (!magic.ok() || *magic != kMagic) {
    return Status::NotFound("platter carries no WAL magic");
  }
  CACTIS_ASSIGN_OR_RETURN(uint64_t first_block, sr.GetU64());
  return BlockId(first_block);
}

Result<std::vector<WalEvent>> WriteAheadLog::ScanPlatter(
    const storage::SimulatedDisk& platter) {
  CACTIS_ASSIGN_OR_RETURN(BlockId first, ReadFirstBlock(platter));
  CACTIS_ASSIGN_OR_RETURN(WalScanResult scan,
                          ScanPlatterFrom(platter, first, 1));
  return std::move(scan.events);
}

Result<WalScanResult> WriteAheadLog::ScanPlatterFrom(
    const storage::SimulatedDisk& platter, BlockId start_block,
    uint64_t start_seq) {
  WalScanResult result;
  uint64_t expected_seq = start_seq;
  BlockId cursor = start_block;
  // Set when the chain stops at a block that carries bytes but fails
  // verification (torn or bit-rotted) — as opposed to the clean end, the
  // pre-allocated, never-written tail block.
  bool damaged_stop = false;
  uint64_t damaged_bytes = 0;
  for (;;) {
    // Assemble one entry; any irregularity means we hit the unsealed tail.
    std::string payload;
    BlockId next = cursor;
    uint32_t chunk_count = 1;
    bool complete = true;
    for (uint32_t chunk = 0; chunk < chunk_count; ++chunk) {
      Result<std::string> raw = platter.PeekRaw(next);
      if (!raw.ok() || raw->empty()) {
        // Clean end of the chain. A partially assembled payload means the
        // append was cut mid-entry; its sealed prefix chunks are discarded
        // tail bytes like any other salvage.
        complete = false;
        if (!payload.empty()) damaged_stop = true;
        damaged_bytes += payload.size();
        break;
      }
      Result<std::string_view> content = storage::UnwrapChecksum(*raw);
      BinaryReader r(content.ok() ? *content : std::string_view());
      Result<uint32_t> chunk_magic = r.GetU32();
      Result<uint64_t> seq = r.GetU64();
      Result<uint32_t> index = r.GetU32();
      Result<uint32_t> count = r.GetU32();
      Result<uint64_t> next_value = r.GetU64();
      Result<std::string> piece = r.GetString();
      if (!content.ok() || content->empty() || !chunk_magic.ok() ||
          *chunk_magic != kChunkMagic || !seq.ok() || !index.ok() ||
          !count.ok() || !next_value.ok() || !piece.ok() ||
          *seq != expected_seq || *index != chunk || *count == 0 ||
          (chunk > 0 && *count != chunk_count)) {
        complete = false;
        damaged_stop = true;
        damaged_bytes += raw->size() + payload.size();
        break;
      }
      if (chunk == 0) chunk_count = *count;
      payload += *piece;
      next = BlockId(*next_value);
    }
    if (complete) {
      // The entry's bytes are sound; a payload that still fails to decode
      // is damage too (it can only be an encoder torn mid-batch).
      bool decoded = true;
      if (!payload.empty() &&
          static_cast<uint8_t>(payload[0]) ==
              static_cast<uint8_t>(WalEventKind::kBatch)) {
        // Group-commit container: flatten its members in staging order.
        BinaryReader br(payload);
        (void)br.GetU8();
        Result<uint32_t> count = br.GetU32();
        std::vector<WalEvent> members;
        if (count.ok()) {
          members.reserve(*count);
          for (uint32_t i = 0; i < *count && decoded; ++i) {
            Result<std::string> piece = br.GetString();
            if (!piece.ok()) {
              decoded = false;
              break;
            }
            Result<WalEvent> member = DecodeEvent(*piece);
            if (!member.ok()) {
              decoded = false;
              break;
            }
            members.push_back(*std::move(member));
          }
          if (decoded && !br.AtEnd()) decoded = false;
        } else {
          decoded = false;
        }
        if (decoded) {
          for (WalEvent& member : members) {
            result.events.push_back(std::move(member));
          }
        }
      } else {
        Result<WalEvent> event = DecodeEvent(payload);
        if (event.ok()) {
          result.events.push_back(*std::move(event));
        } else {
          decoded = false;
        }
      }
      if (!decoded) {
        complete = false;
        damaged_stop = true;
        damaged_bytes += payload.size();
      }
    }
    if (!complete) break;
    ++expected_seq;
    cursor = next;
  }

  if (damaged_stop) {
    // The chain stopped at damage. If any *sealed* chunk with a later
    // sequence number exists anywhere on the platter, entries beyond the
    // damage were durable — and durable entries are acknowledged commits,
    // because the log seals entries strictly in order. Losing one is
    // unrecoverable corruption. Otherwise the damage is the unsealed tail
    // (a torn append, or bit rot on the very last record — which is
    // indistinguishable from a torn append and dropped the same way).
    for (BlockId b : platter.AllocatedBlocks()) {
      Result<std::string> raw = platter.PeekRaw(b);
      if (!raw.ok()) continue;
      std::optional<uint64_t> seq = SealedChunkSeq(*raw);
      if (seq.has_value() && *seq > expected_seq) {
        return Status::Corruption(
            "WAL damaged at entry " + std::to_string(expected_seq) +
            " but sealed entry " + std::to_string(*seq) +
            " lies beyond it: an acknowledged commit would be lost");
      }
    }
    result.salvaged_tail_bytes += damaged_bytes;
  }
  result.next_seq = expected_seq;
  return result;
}

}  // namespace cactis::txn
