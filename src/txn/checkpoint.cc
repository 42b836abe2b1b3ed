#include "txn/checkpoint.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "common/error_taxonomy.h"
#include "common/serial.h"
#include "storage/checksum.h"
#include "txn/wal.h"

namespace cactis::txn {
namespace {

constexpr uint64_t kImageMagic = 0x434B50494D414745ULL;  // "CKPIMAGE"

// Fixed bytes of a chain block header: chain magic (4) + next block (8) +
// piece length prefix (4).
constexpr size_t kChainHeaderBytes = 16;

struct SlotContent {
  uint64_t generation = 0;
  BlockId chain_head;
  uint64_t resume_seq = 1;
  BlockId resume_block;
};

/// Parses a slot block; nullopt when the slot is empty, torn, or carries
/// no checkpoint (a fresh platter, or a platter from before checkpointing
/// existed).
std::optional<SlotContent> ParseSlot(const storage::SimulatedDisk& platter,
                                     BlockId slot) {
  Result<std::string> raw = platter.PeekRaw(slot);
  if (!raw.ok() || raw->empty()) return std::nullopt;
  Result<std::string_view> payload = storage::UnwrapChecksum(*raw);
  if (!payload.ok() || payload->empty()) return std::nullopt;
  BinaryReader r(*payload);
  Result<uint64_t> magic = r.GetU64();
  if (!magic.ok() || *magic != CheckpointStore::kSlotMagic) return std::nullopt;
  SlotContent content;
  Result<uint64_t> generation = r.GetU64();
  Result<uint64_t> head = r.GetU64();
  Result<uint64_t> seq = r.GetU64();
  Result<uint64_t> resume = r.GetU64();
  if (!generation.ok() || !head.ok() || !seq.ok() || !resume.ok() ||
      !r.AtEnd()) {
    return std::nullopt;
  }
  content.generation = *generation;
  content.chain_head = BlockId(*head);
  content.resume_seq = *seq;
  content.resume_block = BlockId(*resume);
  return content;
}

/// Walks an image chain, validating every block. Returns the reassembled
/// image and the blocks visited, or an error if the chain is damaged
/// (which LoadLatest treats as "this slot is unusable" and WriteCheckpoint
/// treats as "nothing left to free").
Result<std::pair<std::string, std::vector<BlockId>>> WalkChain(
    const storage::SimulatedDisk& platter, BlockId head) {
  std::string image;
  std::vector<BlockId> blocks;
  std::unordered_set<uint64_t> visited;
  BlockId cursor = head;
  while (cursor.valid()) {
    if (!visited.insert(cursor.value).second) {
      return Status::Corruption("checkpoint chain loops");
    }
    Result<std::string> raw = platter.PeekRaw(cursor);
    if (!raw.ok() || raw->empty()) {
      return Status::Corruption("checkpoint chain block missing");
    }
    Result<std::string_view> payload = storage::UnwrapChecksum(*raw);
    if (!payload.ok() || payload->empty()) {
      return Status::Corruption("checkpoint chain block damaged");
    }
    BinaryReader r(*payload);
    Result<uint32_t> magic = r.GetU32();
    Result<uint64_t> next = r.GetU64();
    Result<std::string> piece = r.GetString();
    if (!magic.ok() || *magic != CheckpointStore::kChainMagic || !next.ok() ||
        !piece.ok() || !r.AtEnd()) {
      return Status::Corruption("checkpoint chain block malformed");
    }
    blocks.push_back(cursor);
    image += *piece;
    cursor = BlockId(*next);
  }
  return std::make_pair(std::move(image), std::move(blocks));
}

}  // namespace

std::string EncodeCheckpointImage(const CheckpointImage& image) {
  BinaryWriter w;
  w.PutU64(kImageMagic);
  w.PutU64(image.next_instance);
  w.PutU64(image.next_edge);
  w.PutU64(image.next_txn);
  EncodeDelta(image.bootstrap, &w);
  w.PutU32(static_cast<uint32_t>(image.history.size()));
  for (const TransactionDelta& delta : image.history) EncodeDelta(delta, &w);
  w.PutU64(image.history_base);
  w.PutU64(image.position);
  w.PutU32(static_cast<uint32_t>(image.versions.size()));
  for (const auto& [name, pos] : image.versions) {
    w.PutString(name);
    w.PutU64(pos);
  }
  w.PutU64(image.next_version);
  return w.Take();
}

Result<CheckpointImage> DecodeCheckpointImage(std::string_view bytes) {
  BinaryReader r(bytes);
  CheckpointImage image;
  CACTIS_ASSIGN_OR_RETURN(uint64_t magic, r.GetU64());
  if (magic != kImageMagic) {
    return Status::Corruption("checkpoint image has wrong magic");
  }
  CACTIS_ASSIGN_OR_RETURN(image.next_instance, r.GetU64());
  CACTIS_ASSIGN_OR_RETURN(image.next_edge, r.GetU64());
  CACTIS_ASSIGN_OR_RETURN(image.next_txn, r.GetU64());
  CACTIS_ASSIGN_OR_RETURN(image.bootstrap, DecodeDelta(&r));
  CACTIS_ASSIGN_OR_RETURN(uint32_t history_count, r.GetU32());
  image.history.reserve(history_count);
  for (uint32_t i = 0; i < history_count; ++i) {
    CACTIS_ASSIGN_OR_RETURN(TransactionDelta delta, DecodeDelta(&r));
    image.history.push_back(std::move(delta));
  }
  CACTIS_ASSIGN_OR_RETURN(image.history_base, r.GetU64());
  CACTIS_ASSIGN_OR_RETURN(image.position, r.GetU64());
  CACTIS_ASSIGN_OR_RETURN(uint32_t version_count, r.GetU32());
  for (uint32_t i = 0; i < version_count; ++i) {
    CACTIS_ASSIGN_OR_RETURN(std::string name, r.GetString());
    CACTIS_ASSIGN_OR_RETURN(uint64_t pos, r.GetU64());
    image.versions.emplace(std::move(name), pos);
  }
  CACTIS_ASSIGN_OR_RETURN(image.next_version, r.GetU64());
  if (!r.AtEnd()) {
    return Status::Corruption("checkpoint image has trailing bytes");
  }
  return image;
}

Status CheckpointStore::AllocateSlots() {
  for (int i = 0; i < 2; ++i) {
    slots_[i] = disk_->Allocate();
    if (!slots_[i].valid()) {
      return Status::IoError("disk crashed before checkpoint slots existed");
    }
  }
  if (slots_[0].value != kSlotA || slots_[1].value != kSlotB) {
    return Status::Internal(
        "checkpoint slots must be blocks " + std::to_string(kSlotA) + "/" +
        std::to_string(kSlotB) + ", got " + std::to_string(slots_[0].value) +
        "/" + std::to_string(slots_[1].value));
  }
  return Status::OK();
}

Status CheckpointStore::WriteWithRetry(BlockId id, const std::string& framed) {
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

Status CheckpointStore::WriteCheckpoint(const std::string& image,
                                        uint64_t wal_resume_seq,
                                        BlockId wal_resume_block) {
  if (!slots_[0].valid() || !slots_[1].valid()) {
    return Status::Internal("checkpoint store used before AllocateSlots()");
  }
  size_t overhead = storage::kChecksumFrameBytes + kChainHeaderBytes;
  if (disk_->block_size() <= overhead) {
    return Status::InvalidArgument(
        "disk block size too small for a checkpoint chain block");
  }
  size_t cap = disk_->block_size() - overhead;

  // Pick the inactive slot: the one whose generation is lower (or which
  // holds no valid checkpoint at all). The active slot and its chain stay
  // untouched until the new checkpoint has fully committed.
  std::optional<SlotContent> a = ParseSlot(*disk_, slots_[0]);
  std::optional<SlotContent> b = ParseSlot(*disk_, slots_[1]);
  uint64_t new_generation = 1;
  if (a.has_value()) new_generation = std::max(new_generation, a->generation + 1);
  if (b.has_value()) new_generation = std::max(new_generation, b->generation + 1);
  int target;
  if (!a.has_value()) {
    target = 0;
  } else if (!b.has_value()) {
    target = 1;
  } else {
    target = a->generation <= b->generation ? 0 : 1;
  }
  const std::optional<SlotContent>& old = target == 0 ? a : b;

  // Recycle the superseded (grandparent) chain the target slot still
  // references. If that chain is already damaged — e.g. a crash landed
  // between chain-free and slot-seal last time — there is nothing to free.
  if (old.has_value() && old->chain_head.valid()) {
    auto walked = WalkChain(*disk_, old->chain_head);
    if (walked.ok()) {
      for (BlockId blk : walked->second) {
        CACTIS_RETURN_IF_ERROR(disk_->Free(blk));
      }
    }
  }

  // Write the new image chain to fresh blocks, last piece first so every
  // block names its successor at write time.
  size_t chunk_count = image.empty() ? 1 : (image.size() + cap - 1) / cap;
  std::vector<BlockId> chain;
  chain.reserve(chunk_count);
  for (size_t i = 0; i < chunk_count; ++i) {
    BlockId blk = disk_->Allocate();
    if (!blk.valid()) {
      return Status::IoError("disk crashed during checkpoint");
    }
    chain.push_back(blk);
  }
  for (size_t i = 0; i < chunk_count; ++i) {
    size_t offset = i * cap;
    size_t piece_len =
        image.size() > offset ? std::min(cap, image.size() - offset) : 0;
    BinaryWriter w;
    w.PutU32(kChainMagic);
    w.PutU64(i + 1 < chunk_count ? chain[i + 1].value : 0);
    w.PutString(std::string_view(image).substr(offset, piece_len));
    CACTIS_RETURN_IF_ERROR(
        WriteWithRetry(chain[i], storage::WrapWithChecksum(w.data())));
    ++stats_.chain_blocks_written;
  }

  // The atomic commit point: one write that flips the inactive slot to the
  // highest generation. A crash before this write leaves the old
  // checkpoint authoritative; after it, the new one.
  BinaryWriter w;
  w.PutU64(kSlotMagic);
  w.PutU64(new_generation);
  w.PutU64(chain.front().value);
  w.PutU64(wal_resume_seq);
  w.PutU64(wal_resume_block.value);
  CACTIS_RETURN_IF_ERROR(
      WriteWithRetry(slots_[target], storage::WrapWithChecksum(w.data())));
  ++stats_.checkpoints_written;
  stats_.image_bytes = image.size();
  return Status::OK();
}

Result<CheckpointStore::Loaded> CheckpointStore::LoadLatest(
    const storage::SimulatedDisk& platter) {
  std::optional<SlotContent> candidates[2] = {
      ParseSlot(platter, BlockId(kSlotA)), ParseSlot(platter, BlockId(kSlotB))};
  // Newest generation first; fall back to the other slot if its chain or
  // image fails validation anywhere.
  if (candidates[0].has_value() && candidates[1].has_value() &&
      candidates[1]->generation > candidates[0]->generation) {
    std::swap(candidates[0], candidates[1]);
  } else if (!candidates[0].has_value()) {
    std::swap(candidates[0], candidates[1]);
  }
  for (const std::optional<SlotContent>& slot : candidates) {
    if (!slot.has_value()) continue;
    auto walked = WalkChain(platter, slot->chain_head);
    if (!walked.ok()) continue;
    if (!DecodeCheckpointImage(walked->first).ok()) continue;
    Loaded loaded;
    loaded.image = std::move(walked->first);
    loaded.generation = slot->generation;
    loaded.wal_resume_seq = slot->resume_seq;
    loaded.wal_resume_block = slot->resume_block;
    return loaded;
  }
  return Status::NotFound("platter carries no valid checkpoint");
}

}  // namespace cactis::txn
