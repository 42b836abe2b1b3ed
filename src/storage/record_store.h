// RecordStore: maps instances to disk blocks.
//
// The record store owns the placement directory (instance -> block), the
// first-fit placement of new records, growth-driven relocation, and the
// bulk relocation API used by the clustering reorganizer (paper 2.3).
// All data access goes through the buffer pool so I/O is counted.

#ifndef CACTIS_STORAGE_RECORD_STORE_H_
#define CACTIS_STORAGE_RECORD_STORE_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
#include "common/relaxed_counter.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/simulated_disk.h"

namespace cactis::storage {

class RecordStore {
 public:
  RecordStore(SimulatedDisk* disk, BufferPool* pool)
      : disk_(disk), pool_(pool) {}

  /// Inserts or updates the record for `id`. New records go to the current
  /// fill block (first fit); an update that no longer fits its block moves
  /// the record. Payloads larger than a block are rejected.
  Status Put(InstanceId id, std::string_view payload);

  /// The record's bytes as a view into its resident block image (faults
  /// the block in). The view is valid until the next record-store or
  /// buffer-pool operation, which may evict the block or move the bytes.
  Result<std::string_view> View(InstanceId id);

  /// Ensures the block holding `id` is resident, counting I/O if it was
  /// not, without looking at the payload. This is the "instance touch"
  /// used by the evaluation engine for in-memory cache hits.
  Status Touch(InstanceId id);

  /// Removes the record; frees the block when it becomes empty.
  Status Delete(InstanceId id);

  bool Contains(InstanceId id) const { return directory_.contains(id); }

  /// Placement lookup without I/O.
  Result<BlockId> BlockOf(InstanceId id) const;

  /// Whether the block holding `id` is currently in the buffer pool.
  bool IsInstanceResident(InstanceId id) const;

  /// Bulk relocation: `placement` assigns every existing instance to an
  /// index; instances sharing an index are packed into the same fresh
  /// chain of blocks (a new block is started when one fills). All
  /// previously used blocks are freed. Used by Database::Reorganize with
  /// a cluster::Policy placement, whose indices each fit one block.
  Status ApplyPlacement(
      const std::vector<std::pair<InstanceId, int>>& placement);

  std::vector<InstanceId> AllInstances() const;
  /// Readable from any thread (the database.instances metric).
  size_t record_count() const { return record_count_; }
  /// Blocks currently holding at least one record (fill-factor metric).
  size_t block_count() const { return block_population_.size(); }

 private:
  /// Writes `payload` into `block` (must fit), updating the directory.
  Status PutIntoBlock(InstanceId id, std::string_view payload,
                      BlockId block);

  SimulatedDisk* disk_;
  BufferPool* pool_;
  std::unordered_map<InstanceId, BlockId> directory_;
  RelaxedCounter record_count_ = 0;  // directory_.size()
  std::unordered_map<BlockId, size_t> block_population_;
  BlockId fill_block_;  // invalid until first Put
};

}  // namespace cactis::storage

#endif  // CACTIS_STORAGE_RECORD_STORE_H_
