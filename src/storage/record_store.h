// RecordStore: maps instances to disk blocks.
//
// The record store owns the placement directory (instance -> block), the
// first-fit placement of new records, growth-driven relocation, and the
// bulk relocation API used by the clustering reorganizer (paper 2.3).
// All data access goes through the buffer pool so I/O is counted.

#ifndef CACTIS_STORAGE_RECORD_STORE_H_
#define CACTIS_STORAGE_RECORD_STORE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.h"
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
  Status Put(InstanceId id, std::string payload);

  /// Reads the record payload (faults the block in).
  Result<std::string> Get(InstanceId id);

  /// Ensures the block holding `id` is resident, counting I/O if it was
  /// not, without copying the payload out. This is the "instance touch"
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
  size_t record_count() const { return directory_.size(); }
  /// Blocks currently holding at least one record (fill-factor metric).
  size_t block_count() const { return block_population_.size(); }

 private:
  /// Writes `payload` into `block` (must fit), updating the directory.
  Status PutIntoBlock(InstanceId id, std::string payload, BlockId block);

  SimulatedDisk* disk_;
  BufferPool* pool_;
  std::unordered_map<InstanceId, BlockId> directory_;
  std::unordered_map<BlockId, size_t> block_population_;
  BlockId fill_block_;  // invalid until first Put
};

}  // namespace cactis::storage

#endif  // CACTIS_STORAGE_RECORD_STORE_H_
