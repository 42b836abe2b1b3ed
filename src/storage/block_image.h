// BlockImage: the decoded, in-memory form of one disk block.
//
// On disk a block is a flat byte string (see codec in block_image.cc); in
// the buffer pool it is a BlockImage: a small dictionary from instance id
// to that instance's serialized record. Space accounting uses the encoded
// size so a BlockImage never encodes to more than the disk block size.

#ifndef CACTIS_STORAGE_BLOCK_IMAGE_H_
#define CACTIS_STORAGE_BLOCK_IMAGE_H_

#include <map>
#include <string>
#include <string_view>

#include "common/ids.h"
#include "common/result.h"
#include "common/status.h"

namespace cactis::storage {

/// Per-record space overhead in the encoded block: 8-byte instance id plus
/// a 4-byte length prefix.
inline constexpr size_t kRecordOverheadBytes = 12;
/// Per-block header: 4-byte record count.
inline constexpr size_t kBlockHeaderBytes = 4;

class BlockImage {
 public:
  /// Bytes the encoded form of this image occupies.
  size_t encoded_size() const { return kBlockHeaderBytes + bytes_used_; }

  /// Whether a payload of `payload_size` bytes (replacing any existing
  /// record for `id`) would fit within `capacity` bytes.
  bool Fits(InstanceId id, size_t payload_size, size_t capacity) const;

  /// Inserts or replaces the record for `id`.
  void Put(InstanceId id, std::string payload);

  /// Returns the record payload, or NotFound.
  Result<std::string> Get(InstanceId id) const;

  bool Contains(InstanceId id) const { return records_.contains(id); }

  /// Removes the record; NotFound if absent.
  Status Erase(InstanceId id);

  size_t record_count() const { return records_.size(); }
  const std::map<InstanceId, std::string>& records() const { return records_; }

  /// Flat byte encoding / decoding.
  std::string Encode() const;
  static Result<BlockImage> Decode(std::string_view bytes);

 private:
  std::map<InstanceId, std::string> records_;
  size_t bytes_used_ = 0;  // sum of payload sizes + per-record overhead
};

}  // namespace cactis::storage

#endif  // CACTIS_STORAGE_BLOCK_IMAGE_H_
