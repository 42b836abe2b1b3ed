// BlockImage: one resident disk block, kept as its own on-disk bytes.
//
// The image is the block's framed byte string: the kChecksumFrameBytes
// checksum frame (see checksum.h), then the payload
//
//   u32 record count | { u64 instance id | u32 length | length bytes }*
//
// with records in ascending instance-id order and no gaps between them
// (fixed-width fields little-endian, as BinaryWriter writes them). A sorted
// (id, offset, length) index over the payload is built once, when the
// block is faulted in, so a lookup is a binary search and a read is a view
// into the buffer — no record is copied out or allocated on its own.
//
// A write of the same size copies over the old bytes in place. A write that
// changes a record's size, adds or erases one, splices the buffer and
// shifts the offsets of the records behind it, so the bytes are always
// exactly the block's encoding. Write-back stamps the checksum into the
// frame and hands the buffer to the disk as it stands: nothing is
// re-encoded. Space accounting uses the payload size, so an image never
// encodes to more than the usable block size.

#ifndef CACTIS_STORAGE_BLOCK_IMAGE_H_
#define CACTIS_STORAGE_BLOCK_IMAGE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

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
  /// An image with no records.
  BlockImage();

  /// Bytes the payload (header and records, without the checksum frame)
  /// occupies.
  size_t encoded_size() const;

  /// Whether a payload of `payload_size` bytes (replacing any existing
  /// record for `id`) would fit within `capacity` bytes.
  bool Fits(InstanceId id, size_t payload_size, size_t capacity) const;

  /// Inserts or replaces the record for `id`. `payload` must not point into
  /// this image.
  void Put(InstanceId id, std::string_view payload);

  /// The record's bytes, as a view into the image, or NotFound. The view
  /// stays valid across a same-size Put to any record (the bytes are
  /// overwritten in place, nothing moves) and until the image is
  /// destroyed; a Put that resizes, adds or erases a record may move the
  /// bytes of every record behind it, so re-View after one.
  Result<std::string_view> View(InstanceId id) const;

  /// Removes the record; NotFound if absent.
  Status Erase(InstanceId id);

  size_t record_count() const { return index_.size(); }

  /// The payload encoding (a view into the image).
  std::string_view Encode() const;

  /// Decodes a payload as Encode() produces it (copied into a new image).
  /// An empty payload is a never-written block: an image with no records.
  /// kCorruption when the record count runs past the payload, a record is
  /// truncated, ids are not strictly ascending, or bytes trail the last
  /// record.
  static Result<BlockImage> Decode(std::string_view payload);

  /// Like Decode, but adopts a whole block as read from disk — checksum
  /// frame included, already verified by the caller — as the image's own
  /// buffer. An empty block is a never-written one.
  static Result<BlockImage> Adopt(std::string framed);

  /// Stamps the payload's checksum into the frame and returns the framed
  /// bytes, ready to be written to the disk.
  const std::string& Seal();

 private:
  struct Slot {
    uint64_t id;
    uint32_t offset;  // of the record's bytes within buf_
    uint32_t length;
  };

  std::vector<Slot>::iterator Find(uint64_t id);
  std::vector<Slot>::const_iterator Find(uint64_t id) const;
  /// Moves the offsets of every slot from `from` on by `delta` bytes.
  void ShiftFrom(std::vector<Slot>::iterator from, int64_t delta);
  void StoreCount();

  std::string buf_;           // checksum frame + payload
  std::vector<Slot> index_;   // ascending id
};

}  // namespace cactis::storage

#endif  // CACTIS_STORAGE_BLOCK_IMAGE_H_
