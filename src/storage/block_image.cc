#include "storage/block_image.h"

#include <algorithm>
#include <cstring>

#include "storage/checksum.h"

namespace cactis::storage {

namespace {

constexpr size_t kPayloadStart = kChecksumFrameBytes;
constexpr size_t kFirstRecord = kPayloadStart + kBlockHeaderBytes;

// Fixed-width fields in host order, as BinaryWriter writes them.
template <typename T>
T Load(const char* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

template <typename T>
void Store(char* p, T v) {
  std::memcpy(p, &v, sizeof(v));
}

}  // namespace

BlockImage::BlockImage() : buf_(kFirstRecord, '\0') {}

size_t BlockImage::encoded_size() const { return buf_.size() - kPayloadStart; }

std::vector<BlockImage::Slot>::iterator BlockImage::Find(uint64_t id) {
  return std::lower_bound(
      index_.begin(), index_.end(), id,
      [](const Slot& s, uint64_t key) { return s.id < key; });
}

std::vector<BlockImage::Slot>::const_iterator BlockImage::Find(
    uint64_t id) const {
  return std::lower_bound(
      index_.begin(), index_.end(), id,
      [](const Slot& s, uint64_t key) { return s.id < key; });
}

void BlockImage::ShiftFrom(std::vector<Slot>::iterator from, int64_t delta) {
  for (; from != index_.end(); ++from) {
    from->offset = static_cast<uint32_t>(from->offset + delta);
  }
}

void BlockImage::StoreCount() {
  Store(buf_.data() + kPayloadStart, static_cast<uint32_t>(index_.size()));
}

bool BlockImage::Fits(InstanceId id, size_t payload_size,
                      size_t capacity) const {
  size_t used = encoded_size();
  auto it = Find(id.value);
  if (it != index_.end() && it->id == id.value) {
    used -= it->length + kRecordOverheadBytes;
  }
  return used + payload_size + kRecordOverheadBytes <= capacity;
}

void BlockImage::Put(InstanceId id, std::string_view payload) {
  const auto length = static_cast<uint32_t>(payload.size());
  auto it = Find(id.value);
  if (it != index_.end() && it->id == id.value) {
    if (it->length == length) {
      payload.copy(buf_.data() + it->offset, length);
      return;
    }
    const int64_t delta = static_cast<int64_t>(length) - it->length;
    buf_.replace(it->offset, it->length, payload);
    Store(buf_.data() + it->offset - sizeof(uint32_t), length);
    it->length = length;
    ShiftFrom(it + 1, delta);
    return;
  }
  // A new record goes where its id sorts: before the record `it` names.
  const size_t at = it == index_.end()
                        ? buf_.size()
                        : it->offset - kRecordOverheadBytes;
  buf_.insert(at, kRecordOverheadBytes + length, '\0');
  char* p = buf_.data() + at;
  Store(p, id.value);
  Store(p + sizeof(uint64_t), length);
  payload.copy(p + kRecordOverheadBytes, length);
  it = index_.insert(
      it, Slot{id.value, static_cast<uint32_t>(at + kRecordOverheadBytes),
               length});
  ShiftFrom(it + 1, static_cast<int64_t>(kRecordOverheadBytes + length));
  StoreCount();
}

Result<std::string_view> BlockImage::View(InstanceId id) const {
  auto it = Find(id.value);
  if (it == index_.end() || it->id != id.value) {
    return Status::NotFound("no record for instance " +
                            std::to_string(id.value) + " in block");
  }
  return std::string_view(buf_).substr(it->offset, it->length);
}

Status BlockImage::Erase(InstanceId id) {
  auto it = Find(id.value);
  if (it == index_.end() || it->id != id.value) {
    return Status::NotFound("no record for instance " +
                            std::to_string(id.value) + " in block");
  }
  const size_t span = kRecordOverheadBytes + it->length;
  buf_.erase(it->offset - kRecordOverheadBytes, span);
  it = index_.erase(it);
  ShiftFrom(it, -static_cast<int64_t>(span));
  StoreCount();
  return Status::OK();
}

std::string_view BlockImage::Encode() const {
  return std::string_view(buf_).substr(kPayloadStart);
}

Result<BlockImage> BlockImage::Decode(std::string_view payload) {
  std::string framed(kPayloadStart, '\0');
  if (!payload.empty()) framed.append(payload);
  return Adopt(std::move(framed));
}

Result<BlockImage> BlockImage::Adopt(std::string framed) {
  if (framed.size() <= kPayloadStart) {
    if (!framed.empty() && framed.size() < kPayloadStart) {
      return Status::Corruption("block shorter than its checksum frame");
    }
    return BlockImage();  // never written, or an empty payload
  }
  if (framed.size() < kFirstRecord) {
    return Status::Corruption("block payload shorter than its record count");
  }
  const auto count = Load<uint32_t>(framed.data() + kPayloadStart);
  BlockImage image;
  // Every record costs at least its overhead, so a count the payload
  // cannot hold is caught below before it is trusted for the reserve.
  image.index_.reserve(std::min<size_t>(
      count, (framed.size() - kFirstRecord) / kRecordOverheadBytes));
  size_t pos = kFirstRecord;
  for (uint32_t i = 0; i < count; ++i) {
    if (framed.size() - pos < kRecordOverheadBytes) {
      return Status::Corruption(
          "block record count " + std::to_string(count) +
          " runs past the payload at record " + std::to_string(i));
    }
    const auto id = Load<uint64_t>(framed.data() + pos);
    const auto length = Load<uint32_t>(framed.data() + pos + sizeof(id));
    pos += kRecordOverheadBytes;
    if (framed.size() - pos < length) {
      return Status::Corruption("block record for instance " +
                                std::to_string(id) + " is truncated");
    }
    if (!image.index_.empty() && image.index_.back().id >= id) {
      return Status::Corruption("block records out of instance-id order");
    }
    image.index_.push_back(Slot{id, static_cast<uint32_t>(pos), length});
    pos += length;
  }
  if (pos != framed.size()) {
    return Status::Corruption("block has " +
                              std::to_string(framed.size() - pos) +
                              " bytes after its last record");
  }
  image.buf_ = std::move(framed);
  return image;
}

const std::string& BlockImage::Seal() {
  StampChecksum(&buf_);
  return buf_;
}

}  // namespace cactis::storage
