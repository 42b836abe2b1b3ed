#include "storage/block_image.h"

#include "common/serial.h"

namespace cactis::storage {

bool BlockImage::Fits(InstanceId id, size_t payload_size,
                      size_t capacity) const {
  size_t used = bytes_used_;
  auto it = records_.find(id);
  if (it != records_.end()) {
    used -= it->second.size() + kRecordOverheadBytes;
  }
  return kBlockHeaderBytes + used + payload_size + kRecordOverheadBytes <=
         capacity;
}

void BlockImage::Put(InstanceId id, std::string payload) {
  auto it = records_.find(id);
  if (it != records_.end()) {
    bytes_used_ -= it->second.size() + kRecordOverheadBytes;
    it->second = std::move(payload);
    bytes_used_ += it->second.size() + kRecordOverheadBytes;
    return;
  }
  bytes_used_ += payload.size() + kRecordOverheadBytes;
  records_.emplace(id, std::move(payload));
}

Result<std::string> BlockImage::Get(InstanceId id) const {
  auto it = records_.find(id);
  if (it == records_.end()) {
    return Status::NotFound("no record for instance " +
                            std::to_string(id.value) + " in block");
  }
  return it->second;
}

Status BlockImage::Erase(InstanceId id) {
  auto it = records_.find(id);
  if (it == records_.end()) {
    return Status::NotFound("no record for instance " +
                            std::to_string(id.value) + " in block");
  }
  bytes_used_ -= it->second.size() + kRecordOverheadBytes;
  records_.erase(it);
  return Status::OK();
}

std::string BlockImage::Encode() const {
  BinaryWriter w;
  w.PutU32(static_cast<uint32_t>(records_.size()));
  for (const auto& [id, payload] : records_) {
    w.PutU64(id.value);
    w.PutString(payload);
  }
  return w.Take();
}

Result<BlockImage> BlockImage::Decode(std::string_view bytes) {
  BlockImage image;
  if (bytes.empty()) return image;  // freshly allocated block
  BinaryReader r(bytes);
  CACTIS_ASSIGN_OR_RETURN(uint32_t n, r.GetU32());
  for (uint32_t i = 0; i < n; ++i) {
    CACTIS_ASSIGN_OR_RETURN(uint64_t id, r.GetU64());
    CACTIS_ASSIGN_OR_RETURN(std::string payload, r.GetString());
    image.Put(InstanceId(id), std::move(payload));
  }
  return image;
}

}  // namespace cactis::storage
