#include "storage/checksum.h"

#include <array>

namespace cactis::storage {

namespace {

// Slice-by-8 CRC-32 (reflected 0xEDB88320). Table 0 is the classic
// bytewise table; table k carries a byte's contribution past k further
// zero bytes, so eight input bytes fold into the CRC with eight lookups.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

const CrcTables& Tables() {
  static const CrcTables tables = MakeCrcTables();
  return tables;
}

// Little-endian load assembled byte by byte, so the result does not
// depend on host byte order; compilers fold it into one load.
uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t crc) {
  const CrcTables& t = Tables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t c = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return ~c;
}

std::string WrapWithChecksum(std::string_view payload) {
  uint32_t crc = Crc32(payload);
  std::string out;
  out.reserve(kChecksumFrameBytes + payload.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((crc >> (8 * i)) & 0xFFu));
  }
  out.append(payload);
  return out;
}

Result<std::string_view> UnwrapChecksum(std::string_view framed) {
  if (framed.empty()) return framed;  // never-written block
  if (framed.size() < kChecksumFrameBytes) {
    return Status::Corruption("block shorter than its checksum frame (" +
                              std::to_string(framed.size()) + " bytes)");
  }
  const uint32_t stored =
      LoadLe32(reinterpret_cast<const unsigned char*>(framed.data()));
  std::string_view payload = framed.substr(kChecksumFrameBytes);
  uint32_t actual = Crc32(payload);
  if (stored != actual) {
    return Status::Corruption("block checksum mismatch: stored " +
                              std::to_string(stored) + ", computed " +
                              std::to_string(actual));
  }
  return payload;
}

}  // namespace cactis::storage
