// Block checksums: every block image written through the buffer pool (and
// every WAL block) is framed with a CRC32 of its payload, so torn writes
// and bit rot are detected on read instead of being decoded as garbage.
//
// The frame is 4 bytes: the little-endian CRC32 of the payload, followed
// by the payload itself. An *empty* block (freshly allocated, never
// written) has no frame; readers treat empty content as an empty payload.

#ifndef CACTIS_STORAGE_CHECKSUM_H_
#define CACTIS_STORAGE_CHECKSUM_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace cactis::storage {

/// Bytes of checksum framing prepended to each block payload. Capacity
/// checks against a block must reserve this much.
inline constexpr size_t kChecksumFrameBytes = 4;

/// CRC-32 (IEEE 802.3 polynomial, reflected), the classic zlib checksum,
/// computed eight bytes at a time. Extendable like zlib's `crc32`: pass the
/// CRC of a prefix as `crc` to continue over the bytes that follow it, so
/// `Crc32(b, Crc32(a)) == Crc32(a + b)`.
uint32_t Crc32(std::string_view data, uint32_t crc = 0);

/// Prepends the CRC32 frame to `payload`.
std::string WrapWithChecksum(std::string_view payload);

/// Fills the frame of a buffer laid out as WrapWithChecksum's output: writes
/// the CRC32 of everything after the first kChecksumFrameBytes into them.
/// `framed` must be at least kChecksumFrameBytes long. This is how a block
/// that already carries room for its frame is sealed without a copy.
void StampChecksum(std::string* framed);

/// Verifies the frame in place and returns the payload as a view into
/// `framed`, which must outlive it. Empty content decodes to an empty
/// payload (a never-written block). A frame shorter than the checksum, or
/// whose checksum does not match its payload, yields kCorruption.
Result<std::string_view> UnwrapChecksum(std::string_view framed);

}  // namespace cactis::storage

#endif  // CACTIS_STORAGE_CHECKSUM_H_
