// CRC32C (Castagnoli) — the checksum used for on-device block integrity.
//
// The polynomial (0x1EDC6F41, reflected 0x82F63B78) matches
// iSCSI/ext4/LevelDB. Two kernels compute it: the SSE4.2 crc32
// instruction where the CPU has one, a table-driven slice-by-4 loop
// everywhere else. Both produce the same bits, so an image stamped on one
// host verifies on any other.
#pragma once

#include <cstddef>
#include <cstdint>

namespace e2lshos::util {

/// \brief The implementations of Crc32cExtend.
enum class Crc32cKernel { kTable, kSse42 };

/// Whether this CPU can run `kernel` (kTable always can).
bool Crc32cKernelSupported(Crc32cKernel kernel);

/// The kernel Crc32cExtend runs in this process, picked once.
Crc32cKernel ActiveCrc32cKernel();

/// "table" or "sse4.2".
const char* Crc32cKernelName(Crc32cKernel kernel);

/// Crc32cExtend on a given kernel (tests compare kernels); `kernel` must
/// be supported.
uint32_t Crc32cExtend(Crc32cKernel kernel, uint32_t crc, const void* data,
                      size_t len);

/// Extend a running CRC32C over `len` bytes. Start (and finish) with
/// the one-shot Crc32c() unless incrementally checksumming a stream;
/// `crc` here is the *internal* (pre-finalization) state, i.e.
/// Crc32cExtend(Crc32cExtend(0xFFFFFFFF, a), b) finalized equals
/// Crc32c over a||b.
inline uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t len) {
  return Crc32cExtend(ActiveCrc32cKernel(), crc, data, len);
}

/// One-shot CRC32C of a buffer (standard init 0xFFFFFFFF, final xor).
inline uint32_t Crc32c(const void* data, size_t len) {
  return Crc32cExtend(0xFFFFFFFFu, data, len) ^ 0xFFFFFFFFu;
}

}  // namespace e2lshos::util
