// Device-advertised direct-I/O alignment probing.
//
// Direct I/O on a 512e drive accepts 512-byte-aligned extents; a 4Kn
// drive (4096-byte logical blocks) rejects anything under 4 KiB. The
// real constraint is only known to the kernel, so the file devices probe
// it at open instead of hard-coding kSectorBytes:
//
//   1. statx(STATX_DIOALIGN) — the authoritative answer on kernels
//      >= 6.1 for both the offset/length granularity and the buffer
//      address alignment;
//   2. BLKSSZGET             — logical sector size, when the fd is a
//      raw block device;
//   3. 512                   — the paper's NVMe minimum, otherwise.
//
// The result feeds BlockDevice::io_alignment(): the query engine widens
// and aligns its bucket-block reads to it, and the live updater stages
// its writes through read-modify-write windows of that size.
#pragma once

#include <cstdint>

namespace e2lshos::storage {

/// \brief What the kernel advertises for direct I/O on one open file.
struct DioAlignment {
  uint32_t offset_align = 0;  ///< Required offset/length granularity.
  uint32_t mem_align = 0;     ///< Required buffer address alignment.
  bool probed = false;        ///< True when the kernel reported values.
};

/// Probe the direct-I/O alignment for `fd` (statx STATX_DIOALIGN, then
/// BLKSSZGET for block devices). `probed` is false when neither source
/// answered and the fields are 0.
DioAlignment ProbeDioAlignment(int fd);

/// Collapse a probe into the single figure BlockDevice::io_alignment()
/// reports: the larger of the two constraints, never below the 512-byte
/// sector the index layout assumes.
uint32_t EffectiveDioAlignment(const DioAlignment& alignment);

}  // namespace e2lshos::storage
