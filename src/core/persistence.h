// Index persistence: save/load the DRAM-resident metadata of a built
// E2LSHoS index so that an index written to a durable device (e.g. a
// FileDevice) can be reopened later without rebuilding.
//
// Only the small metadata is serialized (format v4, magic E2OSIDX4):
// shape (n, dim), the E2LSH parameters, the layout, the non-empty-slot
// bitmap, the pair base addresses and the born-live head map, followed
// by a CRC32C of the whole file — a flipped bitmap bit would silently
// shift every later chain head of its pair. The hash functions and the
// bitmap's rank directory are NOT stored: both are rebuilt at load. The
// bucket data itself lives on the device. Files of earlier formats are
// refused with FailedPrecondition: their images must be rebuilt.
#pragma once

#include <memory>
#include <string>

#include "core/storage_index.h"

namespace e2lshos::core {

/// Serialize the index metadata to `path` (binary, versioned,
/// checksummed).
Status SaveIndexMeta(const StorageIndex& index, const std::string& path);

/// Recreate a StorageIndex from metadata at `path`, serving bucket data
/// from `device` (which must hold the same byte image the index was
/// built into). The referenced dataset must be supplied to the engine at
/// query time exactly as at build time. A corrupt or checksum-mismatched
/// file is InvalidArgument; a v2/v3 file, or one recording an image
/// without block checksums, is FailedPrecondition.
Result<std::unique_ptr<StorageIndex>> LoadIndexMeta(const std::string& path,
                                                    storage::BlockDevice* device);

/// Dump the index's on-device byte image ([0, sizes().storage_bytes) of
/// its device) to a plain file, so an index built on a volatile device
/// (mem:, sim:) survives process exit. File-backed devices don't need
/// this — their backing file IS the image.
Status SaveIndexImage(const StorageIndex& index, const std::string& path);

/// Write the byte image stored at `path` into `device` starting at
/// offset 0. Returns the number of bytes restored. The device must be at
/// least as large as the file.
Result<uint64_t> LoadIndexImage(const std::string& path,
                                storage::BlockDevice* device);

}  // namespace e2lshos::core
