// E2LSHoS index construction (paper Sec. 5.3).
//
// The ladder is first fitted to the data (lsh::FitLadderBottom): low
// rungs in which rows do not collide are not built. Then, for each
// radius R of the fitted ladder and each compound hash l in [0, L):
// hash every database object, group objects by the u-bit table index of
// their 32-bit compound value, and write each group as a linked chain of
// 512-byte bucket blocks — every chain's head block at its rank address
// in the pair's head region, its overflow blocks after that region
// (format v4, layout.h). The paper's on-storage table of chain-head
// addresses is not written: the non-empty-slot bitmap locates every head.
#pragma once

#include <memory>

#include "core/storage_index.h"

namespace e2lshos::core {

struct BuildOptions {
  uint32_t block_bytes = kDefaultBlockBytes;
  /// Table index bits; 0 = choose from n (log2(n) - 1, the paper's
  /// "slightly smaller than log2 n").
  uint32_t table_bits = 0;
};

class IndexBuilder {
 public:
  /// Build an index for `base` on `device`. The device must be large
  /// enough for the bucket chains; the builder fails with
  /// OutOfRange otherwise. The returned index borrows `device` (caller
  /// keeps ownership) and `base` must outlive query execution. The index
  /// serves `params` with the ladder fitted to `base`: read the rungs it
  /// built from its params(), not from `params`.
  static Result<std::unique_ptr<StorageIndex>> Build(
      const data::Dataset& base, const lsh::E2lshParams& params,
      storage::BlockDevice* device, const BuildOptions& options = {});
};

}  // namespace e2lshos::core
