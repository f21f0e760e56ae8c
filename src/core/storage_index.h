// Handle to a built E2LSHoS index: the on-device layout plus the small
// DRAM-resident metadata — hash functions, the non-empty-slot bitmap
// with its rank directory, one base address per (radius, l) pair, and
// the heads of buckets born after the build.
//
// The DRAM footprint is intentionally tiny relative to the on-storage
// index — this is the paper's Table 6 story. The paper keeps "the hash
// table addresses" in memory and reads each chain head from an
// on-storage table; format v4 computes every head from the bitmap
// instead (layout.h), so no table exists on the device.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "core/epoch.h"
#include "core/layout.h"
#include "data/dataset.h"
#include "lsh/hash_family.h"
#include "lsh/params.h"
#include "storage/block_device.h"

namespace e2lshos::core {

/// \brief Aggregate sizes for Table 6 reporting.
struct IndexSizes {
  uint64_t storage_bytes = 0;      ///< Reserved block + bucket blocks on device.
  uint64_t bucket_bytes = 0;       ///< On-storage bucket blocks alone.
  /// Bitmap, rank directory, pair bases, born-live heads and hash
  /// functions in DRAM.
  uint64_t dram_index_bytes = 0;
  uint64_t total_entries = 0;      ///< Object infos across all buckets.
  uint64_t nonempty_slots = 0;
};

/// \brief Head of a bucket created after the build (a "born-live"
/// bucket): its slot's bitmap bit is clear, so it has no rank address.
struct BornLiveHead {
  uint64_t key = 0;   ///< StorageIndex::BucketKey.
  uint64_t addr = 0;  ///< First block of the chain; never 0.
};

class StorageIndex {
 public:
  StorageIndex() = default;

  const IndexLayout& layout() const { return layout_; }
  const lsh::E2lshParams& params() const { return params_; }
  const lsh::HashFamily& family() const { return family_; }
  storage::BlockDevice* device() const { return device_; }
  uint64_t n() const { return n_; }
  uint32_t dim() const { return dim_; }

  /// True if the (radius, l, slot) bucket was non-empty when the index
  /// was built. The bitmap is frozen after the build: setting a bit would
  /// shift the rank address of every later head of its pair.
  bool SlotNonEmpty(uint32_t radius_idx, uint32_t l, uint32_t slot) const {
    return bitmap_.Test(BitIndex(radius_idx, l, slot));
  }

  /// Address of the first block of the (radius, l, slot) bucket's chain
  /// as built or last saved, or 0 when the bucket is empty — decided in
  /// DRAM, so empty buckets cost no I/O ("it is easy to avoid issuing
  /// I/Os for them", paper Sec. 4.3) and non-empty ones cost no table
  /// read. A built bucket's head sits at its rank address; a bucket born
  /// later is found in the born-live map. Live mutations since the last
  /// save are not reflected: readers consult the epoch overlay first.
  uint64_t ChainHead(uint32_t radius_idx, uint32_t l, uint32_t slot) const {
    const uint64_t pair = static_cast<uint64_t>(radius_idx) * layout_.L + l;
    const uint64_t key = BitIndex(radius_idx, l, slot);
    if (bitmap_.Test(key)) {
      return layout_.HeadAddr(bitmap_, pair_base_[pair], key);
    }
    const auto it = std::lower_bound(
        born_live_->begin(), born_live_->end(), key,
        [](const BornLiveHead& e, uint64_t k) { return e.key < k; });
    return it != born_live_->end() && it->key == key ? it->addr : 0;
  }

  /// Dense key identifying a (radius, l, slot) bucket — also its bit
  /// index in the non-empty-slot bitmap. The live-update overlay
  /// (core/epoch.h) and the born-live map are keyed by it.
  uint64_t BucketKey(uint32_t radius_idx, uint32_t l, uint32_t slot) const {
    return BitIndex(radius_idx, l, slot);
  }

  /// Address of the first head block of each (radius, l) pair, in pair
  /// order (radius-major).
  const std::vector<uint64_t>& pair_bases() const { return pair_base_; }

  /// Heads of buckets born after the build, sorted by key.
  const std::vector<BornLiveHead>& born_live() const { return *born_live_; }

  /// The epoch slot live mutations publish through (see core/epoch.h).
  /// Always present; its state stays null — and every reader stays on
  /// the legacy path — until a LiveUpdater publishes. Shared by
  /// WithDevice views, so sharded engines observe the same epochs as
  /// the primary index.
  const std::shared_ptr<EpochPublisher>& epoch_publisher() const {
    return epoch_publisher_;
  }

  /// True if the object's tombstone was loaded with the meta file or
  /// installed by LiveUpdater::Flush; the query engine skips such
  /// candidates (tombstones live in DRAM only). While a LiveUpdater is
  /// publishing, the live truth is the current epoch's tombstone set.
  bool IsDeleted(uint32_t id) const {
    return !tombstones_.empty() && tombstones_.count(id) > 0;
  }
  uint64_t num_tombstones() const { return tombstones_.size(); }

  IndexSizes sizes() const { return sizes_; }

  /// Re-tune the per-radius candidate cap S = s_factor * L without
  /// rebuilding (the paper's query-time accuracy knob, Sec. 3.3).
  void SetCandidateCapFactor(double s_factor) {
    params_.s_factor = s_factor;
    params_.S = static_cast<uint64_t>(
        std::max(1.0, std::ceil(s_factor * static_cast<double>(params_.L))));
  }

  /// A view of the same index served from a different device holding an
  /// identical byte image (used to benchmark one build across many
  /// device configurations without re-hashing the database).
  std::unique_ptr<StorageIndex> WithDevice(storage::BlockDevice* device) const {
    auto clone = std::make_unique<StorageIndex>(*this);
    clone->device_ = device;
    return clone;
  }

 private:
  friend class IndexBuilder;
  friend class LiveUpdater;
  friend Status SaveIndexMeta(const StorageIndex& index, const std::string& path);
  friend Result<std::unique_ptr<StorageIndex>> LoadIndexMeta(
      const std::string& path, storage::BlockDevice* device);

  uint64_t BitIndex(uint32_t radius_idx, uint32_t l, uint32_t slot) const {
    return (static_cast<uint64_t>(radius_idx) * layout_.L + l) *
               layout_.slots_per_table() +
           slot;
  }

  /// Record the heads of buckets born after the build (distinct keys):
  /// known keys move to the given address, new keys are merged in.
  /// Quiesced writers only.
  void UpdateBornLive(std::vector<BornLiveHead> heads) {
    const auto by_key = [](const BornLiveHead& a, const BornLiveHead& b) {
      return a.key < b.key;
    };
    std::sort(heads.begin(), heads.end(), by_key);
    std::vector<BornLiveHead>& map = *born_live_;
    const size_t known = map.size();
    for (const BornLiveHead& h : heads) {
      const auto it = std::lower_bound(map.begin(), map.begin() + known, h, by_key);
      if (it != map.begin() + known && it->key == h.key) {
        it->addr = h.addr;
      } else {
        map.push_back(h);
      }
    }
    std::inplace_merge(map.begin(), map.begin() + known, map.end(), by_key);
    sizes_.dram_index_bytes = DramIndexBytes();
  }

  /// DRAM held by the index metadata (IndexSizes::dram_index_bytes).
  uint64_t DramIndexBytes() const {
    return bitmap_.MemoryBytes() + pair_base_.size() * sizeof(uint64_t) +
           born_live_->size() * sizeof(BornLiveHead) + family_.MemoryBytes();
  }

  IndexLayout layout_;
  lsh::E2lshParams params_;
  lsh::HashFamily family_;
  storage::BlockDevice* device_ = nullptr;
  uint64_t n_ = 0;
  uint32_t dim_ = 0;
  SlotBitmap bitmap_;
  std::vector<uint64_t> pair_base_;  ///< First head block of each pair.
  /// Sorted by key. Shared by WithDevice clones like epoch_publisher_:
  /// a quiesced save that adds a bucket updates every view.
  std::shared_ptr<std::vector<BornLiveHead>> born_live_ =
      std::make_shared<std::vector<BornLiveHead>>();
  IndexSizes sizes_;
  uint64_t next_block_idx_ = 0;  ///< Bump allocator over the bucket region.
  std::unordered_set<uint32_t> tombstones_;
  /// Shared (not deep-copied) by WithDevice clones — one publication
  /// stream per logical index, whatever device a view reads from.
  std::shared_ptr<EpochPublisher> epoch_publisher_ =
      std::make_shared<EpochPublisher>();
};

}  // namespace e2lshos::core
