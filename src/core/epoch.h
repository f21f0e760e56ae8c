// Epoch publication for live index mutation (RCU-flavored, reader-side
// wait-free after a single mutex-guarded pointer load).
//
// Writers (core::LiveUpdater) stage bucket-block mutations into
// copy-on-write device blocks plus DRAM-side overlay state, then
// atomically publish an immutable EpochState snapshot. Readers
// (core::QueryEngine) acquire the current snapshot once per query, when
// an engine context admits it, and consult only it until the query
// finishes — so every query admitted after a mutation returned sees it:
//
//   * `overlay` redirects a bucket's chain head away from the head the
//     StorageIndex computes (its rank address or born-live entry; saved
//     head blocks are only rewritten at a quiesced LiveUpdater::Flush);
//   * `tombstones` and `n` replace the StorageIndex's own copies, which
//     stay frozen at their built/loaded values until a quiesced
//     LiveUpdater::Flush;
//   * `row_chunks` resolves coordinates of ids inserted after the base
//     dataset was frozen (ids >= base_rows).
//
// The publisher hands out shared_ptr<const EpochState> under a mutex:
// the lock is held only for the pointer copy, readers never block on a
// writer's staging work, and the acquire/release pair gives every
// published device write a happens-before edge to any reader that can
// observe its address — which is what makes the scheme TSan-clean on
// DRAM-backed devices.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace e2lshos::core {

/// \brief An immutable snapshot of every piece of mutable index state a
/// query needs. Published whole; never modified after publication.
struct EpochState {
  /// Publication sequence number (first published epoch is 1).
  uint64_t seq = 0;
  /// Effective object count: ids in [0, n) are addressable.
  uint64_t n = 0;
  /// Ids >= base_rows resolve through row_chunks; below it, through the
  /// base dataset the index was built on.
  uint64_t base_rows = 0;
  uint32_t dim = 0;
  uint32_t rows_per_chunk = 0;
  /// Stable per-chunk row storage for inserted coordinates (chunk i
  /// holds rows [i*rows_per_chunk, ...)). The chunks themselves are
  /// owned by the LiveUpdater and never reallocated; this vector is a
  /// snapshot of the chunk pointers taken at publication.
  std::shared_ptr<const std::vector<const float*>> row_chunks;
  /// Complete tombstone set as of this epoch (not a delta).
  std::shared_ptr<const std::unordered_set<uint32_t>> tombstones;
  /// StorageIndex::BucketKey -> current chain-head block address, for
  /// every bucket whose chain changed since the index was built/loaded.
  /// Values are never 0. A hit here replaces StorageIndex::ChainHead.
  std::shared_ptr<const std::unordered_map<uint64_t, uint64_t>> overlay;

  bool IsDeleted(uint32_t id) const {
    return tombstones != nullptr && !tombstones->empty() &&
           tombstones->count(id) > 0;
  }

  /// Coordinates of an inserted row; only valid for base_rows <= id < n.
  const float* RowPtr(uint64_t id) const {
    const uint64_t local = id - base_rows;
    return (*row_chunks)[local / rows_per_chunk] +
           (local % rows_per_chunk) * dim;
  }
};

/// \brief The single shared slot through which epochs flow from the one
/// writer to any number of readers. Owned by the StorageIndex and shared
/// by every WithDevice view of it, so sharded engines see the same
/// publications as the primary.
class EpochPublisher {
 public:
  /// nullptr until the first publication — readers then take the legacy
  /// path (index-resident tombstones/n, no overlay), byte for byte.
  std::shared_ptr<const EpochState> Acquire() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
  }

  void Publish(std::shared_ptr<const EpochState> state) {
    std::lock_guard<std::mutex> lock(mu_);
    state_ = std::move(state);
  }

  /// Sequence of the current epoch (0 before the first publication).
  uint64_t seq() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_ == nullptr ? 0 : state_->seq;
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const EpochState> state_;
};

}  // namespace e2lshos::core
