// core::LiveUpdater — the one index updater (paper Sec. 7: insertion
// and deletion as cheap maintenance of a storage-resident index).
//
// Mutations run concurrently with serving through epoch publication
// (core/epoch.h): every mutation is staged so that *nothing a reader can
// currently observe changes* until an atomic publish makes the whole
// mutation visible at once. Offline maintenance is the same path:
// Insert/Remove/Restore, then Flush() (which Index::Save runs) and
// SaveIndexMeta.
//
// The staging discipline, writer side:
//
//   * The StorageIndex itself is frozen. n, tombstones, the non-empty
//     bitmap, the born-live map and every saved chain-head block keep
//     their built/loaded values while serving — a plain QueryEngine reads
//     the primary StorageIndex directly, and every shard view shares its
//     born-live map, so any in-place field mutation would race. All live
//     state (effective n, the tombstone set, the chain-head overlay,
//     inserted coordinates) lives here and reaches readers only inside
//     published EpochStates.
//
//   * Device blocks are copy-on-write against the published boundary.
//     Blocks allocated since the last publish are writer-private and may
//     be rewritten freely; a published head block is never rewritten —
//     appending to one either copies it to a fresh private block (the
//     old block leaks until a rebuild; inserts are expected to be rare
//     relative to reads) or, when full, prepends a fresh block whose
//     `next` points at it — or at a fresh copy of it when the full head
//     sits at its bucket's rank address, so no chain ever links to a
//     rank address and Flush() may overwrite one. At each publish the
//     private allocation boundary is rounded up to the device's
//     read-modify-write window so no staged write can ever touch a
//     published byte — readers can observe torn data only through a
//     window overlap, and there is none.
//
//   * Redirected chain heads travel in the epoch's overlay map. Flush(),
//     which requires quiescence (no queries in flight) — Index::Save
//     provides it — folds them back: a built bucket's overlay head is
//     copied to its rank address, and a bucket born live is recorded in
//     the index's born-live map. Sizes, tombstones and n are synced at
//     the same time.
//
//   * Staging reads run at device queue depth: a row hashes its radii x L
//     pairs once, finds every head in DRAM (overlay, rank address or
//     born-live map), reads every head block in one burst on the
//     updater's private queue, and writes the blocks it allocates
//     without reading them. Flush() stages its reads in a burst the same
//     way. Every staged head's CRC is verified before the row uses it: a
//     corrupt head fails the row with IoError and nothing is written, so
//     a flipped byte is never re-stamped as valid.
//
// Thread safety: any number of mutator threads may call
// Insert/Remove/Restore concurrently (an internal mutex serializes
// them); readers never take that mutex. Flush() additionally requires
// that no query is executing.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/epoch.h"
#include "core/layout.h"
#include "core/storage_index.h"
#include "util/status.h"

namespace e2lshos::core {

class LiveUpdater {
 public:
  /// \brief Update-side counters, surfaced through DeviceStats and the
  /// Stats RPC.
  struct Counters {
    uint64_t inserts = 0;
    uint64_t removes = 0;
    uint64_t restores = 0;
    uint64_t epochs_published = 0;
    /// Bytes actually written to the device by inserts and Flush (whole
    /// RMW windows: the device-endurance figure).
    uint64_t staged_bytes = 0;
    /// Operations staged but not yet published (reader-visible lag;
    /// nonzero only mid-batch).
    uint64_t pending_ops = 0;
  };

  /// The index (and its device) must outlive the updater. Effective n
  /// starts at index->n(); ids below it resolve through the base dataset
  /// the readers hold, ids at or above it through rows stored here.
  explicit LiveUpdater(StorageIndex* index);

  LiveUpdater(const LiveUpdater&) = delete;
  LiveUpdater& operator=(const LiveUpdater&) = delete;

  /// Insert one row (dim = index->dim() floats): InsertBatch(row, 1).
  /// Returns the assigned id (== effective n before the call) and
  /// publishes a new epoch.
  /// Inserts stage through a private device queue: on a device that
  /// cannot create one, Insert and InsertBatch return the device's error
  /// and change nothing.
  Result<uint32_t> Insert(const float* row);
  /// Insert `count` contiguous rows; assigns ids first_id..first_id+
  /// count-1 and publishes ONCE after the last row — mid-batch rows are
  /// not reader-visible. Returns the first id. On error, rows staged
  /// before the failure remain inserted and published.
  Result<uint32_t> InsertBatch(const float* rows, uint32_t count);

  /// Tombstone an id (idempotent) and publish. Ids never inserted are
  /// accepted — the tombstone simply never matches a candidate.
  Status Remove(uint32_t id);
  Status RemoveBatch(const uint32_t* ids, uint32_t count);

  /// Erase an id's tombstone (a no-op when none exists, including for
  /// ids never inserted) and publish.
  Status Restore(uint32_t id);
  Status RestoreBatch(const uint32_t* ids, uint32_t count);

  /// Sync all staged state into the StorageIndex and the device: copy
  /// every redirected head of a built bucket to its rank address, record
  /// the heads of buckets born live, install tombstones/n/sizes/next-
  /// block, then publish an epoch with an empty overlay. Requires
  /// quiescence: no query may be in flight. After Flush, SaveIndexMeta
  /// persists the mutated index.
  Status Flush();

  Counters counters() const;
  /// Sequence of the newest published epoch (0 = none yet).
  uint64_t epoch_seq() const;
  /// Effective object count (staged, including unpublished ops).
  uint64_t n() const;

 private:
  /// Read-modify-write page cache over the device for one staged row:
  /// pages are staged by read bursts on read_queue_ (never read when
  /// they lie past the allocation cursor), reads are served from staged
  /// pages, writes accumulate and hit the device in one WriteBatch
  /// burst — or are discarded wholesale if the row fails, keeping every
  /// row all-or-nothing on the device.
  class StagedIo;

  /// Stage one row end to end and flush its pages; commits overlay/row
  /// state only when every (radius, l) pair succeeded. mu_ held.
  Status StageInsertLocked(const float* row, uint32_t* id_out);
  /// Snapshot the staged state into a new EpochState and publish it;
  /// advances the private-block boundary past the published bytes'
  /// last RMW window. mu_ held.
  void PublishLocked();
  /// Append a row's coordinates to the chunked store. mu_ held.
  void AppendRowLocked(const float* row);

  StorageIndex* index_;
  mutable std::mutex mu_;

  /// Private queue for staging reads, created with the default
  /// QueueOptions so a whole burst is in flight at once. A burst harvests
  /// every completion of the device it polls, so it must never run on
  /// the shared device the serving threads poll: every URI scheme hands
  /// out queues, and the updater takes one for itself. Null when the
  /// device refused one; inserts then fail with queue_status_ (removes
  /// and restores read nothing and still work).
  std::unique_ptr<storage::BlockDevice> read_queue_;
  Status queue_status_;

  ObjectInfoCodec codec_;
  uint32_t page_bytes_ = 0;  ///< RMW window: max(io_alignment, 512).

  // Staged truth (superset of the latest published epoch).
  uint64_t next_id_ = 0;      ///< Effective n.
  uint64_t base_rows_ = 0;    ///< Frozen base-dataset row count.
  uint64_t next_block_ = 0;   ///< Private bump allocator cursor.
  uint64_t private_floor_ = 0;  ///< Blocks >= this are writer-private.
  std::unordered_map<uint64_t, uint64_t> overlay_;
  std::unordered_set<uint32_t> tombstones_;
  static constexpr uint32_t kRowsPerChunk = 1024;
  std::vector<std::unique_ptr<float[]>> row_chunks_;
  uint64_t rows_ = 0;

  // Deltas applied to index_->sizes_ at Flush time.
  uint64_t staged_blocks_ = 0;
  uint64_t staged_entries_ = 0;
  uint64_t staged_new_slots_ = 0;

  // Copy-on-publish snapshots, reused while their ingredient is clean.
  bool overlay_dirty_ = true;
  bool tombstones_dirty_ = true;
  bool rows_dirty_ = true;
  std::shared_ptr<const std::unordered_map<uint64_t, uint64_t>> pub_overlay_;
  std::shared_ptr<const std::unordered_set<uint32_t>> pub_tombstones_;
  std::shared_ptr<const std::vector<const float*>> pub_chunks_;

  uint64_t seq_ = 0;
  Counters counters_;
};

}  // namespace e2lshos::core
