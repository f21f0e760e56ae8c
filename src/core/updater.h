// Online index maintenance (paper Sec. 7, "storage-specific issues"):
// object insertion and deletion on a live E2LSHoS index.
//
// * Insert: the new object is hashed under every (radius, l) compound
//   hash and added to the corresponding bucket chain — in place when the
//   head block has room (one 512-B read-modify-write). A full head keeps
//   its address, which readers compute from the bitmap (layout.h): it is
//   moved to a fresh block, and a one-entry head pointing at the move is
//   written in its place (two block writes). A bucket that was empty at
//   build time gets a fresh block recorded in the born-live map. The
//   paper notes "the impact of object insertion and deletion is small" on
//   device endurance; bytes_written tracks it exactly. On a direct-I/O
//   device a block smaller than the alignment unit is staged through an
//   aligned read-modify-write window sized by io_alignment(), so the
//   updater works unchanged against file:?direct=1 / uring:?direct=1;
//   bytes_written then counts the whole windows actually written.
//
// * Remove: a DRAM tombstone. Bucket entries stay on storage (purging
//   them would rewrite whole chains — the "rebuild sparingly" advice);
//   the query engine skips tombstoned candidates after the fingerprint
//   check.
//
// Capacity rule: an inserted object's id must fit the id_bits chosen at
// build time (ids index the DRAM-resident dataset). When the id space is
// exhausted the index must be rebuilt.
#pragma once

#include "core/storage_index.h"
#include "data/dataset.h"

namespace e2lshos::core {

class IndexUpdater {
 public:
  /// The updater mutates `index` and writes through its device. Not
  /// thread-safe, and it mutates blocks a concurrent reader would
  /// observe mid-write — it is an OFFLINE maintenance tool: run it
  /// only while no queries are in flight. For mutations concurrent with
  /// serving, use core::LiveUpdater (epoch-published copy-on-write;
  /// the e2lshos::Index Insert/Remove/Restore entry points), which
  /// reuses this updater's RMW-window and block-append mechanics behind
  /// a reader-safe publication protocol.
  explicit IndexUpdater(StorageIndex* index) : index_(index) {}

  /// Insert the object stored at `base.Row(id)`. `base` must be the same
  /// dataset the engine queries against, already holding the row.
  Status Insert(const data::Dataset& base, uint32_t id);

  /// Tombstone an object id; it will no longer be returned by queries.
  /// Removing an unknown id is a no-op (idempotent).
  Status Remove(uint32_t id);

  /// Un-tombstone (re-activate) an id previously removed. Restoring an
  /// id that was never removed (or never inserted) is a no-op.
  Status Restore(uint32_t id);

  /// Bytes written to storage by this updater (endurance accounting).
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t inserts() const { return inserts_; }

 private:
  StorageIndex* index_;
  uint64_t bytes_written_ = 0;
  uint64_t inserts_ = 0;
};

}  // namespace e2lshos::core
