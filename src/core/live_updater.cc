#include "core/live_updater.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "util/aligned_buffer.h"

namespace e2lshos::core {

// ---------------------------------------------------------------------------
// StagedIo — a read-modify-write page cache over the device for one row.
//
// Pages are page_bytes_-sized, absolutely aligned (page_off % page == 0),
// so a flushed page can never straddle the private-block boundary that
// PublishLocked maintains. Stage() materializes every page covering a
// list of extents with one burst of reads on the updater's private queue;
// Read/Write then serve from the staged pages, which also makes a row's
// later (radius, l) pairs see blocks its earlier pairs wrote. Pages that
// start at or past `fresh_from` hold nothing anyone can reference (they
// lie wholly past the row's allocation cursor), so they are staged zeroed
// instead of read. Writes only dirty staged pages; nothing reaches the
// device until Flush() issues every dirty page as one WriteBatch burst.
// ---------------------------------------------------------------------------
class LiveUpdater::StagedIo {
 public:
  struct Extent {
    uint64_t offset = 0;
    uint32_t length = 0;
  };

  StagedIo(storage::BlockDevice* read_queue, storage::BlockDevice* write_dev,
           uint32_t page_bytes, uint64_t fresh_from = UINT64_MAX)
      : read_queue_(read_queue),
        write_dev_(write_dev),
        page_(page_bytes),
        fresh_from_(fresh_from) {}

  /// Stage every page covering `extents` that is not staged yet, reading
  /// those below fresh_from in one burst. On failure the pages this call
  /// added are dropped again.
  Status Stage(const Extent* extents, size_t count) {
    const uint64_t cap = read_queue_->capacity();
    for (size_t i = 0; i < count; ++i) {
      const Extent& e = extents[i];
      if (!storage::RangeInCapacity(e.offset, e.length, cap)) {
        return Status::OutOfRange("staged I/O beyond device capacity");
      }
    }
    const size_t first_new = pages_.size();
    std::vector<storage::IoRequest> reads;
    for (size_t i = 0; i < count; ++i) {
      const Extent& e = extents[i];
      for (uint64_t off = e.offset / page_ * page_; off < e.offset + e.length;
           off += page_) {
        if (by_offset_.count(off) > 0) continue;
        auto page = std::make_unique<Page>();
        page->off = off;
        page->len = static_cast<uint32_t>(std::min<uint64_t>(page_, cap - off));
        page->buf.Reset(page_, std::max<size_t>(page_, storage::kSectorBytes));
        if (off < fresh_from_) {
          reads.push_back({off, page->len, page->buf.data(), 0});
        } else {
          std::memset(page->buf.data(), 0, page->len);
        }
        by_offset_.emplace(off, pages_.size());
        pages_.push_back(std::move(page));
      }
    }
    const Status st = read_queue_->ReadSync(reads.data(), reads.size());
    if (!st.ok()) {
      for (size_t i = first_new; i < pages_.size(); ++i) {
        by_offset_.erase(pages_[i]->off);
      }
      pages_.resize(first_new);
    }
    return st;
  }

  Status Read(uint64_t offset, void* out, uint32_t length) {
    return Access(offset, out, length, /*write=*/false);
  }

  Status Write(uint64_t offset, const void* data, uint32_t length) {
    return Access(offset, const_cast<void*>(data), length, /*write=*/true);
  }

  /// Write every dirty page to the device in one burst; returns the
  /// bytes written. The cache is cleared either way — a partially failed
  /// burst leaves only writer-private bytes behind.
  Result<uint64_t> Flush() {
    std::vector<storage::WriteOp> ops;
    uint64_t bytes = 0;
    for (const auto& page : pages_) {
      if (!page->dirty) continue;
      ops.push_back({page->off, page->buf.data(), page->len});
      bytes += page->len;
    }
    std::sort(ops.begin(), ops.end(),
              [](const storage::WriteOp& a, const storage::WriteOp& b) {
                return a.offset < b.offset;
              });
    const Status st = write_dev_->WriteBatch(ops.data(), ops.size());
    pages_.clear();
    by_offset_.clear();
    E2_RETURN_NOT_OK(st);
    return bytes;
  }

 private:
  struct Page {
    uint64_t off = 0;
    uint32_t len = 0;  ///< page_ clamped at device capacity.
    bool dirty = false;
    util::AlignedBuffer buf;
  };

  /// Serve from staged pages; a page not staged yet is staged on its own
  /// (a burst of one), so every access stays correct without a Stage().
  Status Access(uint64_t offset, void* data, uint32_t length, bool write) {
    const Extent extent{offset, length};
    E2_RETURN_NOT_OK(Stage(&extent, 1));
    uint8_t* cursor = static_cast<uint8_t*>(data);
    uint64_t cur = offset;
    uint32_t left = length;
    while (left > 0) {
      // Stage() checked the extent against capacity, so the page covers cur.
      Page* page = pages_[by_offset_.at(cur / page_ * page_)].get();
      const uint32_t in_page = static_cast<uint32_t>(cur - page->off);
      const uint32_t take = std::min(left, page->len - in_page);
      if (write) {
        std::memcpy(page->buf.data() + in_page, cursor, take);
        page->dirty = true;
      } else {
        std::memcpy(cursor, page->buf.data() + in_page, take);
      }
      cursor += take;
      cur += take;
      left -= take;
    }
    return Status::OK();
  }

  storage::BlockDevice* read_queue_;
  storage::BlockDevice* write_dev_;
  const uint32_t page_;
  const uint64_t fresh_from_;
  std::vector<std::unique_ptr<Page>> pages_;
  std::unordered_map<uint64_t, size_t> by_offset_;
};

LiveUpdater::LiveUpdater(StorageIndex* index) : index_(index) {
  const IndexLayout& layout = index_->layout_;
  auto codec = ObjectInfoCodec::MakeWithIdBits(layout.id_bits, layout.fp);
  codec_ = *codec;  // layout came from a built index; cannot fail
  page_bytes_ = std::max(index_->device_->io_alignment(), storage::kSectorBytes);
  next_id_ = index_->n_;
  base_rows_ = index_->n_;
  next_block_ = index_->next_block_idx_;
  tombstones_ = index_->tombstones_;
  // Default options: a queue deep enough to hold a whole staging burst.
  auto queue = index_->device_->CreateQueue(storage::QueueOptions{});
  if (queue.ok()) {
    read_queue_ = std::move(*queue);
  } else {
    queue_status_ = queue.status();
  }
  // Round the private boundary up so no staging RMW window covers a
  // byte of the built image (for block 0 the window can reach below
  // bucket_base).
  const uint64_t built_end = layout.BlockAddr(next_block_);
  while (layout.BlockAddr(next_block_) / page_bytes_ * page_bytes_ < built_end) {
    ++next_block_;
  }
  private_floor_ = next_block_;
}

Result<uint32_t> LiveUpdater::Insert(const float* row) {
  return InsertBatch(row, 1);
}

Result<uint32_t> LiveUpdater::InsertBatch(const float* rows, uint32_t count) {
  if (rows == nullptr || count == 0) {
    return Status::InvalidArgument("empty insert batch");
  }
  if (read_queue_ == nullptr) return queue_status_;
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t dim = index_->dim_;
  uint32_t first = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t id = 0;
    const uint64_t cursor = next_block_;
    if (Status st = StageInsertLocked(rows + static_cast<size_t>(i) * dim, &id);
        !st.ok()) {
      next_block_ = cursor;  // nothing committed points at the row's blocks
      // Rows staged before the failure stay inserted: publish them.
      if (i > 0) PublishLocked();
      return st;
    }
    if (i == 0) first = id;
  }
  PublishLocked();
  return first;
}

Status LiveUpdater::Remove(uint32_t id) {
  return RemoveBatch(&id, 1);
}

Status LiveUpdater::RemoveBatch(const uint32_t* ids, uint32_t count) {
  if (ids == nullptr && count > 0) {
    return Status::InvalidArgument("null id list");
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t i = 0; i < count; ++i) {
    if (tombstones_.insert(ids[i]).second) tombstones_dirty_ = true;
    ++counters_.removes;
    ++counters_.pending_ops;
  }
  PublishLocked();
  return Status::OK();
}

Status LiveUpdater::Restore(uint32_t id) {
  return RestoreBatch(&id, 1);
}

Status LiveUpdater::RestoreBatch(const uint32_t* ids, uint32_t count) {
  if (ids == nullptr && count > 0) {
    return Status::InvalidArgument("null id list");
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t i = 0; i < count; ++i) {
    if (tombstones_.erase(ids[i]) > 0) tombstones_dirty_ = true;
    ++counters_.restores;
    ++counters_.pending_ops;
  }
  PublishLocked();
  return Status::OK();
}

Status LiveUpdater::StageInsertLocked(const float* row, uint32_t* id_out) {
  const IndexLayout& layout = index_->layout_;
  storage::BlockDevice* device = index_->device_;
  if (next_id_ >= (1ULL << codec_.id_bits)) {
    return Status::FailedPrecondition(
        "id exceeds the id space fixed at build time; rebuild the index");
  }
  const uint32_t id = static_cast<uint32_t>(next_id_);
  const uint32_t per_block = layout.objects_per_block();
  const uint32_t block_bytes = layout.block_bytes;

  // Pages from the allocation cursor's page boundary up hold only blocks
  // this row is about to allocate: they are written whole, never read.
  const uint64_t cursor_addr = layout.BlockAddr(next_block_);
  StagedIo io(read_queue_.get(), device, page_bytes_,
              (cursor_addr + page_bytes_ - 1) / page_bytes_ * page_bytes_);
  std::vector<uint8_t> block(block_bytes);
  // Row-local state, committed only when every pair succeeds.
  std::unordered_map<uint64_t, uint64_t> delta;
  uint64_t new_blocks = 0;
  uint64_t new_slots = 0;

  auto alloc_block = [&]() -> Result<uint64_t> {
    const uint64_t addr = layout.BlockAddr(next_block_);
    if (!storage::RangeInCapacity(addr, block_bytes, device->capacity())) {
      return Status::OutOfRange("device full; cannot grow the index");
    }
    ++next_block_;
    ++new_blocks;
    return addr;
  };

  // Hash every (radius, l) pair once. A bucket's head comes from the
  // overlay when a published insert redirected it, else from the index
  // (its rank address, its born-live entry, or 0 when empty); one burst
  // then stages every head block.
  struct Pair {
    uint64_t key = 0;
    uint64_t head = 0;
    uint32_t fp = 0;
    bool at_home = false;  ///< head is the bucket's rank address.
  };
  std::vector<Pair> pairs;
  pairs.reserve(static_cast<size_t>(layout.num_pairs()));
  std::vector<StagedIo::Extent> extents;
  extents.reserve(pairs.capacity());
  for (uint32_t r = 0; r < layout.num_radii; ++r) {
    for (uint32_t l = 0; l < layout.L; ++l) {
      const uint32_t h = index_->family_.Get(r, l).Hash32(row);
      const uint32_t slot = layout.fp.TableIndex(h);
      Pair p;
      p.key = index_->BucketKey(r, l, slot);
      p.fp = layout.fp.Fingerprint(h);
      const auto oit = overlay_.find(p.key);
      p.head = oit != overlay_.end() ? oit->second : index_->ChainHead(r, l, slot);
      p.at_home = oit == overlay_.end() && index_->SlotNonEmpty(r, l, slot);
      if (p.head != 0) extents.push_back({p.head, block_bytes});
      pairs.push_back(p);
    }
  }
  E2_RETURN_NOT_OK(io.Stage(extents.data(), extents.size()));

  for (const Pair& p : pairs) {
    const uint64_t key = p.key;
    const uint64_t head = p.head;
    const uint32_t fp = p.fp;
    bool placed = false;
    if (head != 0) {
      E2_RETURN_NOT_OK(io.Read(head, block.data(), block_bytes));
      // Appending re-stamps the block: a corrupt head must fail the row
      // here, before its bad bytes are stamped as valid.
      if (!VerifyBlockCrc(block.data(), block_bytes)) {
        return Status::IoError("corrupt chain head block at address " +
                               std::to_string(head));
      }
      BlockHeader hdr = BlockHeader::DecodeFrom(block.data());
      const uint32_t count = std::min<uint32_t>(hdr.count, per_block);
      if (count < per_block) {
        codec_.Write(block.data() + kBlockHeaderBytes +
                         static_cast<size_t>(count) * kObjectInfoBytes,
                     id, fp);
        hdr.count = static_cast<uint16_t>(count + 1);
        hdr.EncodeTo(block.data());
        StampBlockCrc(block.data(), block_bytes);
        const uint64_t head_idx = (head - layout.bucket_base) / block_bytes;
        if (head_idx >= private_floor_) {
          // Writer-private head: append in place.
          E2_RETURN_NOT_OK(io.Write(head, block.data(), block_bytes));
        } else {
          // Published head: copy-on-write to a fresh private block.
          // The published block leaks until a rebuild.
          E2_ASSIGN_OR_RETURN(const uint64_t copy_addr, alloc_block());
          E2_RETURN_NOT_OK(io.Write(copy_addr, block.data(), block_bytes));
          delta[key] = copy_addr;
        }
        placed = true;
      }
    }
    if (!placed) {
      // Empty bucket or full head: prepend a fresh private block. A full
      // head at its bucket's rank address is first copied to a fresh
      // block too, so no chain ever links to a rank address and Flush
      // may overwrite one.
      uint64_t next = head;
      if (p.at_home) {
        E2_ASSIGN_OR_RETURN(next, alloc_block());
        E2_RETURN_NOT_OK(io.Write(next, block.data(), block_bytes));
      }
      E2_ASSIGN_OR_RETURN(const uint64_t new_addr, alloc_block());
      BlockHeader hdr;
      hdr.next = next;
      hdr.count = 1;
      hdr.EncodeTo(block.data());
      codec_.Write(block.data() + kBlockHeaderBytes, id, fp);
      std::memset(block.data() + kBlockHeaderBytes + kObjectInfoBytes, 0,
                  block_bytes - kBlockHeaderBytes - kObjectInfoBytes);
      StampBlockCrc(block.data(), block_bytes);
      E2_RETURN_NOT_OK(io.Write(new_addr, block.data(), block_bytes));
      delta[key] = new_addr;
      if (head == 0) ++new_slots;
    }
  }

  // Durable before visible: the burst completes before any commit, so a
  // published overlay address always resolves to device bytes.
  E2_ASSIGN_OR_RETURN(const uint64_t flushed, io.Flush());

  for (const auto& [key, addr] : delta) overlay_[key] = addr;
  if (!delta.empty()) overlay_dirty_ = true;
  AppendRowLocked(row);
  if (tombstones_.erase(id) > 0) tombstones_dirty_ = true;
  staged_blocks_ += new_blocks;
  staged_new_slots_ += new_slots;
  staged_entries_ += static_cast<uint64_t>(layout.num_radii) * layout.L;
  counters_.staged_bytes += flushed;
  ++counters_.inserts;
  ++counters_.pending_ops;
  ++next_id_;
  *id_out = id;
  return Status::OK();
}

void LiveUpdater::AppendRowLocked(const float* row) {
  const uint32_t dim = index_->dim_;
  const uint64_t chunk = rows_ / kRowsPerChunk;
  if (chunk == row_chunks_.size()) {
    row_chunks_.push_back(
        std::make_unique<float[]>(static_cast<size_t>(kRowsPerChunk) * dim));
    rows_dirty_ = true;  // the chunk-pointer table grew
  }
  // Rows past the published n are unreferenced by any reader, so filling
  // the tail of a published chunk races with nothing.
  std::memcpy(
      row_chunks_[chunk].get() + (rows_ % kRowsPerChunk) * static_cast<size_t>(dim),
      row, sizeof(float) * dim);
  ++rows_;
}

void LiveUpdater::PublishLocked() {
  auto state = std::make_shared<EpochState>();
  state->seq = ++seq_;
  state->n = next_id_;
  state->base_rows = base_rows_;
  state->dim = index_->dim_;
  state->rows_per_chunk = kRowsPerChunk;
  if (rows_dirty_ || pub_chunks_ == nullptr) {
    auto chunks = std::make_shared<std::vector<const float*>>();
    chunks->reserve(row_chunks_.size());
    for (const auto& c : row_chunks_) chunks->push_back(c.get());
    pub_chunks_ = std::move(chunks);
    rows_dirty_ = false;
  }
  state->row_chunks = pub_chunks_;
  if (tombstones_dirty_ || pub_tombstones_ == nullptr) {
    pub_tombstones_ =
        std::make_shared<const std::unordered_set<uint32_t>>(tombstones_);
    tombstones_dirty_ = false;
  }
  state->tombstones = pub_tombstones_;
  if (overlay_dirty_ || pub_overlay_ == nullptr) {
    pub_overlay_ =
        std::make_shared<const std::unordered_map<uint64_t, uint64_t>>(overlay_);
    overlay_dirty_ = false;
  }
  state->overlay = pub_overlay_;
  index_->epoch_publisher_->Publish(std::move(state));
  ++counters_.epochs_published;
  counters_.pending_ops = 0;
  // Everything allocated so far is now reader-visible: round the private
  // boundary up past the last RMW window covering published bytes.
  const uint64_t pub_end = index_->layout_.BlockAddr(next_block_);
  while (index_->layout_.BlockAddr(next_block_) / page_bytes_ * page_bytes_ <
         pub_end) {
    ++next_block_;
  }
  private_floor_ = next_block_;
}

Status LiveUpdater::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  const IndexLayout& layout = index_->layout_;
  if (!overlay_.empty()) {
    // A built bucket's overlay head is copied to its rank address
    // ("home"). No chain links to a home (StageInsertLocked copies a full
    // head away before prepending to it), so overwriting one loses
    // nothing, and a flush that fails partway leaves the overlay's chains
    // whole for a retry. A bucket born live keeps its head where it is,
    // recorded in the born-live map.
    // Overlay entries exist only after an insert, which needs read_queue_.
    StagedIo io(read_queue_.get(), index_->device_, page_bytes_);
    const uint32_t block_bytes = layout.block_bytes;
    const uint64_t slots = layout.slots_per_table();
    std::vector<StagedIo::Extent> extents;  // head, home, head, home, ...
    std::vector<BornLiveHead> born;
    for (const auto& [key, head] : overlay_) {
      const uint64_t pair = key / slots;
      const uint32_t slot = static_cast<uint32_t>(key % slots);
      const uint32_t r = static_cast<uint32_t>(pair / layout.L);
      const uint32_t l = static_cast<uint32_t>(pair % layout.L);
      if (!index_->SlotNonEmpty(r, l, slot)) {
        born.push_back({key, head});
        continue;
      }
      extents.push_back({head, block_bytes});
      extents.push_back({index_->ChainHead(r, l, slot), block_bytes});
    }
    // One burst stages every overlay head and every home (an RMW window
    // can be larger than the block written there).
    E2_RETURN_NOT_OK(io.Stage(extents.data(), extents.size()));
    std::vector<uint8_t> block(block_bytes);
    for (size_t i = 0; i < extents.size(); i += 2) {
      E2_RETURN_NOT_OK(io.Read(extents[i].offset, block.data(), block_bytes));
      E2_RETURN_NOT_OK(io.Write(extents[i + 1].offset, block.data(), block_bytes));
    }
    E2_ASSIGN_OR_RETURN(const uint64_t flushed, io.Flush());
    counters_.staged_bytes += flushed;
    if (!born.empty()) index_->UpdateBornLive(std::move(born));
    overlay_.clear();
    overlay_dirty_ = true;
  }
  index_->n_ = next_id_;
  index_->next_block_idx_ = next_block_;
  index_->tombstones_ = tombstones_;
  index_->sizes_.bucket_bytes += staged_blocks_ * layout.block_bytes;
  // Publishing rounds the cursor up to whole RMW windows, so the blocks
  // are not dense: the image ends at the cursor, not at the block count.
  index_->sizes_.storage_bytes = layout.BlockAddr(next_block_);
  index_->sizes_.total_entries += staged_entries_;
  index_->sizes_.nonempty_slots += staged_new_slots_;
  staged_blocks_ = 0;
  staged_entries_ = 0;
  staged_new_slots_ = 0;
  PublishLocked();
  return Status::OK();
}

LiveUpdater::Counters LiveUpdater::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

uint64_t LiveUpdater::epoch_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

uint64_t LiveUpdater::n() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_;
}

}  // namespace e2lshos::core
