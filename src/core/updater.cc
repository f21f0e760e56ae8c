#include "core/updater.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/aligned_buffer.h"

namespace e2lshos::core {

namespace {

/// \brief Updater I/O through a device whose io_alignment() may exceed
/// the block-sized extents the updater touches: sub-unit extents are
/// staged through the covering aligned window with a read-modify-write.
/// Devices with alignment 1, and extents already on unit boundaries,
/// take the direct path — the historical behavior, byte for byte.
class AlignedIo {
 public:
  explicit AlignedIo(storage::BlockDevice* device)
      : device_(device), unit_(device->io_alignment()) {}

  Status Read(uint64_t offset, void* out, uint32_t length) {
    if (unit_ <= 1) return device_->ReadSync(offset, out, length);
    if (Aligned(offset, length)) {
      // Aligned extent, but the caller's buffer pointer may not satisfy
      // the direct-I/O memory-alignment rule: bounce through the window.
      Reserve(length);
      E2_RETURN_NOT_OK(device_->ReadSync(offset, win_.data(), length));
      std::memcpy(out, win_.data(), length);
      return Status::OK();
    }
    E2_RETURN_NOT_OK(Stage(offset, length));
    std::memcpy(out, win_.data() + (offset - win_off_), length);
    return Status::OK();
  }

  /// Write `length` bytes at `offset`; returns the bytes that actually
  /// hit the device (the whole window when staged — the honest
  /// endurance number).
  Result<uint64_t> Write(uint64_t offset, const void* data, uint32_t length) {
    if (unit_ <= 1) {
      E2_RETURN_NOT_OK(device_->Write(offset, data, length));
      return static_cast<uint64_t>(length);
    }
    if (Aligned(offset, length)) {
      Reserve(length);
      std::memcpy(win_.data(), data, length);
      E2_RETURN_NOT_OK(device_->Write(offset, win_.data(), length));
      return static_cast<uint64_t>(length);
    }
    E2_RETURN_NOT_OK(Stage(offset, length));
    std::memcpy(win_.data() + (offset - win_off_), data, length);
    E2_RETURN_NOT_OK(device_->Write(win_off_, win_.data(), win_len_));
    return static_cast<uint64_t>(win_len_);
  }

 private:
  bool Aligned(uint64_t offset, uint32_t length) const {
    return offset % unit_ == 0 && length % unit_ == 0;
  }

  void Reserve(uint32_t length) {
    if (win_.size() < length) {
      win_.Reset(length, std::max(unit_, storage::kSectorBytes));
    }
  }

  Status Stage(uint64_t offset, uint32_t length) {
    const uint64_t lo = offset / unit_ * unit_;
    const uint64_t hi = (offset + length + unit_ - 1) / unit_ * unit_;
    win_off_ = lo;
    win_len_ = static_cast<uint32_t>(hi - lo);
    Reserve(win_len_);
    return device_->ReadSync(lo, win_.data(), win_len_);
  }

  storage::BlockDevice* device_;
  uint32_t unit_;
  uint64_t win_off_ = 0;
  uint32_t win_len_ = 0;
  util::AlignedBuffer win_;
};

}  // namespace

Status IndexUpdater::Insert(const data::Dataset& base, uint32_t id) {
  if (index_ == nullptr) return Status::InvalidArgument("null index");
  if (id >= base.n()) {
    return Status::InvalidArgument("dataset does not hold the inserted row yet");
  }
  const IndexLayout& layout = index_->layout_;
  E2_ASSIGN_OR_RETURN(const ObjectInfoCodec codec,
                      ObjectInfoCodec::MakeWithIdBits(layout.id_bits, layout.fp));
  if (id >= (1ULL << codec.id_bits)) {
    return Status::FailedPrecondition(
        "id exceeds the id space fixed at build time; rebuild the index");
  }

  storage::BlockDevice* device = index_->device_;
  AlignedIo io(device);
  const uint32_t per_block = layout.objects_per_block();
  std::vector<uint8_t> block(layout.block_bytes);
  const float* row = base.Row(id);

  auto alloc_block = [&]() -> Result<uint64_t> {
    const uint64_t addr = layout.BlockAddr(index_->next_block_idx_);
    if (!storage::RangeInCapacity(addr, layout.block_bytes, device->capacity())) {
      return Status::OutOfRange("device full; cannot grow the index");
    }
    ++index_->next_block_idx_;
    index_->sizes_.bucket_bytes += layout.block_bytes;
    index_->sizes_.storage_bytes += layout.block_bytes;
    return addr;
  };
  // Write `block` at `addr`, stamping its CRC first.
  auto put_block = [&](uint64_t addr) -> Status {
    if (index_->checksums_enabled_) StampBlockCrc(block.data(), layout.block_bytes);
    E2_ASSIGN_OR_RETURN(const uint64_t written,
                        io.Write(addr, block.data(), layout.block_bytes));
    bytes_written_ += written;
    return Status::OK();
  };
  // A one-entry block for `id` whose chain continues at `next`.
  auto make_single = [&](uint32_t fp, uint64_t next) {
    BlockHeader hdr;
    hdr.next = next;
    hdr.count = 1;
    hdr.EncodeTo(block.data());
    codec.Write(block.data() + kBlockHeaderBytes, id, fp);
    std::memset(block.data() + kBlockHeaderBytes + kObjectInfoBytes, 0,
                layout.block_bytes - kBlockHeaderBytes - kObjectInfoBytes);
  };

  for (uint32_t r = 0; r < layout.num_radii; ++r) {
    for (uint32_t l = 0; l < layout.L; ++l) {
      const uint32_t h = index_->family_.Get(r, l).Hash32(row);
      const uint32_t slot = layout.fp.TableIndex(h);
      const uint32_t fp = layout.fp.Fingerprint(h);
      const uint64_t head = index_->ChainHead(r, l, slot);

      if (head == 0) {
        // A bucket born after the build: no rank address, so its head is
        // recorded in the born-live map.
        E2_ASSIGN_OR_RETURN(const uint64_t addr, alloc_block());
        make_single(fp, 0);
        E2_RETURN_NOT_OK(put_block(addr));
        index_->UpdateBornLive({{index_->BucketKey(r, l, slot), addr}});
        ++index_->sizes_.nonempty_slots;
      } else {
        E2_RETURN_NOT_OK(io.Read(head, block.data(), layout.block_bytes));
        BlockHeader hdr = BlockHeader::DecodeFrom(block.data());
        if (hdr.count < per_block) {
          // Extend the head block in place.
          codec.Write(block.data() + kBlockHeaderBytes +
                          static_cast<size_t>(hdr.count) * kObjectInfoBytes,
                      id, fp);
          ++hdr.count;
          hdr.EncodeTo(block.data());
          E2_RETURN_NOT_OK(put_block(head));
        } else {
          // Full head: the chain must keep starting at `head`, so move the
          // full block to a fresh one and write a one-entry head in front
          // of it.
          E2_ASSIGN_OR_RETURN(const uint64_t copy, alloc_block());
          E2_RETURN_NOT_OK(put_block(copy));
          make_single(fp, copy);
          E2_RETURN_NOT_OK(put_block(head));
        }
      }
      ++index_->sizes_.total_entries;
    }
  }
  // If the id was previously tombstoned, the insert re-activates it.
  index_->tombstones_.erase(id);
  // Grow the addressable range so the engine accepts the new id.
  if (id >= index_->n_) index_->n_ = id + 1;
  ++inserts_;
  return Status::OK();
}

Status IndexUpdater::Remove(uint32_t id) {
  if (index_ == nullptr) return Status::InvalidArgument("null index");
  index_->tombstones_.insert(id);
  return Status::OK();
}

Status IndexUpdater::Restore(uint32_t id) {
  if (index_ == nullptr) return Status::InvalidArgument("null index");
  index_->tombstones_.erase(id);
  return Status::OK();
}

}  // namespace e2lshos::core
