#include "core/builder.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace e2lshos::core {

namespace {

// (slot, hash32, id) triple used to group objects into buckets.
struct Entry {
  uint32_t slot;
  uint32_t hash32;
  uint32_t id;
};

}  // namespace

Result<std::unique_ptr<StorageIndex>> IndexBuilder::Build(
    const data::Dataset& base, const lsh::E2lshParams& params,
    storage::BlockDevice* device, const BuildOptions& options) {
  if (base.n() == 0) return Status::InvalidArgument("empty dataset");
  if (device == nullptr) return Status::InvalidArgument("null device");
  if (base.n() > (1ULL << 32)) {
    return Status::InvalidArgument("object ids limited to 32 bits");
  }
  if (options.block_bytes < kBlockHeaderBytes + kObjectInfoBytes) {
    return Status::InvalidArgument("block size too small");
  }
  if (options.block_bytes % device->io_alignment() != 0) {
    return Status::InvalidArgument(
        "block size " + std::to_string(options.block_bytes) +
        " is not a multiple of the device I/O alignment (" +
        std::to_string(device->io_alignment()) + ")");
  }

  auto index = std::make_unique<StorageIndex>();
  index->params_ = params;
  lsh::FitLadderBottom(base.Row(0), base.n(), base.dim(), &index->params_);
  index->device_ = device;
  index->n_ = base.n();
  index->dim_ = base.dim();
  index->family_ = lsh::HashFamily(base.dim(), index->params_);

  IndexLayout& layout = index->layout_;
  layout.num_radii = index->params_.num_radii();
  layout.L = index->params_.L;
  layout.block_bytes = options.block_bytes;
  layout.fp = options.table_bits > 0
                  ? lsh::FingerprintScheme{options.table_bits}
                  : lsh::FingerprintScheme::ForDatabaseSize(base.n());
  layout.bucket_base = layout.block_bytes;

  E2_ASSIGN_OR_RETURN(const ObjectInfoCodec codec,
                      ObjectInfoCodec::Make(base.n(), layout.fp));
  layout.id_bits = codec.id_bits;

  const uint64_t slots = layout.slots_per_table();
  std::vector<uint64_t> bitmap(
      (static_cast<uint64_t>(layout.num_pairs()) * slots + 63) / 64, 0);
  index->pair_base_.reserve(layout.num_pairs());

  const uint32_t per_block = layout.objects_per_block();
  std::vector<Entry> entries(base.n());
  std::vector<uint8_t> block(layout.block_bytes, 0);
  IndexSizes& sizes = index->sizes_;

  // Block 0 is reserved (address 0 means "no block"): keep it zero so the
  // image is deterministic end to end.
  E2_RETURN_NOT_OK(device->Write(0, block.data(), layout.block_bytes));

  uint64_t next_block_idx = 0;  // bump allocator over the bucket region
  for (uint32_t r = 0; r < layout.num_radii; ++r) {
    for (uint32_t l = 0; l < layout.L; ++l) {
      const lsh::CompoundHash& g = index->family_.Get(r, l);
      for (uint64_t i = 0; i < base.n(); ++i) {
        const uint32_t h = g.Hash32(base.Row(i));
        entries[i] = {layout.fp.TableIndex(h), h, static_cast<uint32_t>(i)};
      }
      std::sort(entries.begin(), entries.end(),
                [](const Entry& a, const Entry& b) { return a.slot < b.slot; });

      // The pair's region: one head block per non-empty slot, in slot
      // order (so a head's rank among them is its address), then every
      // chain's overflow blocks.
      uint64_t heads = 0;
      for (uint64_t i = 0; i < entries.size(); ++i) {
        if (i == 0 || entries[i].slot != entries[i - 1].slot) ++heads;
      }
      const uint64_t first_head = next_block_idx;
      uint64_t next_overflow = first_head + heads;
      if (layout.BlockAddr(next_overflow) > device->capacity()) {
        return Status::OutOfRange("device too small for index");
      }
      index->pair_base_.push_back(layout.BlockAddr(first_head));

      uint64_t head = first_head;
      uint64_t i = 0;
      while (i < entries.size()) {
        const uint32_t slot = entries[i].slot;
        uint64_t j = i;
        while (j < entries.size() && entries[j].slot == slot) ++j;
        const uint64_t count = j - i;

        const uint64_t blocks_needed = (count + per_block - 1) / per_block;
        if (layout.BlockAddr(next_overflow + blocks_needed - 1) >
            device->capacity()) {
          return Status::OutOfRange("device too small for index");
        }
        uint64_t remaining = count;
        uint64_t src = i;
        uint64_t addr = layout.BlockAddr(head++);
        for (uint64_t b = 0; b < blocks_needed; ++b) {
          const uint16_t in_block =
              static_cast<uint16_t>(std::min<uint64_t>(remaining, per_block));
          BlockHeader hdr;
          hdr.count = in_block;
          hdr.next = (b + 1 < blocks_needed) ? layout.BlockAddr(next_overflow) : 0;
          hdr.EncodeTo(block.data());
          uint8_t* dst = block.data() + kBlockHeaderBytes;
          for (uint16_t e = 0; e < in_block; ++e, ++src, dst += kObjectInfoBytes) {
            codec.Write(dst, entries[src].id,
                        layout.fp.Fingerprint(entries[src].hash32));
          }
          // Zero the tail so blocks are deterministic on storage.
          std::memset(dst, 0,
                      layout.block_bytes - kBlockHeaderBytes -
                          static_cast<size_t>(in_block) * kObjectInfoBytes);
          StampBlockCrc(block.data(), layout.block_bytes);
          E2_RETURN_NOT_OK(device->Write(addr, block.data(), layout.block_bytes));
          remaining -= in_block;
          if (hdr.next != 0) {
            addr = hdr.next;
            ++next_overflow;
          }
        }

        const uint64_t bit = index->BitIndex(r, l, slot);
        bitmap[bit >> 6] |= 1ULL << (bit & 63);
        ++sizes.nonempty_slots;
        sizes.total_entries += count;
        i = j;
      }
      next_block_idx = next_overflow;
    }
  }
  index->bitmap_ = SlotBitmap(std::move(bitmap));

  index->next_block_idx_ = next_block_idx;
  sizes.bucket_bytes = next_block_idx * layout.block_bytes;
  sizes.storage_bytes = layout.bucket_base + sizes.bucket_bytes;
  sizes.dram_index_bytes = index->DramIndexBytes();
  return index;
}

}  // namespace e2lshos::core
