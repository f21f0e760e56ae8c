#include "core/persistence.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "util/crc32c.h"

namespace e2lshos::core {

namespace {

// v4 addresses every chain head through the bitmap (layout.h); the file
// ends with a CRC32C of everything before it. v2/v3 files describe an
// image with an on-storage hash table and are refused by name.
constexpr char kMagic[8] = {'E', '2', 'O', 'S', 'I', 'D', 'X', '4'};
constexpr char kMagicV2[8] = {'E', '2', 'O', 'S', 'I', 'D', 'X', '2'};
constexpr char kMagicV3[8] = {'E', '2', 'O', 'S', 'I', 'D', 'X', '3'};

// The meta body is assembled in memory, checksummed, and written once.
class Writer {
 public:
  template <typename T>
  void Pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Bytes(&v, sizeof(T));
  }
  void Bytes(const void* p, size_t len) {
    const auto* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + len);
  }
  const std::vector<uint8_t>& buf() const { return buf_; }

 private:
  std::vector<uint8_t> buf_;
};

class Reader {
 public:
  Reader(const uint8_t* data, size_t len) : data_(data), left_(len) {}
  template <typename T>
  void Pod(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Bytes(v, sizeof(T));
  }
  void Bytes(void* p, size_t len) {
    if (!ok_ || len > left_) {
      ok_ = false;
      return;
    }
    if (len == 0) return;  // p may be an empty vector's null data()
    std::memcpy(p, data_, len);
    data_ += len;
    left_ -= len;
  }
  /// Elements of `elem_bytes` each that could still follow: bounds a
  /// count read from the file before anything is allocated for it.
  uint64_t Fits(size_t elem_bytes) const { return left_ / elem_bytes; }
  bool ok() const { return ok_; }
  bool done() const { return ok_ && left_ == 0; }

 private:
  const uint8_t* data_;
  size_t left_;
  bool ok_ = true;
};

Result<std::vector<uint8_t>> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open " + path);
  std::vector<uint8_t> data;
  uint8_t chunk[1 << 16];
  size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    data.insert(data.end(), chunk, chunk + got);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IoError("read error on " + path);
  return data;
}

}  // namespace

Status SaveIndexMeta(const StorageIndex& index, const std::string& path) {
  Writer w;
  w.Bytes(kMagic, sizeof(kMagic));

  w.Pod(index.n_);
  w.Pod(index.dim_);

  const IndexLayout& layout = index.layout_;
  w.Pod(layout.num_radii);
  w.Pod(layout.L);
  w.Pod(layout.fp.u);
  w.Pod(layout.id_bits);
  w.Pod(layout.block_bytes);
  w.Pod(layout.bucket_base);

  const lsh::E2lshParams& p = index.params_;
  w.Pod(p.c);
  w.Pod(p.w);
  w.Pod(p.gamma);
  w.Pod(p.s_factor);
  w.Pod(p.seed);
  w.Pod(p.p1);
  w.Pod(p.p2);
  w.Pod(p.rho);
  w.Pod(p.m);
  w.Pod(p.L);
  w.Pod(p.S);
  const uint32_t num_radii = static_cast<uint32_t>(p.radii.size());
  w.Pod(num_radii);
  w.Bytes(p.radii.data(), num_radii * sizeof(double));

  w.Pod(index.sizes_);

  const std::vector<uint64_t>& bitmap = index.bitmap_.words();
  const uint64_t bitmap_words = bitmap.size();
  w.Pod(bitmap_words);
  w.Bytes(bitmap.data(), bitmap_words * sizeof(uint64_t));

  w.Pod(index.next_block_idx_);
  const uint64_t tombstones = index.tombstones_.size();
  w.Pod(tombstones);
  for (const uint32_t id : index.tombstones_) w.Pod(id);

  const uint8_t checksums = 1;  // every image carries block CRCs
  w.Pod(checksums);
  w.Bytes(index.pair_base_.data(), index.pair_base_.size() * sizeof(uint64_t));
  const std::vector<BornLiveHead>& born = index.born_live();
  const uint64_t born_live = born.size();
  w.Pod(born_live);
  w.Bytes(born.data(), born_live * sizeof(BornLiveHead));

  const uint32_t crc = util::Crc32c(w.buf().data(), w.buf().size());
  w.Pod(crc);

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open " + path + " for write");
  const bool ok =
      std::fwrite(w.buf().data(), 1, w.buf().size(), f) == w.buf().size();
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) return Status::IoError("short write to " + path);
  return Status::OK();
}

Result<std::unique_ptr<StorageIndex>> LoadIndexMeta(const std::string& path,
                                                    storage::BlockDevice* device) {
  if (device == nullptr) return Status::InvalidArgument("null device");
  E2_ASSIGN_OR_RETURN(const std::vector<uint8_t> file, ReadFile(path));
  const auto corrupt = [&path](const std::string& what) {
    return Status::InvalidArgument("corrupt " + what + " in " + path);
  };

  if (file.size() >= sizeof(kMagic) &&
      (std::memcmp(file.data(), kMagicV2, sizeof(kMagicV2)) == 0 ||
       std::memcmp(file.data(), kMagicV3, sizeof(kMagicV3)) == 0)) {
    return Status::FailedPrecondition(
        path + " describes an index image that predates format v4 "
        "(rank-addressed chain heads); rebuild it with Index::Build or "
        "`e2lshos_cli build`");
  }
  if (file.size() < sizeof(kMagic) + sizeof(uint32_t) ||
      std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(path + " is not an E2LSHoS index meta file");
  }
  const size_t body = file.size() - sizeof(uint32_t);
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, file.data() + body, sizeof(stored_crc));
  if (util::Crc32c(file.data(), body) != stored_crc) {
    return Status::InvalidArgument("checksum mismatch in " + path);
  }
  Reader r(file.data() + sizeof(kMagic), body - sizeof(kMagic));

  auto index = std::make_unique<StorageIndex>();
  index->device_ = device;
  r.Pod(&index->n_);
  r.Pod(&index->dim_);

  IndexLayout& layout = index->layout_;
  r.Pod(&layout.num_radii);
  r.Pod(&layout.L);
  r.Pod(&layout.fp.u);
  r.Pod(&layout.id_bits);
  r.Pod(&layout.block_bytes);
  r.Pod(&layout.bucket_base);
  if (!r.ok() || layout.num_radii == 0 || layout.L == 0 || layout.fp.u == 0 ||
      layout.fp.u > lsh::kHashBits || layout.id_bits == 0 ||
      layout.id_bits > 8 * kObjectInfoBytes - layout.fp.fingerprint_bits() ||
      layout.block_bytes < kBlockHeaderBytes + kObjectInfoBytes ||
      layout.bucket_base != layout.block_bytes) {
    return corrupt("layout");
  }

  lsh::E2lshParams& p = index->params_;
  r.Pod(&p.c);
  r.Pod(&p.w);
  r.Pod(&p.gamma);
  r.Pod(&p.s_factor);
  r.Pod(&p.seed);
  r.Pod(&p.p1);
  r.Pod(&p.p2);
  r.Pod(&p.rho);
  r.Pod(&p.m);
  r.Pod(&p.L);
  r.Pod(&p.S);
  // The family is drawn from these params and addressed through the
  // layout's (radius, l) pairs, so both must count the same pairs; the
  // radii must be a ladder the builder computes: from R = 1 by factors
  // of c, at most 64 rungs, its bottom fitted to the data. The family
  // skips the draws of the rungs below that bottom.
  if (!r.ok() || p.L != layout.L) return corrupt("compound hash count");
  uint32_t num_radii = 0;
  r.Pod(&num_radii);
  if (!r.ok() || num_radii != layout.num_radii || num_radii > 64) {
    return corrupt("radius schedule");
  }
  p.radii.resize(num_radii);
  r.Bytes(p.radii.data(), num_radii * sizeof(double));
  double bottom = 1.0;
  for (uint32_t k = 0; k < 64 && bottom < p.radii[0]; ++k) bottom *= p.c;
  if (!r.ok() || p.radii[0] != bottom) return corrupt("radius schedule");
  for (uint32_t i = 1; i < num_radii; ++i) {
    if (p.radii[i] != p.radii[i - 1] * p.c) return corrupt("radius schedule");
  }

  r.Pod(&index->sizes_);

  uint64_t bitmap_words = 0;
  r.Pod(&bitmap_words);
  const uint64_t total_bits =
      static_cast<uint64_t>(layout.num_pairs()) * layout.slots_per_table();
  if (!r.ok() || bitmap_words != (total_bits + 63) / 64 ||
      bitmap_words > r.Fits(sizeof(uint64_t))) {
    return corrupt("bitmap");
  }
  std::vector<uint64_t> bitmap(bitmap_words);
  r.Bytes(bitmap.data(), bitmap_words * sizeof(uint64_t));
  index->bitmap_ = SlotBitmap(std::move(bitmap));

  // Every writer (the builder, LiveUpdater::Flush) leaves the allocation
  // cursor at the end of the image: a cursor inside it would let later
  // inserts overwrite built blocks with validly stamped ones.
  r.Pod(&index->next_block_idx_);
  const uint64_t image_end = index->sizes_.storage_bytes;
  if (!r.ok() || image_end < layout.bucket_base ||
      index->next_block_idx_ !=
          (image_end - layout.bucket_base) / layout.block_bytes ||
      layout.BlockAddr(index->next_block_idx_) != image_end) {
    return corrupt("allocation cursor");
  }
  uint64_t tombstones = 0;
  r.Pod(&tombstones);
  if (!r.ok() || tombstones > r.Fits(sizeof(uint32_t))) {
    return corrupt("tombstone list");
  }
  for (uint64_t i = 0; i < tombstones; ++i) {
    uint32_t id = 0;
    r.Pod(&id);
    index->tombstones_.insert(id);
  }

  uint8_t checksums = 0;
  r.Pod(&checksums);
  if (!r.ok() || checksums > 1) return corrupt("checksum flag");
  if (checksums == 0) {
    return Status::FailedPrecondition(
        path + " describes an index image without block checksums; "
        "rebuild it with Index::Build or `e2lshos_cli build`");
  }

  // Every address must name a whole block inside the stored image.
  const auto block_in_image = [&layout, image_end](uint64_t addr) {
    return addr >= layout.bucket_base &&
           (addr - layout.bucket_base) % layout.block_bytes == 0 &&
           storage::RangeInCapacity(addr, layout.block_bytes, image_end);
  };
  index->pair_base_.resize(layout.num_pairs());
  r.Bytes(index->pair_base_.data(), layout.num_pairs() * sizeof(uint64_t));
  if (!r.ok()) return corrupt("pair bases");
  for (const uint64_t base : index->pair_base_) {
    if (!block_in_image(base)) return corrupt("pair bases");
  }

  uint64_t born_live = 0;
  r.Pod(&born_live);
  if (!r.ok() || born_live > r.Fits(sizeof(BornLiveHead))) {
    return corrupt("born-live map");
  }
  std::vector<BornLiveHead>& born = *index->born_live_;
  born.resize(born_live);
  r.Bytes(born.data(), born_live * sizeof(BornLiveHead));
  if (!r.done()) return corrupt("born-live map");
  for (uint64_t i = 0; i < born_live; ++i) {
    const BornLiveHead& e = born[i];
    // Sorted and unique; a clear bit (a built bucket has a rank address);
    // a real block.
    if ((i > 0 && e.key <= born[i - 1].key) ||
        e.key >= total_bits || index->bitmap_.Test(e.key) || e.addr == 0 ||
        !block_in_image(e.addr)) {
      return corrupt("born-live map");
    }
  }

  if (image_end > device->capacity()) {
    return Status::OutOfRange("device smaller than the stored index image");
  }
  // No block-size-vs-alignment gate here: the query engine widens any
  // bucket-block read to the device's advertised alignment unit, so an
  // index laid out at 128- or 512-byte blocks serves correctly from a
  // direct device with a coarser granularity.

  // The hash family is fully determined by (dim, params): regenerate it.
  index->family_ = lsh::HashFamily(index->dim_, p);
  // The DRAM figure describes this build's structures, not the writer's.
  index->sizes_.dram_index_bytes = index->DramIndexBytes();
  return index;
}

Status SaveIndexImage(const StorageIndex& index, const std::string& path) {
  storage::BlockDevice* device = index.device();
  if (device == nullptr) return Status::InvalidArgument("index has no device");
  const uint64_t bytes = index.sizes().storage_bytes;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open " + path + " for write");
  constexpr uint32_t kChunk = 1 << 20;
  // One read per unit — max(sector, io_alignment()) — because a
  // StripedDevice rejects any request crossing its 512-byte stripe unit.
  // ReadSync keeps a chunk's units in flight together, so wall-clock-gated
  // simulated devices drain at their parallel bandwidth.
  const uint32_t unit =
      std::max<uint32_t>(storage::kSectorBytes, device->io_alignment());
  std::vector<uint8_t> buf(kChunk);
  std::vector<storage::IoRequest> reqs;
  Status st;
  for (uint64_t off = 0; off < bytes && st.ok(); off += kChunk) {
    const uint32_t len =
        static_cast<uint32_t>(std::min<uint64_t>(kChunk, bytes - off));
    reqs.clear();
    for (uint32_t rel = 0; rel < len; rel += unit) {
      reqs.push_back({off + rel, std::min(unit, len - rel), buf.data() + rel, 0});
    }
    st = device->ReadSync(reqs.data(), reqs.size());
    if (st.ok() && std::fwrite(buf.data(), 1, len, f) != len) {
      st = Status::IoError("short write to " + path);
    }
  }
  std::fclose(f);
  return st;
}

Result<uint64_t> LoadIndexImage(const std::string& path,
                                storage::BlockDevice* device) {
  if (device == nullptr) return Status::InvalidArgument("null device");
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open image " + path);
  constexpr uint32_t kChunk = 1 << 20;
  std::vector<uint8_t> buf(kChunk);
  uint64_t off = 0;
  Status st;
  for (;;) {
    const size_t got = std::fread(buf.data(), 1, kChunk, f);
    if (got == 0) {
      if (std::ferror(f) != 0) st = Status::IoError("read error on " + path);
      break;
    }
    st = device->Write(off, buf.data(), static_cast<uint32_t>(got));
    if (!st.ok()) break;
    off += got;
  }
  std::fclose(f);
  if (!st.ok()) return st;
  return off;
}

}  // namespace e2lshos::core
