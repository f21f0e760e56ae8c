// On-storage index layout of E2LSHoS (paper Sec. 5.1-5.2, Fig. 9),
// format v4.
//
// The device address space holds, in order:
//
//   [ reserved ][ pair 0: heads | overflow ][ pair 1: heads | overflow ] ...
//
// * Address 0 means "empty / end of chain" everywhere (a block's `next`,
//   live-update overlay values), so the first block_bytes stay zero and
//   the bucket region starts at bucket_base = block_bytes.
//
// * Each (radius r, compound hash l) pair owns a table of 2^u slots; u
//   is chosen slightly below log2(n). In build order, a pair's region
//   holds one chain-head block per non-empty slot, in slot order, then
//   the pair's overflow blocks. A head's address is computed in DRAM
//   from the non-empty-slot bitmap (StorageIndex::ChainHead):
//
//     head(r, l, slot) = pair_base[r][l] + rank(slot) * block_bytes
//
//   where rank(slot) counts the pair's non-empty slots below `slot`. The
//   paper stores an 8-byte head address per slot in an on-storage hash
//   table and reads it before the bucket (two dependent I/Os per probed
//   bucket); here a probed bucket costs one read plus its overflow
//   blocks.
//
// * Bucket blocks: 512-byte blocks (the minimum NVMe read unit) forming a
//   linked list per bucket:
//
//     +-----------------------------+------------------------------+
//     | header (16 B)               | object infos (5 B each, <=99)|
//     |  next-block address (8 B)   |  [ id | fingerprint ]        |
//     |  object count       (2 B)   |                              |
//     |  CRC32C             (4 B)   |                              |
//     |  reserved           (2 B)   |                              |
//     +-----------------------------+------------------------------+
//
//   The object id addresses the in-DRAM coordinates; the fingerprint is
//   the upper v-u bits of the 32-bit compound hash value, checked when
//   the block is read to reject table-index collisions.
//
// Integrity: header bytes [10,14) hold a CRC32C of the whole block
// computed with that field as zero; bytes [14,16) stay reserved. The
// DRAM metadata that addresses every head (bitmap, pair bases, the map
// of buckets born after the build) carries its own CRC32C in the meta
// file (persistence.cc).
#pragma once

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "lsh/fingerprint.h"
#include "util/crc32c.h"
#include "util/status.h"

namespace e2lshos::core {

/// Default block size: minimum read unit of a typical NVMe SSD.
inline constexpr uint32_t kDefaultBlockBytes = 512;
inline constexpr uint32_t kBlockHeaderBytes = 16;
inline constexpr uint32_t kObjectInfoBytes = 5;

/// Objects that fit in one block of a given size.
constexpr uint32_t ObjectsPerBlock(uint32_t block_bytes) {
  return (block_bytes - kBlockHeaderBytes) / kObjectInfoBytes;
}
static_assert(ObjectsPerBlock(kDefaultBlockBytes) == 99,
              "paper reports 99 objects per 512-byte block");

/// \brief Bucket block header codec.
struct BlockHeader {
  uint64_t next = 0;   ///< Storage address of next block in chain; 0 = end.
  uint16_t count = 0;  ///< Object infos in this block.

  void EncodeTo(uint8_t* block) const {
    std::memcpy(block, &next, 8);
    std::memcpy(block + 8, &count, 2);
    std::memset(block + 10, 0, 6);  // reserved / debug padding
  }
  static BlockHeader DecodeFrom(const uint8_t* block) {
    BlockHeader h;
    std::memcpy(&h.next, block, 8);
    std::memcpy(&h.count, block + 8, 2);
    return h;
  }
};

/// Byte offset of the per-block CRC32C inside the header.
inline constexpr uint32_t kBlockCrcOffset = 10;

/// CRC32C of a bucket block with the CRC field treated as zero, so the
/// stamp can live inside the block it protects.
inline uint32_t ComputeBlockCrc(const uint8_t* block, uint32_t block_bytes) {
  static constexpr uint8_t kZeros[4] = {0, 0, 0, 0};
  uint32_t crc = util::Crc32cExtend(0xFFFFFFFFu, block, kBlockCrcOffset);
  crc = util::Crc32cExtend(crc, kZeros, sizeof(kZeros));
  crc = util::Crc32cExtend(crc, block + kBlockCrcOffset + 4,
                           block_bytes - kBlockCrcOffset - 4);
  return crc ^ 0xFFFFFFFFu;
}

/// Stamp the block's CRC into header bytes [10,14). Call after the last
/// header/payload mutation — BlockHeader::EncodeTo zeroes the field.
inline void StampBlockCrc(uint8_t* block, uint32_t block_bytes) {
  const uint32_t crc = ComputeBlockCrc(block, block_bytes);
  std::memcpy(block + kBlockCrcOffset, &crc, 4);
}

/// True when the stored stamp matches the block's contents. Only
/// meaningful on images built with checksums (the caller gates on the
/// index metadata; a checksum-less build stores zeros here).
inline bool VerifyBlockCrc(const uint8_t* block, uint32_t block_bytes) {
  uint32_t stored = 0;
  std::memcpy(&stored, block + kBlockCrcOffset, 4);
  return stored == ComputeBlockCrc(block, block_bytes);
}

/// \brief 5-byte object info codec: id in the low id_bits, fingerprint
/// above it. id_bits + fingerprint bits must fit in 40.
struct ObjectInfoCodec {
  uint32_t id_bits = 0;
  uint32_t fp_bits = 0;

  static Result<ObjectInfoCodec> Make(uint64_t n, const lsh::FingerprintScheme& fp) {
    // One spare bit of id headroom so online inserts have room to grow
    // before a rebuild is required.
    const uint32_t id_bits = (n <= 2 ? 1 : util::FloorLog2(n - 1) + 1) + 1;
    return MakeWithIdBits(id_bits, fp);
  }

  /// Rebuild the codec from a fixed id width (recorded in the layout at
  /// build time; must not be re-derived from a post-insert n).
  static Result<ObjectInfoCodec> MakeWithIdBits(uint32_t id_bits,
                                                const lsh::FingerprintScheme& fp) {
    ObjectInfoCodec c;
    c.id_bits = id_bits;
    c.fp_bits = fp.fingerprint_bits();
    if (c.id_bits + c.fp_bits > 8 * kObjectInfoBytes) {
      return Status::InvalidArgument("object info exceeds 5 bytes");
    }
    return c;
  }

  uint64_t Encode(uint32_t id, uint32_t fingerprint) const {
    return static_cast<uint64_t>(id) |
           (static_cast<uint64_t>(fingerprint) << id_bits);
  }
  uint32_t DecodeId(uint64_t v) const {
    return static_cast<uint32_t>(v & ((1ULL << id_bits) - 1));
  }
  uint32_t DecodeFingerprint(uint64_t v) const {
    return static_cast<uint32_t>((v >> id_bits) & ((1ULL << fp_bits) - 1));
  }

  void Write(uint8_t* dst, uint32_t id, uint32_t fingerprint) const {
    const uint64_t v = Encode(id, fingerprint);
    std::memcpy(dst, &v, kObjectInfoBytes);  // little-endian, low 5 bytes
  }
  uint64_t Read(const uint8_t* src) const {
    uint64_t v = 0;
    std::memcpy(&v, src, kObjectInfoBytes);
    return v;
  }
};

/// \brief Which slots of every (radius, l) table were non-empty at build
/// time: one bit per slot in StorageIndex::BucketKey order, plus a rank
/// directory (one u32 per 512 bits) that locates each built bucket's
/// head block (IndexLayout::HeadAddr). Immutable: setting a bit would
/// shift the address of every later head of its pair.
class SlotBitmap {
 public:
  SlotBitmap() = default;
  explicit SlotBitmap(std::vector<uint64_t> words) : words_(std::move(words)) {
    rank_dir_.assign((words_.size() + 7) / 8, 0);
    uint32_t rank = 0;
    for (size_t w = 0; w < words_.size(); ++w) {
      if (w % 8 == 0) rank_dir_[w / 8] = rank;
      rank += static_cast<uint32_t>(__builtin_popcountll(words_[w]));
    }
  }

  bool Test(uint64_t bit) const { return (words_[bit >> 6] >> (bit & 63)) & 1; }

  /// Set bits below `bit`, modulo 2^32: a directory entry, then at most
  /// seven whole words and one masked word.
  uint32_t Rank(uint64_t bit) const {
    const uint64_t word = bit >> 6;
    uint32_t rank = rank_dir_[word >> 3];
    for (uint64_t w = word & ~uint64_t{7}; w < word; ++w) {
      rank += static_cast<uint32_t>(__builtin_popcountll(words_[w]));
    }
    const uint64_t below = (uint64_t{1} << (bit & 63)) - 1;
    return rank + static_cast<uint32_t>(__builtin_popcountll(words_[word] & below));
  }

  const std::vector<uint64_t>& words() const { return words_; }
  uint64_t MemoryBytes() const {
    return words_.size() * sizeof(uint64_t) + rank_dir_.size() * sizeof(uint32_t);
  }

 private:
  std::vector<uint64_t> words_;
  std::vector<uint32_t> rank_dir_;
};

/// \brief Address arithmetic for the whole index.
struct IndexLayout {
  uint32_t num_radii = 0;
  uint32_t L = 0;
  lsh::FingerprintScheme fp;
  uint32_t id_bits = 0;  ///< Fixed at build time; bounds insertable ids.
  uint32_t block_bytes = kDefaultBlockBytes;
  /// Byte offset of the bucket block region: one reserved block, so no
  /// block ever sits at address 0.
  uint64_t bucket_base = 0;

  uint64_t slots_per_table() const { return fp.table_slots(); }
  uint32_t num_pairs() const { return num_radii * L; }

  /// Byte address of the head block of the built bucket with bitmap bit
  /// `key` (which must be set): its pair's first head block plus the
  /// bucket's rank among the pair's non-empty slots. Ranks are kept
  /// modulo 2^32 and a pair has at most 2^32 slots, so the in-pair
  /// difference is exact.
  uint64_t HeadAddr(const SlotBitmap& bitmap, uint64_t pair_base,
                    uint64_t key) const {
    const uint64_t pair_start = key >> fp.u << fp.u;
    const uint32_t rank = bitmap.Rank(key) - bitmap.Rank(pair_start);
    return pair_base + static_cast<uint64_t>(rank) * block_bytes;
  }

  /// Byte address of bucket block number `idx` (0-based).
  uint64_t BlockAddr(uint64_t idx) const {
    return bucket_base + idx * block_bytes;
  }

  uint32_t objects_per_block() const { return ObjectsPerBlock(block_bytes); }
};

}  // namespace e2lshos::core
