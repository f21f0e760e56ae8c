// Transparent DRAM read cache over any BlockDevice.
//
// The paper's premise is a memory hierarchy with flash as the capacity
// tier; production traffic is Zipfian, so the hot fraction of table
// entries and bucket blocks should serve at DRAM speed while the tail
// stays on the device. CacheDevice is that layer:
//
//   * Sharded CLOCK over fixed-size cache blocks of
//     max(inner->io_alignment(), 512) bytes. Each shard owns a private
//     mutex, a block map, and a contiguous data arena; a read that hits
//     touches only the shard locks of the blocks it covers — no
//     cache-wide lock exists.
//   * Reads that miss fall through to the inner device, widened to cache
//     block boundaries so the fill populates whole blocks; the caller's
//     completion carries the original user_data and the inner latency.
//   * Writes are write-through: the inner device is updated first, then
//     any resident blocks are patched in place (no allocate-on-write, so
//     index construction does not flood the cache). A global write epoch
//     invalidates in-flight fills that raced the write.
//   * Queues: CreateQueue wraps one inner queue in a new CacheDevice
//     over the same store, with its own miss tracking, preserving the
//     zero-shared-lock property of per-shard serving (hits contend only
//     on cache-shard locks, which are keyed by block address, not by
//     queue).
//
// Transparency contract: with the cache in place, every read returns
// bit-identical data and the same status codes as without it (alignment
// violations are rejected up front exactly as the inner device would).
// hits/misses/evictions/bytes_cached surface through DeviceStats.
//
// Stats semantics: the device's stats() covers its own reads, every
// queue it created (live or destroyed), and the store's eviction/
// residency gauges; a queue's stats() covers its own reads only. A
// queue's ResetStats is queue-local, while the device's resets its own
// reads, every queue, the eviction counter, and the inner device — one
// full reset, never a double-count. Cache *contents* survive ResetStats.
#pragma once

#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/block_device.h"
#include "util/aligned_buffer.h"

namespace e2lshos::storage {

class CacheDevice : public BlockDevice {
 public:
  struct Options {
    /// DRAM budget; rounded down to whole cache blocks. Must hold at
    /// least one block.
    uint64_t capacity_bytes = 0;
    /// Lock shards (clamped so every shard holds >= 1 block).
    uint32_t shards = 16;
    /// Completion-inbox bound of the device-level path (queues take
    /// theirs from QueueOptions::queue_capacity).
    uint32_t queue_capacity = 1024;
    /// Reads spanning more cache blocks than this bypass the cache
    /// entirely (forwarded verbatim, nothing inserted): bulk image
    /// copies must not wipe out the hot set.
    uint32_t max_cached_read_blocks = 16;
  };

  /// Own the wrapped device.
  static Result<std::unique_ptr<CacheDevice>> Create(
      std::unique_ptr<BlockDevice> inner, const Options& options);
  /// Borrow a caller-owned device (tests/benches sharing one stack).
  static Result<std::unique_ptr<CacheDevice>> Wrap(BlockDevice* inner,
                                                   const Options& options);

  ~CacheDevice() override;

  Status SubmitRead(const IoRequest& req) override;
  size_t PollCompletions(IoCompletion* out, size_t max) override;
  Status Write(uint64_t offset, const void* data, uint32_t length) override;
  uint64_t capacity() const override { return inner_->capacity(); }
  uint32_t io_alignment() const override { return inner_->io_alignment(); }
  uint32_t outstanding() const override;
  std::string name() const override;
  DeviceStats stats() const override;
  void ResetStats() override;

  /// A CacheDevice over one inner queue and the same block store, with
  /// its own miss tracking and completion inbox.
  QueueResult CreateQueue(const QueueOptions& options) override;

  /// The wrapped device (borrowed; owned by this object when Create()d).
  BlockDevice* inner() { return inner_; }
  /// Cache block size: max(inner io_alignment, 512).
  uint32_t cache_block_bytes() const;

 private:
  class Store;  // sharded-CLOCK block store (cache_device.cc)

  /// One miss in flight on the inner endpoint.
  struct Slot {
    util::AlignedBuffer stage;
    IoRequest orig;
    uint64_t widened_off = 0;
    uint32_t widened_len = 0;
    uint64_t epoch = 0;
    bool bypass = false;
  };

  friend class QueueRegistry<CacheDevice>;

  CacheDevice(std::unique_ptr<BlockDevice> owned, BlockDevice* inner,
              const Options& options, std::shared_ptr<Store> store,
              CacheDevice* parent);
  static Result<std::unique_ptr<CacheDevice>> Make(
      std::unique_ptr<BlockDevice> owned, BlockDevice* inner,
      const Options& options);

  size_t AcquireSlot();

  /// This endpoint's cache-level reads (hits never reach the device).
  DeviceStats OwnCounters() const;
  uint32_t OwnOutstanding() const;
  void ResetOwnCounters();

  std::unique_ptr<BlockDevice> owned_;  ///< Null when Wrap()ed.
  BlockDevice* inner_;
  const Options options_;
  /// Shared by the device and every queue it created.
  std::shared_ptr<Store> store_;
  CacheDevice* parent_;  ///< The device that created this queue, or null.
  const uint64_t capacity_;
  const uint32_t align_;
  const uint64_t max_cached_bytes_;

  mutable std::mutex mu_;
  std::deque<IoCompletion> inbox_;  ///< Hit completions awaiting Poll.
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<size_t> free_slots_;
  uint32_t in_flight_ = 0;  ///< Miss reads outstanding on inner_.
  DeviceStats stats_;
  QueueRegistry<CacheDevice> queues_;
};

}  // namespace e2lshos::storage
