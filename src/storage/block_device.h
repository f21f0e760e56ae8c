// Abstract block device with an asynchronous read interface.
//
// This is the substrate the paper's E2LSHoS runs on. The model follows
// Sec. 4.1 of the paper: the CPU submits read requests (possibly many in
// flight, i.e. a deep queue) and later harvests completions; the device
// processes requests in parallel across its internal flash units.
//
// Contract:
//  * Reads and writes must not cross a 512-byte block boundary unless the
//    device documents otherwise (SimulatedDevice, `mem:` included, allows
//    arbitrary extents; StripedDevice enforces the boundary rule).
//  * SubmitRead may return ResourceExhausted when the device queue is
//    full; the caller must PollCompletions and retry.
//  * user_data is round-tripped to the completion untouched.
//  * Writes are synchronous from the caller's point of view: Write (and
//    the batched WriteBatch) return only when the data is durable in the
//    device's backing store. Index construction uses them off the
//    measured path; the live-update path (core/live_updater.h) issues
//    them concurrently with serving reads — devices must tolerate a
//    writer thread alongside reader threads, which every backend here
//    does (per-sector stripe locks, pwrite/ring writes on an idempotent
//    fd, the DRAM backing lock described next).
//  * A read that overlaps a concurrent Write returns, for each 512-byte
//    sector, either its old bytes or its new ones. The DRAM-backed
//    SimulatedDevice (`sim:` and `mem:`) copies a completed read out of
//    its backing under a shared lock that Write takes exclusively, so
//    it returns each overlapping Write's bytes whole or not at all.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.h"
#include "util/status.h"

namespace e2lshos::storage {

/// \brief The read unit used throughout the paper: the minimum NVMe
/// sector size.
inline constexpr uint32_t kSectorBytes = 512;

/// \brief True when [offset, offset+length) lies within capacity. Written
/// without `offset + length` so a corrupt address near UINT64_MAX cannot
/// wrap past the bound.
inline constexpr bool RangeInCapacity(uint64_t offset, uint64_t length,
                                      uint64_t capacity) {
  return length <= capacity && offset <= capacity - length;
}

/// \brief One asynchronous read request.
struct IoRequest {
  uint64_t offset = 0;     ///< Byte offset on the device.
  uint32_t length = 0;     ///< Bytes to read.
  void* buf = nullptr;     ///< Destination buffer (caller-owned).
  uint64_t user_data = 0;  ///< Opaque tag returned with the completion.
};

/// \brief One harvested completion.
struct IoCompletion {
  uint64_t user_data = 0;
  StatusCode code = StatusCode::kOk;
  uint64_t latency_ns = 0;  ///< Submit-to-completion time.
};

/// \brief One write extent of a WriteBatch burst.
struct WriteOp {
  uint64_t offset = 0;
  const void* data = nullptr;
  uint32_t length = 0;
};

/// \brief Aggregate device counters (reset with ResetStats).
struct DeviceStats {
  uint64_t reads_submitted = 0;
  uint64_t reads_completed = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t busy_ns = 0;  ///< Sum of per-unit service time consumed.
  /// DRAM-cache layer counters (storage/cache_device.h); zero on devices
  /// without a cache. hits/misses count whole reads, not blocks.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  /// Resident cache bytes at snapshot time — a gauge, not a counter; it
  /// survives ResetStats (the cache keeps its contents).
  uint64_t bytes_cached = 0;
  /// Fault-injection layer counters (storage/faulty_device.h); zero on
  /// devices without a fault layer.
  uint64_t faults_injected = 0;  ///< Submit + completion + corrupt + stall.
  /// Retry layer counters (storage/retry_device.h); zero without one.
  uint64_t retries = 0;          ///< Resubmits after a transient error.
  uint64_t retries_exhausted = 0;  ///< Requests failed after the last attempt.
  /// Live-update counters (core/live_updater.h), folded in by the api
  /// facade's device_stats(); zero straight off a device.
  uint64_t updates_applied = 0;   ///< Inserts + removes + restores staged.
  uint64_t epochs_published = 0;
  uint64_t update_staged_bytes = 0;  ///< Device bytes written by staging.
  uint64_t update_lag = 0;  ///< Ops staged but not yet reader-visible.
  util::LatencyHistogram read_latency;

  /// The counter list: calls fn(name, member) once per counter above, in
  /// this order. Merge, the Stats RPC (net/wire.h) and the CLI reports
  /// iterate it, so a new counter is a member plus one line here.
  template <class Fn>
  static constexpr void ForEachField(Fn&& fn) {
    fn("reads_submitted", &DeviceStats::reads_submitted);
    fn("reads_completed", &DeviceStats::reads_completed);
    fn("bytes_read", &DeviceStats::bytes_read);
    fn("bytes_written", &DeviceStats::bytes_written);
    fn("busy_ns", &DeviceStats::busy_ns);
    fn("cache_hits", &DeviceStats::cache_hits);
    fn("cache_misses", &DeviceStats::cache_misses);
    fn("cache_evictions", &DeviceStats::cache_evictions);
    fn("bytes_cached", &DeviceStats::bytes_cached);
    fn("faults_injected", &DeviceStats::faults_injected);
    fn("retries", &DeviceStats::retries);
    fn("retries_exhausted", &DeviceStats::retries_exhausted);
    fn("updates_applied", &DeviceStats::updates_applied);
    fn("epochs_published", &DeviceStats::epochs_published);
    fn("update_staged_bytes", &DeviceStats::update_staged_bytes);
    fn("update_lag", &DeviceStats::update_lag);
  }

  /// Fold `more` in: counters add, the latency histogram merges.
  /// bytes_cached adds too: per-queue snapshots report 0 and only the
  /// cache device that owns the store contributes the gauge, so the
  /// aggregate stays the gauge.
  void Merge(const DeviceStats& more) {
    ForEachField([&](const char*, uint64_t DeviceStats::*c) {
      this->*c += more.*c;
    });
    read_latency.Merge(more.read_latency);
  }
};

/// A member left out of the counter list fails this.
static_assert(sizeof(DeviceStats) ==
              util::CountFields<DeviceStats>() * sizeof(uint64_t) +
                  sizeof(util::LatencyHistogram));

/// \brief Per-queue configuration for BlockDevice::CreateQueue.
struct QueueOptions {
  /// Max submitted-but-unharvested reads on this queue.
  uint32_t queue_capacity = 256;
};

class BlockDevice;
using QueueResult = Result<std::unique_ptr<BlockDevice>>;

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  /// Queue an asynchronous read. May fail with ResourceExhausted (queue
  /// full) or OutOfRange (beyond capacity).
  virtual Status SubmitRead(const IoRequest& req) = 0;

  /// Harvest up to `max` completions into `out`; returns the count.
  /// Non-blocking.
  virtual size_t PollCompletions(IoCompletion* out, size_t max) = 0;

  /// Synchronous write (index construction and the live-update staging
  /// path; see the contract comment above for concurrency expectations).
  virtual Status Write(uint64_t offset, const void* data, uint32_t length) = 0;

  /// Write a burst of extents; returns on the first failure (extents
  /// before it are durable, the failed one and everything after are
  /// not). The default loops over Write; UringDevice overrides it with
  /// one ring submission for the whole burst.
  virtual Status WriteBatch(const WriteOp* ops, size_t count) {
    for (size_t i = 0; i < count; ++i) {
      E2_RETURN_NOT_OK(Write(ops[i].offset, ops[i].data, ops[i].length));
    }
    return Status::OK();
  }

  /// Device capacity in bytes.
  virtual uint64_t capacity() const = 0;

  /// Required alignment of request offsets and lengths, in bytes.
  /// 1 = arbitrary extents; an O_DIRECT FileDevice requires sectors.
  virtual uint32_t io_alignment() const { return 1; }

  /// Number of requests submitted but not yet harvested.
  virtual uint32_t outstanding() const = 0;

  /// Human-readable device description.
  virtual std::string name() const = 0;

  /// A consistent snapshot of the counters, by value: devices are
  /// driven from many threads, so returning a reference to live
  /// internals would hand the caller a torn read.
  virtual DeviceStats stats() const = 0;
  virtual void ResetStats() = 0;

  /// Create an independently-pollable queue over this device (NVMe
  /// semantics: one queue pair per serving thread, paper Sec. 6.5). The
  /// queue owns its submissions and completions: polling it never
  /// consumes another queue's completions, and its outstanding()/stats()
  /// cover only its own traffic, while the device's stats() keep
  /// counting every queue, live or destroyed. Thread-safe; the queue is
  /// driven by one thread at a time and must not outlive the device.
  /// Every device and layer here implements it; the default is
  /// Unimplemented.
  virtual QueueResult CreateQueue(const QueueOptions& options);

  /// Pin caller-owned buffer regions with the device so reads into them
  /// skip per-I/O setup (io_uring READ_FIXED). Call before I/O is in
  /// flight; regions must stay valid for the device's lifetime. The
  /// default is Unimplemented — registration is an optimization, so
  /// callers treat failure as "run unregistered", never as fatal.
  virtual Status RegisterBuffers(
      const std::vector<std::pair<void*, size_t>>& regions);

  /// Submit a burst of `count` reads and spin until every one completes:
  /// the "synchronous I/O" execution mode of Fig. 1(A), at queue depth
  /// `count` instead of 1. The requests' user_data is ignored — the
  /// burst tags each read with its index and matches completions by that
  /// tag, so nothing else may poll this device meanwhile (use a private
  /// queue). A full queue (ResourceExhausted) is drained, then the rest
  /// resubmitted. The first failure stops further submissions and is
  /// returned only once every submitted read has completed, so no caller
  /// buffer is released under a read still in flight.
  Status ReadSync(const IoRequest* reqs, size_t count);

  /// One read: ReadSync over a single request.
  Status ReadSync(uint64_t offset, void* buf, uint32_t length) {
    const IoRequest req{offset, length, buf, 0};
    return ReadSync(&req, 1);
  }
};

/// \brief The attach/retire bookkeeping every device and layer shares.
///
/// A device keeps one registry for the queues it hands out: a queue
/// attaches at construction and retires at destruction. The registry
/// sees only each queue's own endpoint through three hooks on `Queue` —
/// `Counters OwnCounters() const`, `uint32_t OwnOutstanding() const` and
/// `void ResetOwnCounters()` — so a layer's queue leaves out the inner
/// queue it wraps, which the inner device's registry already counts.
/// Retiring folds a queue's final counters into a retired total, so a
/// device's counters never go backwards when a queue dies; ResetAll
/// zeroes the live queues and the retired total alike. `Counters` needs
/// a `Merge`. Thread-safe.
template <class Queue, class Counters = DeviceStats>
class QueueRegistry {
 public:
  /// Returns the queue's attach sequence number: 1, 2, ..., never reused.
  uint64_t Attach(Queue* queue) {
    std::lock_guard<std::mutex> lock(mu_);
    live_.push_back(queue);
    return ++attached_;
  }

  void Retire(const Queue* queue) {
    std::lock_guard<std::mutex> lock(mu_);
    retired_.Merge(queue->OwnCounters());
    live_.erase(std::find(live_.begin(), live_.end(), queue));
  }

  /// Fold every queue's counters, live and retired, into `into`.
  void AddTo(Counters* into) const {
    std::lock_guard<std::mutex> lock(mu_);
    into->Merge(retired_);
    for (const Queue* q : live_) into->Merge(q->OwnCounters());
  }

  uint32_t Outstanding() const {
    std::lock_guard<std::mutex> lock(mu_);
    uint32_t total = 0;
    for (const Queue* q : live_) total += q->OwnOutstanding();
    return total;
  }

  void ResetAll() {
    std::lock_guard<std::mutex> lock(mu_);
    retired_ = Counters{};
    for (Queue* q : live_) q->ResetOwnCounters();
  }

 private:
  mutable std::mutex mu_;
  std::vector<Queue*> live_;
  Counters retired_;
  uint64_t attached_ = 0;
};

}  // namespace e2lshos::storage
