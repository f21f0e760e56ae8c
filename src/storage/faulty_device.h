// Fault-injection layer for robustness testing: fails a configurable
// fraction of reads (at submit or at completion), corrupts payloads, and
// injects latency spikes ("stalls"). Production engines must degrade
// gracefully — a failed bucket read costs candidates, never a hang or a
// crash — and the layers above (RetryDevice, checksum verification, the
// daemon's health breaker) are proven against this device.
//
// First-class URI layer: `fault=submit:P,complete:P,corrupt:P,stall:USEC`
// on any scheme (see storage/device_registry.h). Writes are never
// injected — index construction must stay reliable so every run starts
// from a known-good image.
//
// Injection model:
//   * submit / completion failures and stalls are drawn from a
//     per-endpoint RNG — transient, non-deterministic per request,
//     exactly what a retry policy is meant to absorb.
//   * corruption is a pure function of (seed, request offset): the same
//     offset is corrupt on every read, on every queue, in every shard.
//     This makes checksum accounting reproducible — a sharded engine and
//     a single engine over the same seed report identical corrupt_blocks
//     — and models bit-rot (bad media) rather than a transport glitch.
//   * a stalled completion is harvested from the inner device but held
//     until its due time, then delivered with the stall added to its
//     latency.
//
// Concurrency: one FaultyDevice drives one inner endpoint, and all its
// fault bookkeeping sits behind its own mutex. CreateQueue wraps an
// inner queue in a new FaultyDevice with its own state and RNG stream,
// so queues share nothing but the options. Pending injections are keyed
// by user_data and erased under the lock *before* the completion is
// handed to the caller, and corrupt-path scrambling happens at harvest
// inside that same critical section — after the inner device has
// published the completion (so its writes into the buffer happen-before
// the scramble) and before the caller can observe the completion and
// reuse the buffer.
// Entries carry an insertion ticket so the submit-failure rollback can
// never erase a newer entry for a recycled user_data.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/block_device.h"
#include "util/rng.h"

namespace e2lshos::storage {

class FaultyDevice : public BlockDevice {
 public:
  struct Options {
    double submit_fail_rate = 0.0;      ///< SubmitRead returns IoError.
    double completion_fail_rate = 0.0;  ///< Completion carries IoError.
    /// Probability a given *offset* is corrupt (deterministic in
    /// (seed, offset); every read of a corrupt offset is scrambled).
    double corrupt_rate = 0.0;
    double stall_rate = 0.0;   ///< Completion held for stall_usec.
    uint64_t stall_usec = 0;   ///< Latency spike added to stalled reads.
    uint64_t seed = 13;
  };

  /// Own the wrapped device (the URI-layer path).
  static Result<std::unique_ptr<FaultyDevice>> Create(
      std::unique_ptr<BlockDevice> inner, const Options& options);

  /// Borrow a caller-owned device (tests sharing one stack).
  FaultyDevice(BlockDevice* inner, const Options& options);

  ~FaultyDevice() override;

  Status SubmitRead(const IoRequest& req) override;
  size_t PollCompletions(IoCompletion* out, size_t max) override;
  Status Write(uint64_t offset, const void* data, uint32_t length) override {
    return inner_->Write(offset, data, length);
  }
  uint64_t capacity() const override { return inner_->capacity(); }
  uint32_t io_alignment() const override { return inner_->io_alignment(); }
  uint32_t outstanding() const override;
  std::string name() const override { return inner_->name() + " (faulty)"; }
  DeviceStats stats() const override;
  void ResetStats() override;
  Status RegisterBuffers(
      const std::vector<std::pair<void*, size_t>>& regions) override {
    return inner_->RegisterBuffers(regions);
  }

  /// A FaultyDevice over one inner queue, with its own injection state
  /// and RNG stream.
  QueueResult CreateQueue(const QueueOptions& options) override;

  /// The wrapped device (borrowed; owned by this object when Create()d).
  BlockDevice* inner() { return inner_; }

  /// Injection counters of this endpoint and every queue it created
  /// (including queues already destroyed). Monotonic until ResetStats.
  uint64_t injected_submit_failures() const;
  uint64_t injected_completion_failures() const;
  uint64_t injected_corruptions() const;
  uint64_t injected_stalls() const;

  /// The deterministic corruption predicate, exposed so tests can
  /// predict exactly which offsets a given (seed, rate) poisons.
  static bool WouldCorrupt(uint64_t seed, uint64_t offset, double rate);

 private:
  struct Counters {
    uint64_t submit_failures = 0;
    uint64_t completion_failures = 0;
    uint64_t corruptions = 0;
    uint64_t stalls = 0;

    void Merge(const Counters& o) {
      submit_failures += o.submit_failures;
      completion_failures += o.completion_failures;
      corruptions += o.corruptions;
      stalls += o.stalls;
    }
  };

  /// A completion-side injection recorded at submit.
  struct Pending {
    enum Kind : uint8_t { kFail, kCorrupt, kStall } kind = kFail;
    uint64_t ticket = 0;
    void* buf = nullptr;
    uint32_t length = 0;
    uint64_t offset = 0;
    uint64_t due_ns = 0;
  };

  /// A stalled completion, harvested but not yet delivered.
  struct Held {
    IoCompletion completion;
    uint64_t due_ns = 0;
    uint64_t harvested_ns = 0;
  };

  friend class QueueRegistry<FaultyDevice, Counters>;

  FaultyDevice(std::unique_ptr<BlockDevice> owned, BlockDevice* inner,
               const Options& options, FaultyDevice* parent);

  /// Draw the injection decision for `req`. Returns the injected submit
  /// failure, or OK with `*ticket` != 0 when a pending completion-side
  /// injection was recorded (to roll back if the inner submit fails).
  Status BeforeSubmit(const IoRequest& req, uint64_t* ticket);
  void Scramble(const Pending& p) const;

  Counters OwnCounters() const;
  /// Stalled completions held back: outstanding from the caller's view.
  uint32_t OwnOutstanding() const;
  void ResetOwnCounters();
  Counters TotalCounters() const;

  std::unique_ptr<BlockDevice> owned_;  ///< Null when borrowing.
  BlockDevice* inner_;
  const Options options_;
  FaultyDevice* parent_;  ///< The device that created this queue, or null.
  mutable std::mutex mu_;
  util::Rng rng_;
  uint64_t ticket_seq_ = 0;
  std::unordered_map<uint64_t, Pending> pending_;
  std::vector<Held> held_;
  Counters counters_;
  QueueRegistry<FaultyDevice, Counters> queues_;
};

}  // namespace e2lshos::storage
