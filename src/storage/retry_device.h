// Bounded-retry layer over any BlockDevice: transient read errors —
// from flaky hardware or an injected fault plane (faulty_device.h) —
// become delayed successes instead of failed queries.
//
// Policy: up to `max_attempts` total attempts per read, exponential
// backoff with jitter between attempts, and an optional per-request
// deadline measured from the first submit. Only transient errors are
// retried (IoError / Internal / Unavailable); ResourceExhausted is
// backpressure and OutOfRange / InvalidArgument are caller bugs — all
// three pass through untouched.
//
// The layer is asynchronous and poll-driven, so engine threads never
// block in a backoff sleep:
//   * a transient *submit* error is absorbed — SubmitRead returns OK and
//     the request parks in a deferred list with a due time;
//   * a transient *completion* error removes the completion from the
//     harvest and parks the request the same way;
//   * every PollCompletions first resubmits the deferred requests whose
//     backoff has elapsed, then harvests the inner device;
//   * a request out of attempts or past its deadline completes with the
//     last error (counted in DeviceStats::retries_exhausted).
// Each resubmit bumps DeviceStats::retries. A retried read that finally
// succeeds is indistinguishable from a slow one: same bytes, same OK
// completion, latency the last attempt's plus the span from the first
// submit to the last (the backoffs); a read that needed no retry keeps
// the device's latency.
//
// First-class URI layer: `retry=N[,backoff:USEC][,deadline:USEC]` on any
// scheme, stacked outside `fault=` (see storage/device_registry.h).
// One RetryDevice drives one inner endpoint; CreateQueue wraps an inner
// queue in a new RetryDevice with its own state and jitter stream,
// preserving zero-shared-lock serving.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/block_device.h"
#include "util/rng.h"

namespace e2lshos::storage {

class RetryDevice : public BlockDevice {
 public:
  struct Options {
    /// Total attempts per read, the first included. 1 = no retries.
    uint32_t max_attempts = 3;
    /// Backoff before the second attempt; doubles each further attempt.
    uint64_t backoff_usec = 200;
    /// Uniform jitter applied to each backoff: factor in [1-j, 1+j].
    double jitter = 0.5;
    /// Total per-request budget from first submit; a retry that cannot
    /// finish by then fails immediately. 0 = no deadline.
    uint64_t deadline_usec = 0;
    uint64_t seed = 17;  ///< Jitter RNG.
  };

  /// Own the wrapped device (the URI-layer path).
  static Result<std::unique_ptr<RetryDevice>> Create(
      std::unique_ptr<BlockDevice> inner, const Options& options);

  /// Borrow a caller-owned device (tests sharing one stack).
  RetryDevice(BlockDevice* inner, const Options& options);

  ~RetryDevice() override;

  Status SubmitRead(const IoRequest& req) override;
  size_t PollCompletions(IoCompletion* out, size_t max) override;
  Status Write(uint64_t offset, const void* data, uint32_t length) override {
    return inner_->Write(offset, data, length);
  }
  uint64_t capacity() const override { return inner_->capacity(); }
  uint32_t io_alignment() const override { return inner_->io_alignment(); }
  uint32_t outstanding() const override;
  std::string name() const override { return inner_->name() + " (retry)"; }
  DeviceStats stats() const override;
  void ResetStats() override;
  Status RegisterBuffers(
      const std::vector<std::pair<void*, size_t>>& regions) override {
    return inner_->RegisterBuffers(regions);
  }

  /// A RetryDevice over one inner queue, with its own retry state and
  /// jitter stream.
  QueueResult CreateQueue(const QueueOptions& options) override;

  /// The wrapped device (borrowed; owned by this object when Create()d).
  BlockDevice* inner() { return inner_; }

 private:
  /// A request this endpoint is responsible for until it completes.
  struct Track {
    IoRequest req;
    uint32_t attempts = 0;  ///< Submits that reached (or tried) the device.
    uint64_t first_ns = 0;
    uint64_t last_ns = 0;  ///< The latest submit; first_ns until a retry.
    uint64_t ticket = 0;
    StatusCode last_code = StatusCode::kIoError;
  };

  struct Deferred {
    Track track;
    uint64_t due_ns = 0;
  };

  friend class QueueRegistry<RetryDevice>;

  RetryDevice(std::unique_ptr<BlockDevice> owned, BlockDevice* inner,
              const Options& options, RetryDevice* parent);

  /// Another attempt is allowed: attempts left, and a backoff'd resubmit
  /// could still land inside the per-request deadline.
  bool CanRetry(const Track& t, uint64_t now) const;
  uint64_t BackoffNs(uint32_t attempts_done, bool jittered) const;
  /// Park `t` for a backoff. mu_ held.
  void DeferLocked(Track&& t, uint64_t now);
  void ResubmitDue();

  /// This endpoint's retries and retries_exhausted.
  DeviceStats OwnCounters() const;
  /// Requests parked for a backoff or failed awaiting delivery.
  uint32_t OwnOutstanding() const;
  void ResetOwnCounters();

  std::unique_ptr<BlockDevice> owned_;  ///< Null when borrowing.
  BlockDevice* inner_;
  const Options options_;
  RetryDevice* parent_;  ///< The device that created this queue, or null.
  mutable std::mutex mu_;
  mutable util::Rng rng_;
  uint64_t ticket_seq_ = 0;
  std::unordered_map<uint64_t, Track> tracked_;
  std::vector<Deferred> deferred_;
  std::vector<IoCompletion> ready_;
  DeviceStats stats_;
  QueueRegistry<RetryDevice> queues_;
};

}  // namespace e2lshos::storage
