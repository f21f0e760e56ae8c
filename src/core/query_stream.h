// The query source for streaming serving: SubmissionQueue, a bounded
// MPMC queue. Any number of producer threads submit queries while the
// StreamingServer's shard workers pull them one at a time, so the
// serving layer keeps the device queue deep across what used to be
// batch boundaries. Pulls are thread-safe (several shard workers pull
// concurrently), and each query is stamped with its enqueue time, the
// start of the enqueue→completion latency the server reports.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "util/status.h"

namespace e2lshos::core {

/// \brief One query travelling through the serving pipeline.
struct StreamQuery {
  uint64_t id = 0;          ///< Stream-assigned, echoed in the result.
  uint64_t enqueue_ns = 0;  ///< When the query entered the stream.
  /// Per-query neighbor count; 0 = the server's ServerOptions::k. The
  /// network daemon sets this from the request frame so a remote k is
  /// honored exactly (not truncated from a wider engine run, which
  /// would not be bit-identical under distance ties).
  uint32_t k = 0;
  std::vector<float> vec;
};

enum class StreamPull {
  kReady,    ///< A query was written to *out.
  kPending,  ///< Nothing available now, but the stream is still open.
  kClosed,   ///< Drained and closed: no query will ever arrive again.
};

/// \brief Bounded MPMC submission queue: the live-serving source.
///
/// Producer threads Submit() (blocking while the queue is full) or
/// TrySubmit(); the server's shard workers TryPull(). Close() ends the
/// stream: queued queries still drain, further submissions fail with
/// FailedPrecondition, and blocked producers wake immediately.
class SubmissionQueue {
 public:
  SubmissionQueue(uint32_t dim, size_t capacity)
      : dim_(dim), capacity_(capacity == 0 ? 1 : capacity) {}

  /// Copy `dim()` floats from `vec` into the queue; blocks while full.
  /// Returns the assigned query id. `k` overrides the server's
  /// per-session neighbor count for this query (0 = server default).
  Result<uint64_t> Submit(const float* vec, uint32_t k = 0);

  /// Non-blocking submit; ResourceExhausted when full.
  Result<uint64_t> TrySubmit(const float* vec, uint32_t k = 0);

  void Close();
  bool closed() const;
  size_t depth() const;  ///< Queries currently queued.

  /// Non-blocking pull; safe to call from many threads concurrently.
  /// Each query is handed out exactly once.
  StreamPull TryPull(StreamQuery* out);
  uint32_t dim() const { return dim_; }

  /// The serving side died (StreamingServer workers all exited without
  /// draining us). Closes the queue and wakes every producer blocked in
  /// Submit with FailedPrecondition — mentioning the dead consumer, not
  /// a caller-requested close. Queries still queued stay queued (and
  /// visible via depth()) but will never be pulled.
  void ConsumerStopped();

 private:
  Result<uint64_t> Enqueue(const float* vec, uint32_t k);  ///< mu_ held.
  Status ClosedStatus() const;                             ///< mu_ held.

  const uint32_t dim_;
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::deque<StreamQuery> queue_;
  uint64_t next_id_ = 0;
  // Written under mu_; read without it by TryPull's empty-queue check,
  // which the serving loop makes on every spin, and by depth().
  std::atomic<size_t> depth_{0};
  std::atomic<bool> closed_{false};
  bool consumer_stopped_ = false;
};

}  // namespace e2lshos::core
