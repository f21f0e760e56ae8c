#include "core/query_stream.h"

#include "util/clock.h"

namespace e2lshos::core {

Result<uint64_t> SubmissionQueue::Enqueue(const float* vec, uint32_t k,
                                          uint64_t tag) {
  StreamQuery q;
  q.id = next_id_++;
  q.tag = tag;
  q.enqueue_ns = util::NowNs();
  q.k = k;
  q.vec.assign(vec, vec + dim_);
  const uint64_t id = q.id;
  queue_.push_back(std::move(q));
  depth_.store(queue_.size(), std::memory_order_relaxed);
  return id;
}

Result<uint64_t> SubmissionQueue::Submit(const float* vec, uint32_t k,
                                         uint64_t tag) {
  std::unique_lock<std::mutex> lock(mu_);
  not_full_.wait(lock, [this] { return closed_ || queue_.size() < capacity_; });
  if (closed_) return ClosedStatus();
  return Enqueue(vec, k, tag);
}

Result<uint64_t> SubmissionQueue::TrySubmit(const float* vec, uint32_t k,
                                            uint64_t tag) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return ClosedStatus();
  if (queue_.size() >= capacity_) {
    return Status::ResourceExhausted("submission queue full");
  }
  return Enqueue(vec, k, tag);
}

Status SubmissionQueue::ClosedStatus() const {
  return Status::FailedPrecondition(
      consumer_stopped_
          ? "serving stopped: the consumer exited without draining the "
            "submission queue"
          : "submission queue closed");
}

void SubmissionQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_full_.notify_all();
}

void SubmissionQueue::ConsumerStopped() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A caller-requested Close() that drained normally keeps its plain
    // "closed" message; this path marks the abnormal order (consumer
    // died first) so a wedged producer's error says what happened.
    if (!closed_) consumer_stopped_ = true;
    closed_ = true;
  }
  not_full_.notify_all();
}

bool SubmissionQueue::closed() const {
  return closed_.load(std::memory_order_relaxed);
}

size_t SubmissionQueue::depth() const {
  return depth_.load(std::memory_order_relaxed);
}

StreamPull SubmissionQueue::TryPull(StreamQuery* out) {
  // An open, empty queue answers without the lock: a busy shard polls
  // here between device polls.
  if (depth_.load(std::memory_order_relaxed) == 0 &&
      !closed_.load(std::memory_order_relaxed)) {
    return StreamPull::kPending;
  }
  bool notify = false;
  StreamPull result;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) {
      result = closed_ ? StreamPull::kClosed : StreamPull::kPending;
    } else {
      *out = std::move(queue_.front());
      queue_.pop_front();
      depth_.store(queue_.size(), std::memory_order_relaxed);
      notify = !closed_;
      result = StreamPull::kReady;
    }
  }
  if (notify) not_full_.notify_one();
  return result;
}

}  // namespace e2lshos::core
