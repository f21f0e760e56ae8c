#include "storage/retry_device.h"

#include <algorithm>
#include <utility>

#include "util/clock.h"

namespace e2lshos::storage {

namespace {

/// Transient: worth another attempt. ResourceExhausted is backpressure
/// (the caller already knows to poll and resubmit), OutOfRange and
/// InvalidArgument are caller bugs that will fail identically forever.
bool Retryable(StatusCode code) {
  return code == StatusCode::kIoError || code == StatusCode::kInternal ||
         code == StatusCode::kUnavailable;
}

}  // namespace

RetryDevice::RetryDevice(std::unique_ptr<BlockDevice> owned,
                         BlockDevice* inner, const Options& options,
                         RetryDevice* parent)
    : owned_(std::move(owned)),
      inner_(inner),
      options_(options),
      parent_(parent),
      rng_(options.seed) {
  if (parent_ != nullptr) {
    rng_.Seed(options_.seed ^
              (0xD1B54A32D192ED03ULL * parent_->queues_.Attach(this)));
  }
}

RetryDevice::RetryDevice(BlockDevice* inner, const Options& options)
    : RetryDevice(nullptr, inner, options, nullptr) {}

Result<std::unique_ptr<RetryDevice>> RetryDevice::Create(
    std::unique_ptr<BlockDevice> inner, const Options& options) {
  if (inner == nullptr) {
    return Status::InvalidArgument("RetryDevice: null inner device");
  }
  if (options.max_attempts == 0) {
    return Status::InvalidArgument("RetryDevice: max_attempts must be >= 1");
  }
  BlockDevice* raw = inner.get();
  return std::unique_ptr<RetryDevice>(
      new RetryDevice(std::move(inner), raw, options, nullptr));
}

RetryDevice::~RetryDevice() {
  if (parent_ != nullptr) parent_->queues_.Retire(this);
}

QueueResult RetryDevice::CreateQueue(const QueueOptions& options) {
  E2_ASSIGN_OR_RETURN(auto inner, inner_->CreateQueue(options));
  BlockDevice* raw = inner.get();
  return std::unique_ptr<BlockDevice>(
      new RetryDevice(std::move(inner), raw, options_, this));
}

Status RetryDevice::SubmitRead(const IoRequest& req) {
  const uint64_t now = util::NowNs();
  uint64_t ticket = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A recycled user_data while the previous request is still
    // tracked would make completion matching ambiguous; run the
    // newcomer without retry protection instead.
    if (tracked_.count(req.user_data) == 0) {
      Track t;
      t.req = req;
      t.attempts = 1;
      t.first_ns = t.last_ns = now;
      t.ticket = ++ticket_seq_;
      ticket = t.ticket;
      tracked_.emplace(req.user_data, t);
    }
  }
  const Status st = inner_->SubmitRead(req);
  if (st.ok()) return st;
  std::lock_guard<std::mutex> lock(mu_);
  // The request never reached the device: take the tracking back out
  // (ticket-checked so a concurrent harvest of a recycled user_data is
  // never clobbered), then decide whether to absorb the error.
  if (ticket != 0) {
    auto it = tracked_.find(req.user_data);
    if (it != tracked_.end() && it->second.ticket == ticket) {
      Track t = it->second;
      tracked_.erase(it);
      if (Retryable(st.code()) && CanRetry(t, now)) {
        t.last_code = st.code();
        DeferLocked(std::move(t), now);
        return Status::OK();  // accepted; will resubmit from Poll
      }
      if (Retryable(st.code())) ++stats_.retries_exhausted;
    }
  }
  return st;
}

size_t RetryDevice::PollCompletions(IoCompletion* out, size_t max) {
  ResubmitDue();
  const size_t n = inner_->PollCompletions(out, max);
  const uint64_t now = util::NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    IoCompletion c = out[i];
    auto it = tracked_.find(c.user_data);
    if (it != tracked_.end()) {
      Track t = it->second;
      tracked_.erase(it);
      if (c.code != StatusCode::kOk && Retryable(c.code) && CanRetry(t, now)) {
        t.last_code = c.code;
        DeferLocked(std::move(t), now);
        continue;  // absorbed; the retry will complete it later
      }
      if (c.code != StatusCode::kOk && Retryable(c.code)) {
        ++stats_.retries_exhausted;
      }
      // The device's latency plus the backoffs before the last attempt:
      // a retried read looks like a slow read, not a fast one, and a
      // read served at once keeps the device's latency, not however
      // long its caller took to poll.
      c.latency_ns += t.last_ns - t.first_ns;
    }
    out[kept++] = c;
  }
  // Requests that died without reaching the device again.
  while (!ready_.empty() && kept < max) {
    out[kept++] = ready_.back();
    ready_.pop_back();
  }
  return kept;
}

bool RetryDevice::CanRetry(const Track& t, uint64_t now) const {
  if (t.attempts >= options_.max_attempts) return false;
  if (options_.deadline_usec == 0) return true;
  return now + BackoffNs(t.attempts, /*jittered=*/false) <
         t.first_ns + options_.deadline_usec * 1000;
}

uint64_t RetryDevice::BackoffNs(uint32_t attempts_done, bool jittered) const {
  const uint32_t exp = attempts_done > 0 ? attempts_done - 1 : 0;
  double ns = static_cast<double>(options_.backoff_usec) * 1000.0 *
              static_cast<double>(uint64_t{1} << std::min(exp, 30u));
  if (jittered && options_.jitter > 0) {
    ns *= 1.0 + options_.jitter * (2.0 * rng_.NextDouble() - 1.0);
  }
  return static_cast<uint64_t>(std::max(ns, 0.0));
}

void RetryDevice::DeferLocked(Track&& t, uint64_t now) {
  Deferred d;
  d.due_ns = now + BackoffNs(t.attempts, /*jittered=*/true);
  d.track = std::move(t);
  deferred_.push_back(std::move(d));
}

void RetryDevice::ResubmitDue() {
  const uint64_t now = util::NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < deferred_.size();) {
    if (now < deferred_[i].due_ns) {
      ++i;
      continue;
    }
    Track t = deferred_[i].track;
    deferred_[i] = deferred_.back();
    deferred_.pop_back();
    ++t.attempts;
    ++stats_.retries;
    t.ticket = ++ticket_seq_;
    t.last_ns = now;
    const bool collision = tracked_.count(t.req.user_data) != 0;
    if (!collision) tracked_.emplace(t.req.user_data, t);
    const Status st = collision ? Status::ResourceExhausted("tag busy")
                                : inner_->SubmitRead(t.req);
    if (st.ok()) continue;
    if (!collision) tracked_.erase(t.req.user_data);
    if (st.code() == StatusCode::kResourceExhausted) {
      // Device queue full — backpressure, not a failed attempt. Put
      // the request back and try again next poll.
      --t.attempts;
      --stats_.retries;
      t.ticket = 0;
      deferred_.push_back({t, now});
      continue;
    }
    if (Retryable(st.code()) && CanRetry(t, now)) {
      t.last_code = st.code();
      DeferLocked(std::move(t), now);
      continue;
    }
    if (Retryable(st.code())) ++stats_.retries_exhausted;
    IoCompletion c;
    c.user_data = t.req.user_data;
    c.code = st.code();
    c.latency_ns = now - t.first_ns;
    ready_.push_back(c);
  }
}

DeviceStats RetryDevice::OwnCounters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

uint32_t RetryDevice::OwnOutstanding() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<uint32_t>(deferred_.size() + ready_.size());
}

void RetryDevice::ResetOwnCounters() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = DeviceStats{};
}

uint32_t RetryDevice::outstanding() const {
  return inner_->outstanding() + OwnOutstanding() + queues_.Outstanding();
}

DeviceStats RetryDevice::stats() const {
  DeviceStats s = inner_->stats();
  s.Merge(OwnCounters());
  queues_.AddTo(&s);
  return s;
}

void RetryDevice::ResetStats() {
  inner_->ResetStats();
  ResetOwnCounters();
  queues_.ResetAll();
}

}  // namespace e2lshos::storage
