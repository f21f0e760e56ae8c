#include "storage/faulty_device.h"

#include <utility>

#include "util/clock.h"

namespace e2lshos::storage {

namespace {

/// Stable per-offset hash; also seeds the scramble byte stream so the
/// garbage a corrupt offset returns is itself reproducible.
uint64_t CorruptHash(uint64_t seed, uint64_t offset) {
  uint64_t state = seed ^ (offset + 0x9E3779B97F4A7C15ULL);
  return util::SplitMix64(state);
}

}  // namespace

bool FaultyDevice::WouldCorrupt(uint64_t seed, uint64_t offset, double rate) {
  if (rate <= 0.0) return false;
  const double u =
      static_cast<double>(CorruptHash(seed, offset) >> 11) * 0x1.0p-53;
  return u < rate;
}

FaultyDevice::FaultyDevice(std::unique_ptr<BlockDevice> owned,
                           BlockDevice* inner, const Options& options,
                           FaultyDevice* parent)
    : owned_(std::move(owned)),
      inner_(inner),
      options_(options),
      parent_(parent),
      rng_(options.seed) {
  if (parent_ != nullptr) {
    // Distinct RNG stream per queue for the transient faults; the
    // deterministic corrupt predicate uses options_.seed unchanged, so
    // queue assignment never changes *what* is corrupt.
    rng_.Seed(options_.seed ^
              (0xA24BAED4963EE407ULL * parent_->queues_.Attach(this)));
  }
}

FaultyDevice::FaultyDevice(BlockDevice* inner, const Options& options)
    : FaultyDevice(nullptr, inner, options, nullptr) {}

Result<std::unique_ptr<FaultyDevice>> FaultyDevice::Create(
    std::unique_ptr<BlockDevice> inner, const Options& options) {
  if (inner == nullptr) {
    return Status::InvalidArgument("FaultyDevice: null inner device");
  }
  BlockDevice* raw = inner.get();
  return std::unique_ptr<FaultyDevice>(
      new FaultyDevice(std::move(inner), raw, options, nullptr));
}

FaultyDevice::~FaultyDevice() {
  if (parent_ != nullptr) parent_->queues_.Retire(this);
}

QueueResult FaultyDevice::CreateQueue(const QueueOptions& options) {
  E2_ASSIGN_OR_RETURN(auto inner, inner_->CreateQueue(options));
  BlockDevice* raw = inner.get();
  return std::unique_ptr<BlockDevice>(
      new FaultyDevice(std::move(inner), raw, options_, this));
}

Status FaultyDevice::BeforeSubmit(const IoRequest& req, uint64_t* ticket) {
  *ticket = 0;
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.submit_fail_rate > 0 &&
      rng_.NextDouble() < options_.submit_fail_rate) {
    ++counters_.submit_failures;
    return Status::IoError("injected submit failure");
  }
  Pending p;
  if (options_.completion_fail_rate > 0 &&
      rng_.NextDouble() < options_.completion_fail_rate) {
    p.kind = Pending::kFail;
  } else if (WouldCorrupt(options_.seed, req.offset, options_.corrupt_rate)) {
    p.kind = Pending::kCorrupt;
    p.buf = req.buf;
    p.length = req.length;
    p.offset = req.offset;
  } else if (options_.stall_rate > 0 && options_.stall_usec > 0 &&
             rng_.NextDouble() < options_.stall_rate) {
    p.kind = Pending::kStall;
    p.due_ns = util::NowNs() + options_.stall_usec * 1000;
  } else {
    return Status::OK();
  }
  // A user_data with an entry still pending means the tag is being
  // reused while the previous request is in flight; matching either
  // completion to either entry would be guesswork, so skip injecting
  // on the new request instead of corrupting the wrong buffer.
  if (pending_.count(req.user_data)) return Status::OK();
  p.ticket = ++ticket_seq_;
  *ticket = p.ticket;
  pending_.emplace(req.user_data, p);
  return Status::OK();
}

Status FaultyDevice::SubmitRead(const IoRequest& req) {
  uint64_t ticket = 0;
  Status pre = BeforeSubmit(req, &ticket);
  if (!pre.ok()) return pre;
  Status st = inner_->SubmitRead(req);
  if (!st.ok() && ticket != 0) {
    // The request will never complete, so take the pending injection
    // back out. The ticket guarantees we never erase an entry that a
    // concurrent harvest already replaced for a recycled user_data.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(req.user_data);
    if (it != pending_.end() && it->second.ticket == ticket) {
      pending_.erase(it);
    }
  }
  return st;
}

size_t FaultyDevice::PollCompletions(IoCompletion* out, size_t max) {
  const size_t n = inner_->PollCompletions(out, max);
  // Apply pending injections to the fresh completions, hold stalled
  // ones, release due held ones.
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t now = util::NowNs();
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    IoCompletion c = out[i];
    auto it = pending_.find(c.user_data);
    if (it != pending_.end()) {
      const Pending p = it->second;
      // Erase before delivery: once the caller sees the completion it
      // may reuse the buffer and the user_data, and a stale entry
      // would fire on that unrelated successor.
      pending_.erase(it);
      switch (p.kind) {
        case Pending::kFail:
          c.code = StatusCode::kIoError;
          ++counters_.completion_failures;
          break;
        case Pending::kCorrupt:
          // Scramble at harvest, inside the lock: the inner device
          // published this completion, so its writes into the buffer
          // happen-before us, and the caller cannot observe the
          // completion (and recycle the buffer) until we return.
          if (c.code == StatusCode::kOk) {
            Scramble(p);
            ++counters_.corruptions;
          }
          break;
        case Pending::kStall:
          if (c.code == StatusCode::kOk && now < p.due_ns) {
            ++counters_.stalls;
            held_.push_back({c, p.due_ns, now});
            continue;  // delivered later, not this poll
          }
          break;
      }
    }
    out[kept++] = c;
  }
  // Release held completions that have served their stall.
  for (size_t i = 0; i < held_.size() && kept < max;) {
    if (now >= held_[i].due_ns) {
      IoCompletion c = held_[i].completion;
      c.latency_ns += now - held_[i].harvested_ns;
      out[kept++] = c;
      held_[i] = held_.back();
      held_.pop_back();
    } else {
      ++i;
    }
  }
  return kept;
}

void FaultyDevice::Scramble(const Pending& p) const {
  auto* bytes = static_cast<uint8_t*>(p.buf);
  uint64_t state = CorruptHash(options_.seed, p.offset);
  for (uint32_t b = 0; b < p.length; b += 7) {
    // `| 1` so every touched byte actually changes.
    bytes[b] ^= static_cast<uint8_t>(util::SplitMix64(state) | 1);
  }
}

FaultyDevice::Counters FaultyDevice::OwnCounters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

uint32_t FaultyDevice::OwnOutstanding() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<uint32_t>(held_.size());
}

void FaultyDevice::ResetOwnCounters() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_ = Counters{};
}

FaultyDevice::Counters FaultyDevice::TotalCounters() const {
  Counters total = OwnCounters();
  queues_.AddTo(&total);
  return total;
}

uint32_t FaultyDevice::outstanding() const {
  return inner_->outstanding() + OwnOutstanding() + queues_.Outstanding();
}

DeviceStats FaultyDevice::stats() const {
  DeviceStats s = inner_->stats();
  const Counters c = TotalCounters();
  s.faults_injected +=
      c.submit_failures + c.completion_failures + c.corruptions + c.stalls;
  return s;
}

void FaultyDevice::ResetStats() {
  inner_->ResetStats();
  ResetOwnCounters();
  queues_.ResetAll();
}

uint64_t FaultyDevice::injected_submit_failures() const {
  return TotalCounters().submit_failures;
}
uint64_t FaultyDevice::injected_completion_failures() const {
  return TotalCounters().completion_failures;
}
uint64_t FaultyDevice::injected_corruptions() const {
  return TotalCounters().corruptions;
}
uint64_t FaultyDevice::injected_stalls() const {
  return TotalCounters().stalls;
}

}  // namespace e2lshos::storage
