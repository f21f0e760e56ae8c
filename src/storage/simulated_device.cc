#include "storage/simulated_device.h"

#include <algorithm>
#include <cstring>
#include <queue>
#include <tuple>

#include "util/clock.h"

namespace e2lshos::storage {

/// \brief One queue over the simulator: a private pending heap gated on
/// the shared wall clock, dispatching to the shared flash units. A timed
/// submit takes the device lock once (unit allocation — the modeled
/// hardware contention point); a poll that has completions due holds the
/// backing lock shared while it copies them; everything else is
/// queue-private. Reads due at the same time complete in submission
/// order, and the memory model's reads, due at submission, read no
/// clock: they complete first in, first out.
class SimulatedDevice::Queue : public BlockDevice {
 public:
  Queue(SimulatedDevice* parent, uint32_t queue_capacity)
      : parent_(parent),
        timed_(parent->model_.service_time_ns != 0),
        queue_capacity_(std::max(1u, queue_capacity)) {
    id_ = parent_->queues_.Attach(this);
  }
  ~Queue() override { parent_->queues_.Retire(this); }

  Status SubmitRead(const IoRequest& req) override {
    if (req.buf == nullptr || req.length == 0) {
      return Status::InvalidArgument("null buffer or zero length");
    }
    if (!RangeInCapacity(req.offset, req.length, parent_->backing_.capacity())) {
      return Status::OutOfRange("read beyond device capacity");
    }
    const uint64_t now = Now();
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.size() >= queue_capacity_) {
      return Status::ResourceExhausted("queue full");
    }
    Pending p;
    // A zero-service-time (DRAM) read is due at submission and occupies
    // no flash unit.
    p.complete_at_ns = timed_ ? parent_->ScheduleOnUnit(now) : 0;
    p.submit_ns = now;
    p.seq = next_seq_++;
    p.user_data = req.user_data;
    p.offset = req.offset;
    p.length = req.length;
    p.buf = req.buf;
    pending_.push(p);
    ++stats_.reads_submitted;
    return Status::OK();
  }

  size_t PollCompletions(IoCompletion* out, size_t max) override {
    const uint64_t now = Now();
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_.empty() || pending_.top().complete_at_ns > now) return 0;
    // Data transfer happens at completion time, ordered against Write.
    std::shared_lock<std::shared_mutex> data(parent_->backing_mu_);
    size_t n = 0;
    while (n < max && !pending_.empty() && pending_.top().complete_at_ns <= now) {
      const Pending& p = pending_.top();
      std::memcpy(p.buf, parent_->backing_.data() + p.offset, p.length);
      out[n].user_data = p.user_data;
      out[n].code = StatusCode::kOk;
      out[n].latency_ns = p.complete_at_ns - p.submit_ns;
      ++stats_.reads_completed;
      stats_.bytes_read += p.length;
      stats_.read_latency.Add(out[n].latency_ns);
      pending_.pop();
      ++n;
    }
    return n;
  }

  Status Write(uint64_t offset, const void* data, uint32_t length) override {
    return parent_->Write(offset, data, length);
  }
  uint64_t capacity() const override { return parent_->capacity(); }
  uint32_t outstanding() const override { return OwnOutstanding(); }
  std::string name() const override {
    return parent_->name() + " nq" + std::to_string(id_);
  }
  DeviceStats stats() const override { return OwnCounters(); }
  void ResetStats() override { ResetOwnCounters(); }

  DeviceStats OwnCounters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }
  uint32_t OwnOutstanding() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<uint32_t>(pending_.size());
  }
  void ResetOwnCounters() {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = DeviceStats{};
  }

 private:
  struct Pending {
    uint64_t complete_at_ns;
    uint64_t seq;  ///< Submission order on this queue.
    uint64_t submit_ns;
    uint64_t user_data;
    uint64_t offset;
    uint32_t length;
    void* buf;
    bool operator>(const Pending& o) const {
      return std::tie(complete_at_ns, seq) > std::tie(o.complete_at_ns, o.seq);
    }
  };

  /// The wall clock on a timed model; 0 on the memory model, whose
  /// reads are all due at 0.
  uint64_t Now() const { return timed_ ? util::NowNs() : 0; }

  SimulatedDevice* parent_;
  const bool timed_;
  uint32_t queue_capacity_;
  uint64_t id_ = 0;
  uint64_t next_seq_ = 0;  ///< Guarded by mu_.
  mutable std::mutex mu_;
  std::priority_queue<Pending, std::vector<Pending>, std::greater<Pending>> pending_;
  DeviceStats stats_;
};

DeviceModel MemoryModel(uint64_t capacity, uint32_t queue_capacity) {
  return DeviceModel{"memory", 1, 0, queue_capacity, capacity};
}

uint64_t SimulatedDevice::ScheduleOnUnit(uint64_t now_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::min_element(unit_free_ns_.begin(), unit_free_ns_.end());
  const uint64_t start = std::max(now_ns, *it);
  const uint64_t done = start + model_.service_time_ns;
  *it = done;
  // Unit busy time is a device-wide quantity (Utilization spans all
  // queues), so it stays on the device counter.
  stats_.busy_ns += model_.service_time_ns;
  return done;
}

QueueResult SimulatedDevice::CreateQueue(const QueueOptions& options) {
  return std::unique_ptr<BlockDevice>(
      std::make_unique<Queue>(this, options.queue_capacity));
}

SimulatedDevice::SimulatedDevice(const DeviceModel& model) : model_(model) {
  unit_free_ns_.assign(model_.parallel_units, 0);
  stats_epoch_ns_ = util::NowNs();
  default_queue_ = std::make_unique<Queue>(this, model_.queue_capacity);
}

SimulatedDevice::~SimulatedDevice() = default;

Result<std::unique_ptr<SimulatedDevice>> SimulatedDevice::Create(
    const DeviceModel& model) {
  if (model.parallel_units == 0) {
    return Status::InvalidArgument("device model needs units > 0");
  }
  auto dev = std::unique_ptr<SimulatedDevice>(new SimulatedDevice(model));
  E2_RETURN_NOT_OK(dev->backing_.Map(model.capacity_bytes));
  return dev;
}

Status SimulatedDevice::SubmitRead(const IoRequest& req) {
  return default_queue_->SubmitRead(req);
}

size_t SimulatedDevice::PollCompletions(IoCompletion* out, size_t max) {
  return default_queue_->PollCompletions(out, max);
}

Status SimulatedDevice::Write(uint64_t offset, const void* data, uint32_t length) {
  if (!RangeInCapacity(offset, length, backing_.capacity())) {
    return Status::OutOfRange("write beyond device capacity");
  }
  {
    std::unique_lock<std::shared_mutex> lock(backing_mu_);
    std::memcpy(backing_.data() + offset, data, length);
  }
  std::lock_guard<std::mutex> lock(mu_);
  stats_.bytes_written += length;
  return Status::OK();
}

uint32_t SimulatedDevice::outstanding() const { return queues_.Outstanding(); }

DeviceStats SimulatedDevice::stats() const {
  DeviceStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = stats_;
  }
  queues_.AddTo(&out);
  return out;
}

void SimulatedDevice::ResetStats() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = DeviceStats{};
    stats_epoch_ns_ = util::NowNs();
  }
  queues_.ResetAll();
}

double SimulatedDevice::Utilization() const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t elapsed = util::NowNs() - stats_epoch_ns_;
  if (elapsed == 0) return 0.0;
  const double unit_time =
      static_cast<double>(elapsed) * static_cast<double>(model_.parallel_units);
  return std::min(1.0, static_cast<double>(stats_.busy_ns) / unit_time);
}

}  // namespace e2lshos::storage
