#include "storage/file_device.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <deque>

#include "storage/io_align.h"
#include "util/clock.h"
#include "util/thread_pool.h"

namespace e2lshos::storage {

Result<std::unique_ptr<FileDevice>> FileDevice::Create(const std::string& path,
                                                       const Options& options) {
  if (options.capacity == 0) {
    return Status::InvalidArgument("file device capacity must be > 0");
  }
  E2_ASSIGN_OR_RETURN(const BackingFile file,
                      OpenBackingFile(path, options.direct_io, options.capacity));
  return std::unique_ptr<FileDevice>(new FileDevice(path, file.fd, options));
}

Result<std::unique_ptr<FileDevice>> FileDevice::Open(const std::string& path,
                                                     const Options& options) {
  E2_ASSIGN_OR_RETURN(const BackingFile file,
                      OpenBackingFile(path, options.direct_io, 0));
  Options opened = options;
  opened.capacity = file.size;
  return std::unique_ptr<FileDevice>(new FileDevice(path, file.fd, opened));
}

Status FileDevice::ValidateRead(const IoRequest& req) const {
  if (req.buf == nullptr || req.length == 0) {
    return Status::InvalidArgument("null buffer or zero length");
  }
  if (!RangeInCapacity(req.offset, req.length, capacity_)) {
    return Status::OutOfRange("read beyond device capacity");
  }
  if (direct_io_ &&
      (req.offset % align_ != 0 || req.length % align_ != 0 ||
       reinterpret_cast<uintptr_t>(req.buf) % align_ != 0)) {
    return Status::InvalidArgument(
        "direct I/O read requires " + std::to_string(align_) +
        "-byte-aligned offset/length/buffer (offset=" +
        std::to_string(req.offset) + " length=" + std::to_string(req.length) +
        ")");
  }
  return Status::OK();
}

/// Read `r`'s full extent with pread, zero-filling past the written
/// extent; shared by the device pool and the per-queue pools.
static StatusCode PreadFully(int fd, const IoRequest& r) {
  size_t done = 0;
  while (done < r.length) {
    const ssize_t got =
        ::pread(fd, static_cast<uint8_t*>(r.buf) + done, r.length - done,
                static_cast<off_t>(r.offset + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      return StatusCode::kIoError;
    }
    if (got == 0) {
      std::memset(static_cast<uint8_t*>(r.buf) + done, 0, r.length - done);
      break;
    }
    done += static_cast<size_t>(got);
  }
  return StatusCode::kOk;
}

/// \brief One queue: its own pread-thread pool, inflight cap,
/// completion deque, and counters, over the parent's shared fd.
class FileDevice::Queue : public BlockDevice {
 public:
  Queue(FileDevice* parent, const QueueOptions& options)
      : parent_(parent),
        queue_capacity_(std::max(1u, options.queue_capacity)),
        pool_(std::make_unique<util::ThreadPool>(parent->io_threads_)) {
    id_ = parent_->queues_.Attach(this);
  }

  ~Queue() override {
    // Drain this queue's in-flight reads before the completion deque
    // goes away and the counters retire into the parent.
    pool_->Shutdown();
    parent_->queues_.Retire(this);
  }

  Status SubmitRead(const IoRequest& req) override {
    E2_RETURN_NOT_OK(parent_->ValidateRead(req));
    // Reserve the queue slot atomically: a load-then-add would let
    // concurrent submitters on the device-level path overshoot the
    // queue capacity.
    if (inflight_.fetch_add(1, std::memory_order_relaxed) >= queue_capacity_) {
      inflight_.fetch_sub(1, std::memory_order_relaxed);
      return Status::ResourceExhausted("queue full");
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.reads_submitted;
    }
    const uint64_t submit_ns = util::NowNs();
    const IoRequest r = req;
    pool_->Submit([this, r, submit_ns] {
      IoCompletion comp;
      comp.user_data = r.user_data;
      comp.code = PreadFully(parent_->fd_, r);
      comp.latency_ns = util::NowNs() - submit_ns;
      std::lock_guard<std::mutex> lock(mu_);
      completed_.push_back(comp);
      ++stats_.reads_completed;
      stats_.bytes_read += r.length;
      stats_.read_latency.Add(comp.latency_ns);
    });
    return Status::OK();
  }

  size_t PollCompletions(IoCompletion* out, size_t max) override {
    std::lock_guard<std::mutex> lock(mu_);
    size_t n = 0;
    while (n < max && !completed_.empty()) {
      out[n++] = completed_.front();
      completed_.pop_front();
    }
    inflight_.fetch_sub(static_cast<uint32_t>(n), std::memory_order_relaxed);
    return n;
  }

  Status Write(uint64_t offset, const void* data, uint32_t length) override {
    return parent_->Write(offset, data, length);
  }
  uint64_t capacity() const override { return parent_->capacity(); }
  uint32_t io_alignment() const override { return parent_->io_alignment(); }
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
    return inflight_.load(std::memory_order_relaxed);
  }
  void ResetOwnCounters() {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = DeviceStats{};
  }

 private:
  FileDevice* parent_;
  uint32_t queue_capacity_;
  uint64_t id_ = 0;
  std::unique_ptr<util::ThreadPool> pool_;
  std::atomic<uint32_t> inflight_{0};
  mutable std::mutex mu_;
  std::deque<IoCompletion> completed_;
  DeviceStats stats_;
};

FileDevice::FileDevice(std::string path, int fd, const Options& options)
    : path_(std::move(path)),
      fd_(fd),
      capacity_(options.capacity),
      direct_io_(options.direct_io),
      io_threads_(std::max(1u, options.io_threads)) {
  if (direct_io_) align_ = EffectiveDioAlignment(ProbeDioAlignment(fd_));
  QueueOptions queue;
  queue.queue_capacity = options.queue_capacity;
  default_queue_ = std::make_unique<Queue>(this, queue);
}

FileDevice::~FileDevice() {
  // Drain in-flight reads before closing the fd.
  default_queue_.reset();
  if (fd_ >= 0) ::close(fd_);
}

QueueResult FileDevice::CreateQueue(const QueueOptions& options) {
  return std::unique_ptr<BlockDevice>(std::make_unique<Queue>(this, options));
}

Status FileDevice::SubmitRead(const IoRequest& req) {
  return default_queue_->SubmitRead(req);
}

size_t FileDevice::PollCompletions(IoCompletion* out, size_t max) {
  return default_queue_->PollCompletions(out, max);
}

Status FileDevice::Write(uint64_t offset, const void* data, uint32_t length) {
  if (!RangeInCapacity(offset, length, capacity_)) {
    return Status::OutOfRange("write beyond device capacity");
  }
  if (direct_io_ &&
      (offset % align_ != 0 || length % align_ != 0 ||
       reinterpret_cast<uintptr_t>(data) % align_ != 0)) {
    return Status::InvalidArgument(
        "direct I/O write requires " + std::to_string(align_) +
        "-byte-aligned offset/length/buffer (offset=" + std::to_string(offset) +
        " length=" + std::to_string(length) + ")");
  }
  size_t done = 0;
  while (done < length) {
    const ssize_t put = ::pwrite(fd_, static_cast<const uint8_t*>(data) + done,
                                 length - done, static_cast<off_t>(offset + done));
    if (put < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("pwrite failed: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(put);
  }
  std::lock_guard<std::mutex> lock(mu_);
  stats_.bytes_written += length;
  return Status::OK();
}

uint32_t FileDevice::outstanding() const { return queues_.Outstanding(); }

DeviceStats FileDevice::stats() const {
  DeviceStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = stats_;
  }
  queues_.AddTo(&out);
  return out;
}

void FileDevice::ResetStats() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_ = DeviceStats{};
  }
  queues_.ResetAll();
}

}  // namespace e2lshos::storage
