#include "storage/uring_device.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "storage/io_align.h"
#include "util/clock.h"

#if defined(E2LSHOS_HAVE_LIBURING)
#include <linux/io_uring.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#endif

namespace e2lshos::storage {

#if defined(E2LSHOS_HAVE_LIBURING)

namespace {

int SysUringSetup(unsigned entries, io_uring_params* p) {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

int SysUringEnter(int ring_fd, unsigned to_submit, unsigned min_complete,
                  unsigned flags) {
  return static_cast<int>(::syscall(__NR_io_uring_enter, ring_fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}

int SysUringRegister(int ring_fd, unsigned opcode, const void* arg,
                     unsigned nr_args) {
  return static_cast<int>(
      ::syscall(__NR_io_uring_register, ring_fd, opcode, arg, nr_args));
}

uint32_t Pow2Ceil(uint32_t v) {
  uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

std::string ErrnoString(const std::string& what, int err) {
  return what + " failed: " + std::strerror(err);
}

}  // namespace

/// The mmap'ed ring state. The kernel writes cq tail / sq head; we write
/// sq tail / cq head. Cross-side words go through __atomic builtins with
/// acquire/release ordering, exactly as liburing does; our own side is
/// additionally serialized by UringDevice::mu_.
struct UringDevice::Ring {
  int ring_fd = -1;
  uint32_t sq_entry_count = 0;
  uint32_t cq_entry_count = 0;
  uint32_t features = 0;

  void* sq_mmap = nullptr;
  size_t sq_mmap_sz = 0;
  void* cq_mmap = nullptr;  ///< == sq_mmap under IORING_FEAT_SINGLE_MMAP.
  size_t cq_mmap_sz = 0;
  io_uring_sqe* sqes = nullptr;
  size_t sqes_sz = 0;

  unsigned* sq_head = nullptr;
  unsigned* sq_tail = nullptr;
  unsigned sq_mask = 0;
  unsigned* sq_flags = nullptr;
  unsigned* sq_array = nullptr;
  unsigned* cq_head = nullptr;
  unsigned* cq_tail = nullptr;
  unsigned cq_mask = 0;
  io_uring_cqe* cqes = nullptr;

  unsigned local_sq_tail = 0;  ///< Published to *sq_tail on every enqueue.
  unsigned local_cq_head = 0;
  unsigned to_submit = 0;  ///< Enqueued SQEs not yet handed to the kernel.
  bool sqpoll = false;

  ~Ring() {
    if (sqes != nullptr) ::munmap(sqes, sqes_sz);
    if (cq_mmap != nullptr && cq_mmap != sq_mmap) ::munmap(cq_mmap, cq_mmap_sz);
    if (sq_mmap != nullptr) ::munmap(sq_mmap, sq_mmap_sz);
    if (ring_fd >= 0) ::close(ring_fd);
  }
};

bool UringDevice::Available() {
  static const bool available = [] {
    io_uring_params params;
    std::memset(&params, 0, sizeof(params));
    const int fd = SysUringSetup(2, &params);
    if (fd < 0) return false;
    ::close(fd);
    return true;
  }();
  return available;
}

UringDevice::UringDevice(std::string path, int fd, const Options& options)
    : path_(std::move(path)),
      fd_(fd),
      capacity_(options.capacity),
      queue_capacity_(std::max<uint32_t>(1, options.queue_capacity)),
      submit_batch_(std::max<uint32_t>(1, options.submit_batch)),
      direct_io_(options.direct_io),
      sqpoll_requested_(options.sqpoll),
      sqpoll_idle_ms_(options.sqpoll_idle_ms) {
  if (direct_io_) align_ = EffectiveDioAlignment(ProbeDioAlignment(fd_));
  slots_.resize(queue_capacity_);
  free_slots_.reserve(queue_capacity_);
  for (uint32_t i = 0; i < queue_capacity_; ++i) free_slots_.push_back(i);
}

UringDevice::~UringDevice() {
  // The kernel writes completions into caller buffers: tearing the ring
  // down with reads in flight would let those writes land after the
  // buffers are freed. Block until everything completed.
  if (ring_ != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    IoCompletion sink[64];
    while (inflight_.load(std::memory_order_relaxed) > 0) {
      ProcessRetriesLocked();
      (void)FlushLocked();
      if (ProcessCqesLocked(sink, 64) == 0 && retry_.empty()) {
        (void)SysUringEnter(ring_->ring_fd, 0, 1, IORING_ENTER_GETEVENTS);
      }
    }
  }
  // Fold the final counters into the parent before the ring goes away.
  if (parent_ != nullptr) parent_->queue_registry_.Retire(this);
  ring_.reset();
  if (fd_ >= 0) ::close(fd_);
}

Status UringDevice::InitRing(const Options& options) {
  auto setup = [&](bool with_sqpoll) -> Result<std::unique_ptr<Ring>> {
    io_uring_params params;
    std::memset(&params, 0, sizeof(params));
    const uint32_t sq_entries =
        Pow2Ceil(std::clamp<uint32_t>(options.sq_entries, 1, 4096));
    // The CQ ring must hold every unharvested completion: an overflow
    // would stall the device (or drop completions on pre-NODROP
    // kernels), so size it to the queue capacity, never below the SQ.
    params.flags |= IORING_SETUP_CQSIZE;
    params.cq_entries = Pow2Ceil(std::max(queue_capacity_, sq_entries));
    if (with_sqpoll) {
      params.flags |= IORING_SETUP_SQPOLL;
      params.sq_thread_idle = options.sqpoll_idle_ms;
    }
    const int ring_fd = SysUringSetup(sq_entries, &params);
    if (ring_fd < 0) {
      return Status::IoError(ErrnoString("io_uring_setup", errno));
    }

    auto ring = std::make_unique<Ring>();
    ring->ring_fd = ring_fd;
    ring->sq_entry_count = params.sq_entries;
    ring->cq_entry_count = params.cq_entries;
    ring->features = params.features;
    ring->sqpoll = with_sqpoll;

    ring->sq_mmap_sz =
        params.sq_off.array + params.sq_entries * sizeof(unsigned);
    ring->cq_mmap_sz =
        params.cq_off.cqes + params.cq_entries * sizeof(io_uring_cqe);
    if ((params.features & IORING_FEAT_SINGLE_MMAP) != 0) {
      ring->sq_mmap_sz = ring->cq_mmap_sz =
          std::max(ring->sq_mmap_sz, ring->cq_mmap_sz);
    }
    ring->sq_mmap =
        ::mmap(nullptr, ring->sq_mmap_sz, PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_POPULATE, ring_fd, IORING_OFF_SQ_RING);
    if (ring->sq_mmap == MAP_FAILED) {
      ring->sq_mmap = nullptr;
      return Status::IoError(ErrnoString("mmap(sq ring)", errno));
    }
    if ((params.features & IORING_FEAT_SINGLE_MMAP) != 0) {
      ring->cq_mmap = ring->sq_mmap;
    } else {
      ring->cq_mmap =
          ::mmap(nullptr, ring->cq_mmap_sz, PROT_READ | PROT_WRITE,
                 MAP_SHARED | MAP_POPULATE, ring_fd, IORING_OFF_CQ_RING);
      if (ring->cq_mmap == MAP_FAILED) {
        ring->cq_mmap = nullptr;
        return Status::IoError(ErrnoString("mmap(cq ring)", errno));
      }
    }
    ring->sqes_sz = params.sq_entries * sizeof(io_uring_sqe);
    ring->sqes = static_cast<io_uring_sqe*>(
        ::mmap(nullptr, ring->sqes_sz, PROT_READ | PROT_WRITE,
               MAP_SHARED | MAP_POPULATE, ring_fd, IORING_OFF_SQES));
    if (ring->sqes == MAP_FAILED) {
      ring->sqes = nullptr;
      return Status::IoError(ErrnoString("mmap(sqes)", errno));
    }

    uint8_t* sq = static_cast<uint8_t*>(ring->sq_mmap);
    uint8_t* cq = static_cast<uint8_t*>(ring->cq_mmap);
    ring->sq_head = reinterpret_cast<unsigned*>(sq + params.sq_off.head);
    ring->sq_tail = reinterpret_cast<unsigned*>(sq + params.sq_off.tail);
    ring->sq_mask =
        *reinterpret_cast<unsigned*>(sq + params.sq_off.ring_mask);
    ring->sq_flags = reinterpret_cast<unsigned*>(sq + params.sq_off.flags);
    ring->sq_array = reinterpret_cast<unsigned*>(sq + params.sq_off.array);
    ring->cq_head = reinterpret_cast<unsigned*>(cq + params.cq_off.head);
    ring->cq_tail = reinterpret_cast<unsigned*>(cq + params.cq_off.tail);
    ring->cq_mask =
        *reinterpret_cast<unsigned*>(cq + params.cq_off.ring_mask);
    ring->cqes =
        reinterpret_cast<io_uring_cqe*>(cq + params.cq_off.cqes);

    // Identity-map the SQ index array once; SQE slots are then addressed
    // directly by tail & mask (the liburing convention).
    for (unsigned i = 0; i < params.sq_entries; ++i) ring->sq_array[i] = i;
    ring->local_sq_tail = *ring->sq_tail;
    ring->local_cq_head = *ring->cq_head;
    return ring;
  };

  if (options.sqpoll) {
    auto ring = setup(true);
    if (ring.ok()) {
      ring_ = std::move(ring).value();
      sqpoll_active_ = true;
    }
    // SQPOLL can be refused (EPERM in restricted containers, resource
    // limits): degrade to interrupt-driven mode rather than failing the
    // open — sqpoll_active() reports what actually happened.
  }
  if (ring_ == nullptr) {
    E2_ASSIGN_OR_RETURN(ring_, setup(false));
    sqpoll_active_ = false;
  }

  // Register the backing fd: the kernel resolves it once instead of per
  // submission. SQPOLL historically requires it; plain mode merely
  // benefits, so a refusal only downgrades.
  if (SysUringRegister(ring_->ring_fd, IORING_REGISTER_FILES, &fd_, 1) == 0) {
    fixed_file_ = true;
  } else if (sqpoll_active_ &&
             (ring_->features & IORING_FEAT_SQPOLL_NONFIXED) == 0) {
    return Status::IoError(
        "SQPOLL requires registered files on this kernel and "
        "IORING_REGISTER_FILES failed: " +
        std::string(std::strerror(errno)));
  }
  return Status::OK();
}

Result<std::unique_ptr<UringDevice>> UringDevice::Create(
    const std::string& path, const Options& options) {
  if (!Available()) {
    return Status::Unimplemented(
        "io_uring is not available (kernel refused io_uring_setup)");
  }
  if (options.capacity == 0) {
    return Status::InvalidArgument("uring device capacity must be > 0");
  }
  E2_ASSIGN_OR_RETURN(const BackingFile file,
                      OpenBackingFile(path, options.direct_io, options.capacity));
  std::unique_ptr<UringDevice> dev(new UringDevice(path, file.fd, options));
  E2_RETURN_NOT_OK(dev->InitRing(options));
  return dev;
}

Result<std::unique_ptr<UringDevice>> UringDevice::Open(const std::string& path,
                                                       const Options& options) {
  if (!Available()) {
    return Status::Unimplemented(
        "io_uring is not available (kernel refused io_uring_setup)");
  }
  E2_ASSIGN_OR_RETURN(const BackingFile file,
                      OpenBackingFile(path, options.direct_io, 0));
  Options opened = options;
  opened.capacity = file.size;
  std::unique_ptr<UringDevice> dev(new UringDevice(path, file.fd, opened));
  E2_RETURN_NOT_OK(dev->InitRing(opened));
  return dev;
}

int UringDevice::FindFixedBuffer(const void* buf, uint32_t length) const {
  if (fixed_regions_.empty()) return -1;
  const uintptr_t start = reinterpret_cast<uintptr_t>(buf);
  // Regions are sorted by start: find the last region beginning at or
  // before `buf`, then check containment of the whole extent.
  auto it = std::upper_bound(
      fixed_regions_.begin(), fixed_regions_.end(), start,
      [](uintptr_t addr, const FixedRegion& r) { return addr < r.start; });
  if (it == fixed_regions_.begin()) return -1;
  --it;
  if (start + length <= it->start + it->length) return it->index;
  return -1;
}

Status UringDevice::RegisterBuffers(
    const std::vector<std::pair<void*, size_t>>& regions) {
  if (regions.empty() || regions.size() > 1024) {
    return Status::InvalidArgument("1..1024 buffer regions required");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (inflight_.load(std::memory_order_relaxed) != 0) {
    return Status::FailedPrecondition(
        "cannot register buffers with reads in flight");
  }
  if (!fixed_regions_.empty()) {
    return Status::FailedPrecondition("buffers already registered");
  }
  std::vector<iovec> iovs;
  iovs.reserve(regions.size());
  for (const auto& [ptr, len] : regions) {
    if (ptr == nullptr || len == 0) {
      return Status::InvalidArgument("null or empty buffer region");
    }
    iovs.push_back({ptr, len});
  }
  if (SysUringRegister(ring_->ring_fd, IORING_REGISTER_BUFFERS, iovs.data(),
                       static_cast<unsigned>(iovs.size())) != 0) {
    return Status::IoError(ErrnoString("IORING_REGISTER_BUFFERS", errno));
  }
  fixed_regions_.reserve(regions.size());
  for (size_t i = 0; i < regions.size(); ++i) {
    fixed_regions_.push_back({reinterpret_cast<uintptr_t>(regions[i].first),
                              regions[i].second, static_cast<int>(i)});
  }
  std::sort(fixed_regions_.begin(), fixed_regions_.end(),
            [](const FixedRegion& a, const FixedRegion& b) {
              return a.start < b.start;
            });
  return Status::OK();
}

Status UringDevice::EnqueueSqeLocked(uint32_t slot_idx) {
  Ring& ring = *ring_;
  unsigned head = __atomic_load_n(ring.sq_head, __ATOMIC_ACQUIRE);
  if (ring.local_sq_tail - head >= ring.sq_entry_count) {
    // SQ full: push the batched entries at the kernel and re-check (in
    // SQPOLL mode the kernel thread drains on its own schedule).
    E2_RETURN_NOT_OK(FlushLocked());
    head = __atomic_load_n(ring.sq_head, __ATOMIC_ACQUIRE);
    if (ring.local_sq_tail - head >= ring.sq_entry_count) {
      return Status::ResourceExhausted("submission ring full");
    }
  }

  Slot& slot = slots_[slot_idx];
  io_uring_sqe& sqe = ring.sqes[ring.local_sq_tail & ring.sq_mask];
  std::memset(&sqe, 0, sizeof(sqe));
  if (slot.is_write) {
    sqe.opcode = IORING_OP_WRITE;
  } else {
    sqe.opcode = slot.fixed_index >= 0 ? IORING_OP_READ_FIXED : IORING_OP_READ;
  }
  if (fixed_file_) {
    sqe.fd = 0;  // index into the registered-file table
    sqe.flags = IOSQE_FIXED_FILE;
  } else {
    sqe.fd = fd_;
  }
  sqe.off = slot.offset + slot.done;
  sqe.addr = reinterpret_cast<uint64_t>(slot.buf + slot.done);
  sqe.len = slot.length - slot.done;
  if (slot.fixed_index >= 0) {
    sqe.buf_index = static_cast<uint16_t>(slot.fixed_index);
  }
  sqe.user_data = slot_idx;

  ++ring.local_sq_tail;
  __atomic_store_n(ring.sq_tail, ring.local_sq_tail, __ATOMIC_RELEASE);

  if (ring.sqpoll) {
    // The kernel thread picks the SQE up from the published tail; only a
    // parked thread needs an explicit wakeup.
    if ((__atomic_load_n(ring.sq_flags, __ATOMIC_RELAXED) &
         IORING_SQ_NEED_WAKEUP) != 0) {
      (void)SysUringEnter(ring.ring_fd, 0, 0, IORING_ENTER_SQ_WAKEUP);
    }
  } else {
    ++ring.to_submit;
  }
  return Status::OK();
}

Status UringDevice::FlushLocked() {
  Ring& ring = *ring_;
  while (ring.to_submit > 0) {
    const int r = SysUringEnter(ring.ring_fd, ring.to_submit, 0, 0);
    if (r >= 0) {
      ring.to_submit -= static_cast<unsigned>(r);
      if (r == 0) break;  // nothing consumed; avoid a spin
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EBUSY) {
      // Kernel temporarily out of resources; the entries stay queued in
      // the ring and the next flush retries.
      return Status::ResourceExhausted(ErrnoString("io_uring_enter", errno));
    }
    return Status::IoError(ErrnoString("io_uring_enter", errno));
  }
  return Status::OK();
}

Status UringDevice::SubmitRead(const IoRequest& req) {
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

  std::lock_guard<std::mutex> lock(mu_);
  if (free_slots_.empty()) {
    return Status::ResourceExhausted("device queue full");
  }
  const uint32_t slot_idx = free_slots_.back();
  Slot& slot = slots_[slot_idx];
  slot.user_data = req.user_data;
  slot.offset = req.offset;
  slot.length = req.length;
  slot.done = 0;
  slot.buf = static_cast<uint8_t*>(req.buf);
  slot.fixed_index = FindFixedBuffer(req.buf, req.length);
  // The slot may be recycled from a completed write: a stale is_write
  // would submit this read as IORING_OP_WRITE (clobbering the device with
  // the caller's buffer) and route its completion into the write path —
  // the caller would then wait forever and writes_pending_ would
  // underflow.
  slot.is_write = false;
  slot.submit_ns = util::NowNs();

  const Status st = EnqueueSqeLocked(slot_idx);
  if (!st.ok()) return st;  // slot was never claimed

  free_slots_.pop_back();
  inflight_.fetch_add(1, std::memory_order_relaxed);
  ++stats_.reads_submitted;
  if (slot.fixed_index >= 0) {
    fixed_buffer_reads_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!ring_->sqpoll && ring_->to_submit >= submit_batch_) {
    (void)FlushLocked();  // deferred entries go out on the next flush
  }
  return Status::OK();
}

void UringDevice::ProcessRetriesLocked() {
  while (!retry_.empty()) {
    const uint32_t slot_idx = retry_.front();
    if (!EnqueueSqeLocked(slot_idx).ok()) return;  // ring full; retry later
    retry_.pop_front();
  }
}

size_t UringDevice::ProcessCqesLocked(IoCompletion* out, size_t max) {
  Ring& ring = *ring_;
  unsigned head = ring.local_cq_head;
  const unsigned tail = __atomic_load_n(ring.cq_tail, __ATOMIC_ACQUIRE);
  size_t n = 0;
  while (head != tail && n < max) {
    const io_uring_cqe& cqe = ring.cqes[head & ring.cq_mask];
    const uint32_t slot_idx = static_cast<uint32_t>(cqe.user_data);
    const int32_t res = cqe.res;
    ++head;
    Slot& slot = slots_[slot_idx];

    if (res == -EAGAIN || res == -EINTR) {
      retry_.push_back(slot_idx);
      continue;
    }
    if (slot.is_write) {
      // Write completions stay internal: account, resubmit short writes,
      // record the burst's first failure — never emitted to `out`.
      if (res < 0) {
        if (write_error_.ok()) {
          write_error_ = Status::IoError(
              ErrnoString("io_uring write", -res) + " at offset " +
              std::to_string(slot.offset));
        }
      } else if (res > 0 &&
                 (slot.done += static_cast<uint32_t>(res)) < slot.length) {
        retry_.push_back(slot_idx);  // genuine short write: resubmit rest
        continue;
      } else if (res == 0) {
        if (write_error_.ok()) {
          write_error_ = Status::IoError("io_uring wrote zero bytes at offset " +
                                         std::to_string(slot.offset));
        }
      } else {
        stats_.bytes_written += slot.length;
      }
      slot.is_write = false;  // freed slots must read as read slots
      free_slots_.push_back(slot_idx);
      --writes_pending_;
      continue;
    }
    StatusCode code = StatusCode::kOk;
    if (res < 0) {
      code = StatusCode::kIoError;
    } else {
      slot.done += static_cast<uint32_t>(res);
      if (slot.done < slot.length) {
        if (res == 0) {
          // Past the written extent within capacity: zero-fill, matching
          // FileDevice's sparse-read safeguard.
          std::memset(slot.buf + slot.done, 0, slot.length - slot.done);
        } else {
          retry_.push_back(slot_idx);  // genuine short read: resubmit rest
          continue;
        }
      }
    }

    out[n].user_data = slot.user_data;
    out[n].code = code;
    out[n].latency_ns = util::NowNs() - slot.submit_ns;
    ++stats_.reads_completed;
    stats_.bytes_read += slot.length;
    stats_.read_latency.Add(out[n].latency_ns);
    ++n;
    free_slots_.push_back(slot_idx);
    inflight_.fetch_sub(1, std::memory_order_relaxed);
  }
  ring.local_cq_head = head;
  __atomic_store_n(ring.cq_head, head, __ATOMIC_RELEASE);
  return n;
}

size_t UringDevice::PollCompletions(IoCompletion* out, size_t max) {
  std::lock_guard<std::mutex> lock(mu_);
  // Read completions a WriteBatch harvested while draining its writes
  // replay first, in arrival order.
  size_t n = 0;
  while (!parked_.empty() && n < max) {
    out[n++] = parked_.front();
    parked_.pop_front();
  }
  ProcessRetriesLocked();
  (void)FlushLocked();
  n += ProcessCqesLocked(out + n, max - n);
  // Short-read/EAGAIN resubmissions must not wait for the caller's next
  // submit: push them out now or the affected reads would stall.
  ProcessRetriesLocked();
  if (!ring_->sqpoll && ring_->to_submit > 0) (void)FlushLocked();
  return n;
}

Status UringDevice::Write(uint64_t offset, const void* data, uint32_t length) {
  const WriteOp op{offset, data, length};
  return WriteBatch(&op, 1);
}

Status UringDevice::WriteBatch(const WriteOp* ops, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    if (ops[i].data == nullptr || ops[i].length == 0) {
      return Status::InvalidArgument("null buffer or zero length");
    }
    if (!RangeInCapacity(ops[i].offset, ops[i].length, capacity_)) {
      return Status::OutOfRange("write beyond device capacity");
    }
    if (direct_io_ &&
        (ops[i].offset % align_ != 0 || ops[i].length % align_ != 0 ||
         reinterpret_cast<uintptr_t>(ops[i].data) % align_ != 0)) {
      return Status::InvalidArgument(
          "direct I/O write requires " + std::to_string(align_) +
          "-byte-aligned offset/length/buffer (offset=" +
          std::to_string(ops[i].offset) +
          " length=" + std::to_string(ops[i].length) + ")");
    }
  }

  // The whole burst runs under mu_: SQEs batch into one io_uring_enter,
  // and the wait loop drains the shared CQ ring, parking any read
  // completions that surface for the next PollCompletions.
  std::lock_guard<std::mutex> lock(mu_);
  write_error_ = Status::OK();
  Status submit_error;
  size_t next = 0;
  while (next < count || writes_pending_ > 0) {
    if (next < count && !free_slots_.empty() && submit_error.ok() &&
        write_error_.ok()) {
      const uint32_t slot_idx = free_slots_.back();
      Slot& slot = slots_[slot_idx];
      slot.user_data = 0;
      slot.offset = ops[next].offset;
      slot.length = ops[next].length;
      slot.done = 0;
      slot.buf = static_cast<uint8_t*>(
          const_cast<void*>(ops[next].data));  // written, never modified
      slot.fixed_index = -1;
      slot.is_write = true;
      slot.submit_ns = util::NowNs();
      const Status st = EnqueueSqeLocked(slot_idx);
      if (st.ok()) {
        free_slots_.pop_back();
        ++writes_pending_;
        ++next;
        continue;
      }
      slot.is_write = false;  // slot was never claimed
      if (st.code() != StatusCode::kResourceExhausted) {
        submit_error = st;  // stop submitting; drain what's in flight
      }
      // ResourceExhausted: SQ full — fall through and drain.
    }
    if (!submit_error.ok() || !write_error_.ok()) next = count;
    (void)FlushLocked();
    IoCompletion parked[64];
    const size_t n = ProcessCqesLocked(parked, 64);
    for (size_t i = 0; i < n; ++i) parked_.push_back(parked[i]);
    ProcessRetriesLocked();
    // A retry enqueued above is only published, not submitted: blocking
    // before flushing it would wait on a completion the kernel was never
    // asked to produce.
    if (!ring_->sqpoll && ring_->to_submit > 0) (void)FlushLocked();
    if (n == 0 && (writes_pending_ > 0 || free_slots_.empty())) {
      // Nothing surfaced but something is in flight (a write of ours, or
      // the reads hogging every slot): block for at least one CQE
      // instead of spinning.
      (void)SysUringEnter(ring_->ring_fd, 0, 1, IORING_ENTER_GETEVENTS);
    }
  }
  if (!submit_error.ok()) return submit_error;
  return write_error_;
}

QueueResult UringDevice::CreateQueue(const QueueOptions& options) {
  if (ring_ == nullptr) {
    return Status::FailedPrecondition("device has no ring");
  }
  // Each queue gets its own fd so registered-file and fixed-buffer tables
  // stay per-queue; the dup shares the open file description, so offsets
  // written through the parent are immediately visible to queue reads.
  const int qfd = ::dup(fd_);
  if (qfd < 0) {
    return Status::IoError(ErrnoString("dup", errno));
  }
  Options opt;
  opt.capacity = capacity_;
  opt.queue_capacity = std::max(1u, options.queue_capacity);
  opt.sq_entries = std::min(256u, std::max(8u, opt.queue_capacity));
  opt.submit_batch = submit_batch_;
  opt.direct_io = direct_io_;
  opt.sqpoll = sqpoll_requested_;
  opt.sqpoll_idle_ms = sqpoll_idle_ms_;
  std::unique_ptr<UringDevice> queue(new UringDevice(path_ + " nq", qfd, opt));
  E2_RETURN_NOT_OK(queue->InitRing(opt));  // failure: dtor closes qfd
  queue->parent_ = this;
  queue_registry_.Attach(queue.get());
  return std::unique_ptr<BlockDevice>(std::move(queue));
}

std::string UringDevice::name() const {
  std::string n = "uring:" + path_;
  if (sqpoll_active_) n += " (sqpoll)";
  return n;
}

#else  // !E2LSHOS_HAVE_LIBURING

// Graceful stub: the header set is absent at configure time. The class
// still links so callers can probe Available() and fall back.

struct UringDevice::Ring {};

namespace {
Status NotCompiledIn() {
  return Status::Unimplemented(
      "UringDevice was not compiled in (io_uring headers unavailable at "
      "configure time; E2LSHOS_HAVE_LIBURING is off)");
}
}  // namespace

bool UringDevice::Available() { return false; }

UringDevice::UringDevice(std::string path, int fd, const Options& options)
    : path_(std::move(path)),
      fd_(fd),
      capacity_(options.capacity),
      queue_capacity_(options.queue_capacity),
      direct_io_(options.direct_io) {}

UringDevice::~UringDevice() {
  if (fd_ >= 0) ::close(fd_);
}

Status UringDevice::InitRing(const Options&) { return NotCompiledIn(); }

Result<std::unique_ptr<UringDevice>> UringDevice::Create(const std::string&,
                                                         const Options&) {
  return NotCompiledIn();
}

Result<std::unique_ptr<UringDevice>> UringDevice::Open(const std::string&,
                                                       const Options&) {
  return NotCompiledIn();
}

Status UringDevice::SubmitRead(const IoRequest&) { return NotCompiledIn(); }

size_t UringDevice::PollCompletions(IoCompletion*, size_t) { return 0; }

Status UringDevice::Write(uint64_t, const void*, uint32_t) {
  return NotCompiledIn();
}

Status UringDevice::WriteBatch(const WriteOp*, size_t) {
  return NotCompiledIn();
}

Status UringDevice::RegisterBuffers(
    const std::vector<std::pair<void*, size_t>>&) {
  return NotCompiledIn();
}

QueueResult UringDevice::CreateQueue(const QueueOptions&) {
  return NotCompiledIn();
}

Status UringDevice::EnqueueSqeLocked(uint32_t) { return NotCompiledIn(); }
Status UringDevice::FlushLocked() { return NotCompiledIn(); }
void UringDevice::ProcessRetriesLocked() {}
size_t UringDevice::ProcessCqesLocked(IoCompletion*, size_t) { return 0; }
int UringDevice::FindFixedBuffer(const void*, uint32_t) const { return -1; }

std::string UringDevice::name() const { return "uring:" + path_ + " (stub)"; }

#endif  // E2LSHOS_HAVE_LIBURING

DeviceStats UringDevice::OwnCounters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void UringDevice::ResetOwnCounters() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = DeviceStats{};
}

DeviceStats UringDevice::stats() const {
  DeviceStats out = OwnCounters();
  queue_registry_.AddTo(&out);
  return out;
}

void UringDevice::ResetStats() {
  ResetOwnCounters();
  queue_registry_.ResetAll();
}

}  // namespace e2lshos::storage
