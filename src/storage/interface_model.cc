#include "storage/interface_model.h"

#include "util/clock.h"

namespace e2lshos::storage {

InterfaceSpec GetInterfaceSpec(InterfaceKind kind) {
  switch (kind) {
    case InterfaceKind::kIoUring:
      return {"io_uring", 1000, 0};
    case InterfaceKind::kSpdk:
      return {"SPDK", 350, 0};
    case InterfaceKind::kXlfdd:
      return {"XLFDD-if", 50, 0};
    case InterfaceKind::kMmapSync:
      // Page-fault + page-cache management cost per 4 kB miss; the paper
      // attributes ~40% of mmap query time to CPU I/O overhead.
      return {"mmap-sync", 4000, 0};
  }
  return {"unknown", 0, 0};
}

Status ChargedDevice::SubmitRead(const IoRequest& req) {
  // The CPU cost is paid whether or not the submission succeeds: a full
  // queue is discovered only after talking to the device.
  util::BusySpinNs(spec_.submit_overhead_ns);
  io_cpu_ns_.fetch_add(spec_.submit_overhead_ns, std::memory_order_relaxed);
  return inner_->SubmitRead(req);
}

size_t ChargedDevice::PollCompletions(IoCompletion* out, size_t max) {
  const size_t n = inner_->PollCompletions(out, max);
  if (n > 0 && spec_.poll_overhead_ns > 0) {
    util::BusySpinNs(spec_.poll_overhead_ns * n);
    io_cpu_ns_.fetch_add(spec_.poll_overhead_ns * n, std::memory_order_relaxed);
  }
  return n;
}

QueueResult ChargedDevice::CreateQueue(const QueueOptions& options) {
  E2_ASSIGN_OR_RETURN(auto queue, inner_->CreateQueue(options));
  return std::unique_ptr<BlockDevice>(
      std::make_unique<ChargedDevice>(std::move(queue), spec_));
}

}  // namespace e2lshos::storage
