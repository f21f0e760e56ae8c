// Storage access interface models (paper Table 3).
//
// Issuing an I/O consumes CPU time on the submitting core. The paper
// measures, per request:
//
//   io_uring (2.0)      1.0 us   -> 1.0 MIOPS/core max
//   SPDK (21.10)        350 ns   -> 2.9 MIOPS/core
//   XLFDD interface      50 ns   -> 20  MIOPS/core
//
// We reproduce the cost by busy-spinning the submitting core for the
// modeled duration inside SubmitRead (and a small poll cost per harvested
// completion). ChargedDevice wraps any BlockDevice with such a model, so
// the same device can be driven through different "interfaces" — exactly
// the experiment matrix of Figs. 11-13.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "storage/block_device.h"

namespace e2lshos::storage {

/// \brief CPU-cost model of one storage access interface.
struct InterfaceSpec {
  std::string name;
  uint64_t submit_overhead_ns = 0;  ///< CPU time per request submission.
  uint64_t poll_overhead_ns = 0;    ///< CPU time per harvested completion.

  /// Max requests/second one core can issue (the paper's "Max IOPS/core").
  double MaxIopsPerCore() const {
    const uint64_t per_io = submit_overhead_ns + poll_overhead_ns;
    return per_io == 0 ? 0.0 : 1e9 / static_cast<double>(per_io);
  }
};

/// \brief Named interfaces from Table 3 (+ a heavyweight synchronous
/// path approximating page-cache/mmap access, Sec. 6.5).
enum class InterfaceKind { kIoUring, kSpdk, kXlfdd, kMmapSync };

InterfaceSpec GetInterfaceSpec(InterfaceKind kind);
std::vector<std::pair<InterfaceKind, std::string>> AllInterfaceKinds();

/// \brief Wraps a device, charging the interface's CPU cost per I/O.
///
/// Does not own the underlying device by default (the same physical
/// device can back multiple logical views); pass owned=true to take
/// ownership.
class ChargedDevice : public BlockDevice {
 public:
  ChargedDevice(BlockDevice* inner, InterfaceSpec spec)
      : inner_(inner), spec_(std::move(spec)) {}
  ChargedDevice(std::unique_ptr<BlockDevice> inner, InterfaceSpec spec)
      : inner_(inner.get()), owned_(std::move(inner)), spec_(std::move(spec)) {}

  Status SubmitRead(const IoRequest& req) override;
  size_t PollCompletions(IoCompletion* out, size_t max) override;
  Status Write(uint64_t offset, const void* data, uint32_t length) override {
    return inner_->Write(offset, data, length);
  }
  uint64_t capacity() const override { return inner_->capacity(); }
  uint32_t io_alignment() const override { return inner_->io_alignment(); }
  uint32_t outstanding() const override { return inner_->outstanding(); }
  std::string name() const override {
    return inner_->name() + " via " + spec_.name;
  }
  DeviceStats stats() const override { return inner_->stats(); }
  void ResetStats() override {
    inner_->ResetStats();
    io_cpu_ns_ = 0;
  }

  Status RegisterBuffers(
      const std::vector<std::pair<void*, size_t>>& regions) override {
    return inner_->RegisterBuffers(regions);
  }

  /// Each inner queue is wrapped in an owning ChargedDevice with the
  /// same spec, so every queue pays the same per-core CPU charge.
  QueueResult CreateQueue(const QueueOptions& options) override;

  const InterfaceSpec& spec() const { return spec_; }
  BlockDevice* inner() { return inner_; }

  /// Total CPU time charged for I/O submission/harvest since last reset
  /// (the "I/O cost" bar of Fig. 12).
  uint64_t io_cpu_ns() const { return io_cpu_ns_.load(std::memory_order_relaxed); }

 private:
  BlockDevice* inner_;
  std::unique_ptr<BlockDevice> owned_;
  InterfaceSpec spec_;
  /// Atomic: one charged view may be driven from several threads.
  std::atomic<uint64_t> io_cpu_ns_{0};
};

}  // namespace e2lshos::storage
