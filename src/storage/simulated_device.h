// Flash storage device simulator calibrated against the paper's Table 2.
//
// Model: the device contains `parallel_units` internal flash units (dies /
// planes); every read occupies one unit for `service_time_ns`. An arriving
// request is dispatched to the earliest-free unit, so
//
//   * at queue depth 1 the device sustains 1/service_time IOPS, and
//   * at saturation it sustains parallel_units/service_time IOPS,
//   * request latency grows once the queue depth exceeds the unit count
//     (requests wait for a free unit) — reproducing Fig. 15's
//     latency-vs-throughput trade-off.
//
// Completions are gated on the real wall clock: a request submitted at
// time t becomes visible to PollCompletions at its simulated completion
// time, so end-to-end query benchmarks measure genuine elapsed time with
// CPU work and I/O overlapping exactly as in the paper's Fig. 1(B).
//
// Data lives in demand-paged anonymous memory (SparseBacking), so the
// declared multi-terabyte capacities cost only the bytes actually written.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "storage/block_device.h"
#include "storage/sparse_backing.h"

namespace e2lshos::storage {

/// \brief Calibration parameters for one device model (see Table 2).
struct DeviceModel {
  std::string name;
  uint32_t parallel_units = 1;    ///< Internal flash parallelism.
  uint64_t service_time_ns = 0;   ///< Per-read service time of one unit.
  uint32_t queue_capacity = 1024; ///< Max outstanding requests.
  uint64_t capacity_bytes = 0;

  /// IOPS this model sustains at a given queue depth (analytic).
  double ExpectedIops(uint32_t queue_depth) const {
    const double active = std::min<uint64_t>(queue_depth, parallel_units);
    return active * 1e9 / static_cast<double>(service_time_ns);
  }
};

class SimulatedDevice : public BlockDevice {
 public:
  static Result<std::unique_ptr<SimulatedDevice>> Create(const DeviceModel& model);
  ~SimulatedDevice() override;

  /// The device-level path: a default queue of the model's capacity,
  /// safe to drive from several threads at once.
  Status SubmitRead(const IoRequest& req) override;
  size_t PollCompletions(IoCompletion* out, size_t max) override;
  Status Write(uint64_t offset, const void* data, uint32_t length) override;
  uint64_t capacity() const override { return backing_.capacity(); }
  uint32_t outstanding() const override;
  std::string name() const override { return model_.name; }
  DeviceStats stats() const override;
  void ResetStats() override;

  const DeviceModel& model() const { return model_; }

  /// Fraction of unit-time spent servicing reads since the last
  /// ResetStats (the "device usage" series of Fig. 15).
  double Utilization() const;

  /// Each queue has a private pending heap + completion gating, so
  /// per-queue submit/poll never takes another queue's lock. The flash
  /// unit clocks stay shared (one brief device lock at dispatch): that
  /// is the physical hardware every queue pair contends on in a real
  /// NVMe drive too.
  QueueResult CreateQueue(const QueueOptions& options) override;

 private:
  class Queue;  // defined in simulated_device.cc

  explicit SimulatedDevice(const DeviceModel& model);

  /// Dispatch one read to the earliest-free flash unit; returns its
  /// simulated completion time. Takes the device lock briefly.
  uint64_t ScheduleOnUnit(uint64_t now_ns);

  DeviceModel model_;
  SparseBacking backing_;
  mutable std::mutex mu_;
  std::vector<uint64_t> unit_free_ns_;
  /// Unit busy time and writes; reads count on their queue.
  DeviceStats stats_;
  uint64_t stats_epoch_ns_ = 0;
  QueueRegistry<Queue> queues_;
  std::unique_ptr<Queue> default_queue_;  ///< Declared last: retires first.
};

}  // namespace e2lshos::storage
