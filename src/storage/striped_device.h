// RAID-0-style striping across multiple block devices.
//
// The paper scales random-read IOPS by adding drives (Table 5, Fig. 15:
// cSSD x 1..6). Hash buckets are spread across drives by striping the
// address space at sector (512 B) granularity; since E2LSHoS never issues
// a request crossing a sector boundary, each request maps to exactly one
// child device.
#pragma once

#include <memory>
#include <vector>

#include "storage/block_device.h"

namespace e2lshos::storage {

class StripedDevice : public BlockDevice {
 public:
  /// Construct from >= 1 child devices. Capacity is
  /// min(child capacity) * children, striped at 512 B.
  static Result<std::unique_ptr<StripedDevice>> Create(
      std::vector<std::unique_ptr<BlockDevice>> children);
  ~StripedDevice() override;

  /// The device-level path: a default queue over the children's own
  /// device-level paths, safe to drive from several threads at once.
  Status SubmitRead(const IoRequest& req) override;
  size_t PollCompletions(IoCompletion* out, size_t max) override;
  Status Write(uint64_t offset, const void* data, uint32_t length) override;
  uint64_t capacity() const override { return capacity_; }
  /// The strictest child constraint. Create() rejects children whose
  /// alignment exceeds the 512-byte stripe unit, so this never exceeds
  /// kSectorBytes.
  uint32_t io_alignment() const override { return io_alignment_; }
  uint32_t outstanding() const override;
  std::string name() const override;
  DeviceStats stats() const override;
  void ResetStats() override;

  size_t num_children() const { return children_.size(); }
  BlockDevice* child(size_t i) { return children_[i].get(); }

  /// Queues by composition: a stripe queue bundles one queue per child,
  /// so a shard submitting through it reaches every drive's private
  /// queue without crossing another shard's queues. Fails when any
  /// child cannot create a queue.
  QueueResult CreateQueue(const QueueOptions& options) override;

 private:
  class Queue;  // defined in striped_device.cc

  explicit StripedDevice(std::vector<std::unique_ptr<BlockDevice>> children);

  /// Translate a logical extent to (child index, child offset). The extent
  /// must not cross a sector boundary.
  Status Translate(uint64_t offset, uint32_t length, size_t* child,
                   uint64_t* child_offset) const;

  std::vector<std::unique_ptr<BlockDevice>> children_;
  uint64_t capacity_ = 0;
  uint32_t io_alignment_ = 1;
  std::unique_ptr<Queue> default_queue_;
};

}  // namespace e2lshos::storage
