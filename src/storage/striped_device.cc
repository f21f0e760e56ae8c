#include "storage/striped_device.h"

#include <algorithm>
#include <atomic>

namespace e2lshos::storage {

Result<std::unique_ptr<StripedDevice>> StripedDevice::Create(
    std::vector<std::unique_ptr<BlockDevice>> children) {
  if (children.empty()) {
    return Status::InvalidArgument("striped device needs at least one child");
  }
  for (const auto& c : children) {
    if (c == nullptr) return Status::InvalidArgument("null child device");
    // Striping splits the address space at 512-byte granularity; a child
    // demanding coarser extents (a 4Kn drive in direct mode) could never
    // be satisfied through the stripe map.
    if (c->io_alignment() > kSectorBytes) {
      return Status::InvalidArgument(
          "child device requires " + std::to_string(c->io_alignment()) +
          "-byte alignment, above the 512-byte stripe unit");
    }
  }
  return std::unique_ptr<StripedDevice>(new StripedDevice(std::move(children)));
}

Status StripedDevice::Translate(uint64_t offset, uint32_t length, size_t* child,
                                uint64_t* child_offset) const {
  if (!RangeInCapacity(offset, length, capacity_)) {
    return Status::OutOfRange("beyond capacity");
  }
  const uint64_t sector = offset / kSectorBytes;
  const uint64_t within = offset % kSectorBytes;
  if (within + length > kSectorBytes) {
    return Status::InvalidArgument("request crosses a sector boundary");
  }
  *child = static_cast<size_t>(sector % children_.size());
  *child_offset = (sector / children_.size()) * kSectorBytes + within;
  return Status::OK();
}

Status StripedDevice::Write(uint64_t offset, const void* data, uint32_t length) {
  // Writes may span sectors; split per sector.
  const uint8_t* p = static_cast<const uint8_t*>(data);
  while (length > 0) {
    const uint64_t within = offset % kSectorBytes;
    const uint32_t chunk =
        std::min<uint64_t>(length, kSectorBytes - within);
    size_t child;
    uint64_t child_offset;
    E2_RETURN_NOT_OK(Translate(offset, chunk, &child, &child_offset));
    E2_RETURN_NOT_OK(children_[child]->Write(child_offset, p, chunk));
    offset += chunk;
    p += chunk;
    length -= chunk;
  }
  return Status::OK();
}

/// \brief One queue over the stripe set: one endpoint per child drive
/// plus a poll cursor. Submit translates through the parent's
/// (immutable) stripe map and lands on this queue's endpoint for the
/// target drive; no state is shared with sibling stripe queues. A
/// created queue owns one child queue per drive; the default queue
/// borrows the children themselves.
class StripedDevice::Queue : public BlockDevice {
 public:
  Queue(StripedDevice* parent, std::vector<BlockDevice*> endpoints,
        std::vector<std::unique_ptr<BlockDevice>> owned = {})
      : parent_(parent),
        endpoints_(std::move(endpoints)),
        owned_(std::move(owned)) {}

  Status SubmitRead(const IoRequest& req) override {
    size_t child;
    uint64_t child_offset;
    E2_RETURN_NOT_OK(
        parent_->Translate(req.offset, req.length, &child, &child_offset));
    IoRequest sub = req;
    sub.offset = child_offset;
    return endpoints_[child]->SubmitRead(sub);
  }

  size_t PollCompletions(IoCompletion* out, size_t max) override {
    // Round-robin across children for fairness; the cursor advance is a
    // single atomic so concurrent pollers of the default queue never
    // race (each child endpoint is itself thread-safe).
    size_t total = 0;
    const size_t n = endpoints_.size();
    const uint64_t start = poll_cursor_.fetch_add(1, std::memory_order_relaxed);
    for (size_t i = 0; i < n && total < max; ++i) {
      const size_t idx = static_cast<size_t>((start + i) % n);
      total += endpoints_[idx]->PollCompletions(out + total, max - total);
    }
    return total;
  }

  Status Write(uint64_t offset, const void* data, uint32_t length) override {
    return parent_->Write(offset, data, length);
  }
  uint64_t capacity() const override { return parent_->capacity(); }
  uint32_t io_alignment() const override { return parent_->io_alignment(); }
  uint32_t outstanding() const override {
    uint32_t total = 0;
    for (const BlockDevice* e : endpoints_) total += e->outstanding();
    return total;
  }
  std::string name() const override { return parent_->name() + " nq"; }
  DeviceStats stats() const override {
    DeviceStats merged;
    for (const BlockDevice* e : endpoints_) merged.Merge(e->stats());
    return merged;
  }
  void ResetStats() override {
    for (BlockDevice* e : endpoints_) e->ResetStats();
  }
  Status RegisterBuffers(
      const std::vector<std::pair<void*, size_t>>& regions) override {
    // Registration is per child ring; reads to any drive may target any
    // region, so every child endpoint needs the full set. All-or-nothing.
    for (BlockDevice* e : endpoints_) {
      E2_RETURN_NOT_OK(e->RegisterBuffers(regions));
    }
    return Status::OK();
  }

 private:
  StripedDevice* parent_;
  std::vector<BlockDevice*> endpoints_;
  std::vector<std::unique_ptr<BlockDevice>> owned_;
  std::atomic<uint64_t> poll_cursor_{0};
};

StripedDevice::StripedDevice(std::vector<std::unique_ptr<BlockDevice>> children)
    : children_(std::move(children)) {
  uint64_t min_cap = children_[0]->capacity();
  for (const auto& c : children_) min_cap = std::min(min_cap, c->capacity());
  // Whole sectors only.
  min_cap = min_cap / kSectorBytes * kSectorBytes;
  capacity_ = min_cap * children_.size();
  for (const auto& c : children_) {
    io_alignment_ = std::max(io_alignment_, c->io_alignment());
  }
  std::vector<BlockDevice*> endpoints;
  for (const auto& c : children_) endpoints.push_back(c.get());
  default_queue_ = std::make_unique<Queue>(this, std::move(endpoints));
}

StripedDevice::~StripedDevice() = default;

QueueResult StripedDevice::CreateQueue(const QueueOptions& options) {
  std::vector<std::unique_ptr<BlockDevice>> child_queues;
  std::vector<BlockDevice*> endpoints;
  for (auto& c : children_) {
    E2_ASSIGN_OR_RETURN(auto q, c->CreateQueue(options));
    endpoints.push_back(q.get());
    child_queues.push_back(std::move(q));
  }
  return std::unique_ptr<BlockDevice>(std::make_unique<Queue>(
      this, std::move(endpoints), std::move(child_queues)));
}

Status StripedDevice::SubmitRead(const IoRequest& req) {
  return default_queue_->SubmitRead(req);
}

size_t StripedDevice::PollCompletions(IoCompletion* out, size_t max) {
  return default_queue_->PollCompletions(out, max);
}

// The default queue's endpoints are the children themselves, so its
// totals are the device's.
uint32_t StripedDevice::outstanding() const {
  return default_queue_->outstanding();
}

std::string StripedDevice::name() const {
  return children_[0]->name() + " x " + std::to_string(children_.size());
}

DeviceStats StripedDevice::stats() const { return default_queue_->stats(); }

void StripedDevice::ResetStats() { default_queue_->ResetStats(); }

}  // namespace e2lshos::storage
