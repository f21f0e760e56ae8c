// Concurrency hammer tests for the storage layer: many threads submit
// reads, poll completions, and write to a shared device at once. The
// assertions check that no request or completion is lost or corrupted;
// the ASan and TSan CI presets check the memory/race side (these suites
// carry the `concurrency` ctest label the TSan job selects on).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "storage/file_device.h"
#include "storage/simulated_device.h"
#include "storage/striped_device.h"
#include "storage/uring_device.h"
#include "util/aligned_buffer.h"

namespace e2lshos::storage {
namespace {

constexpr uint32_t kThreads = 4;
constexpr uint32_t kReadsPerThread = 200;
constexpr uint32_t kReadSectors = 64;   ///< Read region: sectors [0, 64).
constexpr uint64_t kWriteBase = kReadSectors * kSectorBytes;

uint8_t PatternByte(uint64_t offset, uint64_t i) {
  return static_cast<uint8_t>((offset / kSectorBytes + i) & 0xff);
}

/// Fill the read region with a per-sector pattern via the device's
/// (synchronous) write path.
void WritePattern(BlockDevice* dev) {
  std::vector<uint8_t> sector(kSectorBytes);
  for (uint64_t s = 0; s < kReadSectors; ++s) {
    const uint64_t offset = s * kSectorBytes;
    for (uint64_t i = 0; i < kSectorBytes; ++i) sector[i] = PatternByte(offset, i);
    ASSERT_TRUE(dev->Write(offset, sector.data(), kSectorBytes).ok());
  }
}

/// The shared hammer: kThreads reader threads each submit
/// kReadsPerThread sector reads (every read gets a dedicated buffer) and
/// poll the shared completion stream, while two writer threads pound a
/// disjoint region. Afterwards every completion must have been harvested
/// exactly once and every buffer must hold its sector's pattern.
void HammerSharedDevice(BlockDevice* dev) {
  WritePattern(dev);

  const uint32_t total_reads = kThreads * kReadsPerThread;
  std::vector<util::AlignedBuffer> bufs(total_reads);
  for (auto& b : bufs) b.Reset(kSectorBytes);

  std::atomic<uint32_t> completed{0};
  std::atomic<uint32_t> io_errors{0};
  std::vector<uint8_t> seen(total_reads);  // each slot written by one harvester

  auto drain = [&](IoCompletion* comps, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      ASSERT_LT(comps[i].user_data, total_reads);
      seen[comps[i].user_data] = 1;
      if (comps[i].code != StatusCode::kOk) io_errors.fetch_add(1);
      completed.fetch_add(1);
    }
  };

  auto reader = [&](uint32_t tid) {
    IoCompletion comps[32];
    for (uint32_t r = 0; r < kReadsPerThread; ++r) {
      const uint32_t global = tid * kReadsPerThread + r;
      IoRequest req;
      req.offset = (static_cast<uint64_t>(global) % kReadSectors) * kSectorBytes;
      req.length = kSectorBytes;
      req.buf = bufs[global].data();
      req.user_data = global;
      for (;;) {
        const Status st = dev->SubmitRead(req);
        if (st.ok()) break;
        ASSERT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
        drain(comps, dev->PollCompletions(comps, 32));
        std::this_thread::yield();
      }
      drain(comps, dev->PollCompletions(comps, 32));
    }
  };
  auto writer = [&](uint32_t tid) {
    std::vector<uint8_t> block(kSectorBytes, static_cast<uint8_t>(0xA0 + tid));
    for (uint32_t w = 0; w < 200; ++w) {
      const uint64_t offset = kWriteBase + ((tid * 200 + w) % 64) * kSectorBytes;
      ASSERT_TRUE(dev->Write(offset, block.data(), kSectorBytes).ok());
    }
  };

  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) threads.emplace_back(reader, t);
  for (uint32_t t = 0; t < 2; ++t) threads.emplace_back(writer, t);
  for (auto& th : threads) th.join();

  // Drain whatever is still pending (SimulatedDevice completes on the
  // wall clock; FileDevice on its worker pool).
  IoCompletion comps[64];
  while (completed.load() < total_reads) {
    const size_t n = dev->PollCompletions(comps, 64);
    if (n == 0) {
      std::this_thread::yield();
      continue;
    }
    drain(comps, n);
  }
  EXPECT_EQ(completed.load(), total_reads);  // no lost or duplicated completions
  EXPECT_EQ(dev->outstanding(), 0u);
  EXPECT_EQ(io_errors.load(), 0u);

  // Exactly-once delivery and uncorrupted data.
  uint32_t delivered = 0;
  for (uint32_t g = 0; g < total_reads; ++g) delivered += seen[g];
  EXPECT_EQ(delivered, total_reads);
  for (uint32_t g = 0; g < total_reads; ++g) {
    const uint64_t offset =
        (static_cast<uint64_t>(g) % kReadSectors) * kSectorBytes;
    const uint8_t* data = bufs[g].data();
    bool match = true;
    for (uint64_t i = 0; i < kSectorBytes && match; ++i) {
      match = data[i] == PatternByte(offset, i);
    }
    EXPECT_TRUE(match) << "read " << g << " returned corrupted data";
  }

  const DeviceStats& stats = dev->stats();
  EXPECT_GE(stats.reads_submitted, total_reads);
  EXPECT_EQ(stats.reads_completed, stats.reads_submitted);
}

TEST(DeviceConcurrency, MemoryDeviceSharedHammer) {
  auto dev = SimulatedDevice::Create(MemoryModel(1 << 20, /*queue_capacity=*/256));
  ASSERT_TRUE(dev.ok());
  HammerSharedDevice(dev->get());
}

TEST(DeviceConcurrency, SimulatedDeviceSharedHammer) {
  DeviceModel model{"hammer-ssd", 8, 1000, 256, 1 << 20};
  auto dev = SimulatedDevice::Create(model);
  ASSERT_TRUE(dev.ok());
  HammerSharedDevice(dev->get());
}

TEST(DeviceConcurrency, SharedFileDeviceHammer) {
  const std::string path = ::testing::TempDir() + "/e2_concurrency_hammer.bin";
  FileDevice::Options opt;
  opt.capacity = 1 << 20;
  opt.io_threads = 4;
  opt.queue_capacity = 256;
  auto dev = FileDevice::Create(path, opt);
  ASSERT_TRUE(dev.ok());
  HammerSharedDevice(dev->get());
  dev->reset();
  std::remove(path.c_str());
}

// The io_uring backend under the same hammer: many threads write SQEs
// into one submission ring and drain one completion ring concurrently.
// A lost wakeup, a torn tail publish, or a double-harvested CQE shows up
// here as a lost/duplicated completion or corrupted data.
TEST(DeviceConcurrency, SharedUringDeviceHammer) {
  if (!UringDevice::Available()) {
    GTEST_SKIP() << "io_uring unavailable on this host";
  }
  const std::string path = ::testing::TempDir() + "/e2_uring_hammer.bin";
  UringDevice::Options opt;
  opt.capacity = 1 << 20;
  opt.queue_capacity = 256;
  opt.sq_entries = 64;
  auto dev = UringDevice::Create(path, opt);
  if (!dev.ok()) GTEST_SKIP() << dev.status().ToString();
  HammerSharedDevice(dev->get());
  dev->reset();
  std::remove(path.c_str());
}

// Same hammer with a tiny submission ring and submit batching forced to
// the maximum: SQ-full recycling and Poll-side flushing race with the
// readers instead of staying on the happy path.
TEST(DeviceConcurrency, UringDeviceTinyRingHammer) {
  if (!UringDevice::Available()) {
    GTEST_SKIP() << "io_uring unavailable on this host";
  }
  const std::string path = ::testing::TempDir() + "/e2_uring_tiny_hammer.bin";
  UringDevice::Options opt;
  opt.capacity = 1 << 20;
  opt.queue_capacity = 32;
  opt.sq_entries = 4;
  opt.submit_batch = 1000;  // only Poll flushes
  auto dev = UringDevice::Create(path, opt);
  if (!dev.ok()) GTEST_SKIP() << dev.status().ToString();
  HammerSharedDevice(dev->get());
  dev->reset();
  std::remove(path.c_str());
}

TEST(DeviceConcurrency, StripedDeviceConcurrentPollers) {
  std::vector<std::unique_ptr<BlockDevice>> children;
  for (int i = 0; i < 4; ++i) {
    auto child = SimulatedDevice::Create(MemoryModel(1 << 18, /*queue_capacity=*/512));
    ASSERT_TRUE(child.ok());
    children.push_back(std::move(child).value());
  }
  auto striped = StripedDevice::Create(std::move(children));
  ASSERT_TRUE(striped.ok());
  HammerSharedDevice(striped->get());
}

}  // namespace
}  // namespace e2lshos::storage
