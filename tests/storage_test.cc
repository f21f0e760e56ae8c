// Tests for the storage substrate: memory/simulated/file/striped devices
// and the interface CPU-cost models.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <numeric>

#include "storage/device_registry.h"
#include "storage/file_device.h"
#include "storage/interface_model.h"
#include "storage/memory_device.h"
#include "storage/simulated_device.h"
#include "storage/striped_device.h"
#include "util/aligned_buffer.h"
#include "util/clock.h"
#include "util/rng.h"

namespace e2lshos::storage {
namespace {

// Fill a device region with a deterministic pattern.
void WritePattern(BlockDevice* dev, uint64_t offset, uint32_t len, uint64_t seed) {
  std::vector<uint8_t> buf(len);
  util::Rng rng(seed);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.NextU32());
  ASSERT_TRUE(dev->Write(offset, buf.data(), len).ok());
}

bool CheckPattern(const uint8_t* data, uint32_t len, uint64_t seed) {
  util::Rng rng(seed);
  for (uint32_t i = 0; i < len; ++i) {
    if (data[i] != static_cast<uint8_t>(rng.NextU32())) return false;
  }
  return true;
}

TEST(MemoryDevice, WriteThenSyncReadRoundTrips) {
  auto dev = MemoryDevice::Create(1 << 20);
  ASSERT_TRUE(dev.ok());
  WritePattern(dev->get(), 4096, 512, 1);
  util::AlignedBuffer buf(512);
  ASSERT_TRUE((*dev)->ReadSync(4096, buf.data(), 512).ok());
  EXPECT_TRUE(CheckPattern(buf.data(), 512, 1));
}

TEST(MemoryDevice, RejectsOutOfRange) {
  auto dev = MemoryDevice::Create(4096);
  ASSERT_TRUE(dev.ok());
  util::AlignedBuffer buf(512);
  IoRequest req{4096 - 256, 512, buf.data(), 0};
  EXPECT_EQ((*dev)->SubmitRead(req).code(), StatusCode::kOutOfRange);
  EXPECT_EQ((*dev)->Write(4000, buf.data(), 512).code(), StatusCode::kOutOfRange);
}

TEST(MemoryDevice, RejectsNullBuffer) {
  auto dev = MemoryDevice::Create(4096);
  ASSERT_TRUE(dev.ok());
  IoRequest req{0, 512, nullptr, 0};
  EXPECT_EQ((*dev)->SubmitRead(req).code(), StatusCode::kInvalidArgument);
}

TEST(MemoryDevice, UserDataRoundTrips) {
  auto dev = MemoryDevice::Create(1 << 16);
  ASSERT_TRUE(dev.ok());
  util::AlignedBuffer buf(512);
  for (uint64_t tag : {7ULL, 42ULL, ~0ULL >> 1}) {
    IoRequest req{0, 512, buf.data(), tag};
    ASSERT_TRUE((*dev)->SubmitRead(req).ok());
    IoCompletion comp;
    ASSERT_EQ((*dev)->PollCompletions(&comp, 1), 1u);
    EXPECT_EQ(comp.user_data, tag);
  }
}

TEST(MemoryDevice, StatsCountReads) {
  auto dev = MemoryDevice::Create(1 << 16);
  ASSERT_TRUE(dev.ok());
  util::AlignedBuffer buf(512);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE((*dev)->ReadSync(0, buf.data(), 512).ok());
  }
  EXPECT_EQ((*dev)->stats().reads_completed, 5u);
  EXPECT_EQ((*dev)->stats().bytes_read, 5 * 512u);
  (*dev)->ResetStats();
  EXPECT_EQ((*dev)->stats().reads_completed, 0u);
}

TEST(SimulatedDevice, DataIntegrityThroughQueue) {
  DeviceModel model{"test", 4, 1000, 64, 1 << 20};
  auto dev = SimulatedDevice::Create(model);
  ASSERT_TRUE(dev.ok());
  for (int i = 0; i < 8; ++i) WritePattern(dev->get(), i * 512, 512, 100 + i);

  std::vector<util::AlignedBuffer> bufs(8);
  for (int i = 0; i < 8; ++i) {
    bufs[i].Reset(512);
    IoRequest req{static_cast<uint64_t>(i) * 512, 512, bufs[i].data(),
                  static_cast<uint64_t>(i)};
    ASSERT_TRUE((*dev)->SubmitRead(req).ok());
  }
  int done = 0;
  IoCompletion comps[8];
  while (done < 8) {
    const size_t n = (*dev)->PollCompletions(comps, 8);
    for (size_t j = 0; j < n; ++j) {
      EXPECT_TRUE(CheckPattern(bufs[comps[j].user_data].data(), 512,
                               100 + comps[j].user_data));
    }
    done += static_cast<int>(n);
  }
}

TEST(SimulatedDevice, Qd1LatencyMatchesServiceTime) {
  DeviceModel model{"test", 8, 200000, 64, 1 << 20};  // 200 us service
  auto dev = SimulatedDevice::Create(model);
  ASSERT_TRUE(dev.ok());
  util::AlignedBuffer buf(512);
  const uint64_t t0 = util::NowNs();
  ASSERT_TRUE((*dev)->ReadSync(0, buf.data(), 512).ok());
  const uint64_t elapsed = util::NowNs() - t0;
  EXPECT_GE(elapsed, 200000u);
  EXPECT_LT(elapsed, 2000000u);  // within 10x (scheduling noise)
}

TEST(SimulatedDevice, ThroughputScalesWithQueueDepth) {
  // With 8 parallel units, deep queues should complete ~8x faster than
  // one-at-a-time.
  DeviceModel model{"test", 8, 100000, 256, 1 << 20};
  auto dev = SimulatedDevice::Create(model);
  ASSERT_TRUE(dev.ok());
  constexpr int kReads = 64;
  std::vector<util::AlignedBuffer> bufs(kReads);
  for (auto& b : bufs) b.Reset(512);

  const uint64_t t0 = util::NowNs();
  for (int i = 0; i < kReads; ++i) {
    IoRequest req{0, 512, bufs[i].data(), static_cast<uint64_t>(i)};
    ASSERT_TRUE((*dev)->SubmitRead(req).ok());
  }
  int done = 0;
  IoCompletion comps[16];
  while (done < kReads) done += static_cast<int>((*dev)->PollCompletions(comps, 16));
  const uint64_t deep_ns = util::NowNs() - t0;

  // Expected: 64 reads / 8 units * 100 us = 800 us (vs 6.4 ms serial).
  EXPECT_LT(deep_ns, 3200000u);
  EXPECT_GE(deep_ns, 800000u);
}

TEST(SimulatedDevice, QueueCapacityEnforced) {
  DeviceModel model{"test", 1, 1000000, 4, 1 << 20};
  auto dev = SimulatedDevice::Create(model);
  ASSERT_TRUE(dev.ok());
  util::AlignedBuffer buf(512);
  IoRequest req{0, 512, buf.data(), 0};
  for (int i = 0; i < 4; ++i) ASSERT_TRUE((*dev)->SubmitRead(req).ok());
  EXPECT_EQ((*dev)->SubmitRead(req).code(), StatusCode::kResourceExhausted);
}

// A burst of 64 reads through ReadSync on a sim:cssd queue that
// holds only 4: the call has to harvest and resubmit until all land.
// Requests run in reverse offset order with one shared user_data, so
// only the burst's own tagging can match completions to buffers.
struct SyncBurst {
  static constexpr int kReads = 64;
  std::unique_ptr<BlockDevice> device;
  std::unique_ptr<BlockDevice> queue;
  std::vector<util::AlignedBuffer> bufs;
  std::vector<IoRequest> reqs;
};

SyncBurst MakeSyncBurst(const std::string& uri) {
  SyncBurst b;
  DeviceUriOpenOptions open;
  open.capacity = 1 << 20;
  auto dev = OpenDeviceUri(uri, open);
  EXPECT_TRUE(dev.ok()) << uri << ": " << dev.status().ToString();
  if (!dev.ok()) return b;
  b.device = std::move(*dev);
  QueueOptions qopt;
  qopt.queue_capacity = 4;
  auto queue = b.device->CreateQueue(qopt);
  EXPECT_TRUE(queue.ok()) << queue.status().ToString();
  if (!queue.ok()) return b;
  b.queue = std::move(*queue);
  b.bufs.resize(SyncBurst::kReads);
  for (int i = 0; i < SyncBurst::kReads; ++i) {
    const uint64_t sector = SyncBurst::kReads - 1 - i;
    WritePattern(b.device.get(), sector * 512, 512, 500 + sector);
    b.bufs[i].Reset(512);
    b.reqs.push_back({sector * 512, 512, b.bufs[i].data(), 7});
  }
  return b;
}

TEST(ReadSyncBurst, DeepBurstOnShallowQueueFillsEveryBuffer) {
  SyncBurst b = MakeSyncBurst("sim:cssd");
  ASSERT_NE(b.queue, nullptr);
  ASSERT_TRUE(b.queue->ReadSync(b.reqs.data(), b.reqs.size()).ok());
  for (int i = 0; i < SyncBurst::kReads; ++i) {
    const uint64_t sector = b.reqs[i].offset / 512;
    EXPECT_TRUE(CheckPattern(b.bufs[i].data(), 512, 500 + sector))
        << "read " << i;
  }
  EXPECT_EQ(b.queue->outstanding(), 0u);
  EXPECT_EQ(b.queue->stats().reads_completed,
            static_cast<uint64_t>(SyncBurst::kReads));
}

TEST(ReadSyncBurst, FailedBurstReturnsOnlyAfterEveryReadCompleted) {
  SyncBurst b = MakeSyncBurst("sim:cssd?fault=complete:1");
  ASSERT_NE(b.queue, nullptr);
  EXPECT_FALSE(b.queue->ReadSync(b.reqs.data(), b.reqs.size()).ok());
  // No read may still be in flight into a buffer the caller now frees.
  EXPECT_EQ(b.queue->outstanding(), 0u);
}

TEST(SimulatedDevice, LatencyGrowsWhenSaturated) {
  // 2 units, 100 us service: 32 outstanding reads queue ~16 deep per unit.
  DeviceModel model{"test", 2, 100000, 256, 1 << 20};
  auto dev = SimulatedDevice::Create(model);
  ASSERT_TRUE(dev.ok());
  std::vector<util::AlignedBuffer> bufs(32);
  for (auto& b : bufs) b.Reset(512);
  for (int i = 0; i < 32; ++i) {
    IoRequest req{0, 512, bufs[i].data(), static_cast<uint64_t>(i)};
    ASSERT_TRUE((*dev)->SubmitRead(req).ok());
  }
  int done = 0;
  IoCompletion comps[32];
  while (done < 32) done += static_cast<int>((*dev)->PollCompletions(comps, 32));
  // Mean latency far above one service time (queueing delay).
  EXPECT_GT((*dev)->stats().read_latency.mean(), 300000.0);
}

TEST(DeviceRegistry, Qd1IopsMatchTable2) {
  // QD=1 IOPS = 1e9 / service_time; Table 2 column 1.
  EXPECT_NEAR(GetDeviceModel(DeviceKind::kCssd).ExpectedIops(1) / 1e3, 7.2, 0.1);
  EXPECT_NEAR(GetDeviceModel(DeviceKind::kEssd).ExpectedIops(1) / 1e3, 27.6, 0.1);
  EXPECT_NEAR(GetDeviceModel(DeviceKind::kXlfdd).ExpectedIops(1) / 1e3, 132.3, 0.3);
  EXPECT_NEAR(GetDeviceModel(DeviceKind::kHdd).ExpectedIops(1) / 1e3, 0.21, 0.01);
}

TEST(DeviceRegistry, Qd128IopsMatchTable2) {
  // Saturated IOPS = units / service_time; Table 2 column 2.
  EXPECT_NEAR(GetDeviceModel(DeviceKind::kCssd).ExpectedIops(128) / 1e3, 273, 5);
  EXPECT_NEAR(GetDeviceModel(DeviceKind::kEssd).ExpectedIops(128) / 1e3, 1400, 20);
  EXPECT_NEAR(GetDeviceModel(DeviceKind::kXlfdd).ExpectedIops(128) / 1e3, 3860, 60);
}

TEST(DeviceRegistry, Table5ConfigsPresent) {
  const auto configs = Table5Configs();
  ASSERT_EQ(configs.size(), 5u);
  EXPECT_EQ(configs[0].DisplayName(), "cSSD x 1");
  EXPECT_EQ(configs[4].DisplayName(), "XLFDD x 12");
}

TEST(StripedDevice, RoundTripsAcrossChildren) {
  std::vector<std::unique_ptr<BlockDevice>> children;
  for (int i = 0; i < 4; ++i) {
    auto dev = MemoryDevice::Create(1 << 20);
    ASSERT_TRUE(dev.ok());
    children.push_back(std::move(dev.value()));
  }
  auto striped = StripedDevice::Create(std::move(children));
  ASSERT_TRUE(striped.ok());
  EXPECT_EQ((*striped)->capacity(), 4ULL << 20);

  // Write a multi-sector extent, read back sector by sector.
  WritePattern(striped->get(), 1024, 4096, 55);
  util::Rng rng(55);
  std::vector<uint8_t> expect(4096);
  for (auto& b : expect) b = static_cast<uint8_t>(rng.NextU32());
  for (int s = 0; s < 8; ++s) {
    util::AlignedBuffer buf(512);
    ASSERT_TRUE((*striped)->ReadSync(1024 + s * 512, buf.data(), 512).ok());
    EXPECT_EQ(std::memcmp(buf.data(), expect.data() + s * 512, 512), 0);
  }
}

TEST(StripedDevice, RejectsSectorCrossingReads) {
  std::vector<std::unique_ptr<BlockDevice>> children;
  auto dev = MemoryDevice::Create(1 << 20);
  ASSERT_TRUE(dev.ok());
  children.push_back(std::move(dev.value()));
  auto dev2 = MemoryDevice::Create(1 << 20);
  ASSERT_TRUE(dev2.ok());
  children.push_back(std::move(dev2.value()));
  auto striped = StripedDevice::Create(std::move(children));
  ASSERT_TRUE(striped.ok());
  util::AlignedBuffer buf(512);
  IoRequest req{256, 512, buf.data(), 0};  // crosses a sector boundary
  EXPECT_EQ((*striped)->SubmitRead(req).code(), StatusCode::kInvalidArgument);
}

TEST(StripedDevice, DistributesLoadEvenly) {
  std::vector<std::unique_ptr<BlockDevice>> children;
  std::vector<BlockDevice*> raw;
  for (int i = 0; i < 4; ++i) {
    auto dev = MemoryDevice::Create(1 << 20);
    ASSERT_TRUE(dev.ok());
    raw.push_back(dev->get());
    children.push_back(std::move(dev.value()));
  }
  auto striped = StripedDevice::Create(std::move(children));
  ASSERT_TRUE(striped.ok());
  util::AlignedBuffer buf(512);
  for (int s = 0; s < 64; ++s) {
    ASSERT_TRUE((*striped)->ReadSync(static_cast<uint64_t>(s) * 512, buf.data(), 512).ok());
  }
  for (auto* dev : raw) EXPECT_EQ(dev->stats().reads_completed, 16u);
}

TEST(InterfaceModel, SpecsMatchTable3) {
  EXPECT_EQ(GetInterfaceSpec(InterfaceKind::kIoUring).submit_overhead_ns, 1000u);
  EXPECT_EQ(GetInterfaceSpec(InterfaceKind::kSpdk).submit_overhead_ns, 350u);
  EXPECT_EQ(GetInterfaceSpec(InterfaceKind::kXlfdd).submit_overhead_ns, 50u);
  EXPECT_NEAR(GetInterfaceSpec(InterfaceKind::kIoUring).MaxIopsPerCore() / 1e6,
              1.0, 0.01);
  EXPECT_NEAR(GetInterfaceSpec(InterfaceKind::kSpdk).MaxIopsPerCore() / 1e6, 2.9,
              0.1);
  EXPECT_NEAR(GetInterfaceSpec(InterfaceKind::kXlfdd).MaxIopsPerCore() / 1e6, 20,
              0.1);
}

TEST(InterfaceModel, ChargedDeviceBurnsCpuTime) {
  auto dev = MemoryDevice::Create(1 << 16);
  ASSERT_TRUE(dev.ok());
  ChargedDevice charged(dev->get(), {"slow-if", 50000, 0});  // 50 us per I/O
  util::AlignedBuffer buf(512);
  const uint64_t t0 = util::NowNs();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(charged.ReadSync(0, buf.data(), 512).ok());
  }
  EXPECT_GE(util::NowNs() - t0, 500000u);  // >= 10 * 50 us
  EXPECT_GE(charged.io_cpu_ns(), 500000u);
}

TEST(InterfaceModel, ChargedDeviceForwardsData) {
  auto dev = MemoryDevice::Create(1 << 16);
  ASSERT_TRUE(dev.ok());
  ChargedDevice charged(dev->get(), GetInterfaceSpec(InterfaceKind::kXlfdd));
  WritePattern(&charged, 512, 512, 9);
  util::AlignedBuffer buf(512);
  ASSERT_TRUE(charged.ReadSync(512, buf.data(), 512).ok());
  EXPECT_TRUE(CheckPattern(buf.data(), 512, 9));
}

TEST(FileDevice, RoundTripsThroughRealFile) {
  const std::string path = ::testing::TempDir() + "/e2_file_device_test.bin";
  FileDevice::Options opt;
  opt.capacity = 1 << 20;
  opt.io_threads = 2;
  auto dev = FileDevice::Create(path, opt);
  ASSERT_TRUE(dev.ok());
  WritePattern(dev->get(), 8192, 512, 77);
  util::AlignedBuffer buf(512);
  ASSERT_TRUE((*dev)->ReadSync(8192, buf.data(), 512).ok());
  EXPECT_TRUE(CheckPattern(buf.data(), 512, 77));
  std::remove(path.c_str());
}

TEST(FileDevice, ManyConcurrentReads) {
  const std::string path = ::testing::TempDir() + "/e2_file_device_many.bin";
  FileDevice::Options opt;
  opt.capacity = 1 << 20;
  opt.io_threads = 4;
  auto dev = FileDevice::Create(path, opt);
  ASSERT_TRUE(dev.ok());
  for (int i = 0; i < 32; ++i) WritePattern(dev->get(), i * 512, 512, 300 + i);

  std::vector<util::AlignedBuffer> bufs(32);
  for (int i = 0; i < 32; ++i) {
    bufs[i].Reset(512);
    IoRequest req{static_cast<uint64_t>(i) * 512, 512, bufs[i].data(),
                  static_cast<uint64_t>(i)};
    ASSERT_TRUE((*dev)->SubmitRead(req).ok());
  }
  int done = 0;
  IoCompletion comps[32];
  while (done < 32) {
    const size_t n = (*dev)->PollCompletions(comps, 32);
    for (size_t j = 0; j < n; ++j) {
      EXPECT_EQ(comps[j].code, StatusCode::kOk);
      EXPECT_TRUE(CheckPattern(bufs[comps[j].user_data].data(), 512,
                               300 + comps[j].user_data));
    }
    done += static_cast<int>(n);
  }
  std::remove(path.c_str());
}

// Property sweep: every device kind serves QD-128 random 512-byte reads at
// (at least half of) its calibrated rate, and data is intact.
class DeviceKindTest : public ::testing::TestWithParam<DeviceKind> {};

TEST_P(DeviceKindTest, SaturatedIopsNearCalibration) {
  DeviceModel model = GetDeviceModel(GetParam());
  if (GetParam() == DeviceKind::kHdd) GTEST_SKIP() << "HDD too slow for CI";
  model.capacity_bytes = 16 << 20;
  auto dev = SimulatedDevice::Create(model);
  ASSERT_TRUE(dev.ok());

  constexpr int kReads = 2000;
  constexpr int kDepth = 128;
  util::Rng rng(1);
  std::vector<util::AlignedBuffer> bufs(kDepth);
  for (auto& b : bufs) b.Reset(512);

  // The 2000-read window is ~2 ms at the fastest calibration: a single
  // scheduler preemption on a contended one-core CI host sinks any one
  // sample. Take the best of three — a genuinely mis-calibrated device
  // fails all of them.
  double iops = 0;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const uint64_t t0 = util::NowNs();
    int submitted = 0, done = 0;
    IoCompletion comps[64];
    std::vector<uint32_t> free_bufs(kDepth);
    std::iota(free_bufs.begin(), free_bufs.end(), 0);
    while (done < kReads) {
      while (submitted < kReads && !free_bufs.empty()) {
        const uint32_t b = free_bufs.back();
        const uint64_t sector = rng.NextU64Below(model.capacity_bytes / 512);
        IoRequest req{sector * 512, 512, bufs[b].data(), b};
        if (!(*dev)->SubmitRead(req).ok()) break;
        free_bufs.pop_back();
        ++submitted;
      }
      const size_t n = (*dev)->PollCompletions(comps, 64);
      for (size_t j = 0; j < n; ++j) {
        free_bufs.push_back(static_cast<uint32_t>(comps[j].user_data));
      }
      done += static_cast<int>(n);
    }
    const double secs = static_cast<double>(util::NowNs() - t0) / 1e9;
    iops = std::max(iops, kReads / secs);
  }
  // A single-core submit/poll loop itself tops out near ~1.5 MIOPS (the
  // very CPU bound the paper's Table 3 is about), so cap the expectation.
  EXPECT_GT(iops, std::min(model.ExpectedIops(kDepth) * 0.5, 1.2e6));
}

INSTANTIATE_TEST_SUITE_P(AllDevices, DeviceKindTest,
                         ::testing::Values(DeviceKind::kCssd, DeviceKind::kEssd,
                                           DeviceKind::kXlfdd, DeviceKind::kHdd),
                         [](const auto& info) {
                           switch (info.param) {
                             case DeviceKind::kCssd: return "cSSD";
                             case DeviceKind::kEssd: return "eSSD";
                             case DeviceKind::kXlfdd: return "XLFDD";
                             case DeviceKind::kHdd: return "HDD";
                           }
                           return "unknown";
                         });

}  // namespace
}  // namespace e2lshos::storage
