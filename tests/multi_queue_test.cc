// Multi-queue device architecture tests (paper Sec. 6.5: one NVMe queue
// pair per serving thread).
//
//   * Per-queue isolation and device-level stats aggregation across
//     queues, including queues already destroyed (their counters fold
//     into the device), on every backend and layer.
//   * A device that cannot create queues fails every sharded engine, a
//     1-shard one included, with its own status.
//   * Parity: sharded query results over per-shard queues are
//     bit-identical to a plain QueryEngine on the bare device across
//     mem:/sim:cssd*4/file:/uring: backends at 1 and 4 shards.
//   * Concurrency hammer: one thread per queue, each submit-and-polling
//     its own queue (the zero-shared-lock hot path; run under TSan in
//     CI).
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/builder.h"
#include "core/query_engine.h"
#include "core/query_stream.h"
#include "core/sharded_engine.h"
#include "core/streaming_server.h"
#include "data/generators.h"
#include "storage/cache_device.h"
#include "storage/device_registry.h"
#include "storage/file_device.h"
#include "storage/interface_model.h"
#include "storage/simulated_device.h"
#include "storage/striped_device.h"
#include "storage/uring_device.h"
#include "util/aligned_buffer.h"

namespace e2lshos::storage {
namespace {

constexpr uint64_t kCapacity = 1 << 20;

// ---------------------------------------------------------------------------
// Queue isolation + aggregation.
// ---------------------------------------------------------------------------

TEST(NativeQueues, CompletionsStayOnSubmittingQueue) {
  auto dev = SimulatedDevice::Create(MemoryModel(kCapacity));
  ASSERT_TRUE(dev.ok());
  std::vector<uint8_t> data(1024, 0xAB);
  ASSERT_TRUE(dev->get()->Write(0, data.data(), data.size()).ok());

  auto q0 = dev->get()->CreateQueue({});
  auto q1 = dev->get()->CreateQueue({});
  ASSERT_TRUE(q0.ok());
  ASSERT_TRUE(q1.ok());

  util::AlignedBuffer b0(512), b1(512);
  ASSERT_TRUE((*q0)->SubmitRead({0, 512, b0.data(), 100}).ok());
  ASSERT_TRUE((*q1)->SubmitRead({512, 512, b1.data(), 200}).ok());

  IoCompletion comp;
  ASSERT_EQ((*q0)->PollCompletions(&comp, 8), 1u);
  EXPECT_EQ(comp.user_data, 100u);
  EXPECT_EQ((*q0)->PollCompletions(&comp, 8), 0u);
  ASSERT_EQ((*q1)->PollCompletions(&comp, 8), 1u);
  EXPECT_EQ(comp.user_data, 200u);
  EXPECT_EQ(b0.data()[0], 0xAB);
  EXPECT_EQ(b1.data()[0], 0xAB);
}

TEST(NativeQueues, DeviceStatsAggregateQueueTraffic) {
  auto dev = SimulatedDevice::Create(MemoryModel(kCapacity));
  ASSERT_TRUE(dev.ok());
  std::vector<uint8_t> data(512, 1);
  ASSERT_TRUE(dev->get()->Write(0, data.data(), data.size()).ok());

  auto q0 = dev->get()->CreateQueue({});
  auto q1 = dev->get()->CreateQueue({});
  util::AlignedBuffer buf(512);
  IoCompletion comp;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*q0)->SubmitRead({0, 512, buf.data(), 1}).ok());
    ASSERT_EQ((*q0)->PollCompletions(&comp, 1), 1u);
  }
  ASSERT_TRUE((*q1)->SubmitRead({0, 512, buf.data(), 2}).ok());
  ASSERT_EQ((*q1)->PollCompletions(&comp, 1), 1u);

  // Per-queue stats are private; the device folds all queues in.
  EXPECT_EQ((*q0)->stats().reads_completed, 3u);
  EXPECT_EQ((*q1)->stats().reads_completed, 1u);
  EXPECT_EQ(dev->get()->stats().reads_completed, 4u);
  EXPECT_EQ(dev->get()->stats().bytes_read, 4u * 512u);

  dev->get()->ResetStats();
  EXPECT_EQ((*q0)->stats().reads_completed, 0u);
  EXPECT_EQ(dev->get()->stats().reads_completed, 0u);
}

TEST(NativeQueues, StripedDeviceComposesChildQueues) {
  std::vector<std::unique_ptr<BlockDevice>> children;
  for (int i = 0; i < 4; ++i) {
    auto child = SimulatedDevice::Create(MemoryModel(kCapacity));
    ASSERT_TRUE(child.ok());
    children.push_back(std::move(child).value());
  }
  auto striped = StripedDevice::Create(std::move(children));
  ASSERT_TRUE(striped.ok());

  std::vector<uint8_t> sector(kSectorBytes);
  for (uint64_t s = 0; s < 8; ++s) {
    std::memset(sector.data(), static_cast<int>('A' + s), sector.size());
    ASSERT_TRUE(
        (*striped)->Write(s * kSectorBytes, sector.data(), sector.size()).ok());
  }

  auto queue = (*striped)->CreateQueue({});
  ASSERT_TRUE(queue.ok());
  // Reads across all stripes flow through the one queue and land with
  // the right bytes (the queue translates through the same stripe map).
  util::AlignedBuffer buf(kSectorBytes);
  IoCompletion comp;
  for (uint64_t s = 0; s < 8; ++s) {
    ASSERT_TRUE(
        (*queue)->SubmitRead({s * kSectorBytes, kSectorBytes, buf.data(), s})
            .ok());
    ASSERT_EQ((*queue)->PollCompletions(&comp, 1), 1u);
    EXPECT_EQ(comp.user_data, s);
    EXPECT_EQ(buf.data()[0], static_cast<uint8_t>('A' + s));
  }
  EXPECT_EQ((*queue)->stats().reads_completed, 8u);
  EXPECT_EQ((*striped)->stats().reads_completed, 8u);
}

TEST(NativeQueues, CacheParentResetDoesNotDesyncLiveQueues) {
  // Regression: CacheDevice's parent stats() folds its queues through
  // the same QueueRegistry as every device, and its hit/miss counters
  // ride that aggregation. A parent ResetStats must be one full reset —
  // its own reads, live queues, inner (striped) device — with no
  // double-reset of shared children and exact re-aggregation afterwards.
  std::vector<std::unique_ptr<BlockDevice>> children;
  for (int i = 0; i < 2; ++i) {
    auto child = SimulatedDevice::Create(MemoryModel(kCapacity));
    ASSERT_TRUE(child.ok());
    children.push_back(std::move(child).value());
  }
  auto striped = StripedDevice::Create(std::move(children));
  ASSERT_TRUE(striped.ok());
  std::vector<uint8_t> sector(kSectorBytes, 0x42);
  for (uint64_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(
        (*striped)->Write(s * kSectorBytes, sector.data(), sector.size()).ok());
  }

  CacheDevice::Options copt;
  copt.capacity_bytes = 8 * kSectorBytes;
  auto cache = CacheDevice::Create(std::move(striped).value(), copt);
  ASSERT_TRUE(cache.ok());
  auto q0 = (*cache)->CreateQueue({});
  ASSERT_TRUE(q0.ok());

  util::AlignedBuffer buf(kSectorBytes);
  IoCompletion comp;
  auto read_via = [&](BlockDevice* ep, uint64_t off) {
    ASSERT_TRUE(ep->SubmitRead({off, kSectorBytes, buf.data(), off}).ok());
    size_t got = 0;
    for (int spin = 0; spin < 2000000 && got == 0; ++spin) {
      got = ep->PollCompletions(&comp, 1);
    }
    ASSERT_EQ(got, 1u);
  };
  read_via(q0->get(), 0);  // miss through the queue
  read_via(q0->get(), 0);  // hit through the queue
  EXPECT_EQ((*cache)->stats().cache_misses, 1u);
  EXPECT_EQ((*cache)->stats().cache_hits, 1u);

  (*cache)->ResetStats();
  const DeviceStats after = (*cache)->stats();
  EXPECT_EQ(after.cache_hits, 0u);
  EXPECT_EQ(after.cache_misses, 0u);
  EXPECT_EQ(after.reads_completed, 0u);
  EXPECT_EQ((*cache)->inner()->stats().reads_completed, 0u);

  // Re-aggregation is exact: one hit + one miss, each counted once, and
  // only the miss reaches the striped children.
  read_via(q0->get(), 0);                  // hit (contents survive reset)
  read_via(q0->get(), 2 * kSectorBytes);   // miss
  EXPECT_EQ((*cache)->stats().cache_hits, 1u);
  EXPECT_EQ((*cache)->stats().cache_misses, 1u);
  EXPECT_EQ((*cache)->stats().reads_completed, 2u);
  EXPECT_EQ((*cache)->inner()->stats().reads_completed, 1u);
}

TEST(NativeQueues, ChargedDeviceWrapsInnerQueues) {
  auto dev = SimulatedDevice::Create(MemoryModel(kCapacity));
  ASSERT_TRUE(dev.ok());
  ChargedDevice charged(dev->get(), GetInterfaceSpec(InterfaceKind::kXlfdd));
  auto queue = charged.CreateQueue({});
  ASSERT_TRUE(queue.ok());
  // The wrapped queue keeps charging the interface cost per submission.
  util::AlignedBuffer buf(512);
  ASSERT_TRUE(dev->get()->Write(0, buf.data(), 512).ok());
  ASSERT_TRUE((*queue)->SubmitRead({0, 512, buf.data(), 7}).ok());
  IoCompletion comp;
  ASSERT_EQ((*queue)->PollCompletions(&comp, 1), 1u);
  EXPECT_EQ(comp.user_data, 7u);
  EXPECT_EQ(static_cast<ChargedDevice*>(queue->get())->io_cpu_ns(),
            GetInterfaceSpec(InterfaceKind::kXlfdd).submit_overhead_ns);
}

// ---------------------------------------------------------------------------
// A destroyed queue's counters stay counted by the device that made it,
// for every backend and layer, until the device's ResetStats.
// ---------------------------------------------------------------------------

class QueueRetire : public ::testing::TestWithParam<const char*> {};

TEST_P(QueueRetire, DeviceKeepsCountingAfterTheQueueDies) {
  std::string uri = GetParam();
  const std::string path = ::testing::TempDir() + "/e2_mq_retire.bin";
  if (uri == "uring:" && !UringDevice::Available()) {
    GTEST_SKIP() << "io_uring unavailable on this host";
  }
  if (uri == "file:" || uri == "uring:") uri += path;
  DeviceUriOpenOptions open;
  open.create = true;
  open.capacity = kCapacity;
  auto dev = OpenDeviceUri(uri, open);
  ASSERT_TRUE(dev.ok()) << uri << ": " << dev.status().ToString();

  constexpr int kReads = 16;
  util::AlignedBuffer buf(kReads * kSectorBytes, kSectorBytes);
  std::vector<IoRequest> reqs;
  for (int i = 0; i < kReads; ++i) {
    reqs.push_back({static_cast<uint64_t>(i) * kSectorBytes, kSectorBytes,
                    buf.data() + i * kSectorBytes, 0});
  }
  DeviceStats live;
  {
    auto queue = (*dev)->CreateQueue({});
    ASSERT_TRUE(queue.ok()) << queue.status().ToString();
    // Twice, so a cache serves the second pass. Injected faults may fail
    // a burst; its reads still complete.
    (void)(*queue)->ReadSync(reqs.data(), reqs.size());
    (void)(*queue)->ReadSync(reqs.data(), reqs.size());
    live = (*dev)->stats();
  }
  const DeviceStats retired = (*dev)->stats();
  EXPECT_GE(live.reads_completed, static_cast<uint64_t>(kReads)) << uri;
  EXPECT_EQ(retired.reads_submitted, live.reads_submitted) << uri;
  EXPECT_EQ(retired.reads_completed, live.reads_completed) << uri;
  EXPECT_EQ(retired.bytes_read, live.bytes_read) << uri;
  EXPECT_EQ(retired.read_latency.count(), live.read_latency.count()) << uri;
  EXPECT_EQ(retired.cache_hits, live.cache_hits) << uri;
  EXPECT_EQ(retired.cache_misses, live.cache_misses) << uri;
  EXPECT_EQ(retired.faults_injected, live.faults_injected) << uri;
  EXPECT_EQ(retired.retries, live.retries) << uri;
  EXPECT_EQ(retired.retries_exhausted, live.retries_exhausted) << uri;
  // The layer under test really counted something of its own.
  if (uri.find("cache=") != std::string::npos) {
    EXPECT_GT(live.cache_hits, 0u);
    EXPECT_GT(live.cache_misses, 0u);
  }
  if (uri.find("fault=") != std::string::npos) {
    EXPECT_GT(live.faults_injected, 0u);
  }
  if (uri.find("retry=") != std::string::npos) {
    EXPECT_GT(live.retries, 0u);
  }

  (*dev)->ResetStats();
  const DeviceStats reset = (*dev)->stats();
  EXPECT_EQ(reset.reads_submitted, 0u) << uri;
  EXPECT_EQ(reset.reads_completed, 0u) << uri;
  EXPECT_EQ(reset.bytes_read, 0u) << uri;
  EXPECT_EQ(reset.read_latency.count(), 0u) << uri;
  EXPECT_EQ(reset.cache_hits, 0u) << uri;
  EXPECT_EQ(reset.cache_misses, 0u) << uri;
  EXPECT_EQ(reset.faults_injected, 0u) << uri;
  EXPECT_EQ(reset.retries, 0u) << uri;
  dev->reset();
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    EveryBackendAndLayer, QueueRetire,
    ::testing::Values("mem:", "sim:cssd", "file:", "uring:", "mem:?cache=1m",
                      "mem:?fault=complete:0.3,corrupt:0.2,seed:5",
                      "mem:?fault=complete:0.3,seed:5&retry=4,backoff:1"));

// ---------------------------------------------------------------------------
// Multi-queue vs. single-queue parity through the sharded engine, across
// every backend. s_factor is high enough that the candidate cap never
// binds, so results are deterministic and must be bit-identical
// regardless of queue plumbing.
// ---------------------------------------------------------------------------

struct ParityFixture {
  data::GeneratedData gen;
  lsh::E2lshParams params;
};

ParityFixture MakeParityFixture() {
  data::GeneratorSpec spec;
  spec.kind = data::GeneratorKind::kClustered;
  spec.dim = 24;
  spec.num_clusters = 16;
  spec.cluster_std = 3.0 / std::sqrt(48.0);
  spec.center_spread = 10.0 * std::sqrt(6.0 / 24.0);
  spec.seed = 11;
  auto gen = data::Generate("parity", 2000, 24, spec);

  lsh::E2lshConfig cfg;
  cfg.rho = 0.25;
  cfg.s_factor = 1000.0;  // cap never binds -> deterministic results
  cfg.x_max = gen.base.XMax();
  auto params = lsh::ComputeParams(gen.base.n(), gen.base.dim(), cfg);
  EXPECT_TRUE(params.ok());
  return {std::move(gen), std::move(params).value()};
}

void ExpectBatchesIdentical(const core::BatchResult& a,
                            const core::BatchResult& b, const char* what) {
  ASSERT_EQ(a.results.size(), b.results.size()) << what;
  for (size_t q = 0; q < a.results.size(); ++q) {
    ASSERT_EQ(a.results[q].size(), b.results[q].size())
        << what << " query " << q;
    for (size_t i = 0; i < a.results[q].size(); ++i) {
      EXPECT_EQ(a.results[q][i].id, b.results[q][i].id)
          << what << " query " << q << " rank " << i;
      EXPECT_EQ(a.results[q][i].dist, b.results[q][i].dist)
          << what << " query " << q << " rank " << i;
    }
  }
}

void RunParity(BlockDevice* dev, const ParityFixture& fx, const char* what) {
  auto idx = core::IndexBuilder::Build(fx.gen.base, fx.params, dev);
  ASSERT_TRUE(idx.ok()) << what << ": " << idx.status().message();

  // The single-queue reference: a plain engine on the bare device.
  core::QueryEngine direct_engine(idx->get(), &fx.gen.base,
                                  core::EngineOptions{8, 64});
  auto direct = direct_engine.SearchBatch(fx.gen.queries, 5);
  ASSERT_TRUE(direct.ok()) << what;

  for (uint32_t shards : {1u, 4u}) {
    core::ShardOptions opts;
    opts.num_shards = shards;
    opts.total_contexts = 8 * shards;
    opts.total_inflight_ios = 64 * shards;
    core::ShardedQueryEngine engine(idx->get(), &fx.gen.base, opts);
    ASSERT_TRUE(engine.status().ok())
        << what << ": " << engine.status().ToString();
    ASSERT_EQ(engine.num_shards(), shards) << what;
    EXPECT_NE(engine.shard_device(0), dev) << what;
    auto queued = engine.SearchBatch(fx.gen.queries, 5);
    ASSERT_TRUE(queued.ok()) << what;

    ExpectBatchesIdentical(*queued, *direct,
                           (std::string(what) + " shards=" +
                            std::to_string(shards))
                               .c_str());
  }
}

TEST(MultiQueueParity, MemoryDevice) {
  ParityFixture fx = MakeParityFixture();
  auto dev = SimulatedDevice::Create(MemoryModel(256 << 20));
  ASSERT_TRUE(dev.ok());
  RunParity(dev->get(), fx, "mem:");
}

TEST(MultiQueueParity, StripedSimulatedCssd) {
  ParityFixture fx = MakeParityFixture();
  // Fast calibration (not Table 2) so the suite stays quick; the stripe
  // geometry and queue plumbing are what's under test.
  DeviceModel model{"cssd-fast", 16, 2000, 4096, 256ULL << 20};
  std::vector<std::unique_ptr<BlockDevice>> children;
  for (int i = 0; i < 4; ++i) {
    auto child = SimulatedDevice::Create(model);
    ASSERT_TRUE(child.ok());
    children.push_back(std::move(child).value());
  }
  auto striped = StripedDevice::Create(std::move(children));
  ASSERT_TRUE(striped.ok());
  RunParity(striped->get(), fx, "sim:cssd*4");
}

TEST(MultiQueueParity, FileDevice) {
  ParityFixture fx = MakeParityFixture();
  const std::string path = ::testing::TempDir() + "/e2_mq_parity_file.bin";
  FileDevice::Options opt;
  opt.capacity = 256 << 20;
  auto dev = FileDevice::Create(path, opt);
  ASSERT_TRUE(dev.ok());
  RunParity(dev->get(), fx, "file:");
  dev->reset();
  std::remove(path.c_str());
}

TEST(MultiQueueParity, UringDevice) {
  if (!UringDevice::Available()) {
    GTEST_SKIP() << "io_uring unavailable on this host";
  }
  ParityFixture fx = MakeParityFixture();
  const std::string path = ::testing::TempDir() + "/e2_mq_parity_uring.bin";
  UringDevice::Options opt;
  opt.capacity = 256 << 20;
  auto dev = UringDevice::Create(path, opt);
  ASSERT_TRUE(dev.ok());
  RunParity(dev->get(), fx, "uring:");
  dev->reset();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// A device that cannot create queues: every sharded engine, a lone shard
// included, fails with the device's status instead of falling back.
// ---------------------------------------------------------------------------

/// Pass-through over a `mem:` device that keeps BlockDevice's default
/// CreateQueue (Unimplemented).
class NoQueueDevice : public BlockDevice {
 public:
  explicit NoQueueDevice(BlockDevice* inner) : inner_(inner) {}
  Status SubmitRead(const IoRequest& req) override {
    return inner_->SubmitRead(req);
  }
  size_t PollCompletions(IoCompletion* out, size_t max) override {
    return inner_->PollCompletions(out, max);
  }
  Status Write(uint64_t offset, const void* data, uint32_t length) override {
    return inner_->Write(offset, data, length);
  }
  uint64_t capacity() const override { return inner_->capacity(); }
  uint32_t outstanding() const override { return inner_->outstanding(); }
  std::string name() const override { return "no-queue"; }
  DeviceStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  BlockDevice* inner_;
};

TEST(QueueCreationFailure, MultiShardServingReturnsTheDeviceStatus) {
  ParityFixture fx = MakeParityFixture();
  auto mem = SimulatedDevice::Create(MemoryModel(256 << 20));
  ASSERT_TRUE(mem.ok());
  NoQueueDevice dev(mem->get());
  ASSERT_EQ(dev.CreateQueue({}).status().code(), StatusCode::kUnimplemented);
  auto idx = core::IndexBuilder::Build(fx.gen.base, fx.params, &dev);
  ASSERT_TRUE(idx.ok());

  core::ShardOptions two;
  two.num_shards = 2;
  core::ShardOptions one;
  core::ShardOptions wrapped;
  wrapped.wrap_shard_device =
      [](std::unique_ptr<storage::BlockDevice> q) { return q; };
  for (const core::ShardOptions& opts : {two, one, wrapped}) {
    const std::string what = std::to_string(opts.num_shards) + " shard(s)" +
                             (opts.wrap_shard_device ? ", wrapped" : "");
    core::ShardedQueryEngine engine(idx->get(), &fx.gen.base, opts);
    EXPECT_EQ(engine.status().code(), StatusCode::kUnimplemented) << what;
    EXPECT_EQ(engine.num_shards(), 0u) << what;
    EXPECT_EQ(engine.SearchBatch(fx.gen.queries, 5).status().code(),
              StatusCode::kUnimplemented)
        << what;

    core::ServerOptions so;
    so.k = 5;
    core::StreamingServer server(&engine, so);
    core::SubmissionQueue stream(fx.gen.queries.dim(), 16);
    EXPECT_EQ(server.Start(&stream).code(), StatusCode::kUnimplemented)
        << what;
    EXPECT_FALSE(server.running()) << what;
  }
}

// ---------------------------------------------------------------------------
// Concurrency hammer: N threads, each owning one queue, submitting and
// polling with zero cross-thread coordination — the multi-queue hot path
// is lock-free across shards. TSan verifies.
// ---------------------------------------------------------------------------

void HammerDevice(BlockDevice* dev, uint32_t num_queues, int reads_per_queue) {
  // Stamp each sector with its index so every read is verifiable.
  std::vector<uint8_t> sector(kSectorBytes);
  const uint64_t sectors = dev->capacity() / kSectorBytes;
  for (uint64_t s = 0; s < sectors; ++s) {
    std::memset(sector.data(), static_cast<int>(s & 0xFF), sector.size());
    ASSERT_TRUE(dev->Write(s * kSectorBytes, sector.data(), sector.size()).ok());
  }

  std::vector<std::unique_ptr<BlockDevice>> queues;
  for (uint32_t t = 0; t < num_queues; ++t) {
    auto q = dev->CreateQueue({});
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    queues.push_back(std::move(q).value());
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(num_queues);
  for (uint32_t t = 0; t < num_queues; ++t) {
    threads.emplace_back([&, t] {
      BlockDevice* q = queues[t].get();
      util::AlignedBuffer buf(kSectorBytes, kSectorBytes);
      IoCompletion comp;
      for (int r = 0; r < reads_per_queue; ++r) {
        const uint64_t s = (t * 131 + r * 17) % sectors;
        if (!q->SubmitRead({s * kSectorBytes, kSectorBytes, buf.data(),
                            s})
                 .ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        size_t got = 0;
        // Yield while polling: a tight mutex-grabbing spin from every
        // hammer thread can starve the backend's I/O threads on an
        // oversubscribed CI host (ctest -j), turning slow into stuck.
        for (int spin = 0; spin < 2000000 && got == 0; ++spin) {
          got = q->PollCompletions(&comp, 1);
          if (got == 0 && (spin & 0x3FF) == 0x3FF) std::this_thread::yield();
        }
        if (got != 1 || comp.user_data != s ||
            comp.code != StatusCode::kOk ||
            buf.data()[0] != static_cast<uint8_t>(s & 0xFF)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(dev->stats().reads_completed,
            static_cast<uint64_t>(num_queues) * reads_per_queue);
}

TEST(MultiQueueHammer, MemoryDevice) {
  auto dev = SimulatedDevice::Create(MemoryModel(kCapacity, /*queue_capacity=*/8192));
  ASSERT_TRUE(dev.ok());
  HammerDevice(dev->get(), 4, 500);
}

TEST(MultiQueueHammer, SimulatedDevice) {
  DeviceModel model{"hammer-ssd", 16, 1000, 8192, kCapacity};
  auto dev = SimulatedDevice::Create(model);
  ASSERT_TRUE(dev.ok());
  HammerDevice(dev->get(), 4, 200);
}

TEST(MultiQueueHammer, FileDevice) {
  const std::string path = ::testing::TempDir() + "/e2_mq_hammer_file.bin";
  FileDevice::Options opt;
  opt.capacity = kCapacity;
  auto dev = FileDevice::Create(path, opt);
  ASSERT_TRUE(dev.ok());
  HammerDevice(dev->get(), 4, 200);
  dev->reset();
  std::remove(path.c_str());
}

TEST(MultiQueueHammer, UringDevice) {
  if (!UringDevice::Available()) {
    GTEST_SKIP() << "io_uring unavailable on this host";
  }
  const std::string path = ::testing::TempDir() + "/e2_mq_hammer_uring.bin";
  UringDevice::Options opt;
  opt.capacity = kCapacity;
  auto dev = UringDevice::Create(path, opt);
  ASSERT_TRUE(dev.ok());
  HammerDevice(dev->get(), 4, 200);
  dev->reset();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace e2lshos::storage
