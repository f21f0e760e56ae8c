// CacheDevice tests: the transparent DRAM read cache layer.
//
//   * Counter unit tests: hit/miss/eviction/bytes_cached accounting,
//     write-through coherence, oversized-read bypass, and the alignment/
//     range contract mirroring the inner device.
//   * ResetStats propagation: parent reset is one full reset — its own
//     reads, every live queue, the eviction counter, and the
//     inner device, exactly once, even when the inner device is a
//     StripedDevice fanning out to shared children; per-queue reset
//     stays queue-local; cache *contents* survive every reset.
//   * Parity: query results over a cached device are bit-identical to
//     the bare device — cold cache, warm cache, and a cache under heavy
//     eviction pressure — across mem:/sim:cssd*4/file:/uring: backends
//     at 1 and 4 shards.
//   * Concurrency hammer: one thread per cache queue plus a
//     writer exercising the write-epoch path (run under TSan in CI).
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/builder.h"
#include "core/sharded_engine.h"
#include "data/generators.h"
#include "storage/cache_device.h"
#include "storage/file_device.h"
#include "storage/simulated_device.h"
#include "storage/striped_device.h"
#include "storage/uring_device.h"
#include "util/aligned_buffer.h"

namespace e2lshos::storage {
namespace {

constexpr uint64_t kCapacity = 1 << 20;

// Stamp sector `s` of `dev` with byte value ('A' + s) % 256.
void StampSectors(BlockDevice* dev, uint64_t count) {
  std::vector<uint8_t> sector(kSectorBytes);
  for (uint64_t s = 0; s < count; ++s) {
    std::memset(sector.data(), static_cast<int>(('A' + s) & 0xFF),
                sector.size());
    ASSERT_TRUE(dev->Write(s * kSectorBytes, sector.data(), sector.size()).ok());
  }
}

// One synchronous read through the async API; returns the completion.
IoCompletion ReadOne(BlockDevice* dev, uint64_t offset, uint32_t length,
                     void* buf, uint64_t user_data = 7) {
  IoCompletion comp;
  comp.code = StatusCode::kInternal;
  Status s = dev->SubmitRead({offset, length, buf, user_data});
  EXPECT_TRUE(s.ok()) << s.message();
  if (!s.ok()) return comp;
  size_t got = 0;
  for (int spin = 0; spin < 2000000 && got == 0; ++spin) {
    got = dev->PollCompletions(&comp, 1);
  }
  EXPECT_EQ(got, 1u);
  return comp;
}

// ---------------------------------------------------------------------------
// Counter unit tests.
// ---------------------------------------------------------------------------

TEST(CacheCounters, MissThenHitThenEviction) {
  auto mem = SimulatedDevice::Create(MemoryModel(kCapacity));
  ASSERT_TRUE(mem.ok());
  StampSectors(mem->get(), 8);

  CacheDevice::Options copt;
  copt.capacity_bytes = 4 * kSectorBytes;  // 4 cache blocks
  copt.shards = 1;                         // deterministic CLOCK sweep
  auto cache = CacheDevice::Wrap(mem->get(), copt);
  ASSERT_TRUE(cache.ok());
  EXPECT_EQ((*cache)->cache_block_bytes(), kSectorBytes);

  util::AlignedBuffer buf(kSectorBytes);
  // First touch: a miss that fills the block.
  ReadOne(cache->get(), 0, kSectorBytes, buf.data());
  EXPECT_EQ(buf.data()[0], 'A');
  DeviceStats st = (*cache)->stats();
  EXPECT_EQ(st.cache_misses, 1u);
  EXPECT_EQ(st.cache_hits, 0u);
  EXPECT_EQ(st.bytes_cached, kSectorBytes);

  // Second touch: served from DRAM with zero latency.
  const IoCompletion hit = ReadOne(cache->get(), 0, kSectorBytes, buf.data());
  EXPECT_EQ(hit.latency_ns, 0u);
  EXPECT_EQ(buf.data()[0], 'A');
  st = (*cache)->stats();
  EXPECT_EQ(st.cache_hits, 1u);
  EXPECT_EQ(st.cache_misses, 1u);
  EXPECT_EQ(st.reads_completed, 2u);

  // 4 more distinct blocks through a 4-slot cache: at least one eviction,
  // and the cache stays full, never over budget.
  for (uint64_t s = 1; s <= 4; ++s) {
    ReadOne(cache->get(), s * kSectorBytes, kSectorBytes, buf.data());
    EXPECT_EQ(buf.data()[0], static_cast<uint8_t>('A' + s));
  }
  st = (*cache)->stats();
  EXPECT_GE(st.cache_evictions, 1u);
  EXPECT_EQ(st.bytes_cached, 4 * kSectorBytes);
}

TEST(CacheCounters, WriteThroughPatchesResidentBlocks) {
  auto mem = SimulatedDevice::Create(MemoryModel(kCapacity));
  ASSERT_TRUE(mem.ok());
  StampSectors(mem->get(), 2);

  CacheDevice::Options copt;
  copt.capacity_bytes = 8 * kSectorBytes;
  auto cache = CacheDevice::Wrap(mem->get(), copt);
  ASSERT_TRUE(cache.ok());

  util::AlignedBuffer buf(kSectorBytes);
  ReadOne(cache->get(), 0, kSectorBytes, buf.data());  // fill block 0

  // Write through the cache: inner bytes and the resident copy must both
  // change, and the next read must be a *hit* that returns the new data.
  std::vector<uint8_t> fresh(kSectorBytes, 0x5A);
  ASSERT_TRUE((*cache)->Write(0, fresh.data(), fresh.size()).ok());

  std::vector<uint8_t> inner_now(kSectorBytes);
  ASSERT_TRUE(mem->get()->ReadSync(0, inner_now.data(), kSectorBytes).ok());
  EXPECT_EQ(inner_now[0], 0x5A);

  const uint64_t hits_before = (*cache)->stats().cache_hits;
  ReadOne(cache->get(), 0, kSectorBytes, buf.data());
  EXPECT_EQ(buf.data()[0], 0x5A);
  EXPECT_EQ((*cache)->stats().cache_hits, hits_before + 1);
}

TEST(CacheCounters, OversizedReadsBypassTheCache) {
  auto mem = SimulatedDevice::Create(MemoryModel(kCapacity));
  ASSERT_TRUE(mem.ok());
  StampSectors(mem->get(), 8);

  CacheDevice::Options copt;
  copt.capacity_bytes = 8 * kSectorBytes;
  copt.max_cached_read_blocks = 2;
  auto cache = CacheDevice::Wrap(mem->get(), copt);
  ASSERT_TRUE(cache.ok());

  // 3 blocks > the 2-block cap: forwarded verbatim, nothing inserted.
  util::AlignedBuffer big(3 * kSectorBytes);
  ReadOne(cache->get(), 0, 3 * kSectorBytes, big.data());
  EXPECT_EQ(big.data()[0], 'A');
  EXPECT_EQ(big.data()[2 * kSectorBytes], 'C');
  DeviceStats st = (*cache)->stats();
  EXPECT_EQ(st.cache_misses, 1u);
  EXPECT_EQ(st.bytes_cached, 0u);

  // The bypass inserted nothing, so a small read of the same range still
  // misses (and now fills).
  util::AlignedBuffer buf(kSectorBytes);
  ReadOne(cache->get(), 0, kSectorBytes, buf.data());
  st = (*cache)->stats();
  EXPECT_EQ(st.cache_misses, 2u);
  EXPECT_EQ(st.bytes_cached, kSectorBytes);
}

TEST(CacheCounters, RejectsWhatTheInnerDeviceWouldReject) {
  auto mem = SimulatedDevice::Create(MemoryModel(kCapacity));
  ASSERT_TRUE(mem.ok());
  CacheDevice::Options copt;
  copt.capacity_bytes = 8 * kSectorBytes;
  auto cache = CacheDevice::Wrap(mem->get(), copt);
  ASSERT_TRUE(cache.ok());

  util::AlignedBuffer buf(kSectorBytes);
  EXPECT_EQ((*cache)->SubmitRead({0, kSectorBytes, nullptr, 0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*cache)->SubmitRead({0, 0, buf.data(), 0}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      (*cache)->SubmitRead({kCapacity, kSectorBytes, buf.data(), 0}).code(),
      StatusCode::kOutOfRange);
}

TEST(CacheCounters, CreateValidatesCapacity) {
  auto mem = SimulatedDevice::Create(MemoryModel(kCapacity));
  ASSERT_TRUE(mem.ok());
  CacheDevice::Options copt;
  copt.capacity_bytes = kSectorBytes - 1;  // below one cache block
  EXPECT_FALSE(CacheDevice::Wrap(mem->get(), copt).ok());
  copt.capacity_bytes = kSectorBytes;
  copt.max_cached_read_blocks = 0;
  EXPECT_FALSE(CacheDevice::Wrap(mem->get(), copt).ok());
}

// ---------------------------------------------------------------------------
// ResetStats propagation (the satellite audit): one full reset from the
// parent, queue-local resets from queues, no double-reset of shared
// children, and exact re-aggregation afterwards.
// ---------------------------------------------------------------------------

TEST(CacheResetStats, ParentResetIsOneFullReset) {
  auto mem = SimulatedDevice::Create(MemoryModel(kCapacity));
  ASSERT_TRUE(mem.ok());
  StampSectors(mem->get(), 8);
  CacheDevice::Options copt;
  copt.capacity_bytes = 8 * kSectorBytes;
  auto cache = CacheDevice::Wrap(mem->get(), copt);
  ASSERT_TRUE(cache.ok());
  auto q0 = (*cache)->CreateQueue({});
  auto q1 = (*cache)->CreateQueue({});
  ASSERT_TRUE(q0.ok());
  ASSERT_TRUE(q1.ok());

  util::AlignedBuffer buf(kSectorBytes);
  ReadOne(cache->get(), 0, kSectorBytes, buf.data());       // parent miss
  ReadOne(q0->get(), kSectorBytes, kSectorBytes, buf.data());  // q0 miss
  ReadOne(q0->get(), kSectorBytes, kSectorBytes, buf.data());  // q0 hit
  ReadOne(q1->get(), 2 * kSectorBytes, kSectorBytes, buf.data());  // q1 miss

  DeviceStats st = (*cache)->stats();
  EXPECT_EQ(st.cache_misses, 3u);
  EXPECT_EQ(st.cache_hits, 1u);
  EXPECT_EQ(st.reads_completed, 4u);

  // One parent reset: own reads, both live queues, the inner device — all
  // zeroed together; the cache *contents* survive (bytes_cached gauge).
  (*cache)->ResetStats();
  st = (*cache)->stats();
  EXPECT_EQ(st.cache_misses, 0u);
  EXPECT_EQ(st.cache_hits, 0u);
  EXPECT_EQ(st.cache_evictions, 0u);
  EXPECT_EQ(st.reads_completed, 0u);
  EXPECT_EQ(st.bytes_cached, 3 * kSectorBytes);
  EXPECT_EQ((*q0)->stats().reads_completed, 0u);
  EXPECT_EQ(mem->get()->stats().reads_completed, 0u);

  // Post-reset traffic re-aggregates exactly once: one hit on a block
  // cached before the reset proves contents survived, counted once.
  ReadOne(q1->get(), 0, kSectorBytes, buf.data());
  EXPECT_EQ(buf.data()[0], 'A');
  st = (*cache)->stats();
  EXPECT_EQ(st.cache_hits, 1u);
  EXPECT_EQ(st.cache_misses, 0u);
  EXPECT_EQ(st.reads_completed, 1u);
}

TEST(CacheResetStats, QueueResetStaysQueueLocal) {
  auto mem = SimulatedDevice::Create(MemoryModel(kCapacity));
  ASSERT_TRUE(mem.ok());
  StampSectors(mem->get(), 8);
  CacheDevice::Options copt;
  copt.capacity_bytes = 8 * kSectorBytes;
  auto cache = CacheDevice::Wrap(mem->get(), copt);
  ASSERT_TRUE(cache.ok());
  auto q0 = (*cache)->CreateQueue({});
  ASSERT_TRUE(q0.ok());

  util::AlignedBuffer buf(kSectorBytes);
  ReadOne(cache->get(), 0, kSectorBytes, buf.data());          // parent miss
  ReadOne(q0->get(), kSectorBytes, kSectorBytes, buf.data());  // q0 miss

  (*q0)->ResetStats();
  EXPECT_EQ((*q0)->stats().reads_completed, 0u);
  // The parent's own traffic is untouched; only the queue's
  // contribution left the aggregate.
  DeviceStats st = (*cache)->stats();
  EXPECT_EQ(st.cache_misses, 1u);
  EXPECT_EQ(st.reads_completed, 1u);
  // The inner device was NOT reset by the queue-local reset.
  EXPECT_EQ(mem->get()->stats().reads_completed, 2u);
}

TEST(CacheResetStats, StripedChildrenResetOnceAndReaggregateExactly) {
  std::vector<std::unique_ptr<BlockDevice>> children;
  for (int i = 0; i < 4; ++i) {
    auto child = SimulatedDevice::Create(MemoryModel(kCapacity));
    ASSERT_TRUE(child.ok());
    children.push_back(std::move(child).value());
  }
  auto striped = StripedDevice::Create(std::move(children));
  ASSERT_TRUE(striped.ok());
  const uint64_t cap = (*striped)->capacity();
  StampSectors(striped->get(), 16);

  CacheDevice::Options copt;
  copt.capacity_bytes = 8 * kSectorBytes;
  auto cache = CacheDevice::Create(std::move(striped).value(), copt);
  ASSERT_TRUE(cache.ok());
  ASSERT_EQ((*cache)->capacity(), cap);
  auto q0 = (*cache)->CreateQueue({});
  auto q1 = (*cache)->CreateQueue({});
  ASSERT_TRUE(q0.ok());
  ASSERT_TRUE(q1.ok());

  util::AlignedBuffer buf(kSectorBytes);
  for (uint64_t s = 0; s < 4; ++s) {
    ReadOne(q0->get(), s * kSectorBytes, kSectorBytes, buf.data());
  }
  ReadOne(q1->get(), 0, kSectorBytes, buf.data());  // hit

  (*cache)->ResetStats();
  DeviceStats st = (*cache)->stats();
  EXPECT_EQ(st.cache_hits, 0u);
  EXPECT_EQ(st.cache_misses, 0u);
  EXPECT_EQ(st.reads_completed, 0u);
  EXPECT_EQ((*cache)->inner()->stats().reads_completed, 0u);

  // Fresh traffic after the reset: 2 misses + 1 hit, each counted
  // exactly once at the cache level, and exactly the 2 misses visible at
  // the striped inner device (hits never reach it).
  ReadOne(q0->get(), 8 * kSectorBytes, kSectorBytes, buf.data());
  ReadOne(q1->get(), 9 * kSectorBytes, kSectorBytes, buf.data());
  ReadOne(q1->get(), 8 * kSectorBytes, kSectorBytes, buf.data());
  st = (*cache)->stats();
  EXPECT_EQ(st.cache_misses, 2u);
  EXPECT_EQ(st.cache_hits, 1u);
  EXPECT_EQ(st.reads_completed, 3u);
  EXPECT_EQ((*cache)->inner()->stats().reads_completed, 2u);
}

// ---------------------------------------------------------------------------
// Parity: cached vs bare answers, bit for bit. s_factor is high enough
// that the candidate cap never binds, so results are deterministic.
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
                            const core::BatchResult& b, const std::string& what) {
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

void RunCacheParity(BlockDevice* dev, const ParityFixture& fx,
                    const char* what) {
  auto idx = core::IndexBuilder::Build(fx.gen.base, fx.params, dev);
  ASSERT_TRUE(idx.ok()) << what << ": " << idx.status().message();

  CacheDevice::Options copt;
  copt.capacity_bytes = 32ULL << 20;  // comfortably holds the whole index
  copt.shards = 4;
  auto cache = CacheDevice::Wrap(dev, copt);
  ASSERT_TRUE(cache.ok()) << what;
  auto cached_view = (*idx)->WithDevice(cache->get());

  for (uint32_t shards : {1u, 4u}) {
    core::ShardOptions opts;
    opts.num_shards = shards;
    opts.total_contexts = 8 * shards;
    opts.total_inflight_ios = 64 * shards;
    // Force the queue layer even at 1 shard (the degenerate direct path
    // would bypass it and prove nothing).
    opts.wrap_shard_device =
        [](std::unique_ptr<storage::BlockDevice> q) { return q; };

    core::ShardedQueryEngine bare_engine(idx->get(), &fx.gen.base, opts);
    auto bare = bare_engine.SearchBatch(fx.gen.queries, 5);
    ASSERT_TRUE(bare.ok()) << what;

    const std::string tag =
        std::string(what) + " shards=" + std::to_string(shards);
    // Cold pass fills the cache; the warm pass answers mostly from DRAM.
    // Both must be bit-identical to the bare device.
    core::ShardedQueryEngine cold_engine(cached_view.get(), &fx.gen.base,
                                         opts);
    auto cold = cold_engine.SearchBatch(fx.gen.queries, 5);
    ASSERT_TRUE(cold.ok()) << what;
    ExpectBatchesIdentical(*bare, *cold, tag + " cold");

    core::ShardedQueryEngine warm_engine(cached_view.get(), &fx.gen.base,
                                         opts);
    auto warm = warm_engine.SearchBatch(fx.gen.queries, 5);
    ASSERT_TRUE(warm.ok()) << what;
    ExpectBatchesIdentical(*bare, *warm, tag + " warm");

    // Per-queue counters fold into the parent, live or destroyed.
    EXPECT_GT((*cache)->stats().cache_hits, 0u) << tag;
  }
}

TEST(CacheParity, MemoryDevice) {
  ParityFixture fx = MakeParityFixture();
  auto dev = SimulatedDevice::Create(MemoryModel(256 << 20));
  ASSERT_TRUE(dev.ok());
  RunCacheParity(dev->get(), fx, "mem:");
}

TEST(CacheParity, StripedSimulatedCssd) {
  ParityFixture fx = MakeParityFixture();
  // Fast calibration (not Table 2) so the suite stays quick.
  DeviceModel model{"cssd-fast", 16, 2000, 4096, 256ULL << 20};
  std::vector<std::unique_ptr<BlockDevice>> children;
  for (int i = 0; i < 4; ++i) {
    auto child = SimulatedDevice::Create(model);
    ASSERT_TRUE(child.ok());
    children.push_back(std::move(child).value());
  }
  auto striped = StripedDevice::Create(std::move(children));
  ASSERT_TRUE(striped.ok());
  RunCacheParity(striped->get(), fx, "sim:cssd*4");
}

TEST(CacheParity, FileDevice) {
  ParityFixture fx = MakeParityFixture();
  const std::string path = ::testing::TempDir() + "/e2_cache_parity_file.bin";
  FileDevice::Options opt;
  opt.capacity = 256 << 20;
  auto dev = FileDevice::Create(path, opt);
  ASSERT_TRUE(dev.ok());
  RunCacheParity(dev->get(), fx, "file:");
  dev->reset();
  std::remove(path.c_str());
}

TEST(CacheParity, UringDevice) {
  if (!UringDevice::Available()) {
    GTEST_SKIP() << "io_uring unavailable on this host";
  }
  ParityFixture fx = MakeParityFixture();
  const std::string path = ::testing::TempDir() + "/e2_cache_parity_uring.bin";
  UringDevice::Options opt;
  opt.capacity = 256 << 20;
  auto dev = UringDevice::Create(path, opt);
  ASSERT_TRUE(dev.ok());
  RunCacheParity(dev->get(), fx, "uring:");
  dev->reset();
  std::remove(path.c_str());
}

TEST(CacheParity, EvictionPressureKeepsAnswersIdentical) {
  ParityFixture fx = MakeParityFixture();
  auto dev = SimulatedDevice::Create(MemoryModel(256 << 20));
  ASSERT_TRUE(dev.ok());
  auto idx = core::IndexBuilder::Build(fx.gen.base, fx.params, dev->get());
  ASSERT_TRUE(idx.ok());

  core::ShardOptions opts;
  opts.num_shards = 2;
  opts.total_contexts = 16;
  opts.total_inflight_ios = 128;
  core::ShardedQueryEngine bare_engine(idx->get(), &fx.gen.base, opts);
  auto bare = bare_engine.SearchBatch(fx.gen.queries, 5);
  ASSERT_TRUE(bare.ok());

  // A cache of 64 blocks against a multi-MB index: constant eviction
  // churn, yet every answer must stay bit-identical.
  CacheDevice::Options copt;
  copt.capacity_bytes = 64 * kSectorBytes;
  copt.shards = 4;
  auto cache = CacheDevice::Wrap(dev->get(), copt);
  ASSERT_TRUE(cache.ok());
  auto cached_view = (*idx)->WithDevice(cache->get());
  core::ShardedQueryEngine cached_engine(cached_view.get(), &fx.gen.base,
                                         opts);
  auto cached = cached_engine.SearchBatch(fx.gen.queries, 5);
  ASSERT_TRUE(cached.ok());
  ExpectBatchesIdentical(*bare, *cached, "eviction-pressure");

  const DeviceStats st = (*cache)->stats();
  EXPECT_GT(st.cache_evictions, 0u);
  EXPECT_LE(st.bytes_cached, copt.capacity_bytes);
}

// ---------------------------------------------------------------------------
// Concurrency hammer: one thread per cache queue re-reading a
// small sector set (heavy hit traffic on the shared store) while a
// writer rewrites the same bytes through the write-through path (epoch
// bumps + resident patches). TSan verifies the locking story, down to
// the device's own reads racing the write-through path.
// ---------------------------------------------------------------------------

void HammerQueuesAndWriter(const DeviceModel& model) {
  SCOPED_TRACE(model.name);
  auto mem = SimulatedDevice::Create(model);
  ASSERT_TRUE(mem.ok());
  BlockDevice* dev = mem->get();
  const uint64_t sectors = dev->capacity() / kSectorBytes;
  StampSectors(dev, sectors);

  CacheDevice::Options copt;
  copt.capacity_bytes = 256 * kSectorBytes;  // smaller than the device
  copt.shards = 4;
  auto cache = CacheDevice::Wrap(dev, copt);
  ASSERT_TRUE(cache.ok());

  constexpr uint32_t kQueues = 4;
  constexpr int kReadsPerQueue = 500;
  std::vector<std::unique_ptr<BlockDevice>> queues;
  for (uint32_t t = 0; t < kQueues; ++t) {
    auto q = (*cache)->CreateQueue({});
    ASSERT_TRUE(q.ok());
    queues.push_back(std::move(q).value());
  }

  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  // Writer: rewrites sectors with the bytes they already hold, so every
  // read stays verifiable while the epoch/patch machinery runs hot.
  std::thread writer([&] {
    std::vector<uint8_t> sector(kSectorBytes);
    uint64_t s = 0;
    while (!stop.load(std::memory_order_acquire)) {
      std::memset(sector.data(), static_cast<int>(('A' + s) & 0xFF),
                  sector.size());
      if (!cache->get()->Write(s * kSectorBytes, sector.data(),
                               sector.size()).ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
      s = (s + 7) % sectors;
    }
  });

  std::vector<std::thread> threads;
  threads.reserve(kQueues);
  for (uint32_t t = 0; t < kQueues; ++t) {
    threads.emplace_back([&, t] {
      BlockDevice* q = queues[t].get();
      util::AlignedBuffer buf(kSectorBytes, kSectorBytes);
      IoCompletion comp;
      for (int r = 0; r < kReadsPerQueue; ++r) {
        // A 128-sector working set over a 256-block cache: mostly hits,
        // with misses and evictions mixed in across threads.
        const uint64_t s = (t * 131 + r * 17) % 128;
        if (!q->SubmitRead({s * kSectorBytes, kSectorBytes, buf.data(), s})
                 .ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        size_t got = 0;
        // Yield while polling (see multi_queue_test's hammer): a tight
        // spin from every thread can starve I/O threads under ctest -j.
        for (int spin = 0; spin < 2000000 && got == 0; ++spin) {
          got = q->PollCompletions(&comp, 1);
          if (got == 0 && (spin & 0x3FF) == 0x3FF) std::this_thread::yield();
        }
        if (got != 1 || comp.user_data != s ||
            comp.code != StatusCode::kOk ||
            buf.data()[0] != static_cast<uint8_t>(('A' + s) & 0xFF)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  stop.store(true, std::memory_order_release);
  writer.join();
  EXPECT_EQ(failures.load(), 0);

  const DeviceStats st = (*cache)->stats();
  EXPECT_EQ(st.reads_completed,
            static_cast<uint64_t>(kQueues) * kReadsPerQueue);
  EXPECT_GT(st.cache_hits, 0u);
}

TEST(CacheHammer, QueuesAndWriterUnderTsan) {
  // Both models copy a read out of the backing when it is polled: the
  // memory model's reads are due at once, the timed model's later.
  HammerQueuesAndWriter(MemoryModel(kCapacity, /*queue_capacity=*/8192));
  HammerQueuesAndWriter(DeviceModel{"t", 4, 1000, 8192, kCapacity});
}

}  // namespace
}  // namespace e2lshos::storage
