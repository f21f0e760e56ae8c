// TSan hammer for FaultyDevice's corrupt path (and the injection state
// generally): the scramble must happen entirely before a completion is
// harvested by the caller — the device must NEVER touch a buffer after
// handing its completion back, because engines immediately reuse or
// free harvested buffers. Each worker thread drives its own queue (plus
// one thread on the device-level path), and overwrites
// every harvested buffer the instant it sees the completion. Run under
// TSan (the `concurrency` CTest label), any late scramble is a reported
// race; natively, the assertions still pin completion accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "storage/device_registry.h"
#include "storage/faulty_device.h"
#include "storage/simulated_device.h"

namespace e2lshos::storage {
namespace {

constexpr uint64_t kCapacity = 16ULL << 20;
constexpr uint32_t kReadBytes = 512;

/// Drive one endpoint (a queue or the device itself): submit up
/// to `depth` reads at deterministic offsets, and the moment a
/// completion is harvested, scribble over its buffer — the exact
/// pattern that races with a scramble-after-publish bug.
void Hammer(BlockDevice* dev, uint64_t rounds, uint32_t depth,
            uint64_t seed, std::atomic<uint64_t>* completed) {
  std::vector<std::vector<uint8_t>> bufs(depth,
                                         std::vector<uint8_t>(kReadBytes));
  std::vector<bool> busy(depth, false);
  uint64_t submitted = 0, harvested = 0;
  uint64_t state = seed;
  IoCompletion comps[64];
  while (harvested < rounds) {
    for (uint32_t slot = 0; slot < depth && submitted < rounds; ++slot) {
      if (busy[slot]) continue;
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      IoRequest req;
      req.offset = (state % (kCapacity / kReadBytes)) * kReadBytes;
      req.buf = bufs[slot].data();
      req.length = kReadBytes;
      req.user_data = slot;
      if (dev->SubmitRead(req).ok()) {
        busy[slot] = true;
        ++submitted;
      }
      // Injected submit failure: the slot stays free, try again later.
    }
    const size_t n = dev->PollCompletions(comps, 64);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t slot = static_cast<uint32_t>(comps[i].user_data);
      ASSERT_LT(slot, depth);
      ASSERT_TRUE(busy[slot]);
      busy[slot] = false;
      ++harvested;
      // The race detector's tripwire: the buffer is ours again NOW.
      std::memset(bufs[slot].data(), 0xDD, kReadBytes);
    }
  }
  completed->fetch_add(harvested, std::memory_order_relaxed);
}

TEST(FaultyHammer, ScrambleNeverTouchesHarvestedBuffers) {
  // Every fault class is armed at once.
  auto inner = SimulatedDevice::Create(MemoryModel(kCapacity));
  ASSERT_TRUE(inner.ok());
  std::vector<uint8_t> image(1 << 20, 0xAB);
  ASSERT_TRUE((*inner)
                  ->Write(0, image.data(),
                          static_cast<uint32_t>(image.size()))
                  .ok());

  FaultyDevice::Options opt;
  opt.submit_fail_rate = 0.05;
  opt.completion_fail_rate = 0.05;
  opt.corrupt_rate = 0.30;
  opt.stall_rate = 0.05;
  opt.stall_usec = 100;
  opt.seed = 21;
  FaultyDevice faulty(inner->get(), opt);

  constexpr uint32_t kThreads = 4;
  constexpr uint64_t kRounds = 4000;
  std::atomic<uint64_t> completed{0};
  std::vector<std::thread> threads;
  std::vector<std::unique_ptr<BlockDevice>> queues;
  for (uint32_t t = 0; t < kThreads; ++t) {
    auto q = faulty.CreateQueue({});
    ASSERT_TRUE(q.ok());
    queues.push_back(std::move(q.value()));
  }
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back(Hammer, queues[t].get(), kRounds, 32, 1000 + t,
                         &completed);
  }
  // One more thread on the device-level path, concurrently.
  threads.emplace_back(Hammer, static_cast<BlockDevice*>(&faulty), kRounds,
                       32, 999, &completed);
  for (auto& th : threads) th.join();

  EXPECT_EQ(completed.load(), kRounds * (kThreads + 1));
  EXPECT_EQ(faulty.outstanding(), 0u);
  // With these rates over ~20k reads, every fault class must have fired.
  EXPECT_GT(faulty.injected_submit_failures(), 0u);
  EXPECT_GT(faulty.injected_completion_failures(), 0u);
  EXPECT_GT(faulty.injected_corruptions(), 0u);
  EXPECT_GT(faulty.injected_stalls(), 0u);
}

TEST(FaultyHammer, UriStackSurvivesConcurrentQueues) {
  // Same hammer through the full URI stack (fault inside retry): retry
  // queues must also never touch harvested buffers, and exhausted
  // retries must still complete every request exactly once.
  auto dev = OpenDeviceUri(
      "mem:?capacity=16777216&fault=submit:0.05,complete:0.1,corrupt:0.2,"
      "stall:100,stallp:0.05,seed:3&retry=3,backoff:50",
      DeviceUriOpenOptions{});
  ASSERT_TRUE(dev.ok());
  constexpr uint32_t kThreads = 4;
  constexpr uint64_t kRounds = 2000;
  std::atomic<uint64_t> completed{0};
  std::vector<std::unique_ptr<BlockDevice>> queues;
  for (uint32_t t = 0; t < kThreads; ++t) {
    auto q = (*dev)->CreateQueue({});
    ASSERT_TRUE(q.ok());
    queues.push_back(std::move(q.value()));
  }
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back(Hammer, queues[t].get(), kRounds, 16, 500 + t,
                         &completed);
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(completed.load(), kRounds * kThreads);
  const DeviceStats stats = (*dev)->stats();
  EXPECT_GT(stats.faults_injected, 0u);
  EXPECT_GT(stats.retries, 0u);
}

}  // namespace
}  // namespace e2lshos::storage
