// Stress, soak, and fault-injection coverage for the streaming serving
// path (runs under the TSan preset via the `concurrency` label, and
// RUN_SERIAL because the soak test asserts wall-clock pacing):
//
//   * several producer threads submitting through the MPMC
//     SubmissionQueue while the server's shard workers drain over a
//     shared FileDevice / StripedDevice — every query delivered exactly
//     once with the same results as the one-shot batch API;
//   * a FaultyDevice-backed run asserting per-query error surfacing
//     (io_errors in the delivered stats) without wedging the pipeline;
//   * an arrival-rate soak: a paced open-loop producer, with the
//     latency/QPS accounting checked against the offered rate.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

#include "core/builder.h"
#include "core/query_stream.h"
#include "core/sharded_engine.h"
#include "core/streaming_server.h"
#include "storage/faulty_device.h"
#include "storage/file_device.h"
#include "storage/striped_device.h"
#include "streaming_test_util.h"
#include "util/clock.h"

namespace e2lshos::core {
namespace {

data::GeneratedData MakeData(uint64_t seed) {
  return MakeStreamingTestData(seed);
}

lsh::E2lshParams MakeParams(const data::Dataset& base) {
  return NeverDrainParams(base);
}

TEST(StreamingStress, MultiProducersOverSharedFileDevice) {
  const auto gen = MakeData(41);
  const auto params = MakeParams(gen.base);
  const std::string path = ::testing::TempDir() + "/e2_streaming_stress.bin";
  storage::FileDevice::Options opt;
  opt.capacity = 1ULL << 30;
  auto dev = storage::FileDevice::Create(path, opt);
  ASSERT_TRUE(dev.ok());
  auto index = IndexBuilder::Build(gen.base, params, dev->get());
  ASSERT_TRUE(index.ok());

  ShardOptions sopts;
  sopts.num_shards = 4;
  ShardedQueryEngine engine(index->get(), &gen.base, sopts);
  auto ref = engine.SearchBatch(gen.queries, 10);
  ASSERT_TRUE(ref.ok());

  Collector collector;
  ServerOptions opts;
  opts.k = 10;
  opts.on_result = collector.Callback();
  StreamingServer server(&engine, opts);

  SubmissionQueue queue(gen.queries.dim(), 64);
  ASSERT_TRUE(server.Start(&queue).ok());

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 150;
  std::mutex id_mu;
  std::map<uint64_t, uint64_t> id_to_row;
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerProducer; ++i) {
        const uint64_t row =
            (static_cast<uint64_t>(t) * 151 + i) % gen.queries.n();
        auto id = queue.Submit(gen.queries.Row(row));
        ASSERT_TRUE(id.ok());
        std::lock_guard<std::mutex> lock(id_mu);
        id_to_row[*id] = row;
      }
    });
  }
  for (auto& p : producers) p.join();
  queue.Close();
  server.Wait();

  std::lock_guard<std::mutex> lock(collector.mu);
  ASSERT_EQ(collector.results.size(),
            static_cast<size_t>(kProducers) * kPerProducer);
  for (const auto& [id, row] : id_to_row) {
    ASSERT_EQ(collector.deliveries[id], 1) << "query id " << id;
    const QueryResult& r = collector.results[id];
    ASSERT_TRUE(r.status.ok()) << "query id " << id;
    ExpectSameNeighbors(r.neighbors, ref->results[row], id);
  }
  const StreamingSnapshot snap = server.stats();
  EXPECT_EQ(snap.completed, static_cast<uint64_t>(kProducers) * kPerProducer);
  // A poll admits at most one query per free context.
  EXPECT_GT(snap.batches, 0u);
  EXPECT_GE(snap.mean_batch_size, 1.0);
  EXPECT_LE(snap.mean_batch_size,
            static_cast<double>(engine.shard_engine_options().num_contexts));
  std::remove(path.c_str());
}

TEST(StreamingStress, StreamsOverStripedFileDevices) {
  const auto gen = MakeData(43);
  const auto params = MakeParams(gen.base);
  std::vector<std::string> paths;
  std::vector<std::unique_ptr<storage::BlockDevice>> children;
  for (int i = 0; i < 2; ++i) {
    paths.push_back(::testing::TempDir() + "/e2_streaming_stripe_" +
                    std::to_string(i) + ".bin");
    storage::FileDevice::Options opt;
    opt.capacity = 512ULL << 20;
    auto dev = storage::FileDevice::Create(paths.back(), opt);
    ASSERT_TRUE(dev.ok());
    children.push_back(std::move(dev).value());
  }
  auto striped = storage::StripedDevice::Create(std::move(children));
  ASSERT_TRUE(striped.ok());
  auto index = IndexBuilder::Build(gen.base, params, striped->get());
  ASSERT_TRUE(index.ok());

  ShardOptions sopts;
  sopts.num_shards = 2;
  ShardedQueryEngine engine(index->get(), &gen.base, sopts);
  auto ref = engine.SearchBatch(gen.queries, 10);
  ASSERT_TRUE(ref.ok());

  Collector collector;
  ServerOptions opts;
  opts.k = 10;
  opts.on_result = collector.Callback();
  StreamingServer server(&engine, opts);

  // Two producers over the MPMC queue, two shard workers over the stripe
  // set (each shard's queue pair fans out to both child FileDevices).
  SubmissionQueue queue(gen.queries.dim(), 32);
  ASSERT_TRUE(server.Start(&queue).ok());
  std::mutex id_mu;
  std::map<uint64_t, uint64_t> id_to_row;
  std::vector<std::thread> producers;
  for (int t = 0; t < 2; ++t) {
    producers.emplace_back([&, t] {
      for (uint64_t q = t; q < gen.queries.n(); q += 2) {
        auto id = queue.Submit(gen.queries.Row(q));
        ASSERT_TRUE(id.ok());
        std::lock_guard<std::mutex> lock(id_mu);
        id_to_row[*id] = q;
      }
    });
  }
  for (auto& p : producers) p.join();
  queue.Close();
  server.Wait();

  std::lock_guard<std::mutex> lock(collector.mu);
  ASSERT_EQ(collector.results.size(), gen.queries.n());
  for (const auto& [id, row] : id_to_row) {
    ASSERT_EQ(collector.deliveries[id], 1) << "query id " << id;
    const QueryResult& r = collector.results[id];
    ASSERT_TRUE(r.status.ok()) << "query id " << id;
    ExpectSameNeighbors(r.neighbors, ref->results[row], id);
  }
  for (const auto& p : paths) std::remove(p.c_str());
}

TEST(StreamingStress, FaultyDeviceDeliversPerQueryErrorsWithoutWedging) {
  const auto gen = MakeData(47);
  const auto params = MakeParams(gen.base);
  const std::string path = ::testing::TempDir() + "/e2_streaming_faulty.bin";
  storage::FileDevice::Options opt;
  opt.capacity = 1ULL << 30;
  auto dev = storage::FileDevice::Create(path, opt);
  ASSERT_TRUE(dev.ok());
  auto index = IndexBuilder::Build(gen.base, params, dev->get());
  ASSERT_TRUE(index.ok());

  storage::FaultyDevice::Options fopt;
  fopt.submit_fail_rate = 0.05;
  fopt.completion_fail_rate = 0.05;
  storage::FaultyDevice faulty(dev->get(), fopt);
  auto view = (*index)->WithDevice(&faulty);

  ShardOptions sopts;
  sopts.num_shards = 2;
  ShardedQueryEngine engine(view.get(), &gen.base, sopts);

  Collector collector;
  ServerOptions opts;
  opts.k = 5;
  opts.on_result = collector.Callback();
  StreamingServer server(&engine, opts);

  SubmissionQueue queue(gen.queries.dim(), 64);
  ASSERT_TRUE(server.Start(&queue).ok());
  constexpr int kProducers = 2;
  constexpr int kPerProducer = 200;
  std::vector<std::thread> producers;
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&, t] {
      for (int i = 0; i < kPerProducer; ++i) {
        const uint64_t row =
            (static_cast<uint64_t>(t) * 37 + i) % gen.queries.n();
        ASSERT_TRUE(queue.Submit(gen.queries.Row(row)).ok());
      }
    });
  }
  for (auto& p : producers) p.join();
  queue.Close();
  server.Wait();  // must return: injected faults never wedge the pipeline

  std::lock_guard<std::mutex> lock(collector.mu);
  const uint64_t total = static_cast<uint64_t>(kProducers) * kPerProducer;
  ASSERT_EQ(collector.results.size(), total);
  uint64_t io_errors = 0, answered = 0;
  for (const auto& [id, r] : collector.results) {
    ASSERT_EQ(collector.deliveries[id], 1) << "query id " << id;
    io_errors += r.stats.io_errors;
    answered += !r.neighbors.empty();
  }
  // Faults were injected and surfaced per query...
  EXPECT_GT(faulty.injected_submit_failures() +
                faulty.injected_completion_failures(),
            0u);
  EXPECT_GT(io_errors, 0u);
  // ...while the engine stayed best-effort: the vast majority answered.
  EXPECT_GE(answered, total * 8 / 10);
  EXPECT_EQ(server.stats().completed, total);
  std::remove(path.c_str());
}

// Arrival-rate soak: an open-loop producer paced at a fixed offered rate.
// Asserts wall-clock pacing, so this suite is RUN_SERIAL in CMake; the
// bounds are loose enough to hold under the TSan slowdown.
TEST(StreamingStress, ArrivalRateSoakKeepsUpAndAccountsLatency) {
  const auto gen = MakeData(53);
  const auto params = MakeParams(gen.base);
  const std::string path = ::testing::TempDir() + "/e2_streaming_soak.bin";
  storage::FileDevice::Options opt;
  opt.capacity = 1ULL << 30;
  auto dev = storage::FileDevice::Create(path, opt);
  ASSERT_TRUE(dev.ok());
  auto index = IndexBuilder::Build(gen.base, params, dev->get());
  ASSERT_TRUE(index.ok());

  ShardOptions sopts;
  sopts.num_shards = 2;
  ShardedQueryEngine engine(index->get(), &gen.base, sopts);

  Collector collector;
  ServerOptions opts;
  opts.k = 5;
  opts.on_result = collector.Callback();
  StreamingServer server(&engine, opts);

  SubmissionQueue queue(gen.queries.dim(), 256);
  ASSERT_TRUE(server.Start(&queue).ok());

  constexpr double kOfferedQps = 200.0;
  constexpr uint64_t kCount = 300;  // ~1.5 s of traffic
  const uint64_t interval_ns = static_cast<uint64_t>(1e9 / kOfferedQps);
  const uint64_t t0 = util::NowNs();
  double mid_run_sustained = -1.0;
  for (uint64_t i = 0; i < kCount; ++i) {
    const uint64_t deadline = t0 + i * interval_ns;
    while (util::NowNs() < deadline) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(queue.Submit(gen.queries.Row(i % gen.queries.n())).ok());
    if (i == kCount / 2) {
      mid_run_sustained = server.stats().sustained_qps;
    }
  }
  const uint64_t submit_elapsed_ns = util::NowNs() - t0;
  queue.Close();
  server.Wait();

  // Pacing actually throttled the producer.
  EXPECT_GE(submit_elapsed_ns, (kCount - 1) * interval_ns);

  const StreamingSnapshot snap = server.stats();
  EXPECT_EQ(snap.completed, kCount);
  // The engine kept up with the offered rate (loose lower bound for
  // sanitizer slowdowns) and did not invent throughput out of thin air.
  EXPECT_GE(snap.overall_qps, kOfferedQps * 0.25);
  EXPECT_LE(snap.overall_qps, kOfferedQps * 1.5);
  // Mid-run the sliding window saw traffic in the same regime.
  EXPECT_GT(mid_run_sustained, 0.0);
  EXPECT_LE(mid_run_sustained, kOfferedQps * 3.0);
  // Latency accounting is coherent.
  EXPECT_GT(snap.p50_ns, 0u);
  EXPECT_LE(snap.p50_ns, snap.p95_ns);
  EXPECT_LE(snap.p95_ns, snap.p99_ns);
  EXPECT_LE(snap.p99_ns, snap.max_ns);
  EXPECT_GT(snap.mean_latency_ns, 0.0);

  std::lock_guard<std::mutex> lock(collector.mu);
  EXPECT_EQ(collector.results.size(), kCount);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace e2lshos::core
