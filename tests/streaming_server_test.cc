// Tests for the streaming serving front-end: results streamed through
// StreamingServer must be bit-identical to a one-shot
// ShardedQueryEngine::SearchBatch over the same queries, every query's
// completion must be delivered exactly once, and shutdown must be clean
// with queries still in flight.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <thread>

#include "core/builder.h"
#include "core/query_stream.h"
#include "core/sharded_engine.h"
#include "core/streaming_server.h"
#include "storage/simulated_device.h"
#include "streaming_test_util.h"
#include "util/clock.h"

namespace e2lshos::core {
namespace {

// One deterministic workload + never-drain index on a SimulatedDevice,
// shared by all tests (see streaming_test_util.h for why never-drain
// makes the equivalence claims exact).
struct Fixture {
  data::GeneratedData gen;
  lsh::E2lshParams params;
  std::unique_ptr<storage::SimulatedDevice> dev;
  std::unique_ptr<StorageIndex> index;
};

Fixture* GetFixture() {
  static Fixture* f = [] {
    auto* fx = new Fixture();
    fx->gen = MakeStreamingTestData(19);
    fx->params = NeverDrainParams(fx->gen.base);
    storage::DeviceModel model{"fast-ssd", 16, 2000, 4096, 2ULL << 30};
    auto dev = storage::SimulatedDevice::Create(model);
    EXPECT_TRUE(dev.ok());
    fx->dev = std::move(dev).value();
    auto idx = IndexBuilder::Build(fx->gen.base, fx->params, fx->dev.get());
    EXPECT_TRUE(idx.ok());
    fx->index = std::move(idx).value();
    return fx;
  }();
  return f;
}

void ExpectResultMatchesReference(const QueryResult& got,
                                  const std::vector<util::Neighbor>& want,
                                  uint64_t q) {
  ASSERT_TRUE(got.status.ok()) << "query " << q;
  ExpectSameNeighbors(got.neighbors, want, q);
}

TEST(StreamingServer, MatchesOneShotBatchAcrossShardsAndBatchSizes) {
  Fixture* f = GetFixture();
  const uint32_t k = 10;

  for (const uint32_t shards : {1u, 2u, 4u}) {
    ShardOptions sopts;
    sopts.num_shards = shards;
    ShardedQueryEngine engine(f->index.get(), &f->gen.base, sopts);
    auto ref = engine.SearchBatch(f->gen.queries, k);
    ASSERT_TRUE(ref.ok());

    for (const uint32_t batch_size : {1u, 7u, 64u}) {
      Collector collector;
      ServerOptions opts;
      opts.k = k;
      opts.max_batch_size = batch_size;
      opts.max_wait_us = 100;
      opts.on_result = collector.Callback();
      StreamingServer server(&engine, opts);

      DatasetStream stream(&f->gen.queries);
      ASSERT_TRUE(server.Serve(&stream).ok())
          << "shards=" << shards << " batch=" << batch_size;

      std::lock_guard<std::mutex> lock(collector.mu);
      ASSERT_EQ(collector.results.size(), f->gen.queries.n())
          << "shards=" << shards << " batch=" << batch_size;
      for (uint64_t q = 0; q < f->gen.queries.n(); ++q) {
        ASSERT_EQ(collector.deliveries[q], 1)
            << "query " << q << " delivered more than once";
        ExpectResultMatchesReference(collector.results[q], ref->results[q], q);
      }
    }
  }
}

TEST(StreamingServer, NeighborsSortedWithinEachQuery) {
  Fixture* f = GetFixture();
  ShardedQueryEngine engine(f->index.get(), &f->gen.base, {});
  Collector collector;
  ServerOptions opts;
  opts.k = 10;
  opts.max_batch_size = 8;
  opts.on_result = collector.Callback();
  StreamingServer server(&engine, opts);
  DatasetStream stream(&f->gen.queries);
  ASSERT_TRUE(server.Serve(&stream).ok());

  std::lock_guard<std::mutex> lock(collector.mu);
  for (const auto& [id, r] : collector.results) {
    for (size_t i = 1; i < r.neighbors.size(); ++i) {
      EXPECT_LE(r.neighbors[i - 1].dist, r.neighbors[i].dist)
          << "query " << id << " rank " << i;
    }
  }
}

TEST(StreamingServer, MaxWaitFlushesPartialBatch) {
  Fixture* f = GetFixture();
  ShardOptions sopts;
  sopts.num_shards = 2;
  ShardedQueryEngine engine(f->index.get(), &f->gen.base, sopts);

  Collector collector;
  ServerOptions opts;
  opts.k = 5;
  opts.max_batch_size = 64;  // far more than we submit
  opts.max_wait_us = 500;
  opts.on_result = collector.Callback();
  StreamingServer server(&engine, opts);

  SubmissionQueue queue(f->gen.queries.dim(), 16);
  ASSERT_TRUE(server.Start(&queue).ok());
  for (uint64_t q = 0; q < 3; ++q) {
    ASSERT_TRUE(queue.Submit(f->gen.queries.Row(q)).ok());
  }
  // The queue stays open: only the max-wait timer can flush these three.
  const uint64_t deadline = util::NowNs() + 10ULL * 1000 * 1000 * 1000;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(collector.mu);
      if (collector.results.size() == 3) break;
    }
    ASSERT_LT(util::NowNs(), deadline) << "max-wait flush never happened";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  queue.Close();
  server.Wait();
  const StreamingSnapshot snap = server.stats();
  EXPECT_EQ(snap.completed, 3u);
  EXPECT_EQ(snap.failed, 0u);
}

TEST(StreamingServer, PollableFutureHandles) {
  Fixture* f = GetFixture();
  ShardedQueryEngine engine(f->index.get(), &f->gen.base, {});
  auto ref = engine.SearchBatch(f->gen.queries, 10);
  ASSERT_TRUE(ref.ok());

  FutureSink sink;
  ServerOptions opts;
  opts.k = 10;
  opts.max_batch_size = 4;
  opts.on_result = sink.Callback();
  StreamingServer server(&engine, opts);

  SubmissionQueue queue(f->gen.queries.dim(), 64);
  ASSERT_TRUE(server.Start(&queue).ok());

  std::vector<std::pair<uint64_t, QueryFuture>> futures;
  for (uint64_t q = 0; q < 10; ++q) {
    auto id = queue.Submit(f->gen.queries.Row(q));
    ASSERT_TRUE(id.ok());
    futures.emplace_back(q, sink.Register(*id));
  }
  queue.Close();
  server.Wait();

  for (auto& [q, fut] : futures) {
    EXPECT_TRUE(fut.Ready());  // server drained: all must be ready
    QueryResult r = fut.Take();
    ExpectResultMatchesReference(r, ref->results[q], q);
    EXPECT_GT(r.latency_ns, 0u);
  }
  EXPECT_EQ(sink.unclaimed(), 0u);
}

TEST(StreamingServer, CleanShutdownWithQueriesInFlight) {
  Fixture* f = GetFixture();
  ShardOptions sopts;
  sopts.num_shards = 4;
  ShardedQueryEngine engine(f->index.get(), &f->gen.base, sopts);
  auto ref = engine.SearchBatch(f->gen.queries, 10);
  ASSERT_TRUE(ref.ok());

  Collector collector;
  ServerOptions opts;
  opts.k = 10;
  opts.max_batch_size = 2;
  opts.on_result = collector.Callback();
  StreamingServer server(&engine, opts);

  // Submit everything up front (capacity >= count: Submit never blocks),
  // then stop while workers are mid-drain.
  SubmissionQueue queue(f->gen.queries.dim(), f->gen.queries.n());
  for (uint64_t q = 0; q < f->gen.queries.n(); ++q) {
    ASSERT_TRUE(queue.Submit(f->gen.queries.Row(q)).ok());
  }
  ASSERT_TRUE(server.Start(&queue).ok());
  server.Stop();
  server.Wait();  // must return: no wedge on undrained queries
  queue.Close();

  // Whatever was delivered is delivered exactly once and correct; the
  // rest was never pulled.
  std::lock_guard<std::mutex> lock(collector.mu);
  for (const auto& [id, n] : collector.deliveries) {
    EXPECT_EQ(n, 1) << "query " << id;
    ExpectResultMatchesReference(collector.results[id], ref->results[id], id);
  }
  EXPECT_LE(collector.results.size(), f->gen.queries.n());
  EXPECT_EQ(server.stats().completed, collector.results.size());
}

TEST(StreamingServer, EmptyStreamAndZeroQueries) {
  Fixture* f = GetFixture();
  ShardedQueryEngine engine(f->index.get(), &f->gen.base, {});

  // Empty materialized dataset: serve returns with nothing delivered.
  data::Dataset empty("empty", f->gen.queries.dim());
  Collector collector;
  ServerOptions opts;
  opts.k = 10;
  opts.on_result = collector.Callback();
  {
    StreamingServer server(&engine, opts);
    DatasetStream stream(&empty);
    ASSERT_TRUE(server.Serve(&stream).ok());
    EXPECT_EQ(server.stats().completed, 0u);
    EXPECT_EQ(server.stats().batches, 0u);
    EXPECT_EQ(server.stats().sustained_qps, 0.0);
  }
  // Submission queue closed with zero submissions: same.
  {
    StreamingServer server(&engine, opts);
    SubmissionQueue queue(f->gen.queries.dim(), 8);
    queue.Close();
    ASSERT_TRUE(server.Serve(&queue).ok());
    EXPECT_EQ(server.stats().completed, 0u);
  }
  std::lock_guard<std::mutex> lock(collector.mu);
  EXPECT_TRUE(collector.results.empty());
}

TEST(StreamingServer, BoundedGeneratorStreamDrains) {
  Fixture* f = GetFixture();
  ShardOptions sopts;
  sopts.num_shards = 2;
  ShardedQueryEngine engine(f->index.get(), &f->gen.base, sopts);

  data::GeneratorSpec spec;
  spec.kind = data::GeneratorKind::kClustered;
  spec.dim = f->gen.base.dim();
  spec.num_clusters = 16;
  spec.cluster_std = 3.0 / std::sqrt(48.0);
  spec.center_spread = 10.0 * std::sqrt(6.0 / 24.0);
  spec.seed = 23;
  GeneratorStream stream(spec, 100);

  Collector collector;
  ServerOptions opts;
  opts.k = 5;
  opts.max_batch_size = 16;
  opts.on_result = collector.Callback();
  StreamingServer server(&engine, opts);
  ASSERT_TRUE(server.Serve(&stream).ok());

  std::lock_guard<std::mutex> lock(collector.mu);
  ASSERT_EQ(collector.results.size(), 100u);
  for (const auto& [id, r] : collector.results) {
    EXPECT_TRUE(r.status.ok()) << "query " << id;
    EXPECT_EQ(r.neighbors.size(), 5u) << "query " << id;
    EXPECT_EQ(collector.deliveries[id], 1) << "query " << id;
  }
  const StreamingSnapshot snap = server.stats();
  EXPECT_EQ(snap.completed, 100u);
  EXPECT_GT(snap.overall_qps, 0.0);
  EXPECT_LE(snap.p50_ns, snap.p95_ns);
  EXPECT_LE(snap.p95_ns, snap.p99_ns);
  EXPECT_LE(snap.p99_ns, snap.max_ns);
}

TEST(StreamingServer, RejectsBadConfigurations) {
  Fixture* f = GetFixture();
  ShardedQueryEngine engine(f->index.get(), &f->gen.base, {});
  DatasetStream stream(&f->gen.queries);

  ServerOptions zero_k;
  zero_k.k = 0;
  StreamingServer bad_k(&engine, zero_k);
  EXPECT_EQ(bad_k.Start(&stream).code(), StatusCode::kInvalidArgument);

  data::Dataset wrong("wrong", f->gen.queries.dim() + 1);
  std::vector<float> row(wrong.dim(), 0.0f);
  wrong.Append(row.data());
  DatasetStream wrong_stream(&wrong);
  ServerOptions opts;
  opts.k = 5;
  StreamingServer server(&engine, opts);
  EXPECT_EQ(server.Start(&wrong_stream).code(), StatusCode::kInvalidArgument);

  // Double-start is rejected; the first run still drains cleanly.
  StreamingServer running(&engine, opts);
  ASSERT_TRUE(running.Start(&stream).ok());
  EXPECT_EQ(running.Start(&stream).code(), StatusCode::kFailedPrecondition);
  running.Wait();
}

TEST(StreamingServer, RestartReportsOnlyTheCurrentRun) {
  Fixture* f = GetFixture();
  ShardedQueryEngine engine(f->index.get(), &f->gen.base, {});
  ServerOptions opts;
  opts.k = 5;
  StreamingServer server(&engine, opts);

  DatasetStream first(&f->gen.queries);
  ASSERT_TRUE(server.Serve(&first).ok());
  ASSERT_EQ(server.stats().completed, f->gen.queries.n());

  // Second run over 3 queries: the snapshot must not blend in the first
  // run's counts or latencies.
  data::Dataset small("small", f->gen.queries.dim());
  for (uint64_t q = 0; q < 3; ++q) small.Append(f->gen.queries.Row(q));
  DatasetStream second(&small);
  ASSERT_TRUE(server.Serve(&second).ok());
  const StreamingSnapshot snap = server.stats();
  EXPECT_EQ(snap.completed, 3u);
  EXPECT_LE(snap.batches, 3u);
}

TEST(QueryFuture, UnboundFutureIsSafe) {
  QueryFuture fut;
  EXPECT_FALSE(fut.Ready());
  QueryResult r = fut.Take();  // must not crash
  EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition);
}

TEST(FutureSink, FailPendingUnblocksUndeliveredFutures) {
  // After an early Stop() the server never delivers queries it never
  // pulled; FailPending is the escape hatch that keeps their futures
  // from blocking forever.
  FutureSink sink;
  QueryFuture delivered = sink.Register(1);
  QueryFuture orphaned = sink.Register(2);

  QueryResult r;
  r.id = 1;
  sink.Deliver(std::move(r));
  sink.FailPending(Status::IoError("server stopped"));

  ASSERT_TRUE(delivered.Ready());
  EXPECT_TRUE(delivered.Take().status.ok());
  ASSERT_TRUE(orphaned.Ready());
  QueryResult failed = orphaned.Take();
  EXPECT_EQ(failed.status.code(), StatusCode::kIoError);
  EXPECT_EQ(failed.id, 2u);
}

TEST(FutureSink, DuplicateRegistrationsShareOneState) {
  // Registering an id twice must not orphan the first future: both
  // become ready on delivery (Take moves, so one taker per id).
  FutureSink sink;
  QueryFuture first = sink.Register(9);
  QueryFuture second = sink.Register(9);
  QueryResult r;
  r.id = 9;
  sink.Deliver(std::move(r));
  EXPECT_TRUE(first.Ready());
  EXPECT_TRUE(second.Ready());
  EXPECT_TRUE(first.Take().status.ok());
}

TEST(FutureSink, UnclaimedStashIsBounded) {
  FutureSink sink(/*max_unclaimed=*/2);
  for (uint64_t id = 0; id < 5; ++id) {
    QueryResult r;
    r.id = id;
    sink.Deliver(std::move(r));  // nothing registered: all go unclaimed
  }
  EXPECT_EQ(sink.unclaimed(), 2u);
  EXPECT_EQ(sink.dropped(), 3u);
  // Stashed ids are still claimable; dropped ones are gone.
  EXPECT_TRUE(sink.Register(0).Ready());
}

TEST(GeneratorStream, HonorsByteQuantization) {
  // The stream shares data::PointSampler with data::Generate, so a
  // byte-quantized spec yields grid-aligned query coordinates.
  data::GeneratorSpec spec;
  spec.kind = data::GeneratorKind::kUniform;
  spec.dim = 8;
  spec.scale = 10.0;
  spec.byte_quantize = true;
  spec.seed = 3;
  GeneratorStream stream(spec, 50);
  const double step = spec.scale / 255.0;
  StreamQuery q;
  while (stream.TryPull(&q) == StreamPull::kReady) {
    for (const float v : q.vec) {
      const double levels = static_cast<double>(v) / step;
      EXPECT_NEAR(levels, std::round(levels), 1e-3);
    }
  }
}

TEST(SubmissionQueue, BackpressureAndClose) {
  SubmissionQueue queue(4, 2);
  const float vec[4] = {1, 2, 3, 4};
  ASSERT_TRUE(queue.TrySubmit(vec).ok());
  ASSERT_TRUE(queue.TrySubmit(vec).ok());
  EXPECT_EQ(queue.TrySubmit(vec).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(queue.depth(), 2u);

  StreamQuery q;
  EXPECT_EQ(queue.TryPull(&q), StreamPull::kReady);
  EXPECT_EQ(q.id, 0u);
  EXPECT_GT(q.enqueue_ns, 0u);
  ASSERT_EQ(q.vec.size(), 4u);
  EXPECT_EQ(q.vec[3], 4.0f);

  queue.Close();
  EXPECT_EQ(queue.Submit(vec).status().code(), StatusCode::kFailedPrecondition);
  // Queued entries still drain after Close, then the stream reports closed.
  EXPECT_EQ(queue.TryPull(&q), StreamPull::kReady);
  EXPECT_EQ(q.id, 1u);
  EXPECT_EQ(queue.TryPull(&q), StreamPull::kClosed);
}

TEST(StreamingServer, ShedQueriesAreDeliveredWhileTheStreamIsIdle) {
  // Fewer stale queries than a batch, then silence: their rejections must
  // not wait for more traffic (or for the stream to close).
  Fixture* f = GetFixture();
  ShardOptions sopts;
  sopts.num_shards = 2;
  ShardedQueryEngine engine(f->index.get(), &f->gen.base, sopts);
  SubmissionQueue queue(f->gen.base.dim(), 16);
  ASSERT_TRUE(queue.Submit(f->gen.queries.Row(0)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  Collector collector;
  ServerOptions opts;
  opts.k = 5;
  opts.max_batch_size = 4;
  opts.deadline_us = 10000;  // 10 ms, long since blown
  opts.on_result = collector.Callback();
  StreamingServer server(&engine, opts);
  ASSERT_TRUE(server.Start(&queue).ok());
  const uint64_t give_up = util::NowNs() + 10ULL * 1000 * 1000 * 1000;
  while (server.stats().rejected < 1 && util::NowNs() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.stats().rejected, 1u);
  queue.Close();
  server.Wait();
  std::lock_guard<std::mutex> lock(collector.mu);
  ASSERT_EQ(collector.deliveries[0], 1);
  EXPECT_EQ(collector.results[0].status.code(), StatusCode::kResourceExhausted);
}

TEST(StreamingServer, DeadlineShedsStaleQueriesAndCountsRejected) {
  Fixture* f = GetFixture();
  const uint32_t k = 5;
  ShardOptions sopts;
  sopts.num_shards = 2;
  ShardedQueryEngine engine(f->index.get(), &f->gen.base, sopts);

  // Age a backlog in the queue before the server starts: every one of
  // these has waited far past the deadline by the time a worker pulls
  // it, so all must be shed — delivered exactly once as rejections,
  // counted in rejected, absent from completed and the percentiles.
  const uint64_t kStale = 12;
  SubmissionQueue queue(f->gen.base.dim(), 256);
  for (uint64_t i = 0; i < kStale; ++i) {
    ASSERT_TRUE(queue.Submit(f->gen.queries.Row(i)).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  Collector collector;
  ServerOptions opts;
  opts.k = k;
  opts.max_batch_size = 4;
  opts.deadline_us = 100000;  // 100 ms, long since blown by the backlog
  opts.on_result = collector.Callback();
  StreamingServer server(&engine, opts);
  ASSERT_TRUE(server.Start(&queue).ok());

  // Wait until the backlog is shed, then offer fresh queries: they are
  // pulled within microseconds of submission and must be served.
  while (server.stats().rejected < kStale) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const uint64_t kFresh = 8;
  std::vector<uint64_t> fresh_ids;
  for (uint64_t i = 0; i < kFresh; ++i) {
    auto id = queue.Submit(f->gen.queries.Row(i));
    ASSERT_TRUE(id.ok());
    fresh_ids.push_back(*id);
  }
  queue.Close();
  server.Wait();

  const StreamingSnapshot snap = server.stats();
  EXPECT_EQ(snap.rejected, kStale);
  EXPECT_EQ(snap.completed, kFresh);
  EXPECT_EQ(snap.failed, 0u);

  std::lock_guard<std::mutex> lock(collector.mu);
  ASSERT_EQ(collector.results.size(), kStale + kFresh);
  for (uint64_t id = 0; id < kStale; ++id) {
    ASSERT_EQ(collector.deliveries[id], 1) << "stale id " << id;
    EXPECT_EQ(collector.results[id].status.code(),
              StatusCode::kResourceExhausted)
        << "stale id " << id;
    EXPECT_TRUE(collector.results[id].neighbors.empty());
  }
  for (const uint64_t id : fresh_ids) {
    ASSERT_EQ(collector.deliveries[id], 1) << "fresh id " << id;
    EXPECT_TRUE(collector.results[id].status.ok()) << "fresh id " << id;
    EXPECT_EQ(collector.results[id].neighbors.size(), k);
  }
}

TEST(StreamingServer, NoDeadlineMeansNoShedding) {
  Fixture* f = GetFixture();
  ShardOptions sopts;
  sopts.num_shards = 1;
  ShardedQueryEngine engine(f->index.get(), &f->gen.base, sopts);

  // Same aged backlog, but deadline_us = 0: everything is served.
  SubmissionQueue queue(f->gen.base.dim(), 64);
  for (uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(queue.Submit(f->gen.queries.Row(i)).ok());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  queue.Close();

  Collector collector;
  ServerOptions opts;
  opts.k = 3;
  opts.on_result = collector.Callback();
  StreamingServer server(&engine, opts);
  ASSERT_TRUE(server.Serve(&queue).ok());

  const StreamingSnapshot snap = server.stats();
  EXPECT_EQ(snap.rejected, 0u);
  EXPECT_EQ(snap.completed, 6u);
}

// Regression: producers blocked in Submit() on a full queue must wake
// with an error when the serving side dies (Stop without Close). Before
// the QueryStream::ConsumerStopped hook the workers exited without
// closing the queue, and every wedged producer waited forever for a
// drain that could never happen — this test then hangs until the ctest
// timeout kills it.
TEST(SubmissionQueue, WedgedProducersWakeWhenConsumerDies) {
  Fixture* f = GetFixture();
  ShardOptions sopts;
  sopts.num_shards = 1;
  ShardedQueryEngine engine(f->index.get(), &f->gen.base, sopts);

  Collector collector;
  ServerOptions opts;
  opts.k = 3;
  opts.on_result = collector.Callback();
  StreamingServer server(&engine, opts);

  // Capacity 1 with 8 producers in tight Submit loops: at any moment
  // nearly all of them are blocked inside Submit on the full queue.
  SubmissionQueue queue(f->gen.queries.dim(), 1);
  ASSERT_TRUE(server.Start(&queue).ok());

  constexpr int kProducers = 8;
  std::vector<Status> last(kProducers, Status::OK());
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (;;) {
        auto id = queue.Submit(f->gen.queries.Row(p % f->gen.queries.n()));
        if (!id.ok()) {
          last[p] = id.status();
          return;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  // Kill the server out from under them: no Close(), just Stop. The
  // last worker out must close the queue and wake every producer.
  server.Stop();
  server.Wait();
  for (auto& t : producers) t.join();  // pre-fix: hangs here

  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(last[p].code(), StatusCode::kFailedPrecondition) << p;
    EXPECT_NE(last[p].message().find("consumer"), std::string::npos)
        << "producer " << p << " got: " << last[p].ToString();
  }
  // And a fresh submission attempt fails the same way instead of
  // blocking.
  EXPECT_EQ(queue.Submit(f->gen.queries.Row(0)).status().code(),
            StatusCode::kFailedPrecondition);
}

// Stats snapshots must be coherent while workers are recording: no torn
// histogram or counter reads (TSan covers the data-race half; the
// invariants below catch torn merges). Readers hammer stats() while
// producers keep the server busy.
TEST(StreamingServer, StatsSnapshotsCoherentWhileServing) {
  Fixture* f = GetFixture();
  ShardOptions sopts;
  sopts.num_shards = 4;
  ShardedQueryEngine engine(f->index.get(), &f->gen.base, sopts);

  ServerOptions opts;
  opts.k = 5;
  opts.max_batch_size = 4;
  StreamingServer server(&engine, opts);
  SubmissionQueue queue(f->gen.queries.dim(), 128);
  ASSERT_TRUE(server.Start(&queue).ok());

  std::atomic<bool> done{false};
  std::thread producer([&] {
    uint64_t i = 0;
    while (!done.load(std::memory_order_relaxed)) {
      (void)queue.Submit(f->gen.queries.Row(i++ % f->gen.queries.n()));
    }
  });

  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  std::atomic<uint64_t> snapshots{0};
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      uint64_t prev_completed = 0;
      while (!done.load(std::memory_order_relaxed)) {
        const StreamingSnapshot snap = server.stats();
        // Counters only grow, and the merged histogram's percentiles
        // are ordered — a torn read breaks one of these.
        EXPECT_GE(snap.completed, prev_completed);
        prev_completed = snap.completed;
        EXPECT_LE(snap.failed, snap.completed);
        EXPECT_LE(snap.p50_ns, snap.p95_ns);
        EXPECT_LE(snap.p95_ns, snap.p99_ns);
        EXPECT_LE(snap.p99_ns, snap.max_ns);
        if (snap.batches > 0) {
          EXPECT_GT(snap.mean_batch_size, 0.0);
          EXPECT_LE(snap.mean_batch_size,
                    static_cast<double>(opts.max_batch_size));
        }
        snapshots.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  done.store(true, std::memory_order_relaxed);
  producer.join();
  for (auto& t : readers) t.join();
  EXPECT_GT(snapshots.load(), 0u);

  queue.Close();
  server.Wait();
  const StreamingSnapshot final_snap = server.stats();
  EXPECT_GT(final_snap.completed, 0u);
  EXPECT_EQ(final_snap.failed, 0u);
}

}  // namespace
}  // namespace e2lshos::core
