// Tests for the streaming serving front-end: results streamed through
// StreamingServer must be bit-identical to a one-shot
// ShardedQueryEngine::SearchBatch over the same queries, every query's
// completion must be delivered exactly once, shutdown must be clean
// with queries still in flight, and a query must never wait behind
// another one (continuous admission, per-query epochs).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <thread>

#include "core/builder.h"
#include "core/live_updater.h"
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

/// Test-side controls of a ReadGate.
struct GateControl {
  std::mutex mu;
  bool closed = false;    ///< Reads submitted now are held.
  bool released = false;  ///< Held completions flow again.
  uint64_t held = 0;      ///< Completions held back so far.

  void Close() {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu);
    closed = false;
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu);
    closed = false;
    released = true;
  }
  uint64_t Held() {
    std::lock_guard<std::mutex> lock(mu);
    return held;
  }
};

/// Shard-queue decorator that holds back the completions of every read
/// submitted while the gate is closed, until Release(). Reads submitted
/// while it is open pass straight through.
class ReadGate : public storage::BlockDevice {
 public:
  static constexpr uint64_t kHeldTag = 1ULL << 63;

  ReadGate(std::unique_ptr<storage::BlockDevice> inner,
           std::shared_ptr<GateControl> control)
      : inner_(std::move(inner)), control_(std::move(control)) {}

  Status SubmitRead(const storage::IoRequest& req) override {
    storage::IoRequest tagged = req;
    {
      std::lock_guard<std::mutex> lock(control_->mu);
      if (control_->closed) tagged.user_data |= kHeldTag;
    }
    return inner_->SubmitRead(tagged);
  }

  size_t PollCompletions(storage::IoCompletion* out, size_t max) override {
    std::lock_guard<std::mutex> lock(control_->mu);
    size_t n = 0;
    while (control_->released && !held_.empty() && n < max) {
      out[n++] = held_.back();
      held_.pop_back();
    }
    storage::IoCompletion polled[64];
    const size_t got =
        inner_->PollCompletions(polled, std::min<size_t>(64, max - n));
    for (size_t i = 0; i < got; ++i) {
      storage::IoCompletion c = polled[i];
      const bool held = (c.user_data & kHeldTag) != 0;
      c.user_data &= ~kHeldTag;
      if (held && !control_->released) {
        held_.push_back(c);
        ++control_->held;
      } else {
        out[n++] = c;
      }
    }
    return n;
  }

  Status Write(uint64_t offset, const void* data, uint32_t length) override {
    return inner_->Write(offset, data, length);
  }
  uint64_t capacity() const override { return inner_->capacity(); }
  uint32_t io_alignment() const override { return inner_->io_alignment(); }
  uint32_t outstanding() const override { return inner_->outstanding(); }
  std::string name() const override { return "gate(" + inner_->name() + ")"; }
  storage::DeviceStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  std::unique_ptr<storage::BlockDevice> inner_;
  std::shared_ptr<GateControl> control_;
  std::vector<storage::IoCompletion> held_;
};

/// One shard whose device queue runs through a ReadGate.
ShardOptions GatedShard(const std::shared_ptr<GateControl>& control) {
  ShardOptions sopts;
  sopts.num_shards = 1;
  sopts.wrap_shard_device = [control](std::unique_ptr<storage::BlockDevice> q) {
    return std::unique_ptr<storage::BlockDevice>(
        std::make_unique<ReadGate>(std::move(q), control));
  };
  return sopts;
}

/// Spin until `done()` or `seconds` pass; returns done().
template <typename Pred>
bool WaitFor(Pred done, uint64_t seconds = 5) {
  const uint64_t give_up = util::NowNs() + seconds * 1000 * 1000 * 1000;
  while (!done() && util::NowNs() < give_up) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return done();
}

void ExpectResultMatchesReference(const QueryResult& got,
                                  const std::vector<util::Neighbor>& want,
                                  uint64_t q) {
  ASSERT_TRUE(got.status.ok()) << "query " << q;
  ExpectSameNeighbors(got.neighbors, want, q);
}

TEST(StreamingServer, MatchesOneShotBatchAcrossShards) {
  Fixture* f = GetFixture();
  const uint32_t k = 10;

  for (const uint32_t shards : {1u, 2u, 4u}) {
    ShardOptions sopts;
    sopts.num_shards = shards;
    ShardedQueryEngine engine(f->index.get(), &f->gen.base, sopts);
    auto ref = engine.SearchBatch(f->gen.queries, k);
    ASSERT_TRUE(ref.ok());

    Collector collector;
    ServerOptions opts;
    opts.k = k;
    opts.on_result = collector.Callback();
    StreamingServer server(&engine, opts);

    auto queue = FilledQueue(f->gen.queries);
    ASSERT_TRUE(server.Serve(queue.get()).ok()) << "shards=" << shards;

    std::lock_guard<std::mutex> lock(collector.mu);
    ASSERT_EQ(collector.results.size(), f->gen.queries.n())
        << "shards=" << shards;
    for (uint64_t q = 0; q < f->gen.queries.n(); ++q) {
      ASSERT_EQ(collector.deliveries[q], 1)
          << "query " << q << " delivered more than once";
      ExpectResultMatchesReference(collector.results[q], ref->results[q], q);
    }
  }
}

TEST(StreamingServer, NeighborsSortedWithinEachQuery) {
  Fixture* f = GetFixture();
  ShardedQueryEngine engine(f->index.get(), &f->gen.base, {});
  Collector collector;
  ServerOptions opts;
  opts.k = 10;
  opts.on_result = collector.Callback();
  StreamingServer server(&engine, opts);
  auto queue = FilledQueue(f->gen.queries);
  ASSERT_TRUE(server.Serve(queue.get()).ok());

  std::lock_guard<std::mutex> lock(collector.mu);
  for (const auto& [id, r] : collector.results) {
    for (size_t i = 1; i < r.neighbors.size(); ++i) {
      EXPECT_LE(r.neighbors[i - 1].dist, r.neighbors[i].dist)
          << "query " << id << " rank " << i;
    }
  }
}

TEST(StreamingServer, ServesQueriesOnAnOpenQueueWithoutWaitingForCompany) {
  Fixture* f = GetFixture();
  ShardOptions sopts;
  sopts.num_shards = 2;
  ShardedQueryEngine engine(f->index.get(), &f->gen.base, sopts);

  Collector collector;
  ServerOptions opts;
  opts.k = 5;
  opts.on_result = collector.Callback();
  StreamingServer server(&engine, opts);

  SubmissionQueue queue(f->gen.queries.dim(), 16);
  ASSERT_TRUE(server.Start(&queue).ok());
  for (uint64_t q = 0; q < 3; ++q) {
    ASSERT_TRUE(queue.Submit(f->gen.queries.Row(q)).ok());
  }
  // The queue stays open and nothing more arrives: each query is served
  // as soon as a context takes it.
  const uint64_t deadline = util::NowNs() + 10ULL * 1000 * 1000 * 1000;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(collector.mu);
      if (collector.results.size() == 3) break;
    }
    ASSERT_LT(util::NowNs(), deadline) << "queries on an open queue never served";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  queue.Close();
  server.Wait();
  const StreamingSnapshot snap = server.stats();
  EXPECT_EQ(snap.completed, 3u);
}

TEST(StreamingServer, PollableFutureHandles) {
  Fixture* f = GetFixture();
  ShardedQueryEngine engine(f->index.get(), &f->gen.base, {});
  auto ref = engine.SearchBatch(f->gen.queries, 10);
  ASSERT_TRUE(ref.ok());

  FutureSink sink;
  ServerOptions opts;
  opts.k = 10;
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
    auto queue = FilledQueue(empty);
    ASSERT_TRUE(server.Serve(queue.get()).ok());
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
  auto queue = FilledQueue(data::Generate("generated", 0, 100, spec).queries);

  Collector collector;
  ServerOptions opts;
  opts.k = 5;
  opts.on_result = collector.Callback();
  StreamingServer server(&engine, opts);
  ASSERT_TRUE(server.Serve(queue.get()).ok());

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
  auto queue = FilledQueue(f->gen.queries);

  ServerOptions zero_k;
  zero_k.k = 0;
  StreamingServer bad_k(&engine, zero_k);
  EXPECT_EQ(bad_k.Start(queue.get()).code(), StatusCode::kInvalidArgument);

  data::Dataset wrong("wrong", f->gen.queries.dim() + 1);
  std::vector<float> row(wrong.dim(), 0.0f);
  wrong.Append(row.data());
  auto wrong_queue = FilledQueue(wrong);
  ServerOptions opts;
  opts.k = 5;
  StreamingServer server(&engine, opts);
  EXPECT_EQ(server.Start(wrong_queue.get()).code(), StatusCode::kInvalidArgument);

  // Double-start is rejected; the first run still drains cleanly.
  StreamingServer running(&engine, opts);
  ASSERT_TRUE(running.Start(queue.get()).ok());
  EXPECT_EQ(running.Start(queue.get()).code(), StatusCode::kFailedPrecondition);
  running.Wait();
}

TEST(StreamingServer, RestartReportsOnlyTheCurrentRun) {
  Fixture* f = GetFixture();
  ShardedQueryEngine engine(f->index.get(), &f->gen.base, {});
  ServerOptions opts;
  opts.k = 5;
  StreamingServer server(&engine, opts);

  auto first = FilledQueue(f->gen.queries);
  ASSERT_TRUE(server.Serve(first.get()).ok());
  ASSERT_EQ(server.stats().completed, f->gen.queries.n());

  // Second run over 3 queries: the snapshot must not blend in the first
  // run's counts or latencies.
  data::Dataset small("small", f->gen.queries.dim());
  for (uint64_t q = 0; q < 3; ++q) small.Append(f->gen.queries.Row(q));
  auto second = FilledQueue(small);
  ASSERT_TRUE(server.Serve(second.get()).ok());
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
  // One stale query, then silence: its rejection must not wait for more
  // traffic (or for the stream to close).
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

TEST(StreamingServer, RejectionsFlowWhileExpiredQueriesRemainQueued) {
  // A stream holding nothing but expired queries: the worker hands each
  // poll's rejections over before it pulls the rest, instead of
  // draining the stream first.
  Fixture* f = GetFixture();
  ShardOptions sopts;
  sopts.num_shards = 1;
  ShardedQueryEngine engine(f->index.get(), &f->gen.base, sopts);
  const uint64_t kStale = 1000;
  SubmissionQueue queue(f->gen.base.dim(), kStale);
  for (uint64_t i = 0; i < kStale; ++i) {
    ASSERT_TRUE(queue.Submit(f->gen.queries.Row(i % f->gen.queries.n())).ok());
  }
  queue.Close();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  std::atomic<uint64_t> rejected{0};
  std::atomic<size_t> depth_at_first{0};
  ServerOptions opts;
  opts.k = 5;
  opts.deadline_us = 1000;  // 1 ms, long since blown
  opts.on_result = [&](QueryResult&& r) {
    EXPECT_EQ(r.status.code(), StatusCode::kResourceExhausted);
    if (rejected.fetch_add(1) == 0) depth_at_first = queue.depth();
  };
  StreamingServer server(&engine, opts);
  ASSERT_TRUE(server.Serve(&queue).ok());
  EXPECT_EQ(rejected.load(), kStale);
  EXPECT_EQ(server.stats().rejected, kStale);
  EXPECT_GT(depth_at_first.load(), 0u)
      << "the first rejection waited for the whole backlog to be shed";
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
// the SubmissionQueue::ConsumerStopped hook the workers exited without
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
        EXPECT_LE(snap.p50_ns, snap.p95_ns);
        EXPECT_LE(snap.p95_ns, snap.p99_ns);
        EXPECT_LE(snap.p99_ns, snap.max_ns);
        // A poll admits at most one query per free context.
        if (snap.batches > 0) {
          EXPECT_GT(snap.mean_batch_size, 0.0);
          EXPECT_LE(snap.mean_batch_size,
                    static_cast<double>(
                        engine.shard_engine_options().num_contexts));
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
}

// Query A is held at the gate with reads in flight; query B, submitted
// after it, must still be admitted into a free context and answered
// while A waits: no query waits behind another one.
TEST(StreamingServer, LaterQueryIsNotBlockedByAHeldOne) {
  Fixture* f = GetFixture();
  const uint32_t k = 10;
  auto gate = std::make_shared<GateControl>();
  ShardedQueryEngine engine(f->index.get(), &f->gen.base, GatedShard(gate));
  // Base rows: their own buckets are non-empty, so A surely reads.
  data::Dataset two("two", f->gen.base.dim());
  two.Append(f->gen.base.Row(7));
  two.Append(f->gen.base.Row(8));
  auto ref = engine.SearchBatch(two, k);
  ASSERT_TRUE(ref.ok());

  Collector collector;
  ServerOptions opts;
  opts.k = k;
  opts.on_result = collector.Callback();
  SubmissionQueue queue(two.dim(), 16);
  StreamingServer server(&engine, opts);
  ASSERT_TRUE(server.Start(&queue).ok());
  // Destroyed before the server: a failed assertion must not leave A
  // held while the server's destructor waits for it.
  struct ReleaseOnExit {
    GateControl* gate;
    ~ReleaseOnExit() { gate->Release(); }
  } release_on_exit{gate.get()};

  const auto delivered = [&collector](uint64_t id) {
    std::lock_guard<std::mutex> lock(collector.mu);
    return collector.results.count(id) > 0;
  };
  gate->Close();
  auto a = queue.Submit(two.Row(0));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(WaitFor([&] { return gate->Held() > 0; }))
      << "query A never reached the device";
  gate->Open();
  auto b = queue.Submit(two.Row(1));
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(WaitFor([&] { return delivered(*b); }))
      << "query B waited behind query A";
  EXPECT_FALSE(delivered(*a));

  gate->Release();
  queue.Close();
  server.Wait();
  std::lock_guard<std::mutex> lock(collector.mu);
  ASSERT_EQ(collector.deliveries[*a], 1);
  ASSERT_EQ(collector.deliveries[*b], 1);
  ExpectResultMatchesReference(collector.results[*a], ref->results[0], 0);
  ExpectResultMatchesReference(collector.results[*b], ref->results[1], 1);
}

// The epoch is pinned per query: with query A held (and its epoch with
// it), a row inserted afterwards must be visible to query B, admitted
// after Insert returned.
TEST(StreamingServer, QueryAdmittedAfterInsertSeesItWhileAnOlderQueryRuns) {
  const data::GeneratedData gen = MakeStreamingTestData(31, 2000, 4);
  const lsh::E2lshParams params = NeverDrainParams(gen.base);
  auto dev = storage::SimulatedDevice::Create(storage::MemoryModel(1ULL << 30));
  ASSERT_TRUE(dev.ok());
  auto index = IndexBuilder::Build(gen.base, params, dev->get());
  ASSERT_TRUE(index.ok());
  LiveUpdater updater(index->get());

  auto gate = std::make_shared<GateControl>();
  ShardedQueryEngine engine(index->get(), &gen.base, GatedShard(gate));
  Collector collector;
  ServerOptions opts;
  opts.k = 5;
  opts.on_result = collector.Callback();
  SubmissionQueue queue(gen.base.dim(), 16);
  StreamingServer server(&engine, opts);
  ASSERT_TRUE(server.Start(&queue).ok());
  struct ReleaseOnExit {
    GateControl* gate;
    ~ReleaseOnExit() { gate->Release(); }
  } release_on_exit{gate.get()};

  const auto delivered = [&collector](uint64_t id) {
    std::lock_guard<std::mutex> lock(collector.mu);
    return collector.results.count(id) > 0;
  };
  gate->Close();
  auto a = queue.Submit(gen.base.Row(3));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(WaitFor([&] { return gate->Held() > 0; }))
      << "query A never reached the device";
  gate->Open();

  const float* row = gen.queries.Row(0);  // not a base row
  auto id = updater.Insert(row);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  auto b = queue.Submit(row);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(WaitFor([&] { return delivered(*b); }))
      << "query B waited behind query A";
  EXPECT_FALSE(delivered(*a));
  {
    std::lock_guard<std::mutex> lock(collector.mu);
    const QueryResult& got = collector.results[*b];
    ASSERT_TRUE(got.status.ok());
    ASSERT_FALSE(got.neighbors.empty());
    EXPECT_EQ(got.neighbors[0].id, *id);
    EXPECT_EQ(got.neighbors[0].dist, 0.0f);
  }

  gate->Release();
  queue.Close();
  server.Wait();
  std::lock_guard<std::mutex> lock(collector.mu);
  ASSERT_EQ(collector.deliveries[*a], 1);
  EXPECT_TRUE(collector.results[*a].status.ok());
}

}  // namespace
}  // namespace e2lshos::core
