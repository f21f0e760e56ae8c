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
#include <set>
#include <thread>
#include <vector>

#include "core/builder.h"
#include "core/live_updater.h"
#include "core/query_stream.h"
#include "core/sharded_engine.h"
#include "core/streaming_server.h"
#include "storage/device_registry.h"
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
  /// When non-empty, a closed gate holds only reads at these offsets.
  std::set<uint64_t> offsets;
  /// The reads a closed gate would hold fail at once instead, without
  /// reaching the device.
  bool fail = false;

  void Close() {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
    released = false;
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
      if (control_->closed && (control_->offsets.empty() ||
                               control_->offsets.count(req.offset) > 0)) {
        if (control_->fail) {
          failed_.push_back({req.user_data, StatusCode::kIoError, 0});
          return Status::OK();
        }
        tagged.user_data |= kHeldTag;
      }
    }
    return inner_->SubmitRead(tagged);
  }

  size_t PollCompletions(storage::IoCompletion* out, size_t max) override {
    std::lock_guard<std::mutex> lock(control_->mu);
    size_t n = 0;
    while (!failed_.empty() && n < max) {
      out[n++] = failed_.back();
      failed_.pop_back();
    }
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
  std::vector<storage::IoCompletion> failed_;  ///< Guarded by control_->mu.
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

TEST(StreamingServer, ServedResultsCarryTheirSubmissionTag) {
  Fixture* f = GetFixture();
  ShardOptions sopts;
  sopts.num_shards = 2;
  ShardedQueryEngine engine(f->index.get(), &f->gen.base, sopts);
  auto ref = engine.SearchBatch(f->gen.queries, 10);
  ASSERT_TRUE(ref.ok());

  Collector collector;
  ServerOptions opts;
  opts.k = 10;
  opts.on_result = collector.Callback();
  StreamingServer server(&engine, opts);

  SubmissionQueue queue(f->gen.queries.dim(), 64);
  ASSERT_TRUE(server.Start(&queue).ok());

  // Tags the server could not make up: far from the ids, one per query,
  // and one of them 0 (the default).
  auto tag_of = [](uint64_t q) { return q == 0 ? 0 : (q << 40) | 0xA5; };
  std::vector<std::pair<uint64_t, uint64_t>> submitted;  // (query row, id)
  for (uint64_t q = 0; q < 10; ++q) {
    auto id = queue.Submit(f->gen.queries.Row(q), 0, tag_of(q));
    ASSERT_TRUE(id.ok());
    submitted.emplace_back(q, *id);
  }
  queue.Close();
  server.Wait();

  std::lock_guard<std::mutex> lock(collector.mu);
  ASSERT_EQ(collector.results.size(), submitted.size());
  for (const auto& [q, id] : submitted) {
    const QueryResult& r = collector.results[id];
    EXPECT_EQ(collector.deliveries[id], 1) << "query " << q;
    EXPECT_EQ(r.tag, tag_of(q)) << "query " << q;
    ExpectResultMatchesReference(r, ref->results[q], q);
    EXPECT_GT(r.latency_ns, 0u);
  }
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
  const uint64_t kStaleTag = 1000;  // query i is submitted with tag 1000 + i
  SubmissionQueue queue(f->gen.base.dim(), 256);
  for (uint64_t i = 0; i < kStale; ++i) {
    ASSERT_TRUE(queue.Submit(f->gen.queries.Row(i), 0, kStaleTag + i).ok());
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
  const uint64_t kFreshTag = 2000;
  std::vector<uint64_t> fresh_ids;
  for (uint64_t i = 0; i < kFresh; ++i) {
    auto id = queue.Submit(f->gen.queries.Row(i), 0, kFreshTag + i);
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
    // The shed path returns the tag too: a caller routing by tag would
    // otherwise lose the rejection.
    EXPECT_EQ(collector.results[id].tag, kStaleTag + id) << "stale id " << id;
  }
  for (uint64_t i = 0; i < kFresh; ++i) {
    const uint64_t id = fresh_ids[i];
    ASSERT_EQ(collector.deliveries[id], 1) << "fresh id " << id;
    EXPECT_TRUE(collector.results[id].status.ok()) << "fresh id " << id;
    EXPECT_EQ(collector.results[id].neighbors.size(), k);
    EXPECT_EQ(collector.results[id].tag, kFreshTag + i) << "fresh id " << id;
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

// ---------------------------------------------------------------------------
// The next rung issued ahead while the stream is idle
// ---------------------------------------------------------------------------

/// The suites' clustered workload at the default candidate cap: about
/// three queries in four climb past the bottom rung of the fitted ladder,
/// and the rest stop there.
const data::GeneratedData& LadderData() {
  static const data::GeneratedData* gen =
      new data::GeneratedData(MakeStreamingTestData(31, 3000, 64));
  return *gen;
}

storage::DeviceModel CssdModel() {
  storage::DeviceModel model = storage::GetDeviceModel(storage::DeviceKind::kCssd);
  model.capacity_bytes = 1ULL << 30;
  return model;
}

struct LadderIndex {
  std::unique_ptr<storage::SimulatedDevice> dev;
  std::unique_ptr<StorageIndex> index;
};

/// LadderData's rows indexed on `model`; `s_factor` 0 keeps the default
/// candidate cap S.
LadderIndex BuildLadder(const storage::DeviceModel& model,
                        double s_factor = 0) {
  const data::GeneratedData& gen = LadderData();
  lsh::E2lshConfig cfg;
  cfg.rho = 0.25;
  cfg.x_max = gen.base.XMax();
  if (s_factor > 0) cfg.s_factor = s_factor;
  auto params = lsh::ComputeParams(gen.base.n(), gen.base.dim(), cfg);
  EXPECT_TRUE(params.ok());
  LadderIndex out;
  auto dev = storage::SimulatedDevice::Create(model);
  EXPECT_TRUE(dev.ok());
  out.dev = std::move(dev).value();
  auto index = IndexBuilder::Build(gen.base, *params, out.dev.get());
  EXPECT_TRUE(index.ok());
  out.index = std::move(index).value();
  return out;
}

/// Serve `queries` one at a time on an open queue: each is submitted once
/// the previous answer is back, so every query meets an idle stream.
std::vector<QueryResult> ServeOneAtATime(ShardedQueryEngine* engine,
                                         const data::Dataset& queries,
                                         uint32_t k,
                                         StreamingSnapshot* snap = nullptr) {
  Collector collector;
  ServerOptions opts;
  opts.k = k;
  opts.on_result = collector.Callback();
  StreamingServer server(engine, opts);
  SubmissionQueue queue(queries.dim(), 1);
  std::vector<QueryResult> out;
  EXPECT_TRUE(server.Start(&queue).ok());
  for (uint64_t q = 0; q < queries.n(); ++q) {
    auto id = queue.Submit(queries.Row(q));
    EXPECT_TRUE(id.ok());
    if (!id.ok()) break;
    QueryResult r;
    EXPECT_TRUE(collector.Await(*id, &r)) << "query " << q;
    out.push_back(std::move(r));
  }
  queue.Close();
  server.Wait();
  if (snap != nullptr) *snap = server.stats();
  return out;
}

// A device that completes a query's reads in submission order (every
// simulated model) gives a query its blocks in the rung-by-rung order
// even when the next rung was issued ahead: the same answer at the cap S
// that binds, with the same rungs examined.
TEST(AheadIssue, IdleServerAnswersAsSearchBatch) {
  const data::GeneratedData& gen = LadderData();
  const uint32_t k = 10;
  for (const storage::DeviceModel& model :
       {CssdModel(), storage::MemoryModel(1ULL << 30)}) {
    for (const double s_factor : {0.0, 1000.0}) {
      SCOPED_TRACE(model.name + " s_factor " + std::to_string(s_factor));
      LadderIndex ladder = BuildLadder(model, s_factor);
      ShardOptions sopts;
      sopts.num_shards = 2;
      ShardedQueryEngine engine(ladder.index.get(), &gen.base, sopts);
      auto ref = engine.SearchBatch(gen.queries, k);
      ASSERT_TRUE(ref.ok());
      StreamingSnapshot snap;
      const std::vector<QueryResult> served =
          ServeOneAtATime(&engine, gen.queries, k, &snap);
      ASSERT_EQ(served.size(), gen.queries.n());

      uint64_t ahead = 0, unused = 0, stopped = 0;
      uint64_t reads = 0, empty = 0, late = 0;
      for (uint64_t q = 0; q < gen.queries.n(); ++q) {
        ExpectResultMatchesReference(served[q], ref->results[q], q);
        const QueryStats& got = served[q].stats;
        reads += got.ios;
        empty += got.empty_reads;
        late += got.late_reads;
        EXPECT_EQ(got.radii_searched, ref->stats[q].radii_searched) << q;
        EXPECT_EQ(ref->stats[q].ahead_reads, 0u) << q;  // a closed source
        EXPECT_LE(got.ahead_unused, got.ahead_reads) << q;
        if (got.radii_searched == 1) {
          // Stopped at the bottom rung: the rung above was read unused.
          ++stopped;
          EXPECT_GT(got.ahead_unused, 0u) << q;
        }
        ahead += got.ahead_reads;
        unused += got.ahead_unused;
      }
      EXPECT_GT(stopped, 0u);
      EXPECT_GT(ahead, unused);
      EXPECT_EQ(snap.ahead_reads, ahead);
      EXPECT_EQ(snap.ahead_unused, unused);
      EXPECT_EQ(snap.reads, reads);
      EXPECT_EQ(snap.empty_reads, empty);
      EXPECT_EQ(snap.late_reads, late);
      EXPECT_GT(reads, ahead);
    }
  }
}

/// The heads of the non-empty buckets `query` probes at rung `radius`.
std::set<uint64_t> RungHeads(const StorageIndex& index, const float* query,
                             uint32_t radius) {
  std::vector<uint32_t> hashes(index.layout().L);
  index.family().HashAll(radius, query, hashes.data());
  std::set<uint64_t> heads;
  for (uint32_t l = 0; l < index.layout().L; ++l) {
    const uint64_t head =
        index.ChainHead(radius, l, index.layout().fp.TableIndex(hashes[l]));
    if (head != 0) heads.insert(head);
  }
  return heads;
}

// A query that stops at the bottom rung is answered while the reads it
// issued ahead are still held at the device; they complete while a
// climbing query runs in the same context, and touch nothing of it.
TEST(AheadIssue, StaleAheadReadsNeverReachTheNextQuery) {
  const data::GeneratedData& gen = LadderData();
  const uint32_t k = 10;
  LadderIndex ladder = BuildLadder(CssdModel());
  const StorageIndex& index = *ladder.index;
  auto gate = std::make_shared<GateControl>();
  ShardOptions sopts = GatedShard(gate);
  sopts.total_contexts = 2;  // one busy context and one that finds the stream idle
  ShardedQueryEngine engine(ladder.index.get(), &gen.base, sopts);
  auto ref = engine.SearchBatch(gen.queries, k);
  ASSERT_TRUE(ref.ok());
  uint64_t a = gen.queries.n(), b = gen.queries.n();
  for (uint64_t q = gen.queries.n(); q-- > 0;) {
    (ref->stats[q].radii_searched == 1 ? a : b) = q;
  }
  ASSERT_LT(a, gen.queries.n()) << "no query stops at the bottom rung";
  ASSERT_LT(b, gen.queries.n()) << "no query climbs";

  // Hold the reads of A's second rung.
  gate->offsets = RungHeads(index, gen.queries.Row(a), 1);
  ASSERT_FALSE(gate->offsets.empty());

  Collector collector;
  ServerOptions opts;
  opts.k = k;
  opts.on_result = collector.Callback();
  SubmissionQueue queue(gen.queries.dim(), 4);
  StreamingServer server(&engine, opts);
  ASSERT_TRUE(server.Start(&queue).ok());
  struct ReleaseOnExit {
    GateControl* gate;
    ~ReleaseOnExit() { gate->Release(); }
  } release_on_exit{gate.get()};

  gate->Close();
  auto id_a = queue.Submit(gen.queries.Row(a));
  ASSERT_TRUE(id_a.ok());
  QueryResult got_a;
  ASSERT_TRUE(collector.Await(*id_a, &got_a))
      << "query A waited for reads of a rung it never examines";
  ExpectResultMatchesReference(got_a, ref->results[a], a);
  EXPECT_EQ(got_a.stats.radii_searched, 1u);
  EXPECT_GT(got_a.stats.ahead_unused, 0u);
  EXPECT_FALSE(got_a.stats.partial);
  // Its second rung's reads reach the gate, and stay there.
  EXPECT_TRUE(WaitFor([&] { return gate->Held() > 0; }));

  // B enters the context A left, and A's reads complete under it.
  gate->Open();
  auto id_b = queue.Submit(gen.queries.Row(b));
  ASSERT_TRUE(id_b.ok());
  gate->Release();
  QueryResult got_b;
  ASSERT_TRUE(collector.Await(*id_b, &got_b)) << "query B never answered";
  ExpectResultMatchesReference(got_b, ref->results[b], b);
  EXPECT_EQ(got_b.stats.radii_searched, ref->stats[b].radii_searched);
  EXPECT_EQ(got_b.stats.candidates, ref->stats[b].candidates);
  EXPECT_FALSE(got_b.stats.partial);

  queue.Close();
  server.Wait();
}

// A read that failed is an I/O error of the answer only if its rung was
// examined: a query that stops below the failed rung is whole, one that
// climbs into it is partial.
TEST(AheadIssue, FailedReadsCountOnlyOnExaminedRungs) {
  const data::GeneratedData& gen = LadderData();
  const uint32_t k = 10;
  LadderIndex ladder = BuildLadder(CssdModel());
  auto gate = std::make_shared<GateControl>();
  gate->fail = true;
  ShardOptions sopts = GatedShard(gate);
  sopts.total_contexts = 2;  // one busy context and one that finds the stream idle
  // Few slots: one kept by a finished query's parked block would soon
  // leave the shard none to read with.
  sopts.total_inflight_ios = 32;
  ShardedQueryEngine engine(ladder.index.get(), &gen.base, sopts);
  auto ref = engine.SearchBatch(gen.queries, k);
  ASSERT_TRUE(ref.ok());

  Collector collector;
  ServerOptions opts;
  opts.k = k;
  opts.on_result = collector.Callback();
  SubmissionQueue queue(gen.queries.dim(), 4);
  StreamingServer server(&engine, opts);
  ASSERT_TRUE(server.Start(&queue).ok());
  uint64_t stopped = 0, climbed = 0;
  for (uint64_t q = 0; q < gen.queries.n(); ++q) {
    {
      std::lock_guard<std::mutex> lock(gate->mu);
      gate->offsets = RungHeads(*ladder.index, gen.queries.Row(q), 1);
    }
    gate->Close();
    auto id = queue.Submit(gen.queries.Row(q));
    ASSERT_TRUE(id.ok());
    QueryResult got;
    ASSERT_TRUE(collector.Await(*id, &got)) << q;
    ASSERT_TRUE(got.status.ok()) << q;
    if (ref->stats[q].radii_searched == 1) {
      ++stopped;
      ExpectSameNeighbors(got.neighbors, ref->results[q], q);
      EXPECT_GT(got.stats.ahead_unused, 0u) << q;
      EXPECT_EQ(got.stats.io_errors, 0u) << q;
      EXPECT_FALSE(got.stats.partial) << q;
    } else {
      ++climbed;
      EXPECT_GT(got.stats.io_errors, 0u) << q;
      EXPECT_TRUE(got.stats.partial) << q;
    }
  }
  EXPECT_GT(stopped, 0u);
  EXPECT_GT(climbed, 0u);
  gate->Open();
  queue.Close();
  server.Wait();
}

// Blocks of the next rung that arrive before the current rung drains are
// parked, then examined in arrival order once the query climbs: with the
// bottom rung's reads held at the device, every climbing query's second
// rung arrives first, and the answer is still the one the rung-by-rung
// order gives at the cap S that binds.
TEST(AheadIssue, ParkedBlocksAreExaminedInArrivalOrder) {
  const data::GeneratedData& gen = LadderData();
  const uint32_t k = 10;
  LadderIndex ladder = BuildLadder(CssdModel());
  auto gate = std::make_shared<GateControl>();
  ShardOptions sopts = GatedShard(gate);
  sopts.total_contexts = 2;  // one busy context and one that finds the stream idle
  ShardedQueryEngine engine(ladder.index.get(), &gen.base, sopts);
  auto ref = engine.SearchBatch(gen.queries, k);
  ASSERT_TRUE(ref.ok());

  Collector collector;
  ServerOptions opts;
  opts.k = k;
  opts.on_result = collector.Callback();
  SubmissionQueue queue(gen.queries.dim(), 4);
  StreamingServer server(&engine, opts);
  ASSERT_TRUE(server.Start(&queue).ok());
  struct ReleaseOnExit {
    GateControl* gate;
    ~ReleaseOnExit() { gate->Release(); }
  } release_on_exit{gate.get()};

  uint64_t climbed = 0, drained = 0;
  for (uint64_t q = 0; q < gen.queries.n(); ++q) {
    if (ref->stats[q].radii_searched < 2) continue;
    ++climbed;
    drained += ref->stats[q].late_reads > 0 ? 1 : 0;
    const std::set<uint64_t> bottom =
        RungHeads(*ladder.index, gen.queries.Row(q), 0);
    {
      std::lock_guard<std::mutex> lock(gate->mu);
      gate->offsets = bottom;
      gate->held = 0;
    }
    gate->Close();
    auto id = queue.Submit(gen.queries.Row(q));
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(WaitFor([&] { return gate->Held() == bottom.size(); })) << q;
    // The second rung's reads are due a cSSD read time (about 140 us)
    // after the held ones; give them ample time to arrive and park.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_FALSE(collector.Has(*id)) << q;
    gate->Release();
    QueryResult got;
    ASSERT_TRUE(collector.Await(*id, &got)) << q;
    ExpectResultMatchesReference(got, ref->results[q], q);
    EXPECT_EQ(got.stats.radii_searched, ref->stats[q].radii_searched) << q;
    EXPECT_EQ(got.stats.candidates, ref->stats[q].candidates) << q;
    EXPECT_GT(got.stats.ahead_reads, 0u) << q;
    EXPECT_EQ(got.stats.ahead_unused, 0u) << q;
  }
  EXPECT_GT(climbed, 0u);
  EXPECT_GT(drained, 0u) << "the cap S never binds: order cannot show";
  queue.Close();
  server.Wait();
}

// Under a backlog a free context always finds a query to pull, so the
// stream is never idle and nothing is issued ahead.
TEST(AheadIssue, BacklogIssuesNothingAhead) {
  const data::GeneratedData& gen = LadderData();
  const uint32_t k = 10;
  LadderIndex ladder = BuildLadder(CssdModel());
  ShardOptions sopts;
  sopts.num_shards = 1;
  sopts.total_contexts = 4;
  ShardedQueryEngine engine(ladder.index.get(), &gen.base, sopts);
  auto ref = engine.SearchBatch(gen.queries, k);
  ASSERT_TRUE(ref.ok());

  Collector collector;
  ServerOptions opts;
  opts.k = k;
  opts.on_result = collector.Callback();
  StreamingServer server(&engine, opts);
  SubmissionQueue queue(gen.queries.dim(), gen.queries.n());
  for (uint64_t q = 0; q < gen.queries.n(); ++q) {
    ASSERT_TRUE(queue.TrySubmit(gen.queries.Row(q)).ok());
  }
  ASSERT_TRUE(server.Start(&queue).ok());
  ASSERT_TRUE(WaitFor([&] {
    std::lock_guard<std::mutex> lock(collector.mu);
    return collector.results.size() == gen.queries.n();
  }));
  queue.Close();
  server.Wait();

  std::lock_guard<std::mutex> lock(collector.mu);
  for (uint64_t q = 0; q < gen.queries.n(); ++q) {
    ExpectResultMatchesReference(collector.results[q], ref->results[q], q);
    // The first half finish long before the queue runs dry.
    if (q < gen.queries.n() / 2) {
      EXPECT_EQ(collector.results[q].stats.ahead_reads, 0u) << q;
    }
  }
}

/// One shard with `contexts` contexts and `slots` reads in flight, fed
/// one query at a time: answers as SearchBatch does, and issues nothing
/// ahead.
void ExpectNothingAhead(uint32_t contexts, uint32_t slots) {
  const data::GeneratedData& gen = LadderData();
  const uint32_t k = 10;
  LadderIndex ladder = BuildLadder(CssdModel());
  ShardOptions sopts;
  sopts.num_shards = 1;
  sopts.total_contexts = contexts;
  sopts.total_inflight_ios = slots;
  ShardedQueryEngine engine(ladder.index.get(), &gen.base, sopts);
  auto ref = engine.SearchBatch(gen.queries, k);
  ASSERT_TRUE(ref.ok());
  StreamingSnapshot snap;
  const std::vector<QueryResult> served =
      ServeOneAtATime(&engine, gen.queries, k, &snap);
  ASSERT_EQ(served.size(), gen.queries.n());
  for (uint64_t q = 0; q < gen.queries.n(); ++q) {
    ExpectResultMatchesReference(served[q], ref->results[q], q);
    EXPECT_EQ(served[q].stats.ahead_reads, 0u) << q;
  }
  EXPECT_EQ(snap.ahead_reads, 0u);
}

// The synchronous mode (one context, one read in flight, Fig. 1(A)) never
// has a free context beside a busy one: it climbs rung by rung.
TEST(AheadIssue, SynchronousModeIssuesNothingAhead) { ExpectNothingAhead(1, 1); }

// An ahead read needs more free slots than busy contexts. With two slots
// and one query in flight, a free slot is always the busy query's (every
// query of this workload has a non-empty bucket at the bottom rung, so
// none starts with both slots free and nothing of its own to issue).
TEST(AheadIssue, LeavesAFreeSlotForEveryBusyContext) { ExpectNothingAhead(2, 2); }

// ---------------------------------------------------------------------------
// The in-flight cap: further reads wait in the engine while the device queues
// ---------------------------------------------------------------------------

/// More queries over LadderData's rows (the generator draws the rows
/// before the queries, so the rows are the same and the first queries
/// too): enough to keep a device queueing for a while.
const data::Dataset& ManyQueries() {
  static const data::Dataset* queries =
      new data::Dataset(MakeStreamingTestData(31, 3000, 512).queries);
  return *queries;
}

/// Four units of 500 us: slow enough that 32 contexts queue on it in
/// every build, sanitizers included.
storage::DeviceModel SlowModel() {
  return storage::DeviceModel{"slow", 4, 500 * 1000, 4096, 1ULL << 30};
}

// A device that completes a queue's reads in submission order hands each
// query its blocks in the order the synchronous mode reads them, however
// long the cap held them in the context: a saturating 2-shard batch
// answers every query as one context with one read in flight does, at the
// cap S that binds, examining the same rungs and candidates.
TEST(InflightCap, SaturatingBatchAnswersAsSynchronousMode) {
  const data::GeneratedData& gen = LadderData();
  const data::Dataset& queries = ManyQueries();
  const uint32_t k = 10;
  for (const storage::DeviceModel& model :
       {CssdModel(), storage::MemoryModel(1ULL << 30)}) {
    SCOPED_TRACE(model.name);
    LadderIndex ladder = BuildLadder(model);
    QueryEngine sync(ladder.index.get(), &gen.base, EngineOptions{1, 1});
    auto want = sync.SearchBatch(queries, k);
    ASSERT_TRUE(want.ok());
    ShardOptions sopts;
    sopts.num_shards = 2;
    ShardedQueryEngine engine(ladder.index.get(), &gen.base, sopts);
    auto got = engine.SearchBatch(queries, k);
    ASSERT_TRUE(got.ok());
    uint64_t late = 0;
    for (uint64_t q = 0; q < queries.n(); ++q) {
      ExpectSameNeighbors(got->results[q], want->results[q], q);
      EXPECT_EQ(got->stats[q].radii_searched, want->stats[q].radii_searched) << q;
      EXPECT_EQ(got->stats[q].candidates, want->stats[q].candidates) << q;
      late += got->stats[q].late_reads;
    }
    EXPECT_GT(late, 0u) << "the cap S never binds: order cannot show";
  }
}

/// Late reads (completed after their rung had S candidates) as a share
/// of all reads, over a batch of ManyQueries on SlowModel at `shards`
/// shards of the default 32 contexts and 256 reads in flight each.
double LateShare(uint32_t shards) {
  const data::GeneratedData& gen = LadderData();
  LadderIndex ladder = BuildLadder(SlowModel());
  ShardOptions sopts;
  sopts.num_shards = shards;
  sopts.total_contexts = 32 * shards;
  sopts.total_inflight_ios = 256 * shards;
  ShardedQueryEngine engine(ladder.index.get(), &gen.base, sopts);
  auto batch = engine.SearchBatch(ManyQueries(), 10);
  EXPECT_TRUE(batch.ok());
  if (!batch.ok()) return 1.0;
  uint64_t reads = 0, late = 0;
  for (const QueryStats& st : batch->stats) {
    reads += st.ios;
    late += st.late_reads;
  }
  return static_cast<double>(late) / static_cast<double>(reads);
}

// Where every read queues, the cap holds a rung's further reads in the
// context, and a rung that reaches S drops them there: few of the reads
// that reach the device come back too late to use. An engine that issues
// every probe at once reads 7018 blocks for this batch, 29.3 % of them
// late; with the cap it reads about 4990, under 1 % late.
TEST(InflightCap, FewReadsAreLateOnAQueueingDevice) {
  EXPECT_LT(LateShare(1), 0.10);
}

// Two shards learn one floor for their one device. With a floor per
// shard, the shard whose first reads queued behind the other's burst
// takes that queueing for the service time and never holds back: 25.4 %
// of the reads come back late.
TEST(InflightCap, ShardsShareOneLatencyFloor) { EXPECT_LT(LateShare(2), 0.10); }

/// Keeps `depth` reads in flight on a queue of its own over `dev` until
/// destroyed, so every other read of the device waits behind them.
class DeviceLoad {
 public:
  DeviceLoad(storage::BlockDevice* dev, uint32_t depth)
      : buf_(depth * storage::kSectorBytes) {
    storage::QueueOptions qopts;
    qopts.queue_capacity = depth;
    auto queue = dev->CreateQueue(qopts);
    EXPECT_TRUE(queue.ok());
    queue_ = std::move(queue).value();
    thread_ = std::thread([this, depth] {
      storage::IoCompletion comps[64];
      for (uint32_t i = 0; i < depth; ++i) Submit(i);
      uint32_t inflight = depth;
      while (inflight > 0) {
        const size_t n = queue_->PollCompletions(comps, 64);
        for (size_t i = 0; i < n; ++i) {
          if (stop_.load()) {
            --inflight;
          } else {
            Submit(static_cast<uint32_t>(comps[i].user_data));
          }
        }
        if (n == 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }
  ~DeviceLoad() {
    stop_.store(true);
    thread_.join();
  }
  DeviceLoad(const DeviceLoad&) = delete;
  DeviceLoad& operator=(const DeviceLoad&) = delete;

 private:
  void Submit(uint32_t i) {
    storage::IoRequest req;
    req.offset = 0;
    req.length = storage::kSectorBytes;
    req.buf = buf_.data() + static_cast<size_t>(i) * storage::kSectorBytes;
    req.user_data = i;
    EXPECT_TRUE(queue_->SubmitRead(req).ok());
  }

  std::vector<uint8_t> buf_;
  std::unique_ptr<storage::BlockDevice> queue_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// A cap that a burst shrank is not a lone query's: once the engine has
// held no query and no read, a query arriving alone issues every probe
// of its rung at once, as the eager engine does. Here the cap falls to
// its bottom in a batch that ends with the device still queueing behind
// another queue's reads, so only the reset can raise it again.
TEST(InflightCap, LoneQueryAfterABurstIssuesItsWholeRung) {
  const data::GeneratedData& gen = LadderData();
  const uint32_t k = 10;
  LadderIndex ladder = BuildLadder(SlowModel());
  auto gate = std::make_shared<GateControl>();
  ShardedQueryEngine engine(ladder.index.get(), &gen.base, GatedShard(gate));
  uint64_t lone = gen.queries.n();
  std::set<uint64_t> heads;
  for (uint64_t q = 0; q < gen.queries.n() && heads.size() < 4; ++q) {
    heads = RungHeads(*ladder.index, gen.queries.Row(q), 0);
    lone = q;
  }
  ASSERT_GE(heads.size(), 4u) << "no query probes 4 buckets at the bottom rung";

  // One query alone teaches the engine the device's service time; then a
  // batch runs and ends while another queue keeps the device queueing.
  data::Dataset one("one", gen.base.dim());
  one.Append(gen.queries.Row(lone));
  ASSERT_TRUE(engine.SearchBatch(one, k).ok());
  {
    DeviceLoad load(ladder.dev.get(), 32);
    ASSERT_TRUE(engine.SearchBatch(ManyQueries(), k).ok());
  }

  {
    std::lock_guard<std::mutex> lock(gate->mu);
    gate->offsets = heads;
  }
  Collector collector;
  ServerOptions opts;
  opts.k = k;
  opts.on_result = collector.Callback();
  SubmissionQueue queue(gen.queries.dim(), 4);
  StreamingServer server(&engine, opts);
  ASSERT_TRUE(server.Start(&queue).ok());
  struct ReleaseOnExit {
    GateControl* gate;
    ~ReleaseOnExit() { gate->Release(); }
  } release_on_exit{gate.get()};
  gate->Close();
  auto id = queue.Submit(gen.queries.Row(lone));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(WaitFor([&] { return gate->Held() == heads.size(); }, 2))
      << gate->Held() << " of the rung's " << heads.size()
      << " reads were issued before any completed";
  gate->Release();
  QueryResult got;
  ASSERT_TRUE(collector.Await(*id, &got));
  EXPECT_TRUE(got.status.ok());
  queue.Close();
  server.Wait();
}

}  // namespace
}  // namespace e2lshos::core
