// Tests for ShardedQueryEngine: sharded execution over a shared device
// must return exactly the results of a single QueryEngine — same ids,
// same distances, in the same query order — for any shard count, the
// batch's BatchResult must carry per-query stats and one wall clock
// around all shards, and shards pulling from one row cursor must share
// the rows by speed, not in fixed halves.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>

#include "core/builder.h"
#include "core/query_engine.h"
#include "core/sharded_engine.h"
#include "data/generators.h"
#include "storage/simulated_device.h"
#include "util/clock.h"

namespace e2lshos::core {
namespace {

// One deterministic workload + index on a SimulatedDevice, shared by all
// tests (the build is the expensive part). The candidate cap S is set far
// above the database size so no query ever hits the draining cutoff —
// the per-query candidate set is then independent of I/O completion
// order and results are bit-reproducible across engine configurations.
struct Fixture {
  data::GeneratedData gen;
  lsh::E2lshParams params;
  std::unique_ptr<storage::SimulatedDevice> dev;
  std::unique_ptr<StorageIndex> index;
};

Fixture* GetFixture() {
  static Fixture* f = [] {
    auto* fx = new Fixture();
    data::GeneratorSpec spec;
    spec.kind = data::GeneratorKind::kClustered;
    spec.dim = 24;
    spec.num_clusters = 16;
    spec.cluster_std = 3.0 / std::sqrt(48.0);
    spec.center_spread = 10.0 * std::sqrt(6.0 / 24.0);
    spec.seed = 7;
    fx->gen = data::Generate("sharded", 3000, 30, spec);

    lsh::E2lshConfig cfg;
    cfg.rho = 0.25;
    cfg.s_factor = 1000.0;  // never drain: deterministic candidate sets
    cfg.x_max = fx->gen.base.XMax();
    auto params = lsh::ComputeParams(fx->gen.base.n(), fx->gen.base.dim(), cfg);
    EXPECT_TRUE(params.ok());
    fx->params = *params;

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

void ExpectBatchesEqual(const BatchResult& got, const BatchResult& want) {
  ASSERT_EQ(got.results.size(), want.results.size());
  for (size_t q = 0; q < want.results.size(); ++q) {
    ASSERT_EQ(got.results[q].size(), want.results[q].size()) << "query " << q;
    for (size_t i = 0; i < want.results[q].size(); ++i) {
      EXPECT_EQ(got.results[q][i].id, want.results[q][i].id)
          << "query " << q << " rank " << i;
      EXPECT_EQ(got.results[q][i].dist, want.results[q][i].dist)
          << "query " << q << " rank " << i;
    }
  }
}

TEST(ShardedQueryEngine, MatchesSingleEngineAcrossShardCountsAndK) {
  Fixture* f = GetFixture();
  for (const uint32_t k : {1u, 10u}) {
    QueryEngine single(f->index.get(), &f->gen.base);
    auto ref = single.SearchBatch(f->gen.queries, k);
    ASSERT_TRUE(ref.ok());

    for (const uint32_t shards : {1u, 2u, 4u, 7u}) {
      ShardOptions opts;
      opts.num_shards = shards;
      ShardedQueryEngine engine(f->index.get(), &f->gen.base, opts);
      ASSERT_EQ(engine.num_shards(), shards);
      auto got = engine.SearchBatch(f->gen.queries, k);
      ASSERT_TRUE(got.ok()) << "shards=" << shards << " k=" << k;
      ExpectBatchesEqual(*got, *ref);
    }
  }
}

TEST(ShardedQueryEngine, BatchSmallerThanShardCount) {
  Fixture* f = GetFixture();
  data::Dataset small("small", f->gen.queries.dim());
  for (uint64_t q = 0; q < 3; ++q) small.Append(f->gen.queries.Row(q));

  QueryEngine single(f->index.get(), &f->gen.base);
  auto ref = single.SearchBatch(small, 10);
  ASSERT_TRUE(ref.ok());

  ShardOptions opts;
  opts.num_shards = 7;
  ShardedQueryEngine engine(f->index.get(), &f->gen.base, opts);
  auto got = engine.SearchBatch(small, 10);
  ASSERT_TRUE(got.ok());
  ExpectBatchesEqual(*got, *ref);
}

TEST(ShardedQueryEngine, EmptyBatch) {
  Fixture* f = GetFixture();
  data::Dataset empty("empty", f->gen.queries.dim());
  ShardOptions opts;
  opts.num_shards = 4;
  ShardedQueryEngine engine(f->index.get(), &f->gen.base, opts);
  auto got = engine.SearchBatch(empty, 10);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->results.empty());
  EXPECT_TRUE(got->stats.empty());
  EXPECT_EQ(got->QueriesPerSecond(), 0.0);
  EXPECT_EQ(got->MeanIos(), 0.0);
}

TEST(ShardedQueryEngine, RejectsBadArguments) {
  Fixture* f = GetFixture();
  ShardedQueryEngine engine(f->index.get(), &f->gen.base, {});
  EXPECT_EQ(engine.SearchBatch(f->gen.queries, 0).status().code(),
            StatusCode::kInvalidArgument);
  data::Dataset wrong_dim("wrong", f->gen.queries.dim() + 1);
  std::vector<float> row(wrong_dim.dim(), 0.0f);
  wrong_dim.Append(row.data());
  EXPECT_EQ(engine.SearchBatch(wrong_dim, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedQueryEngine, DerivesPerShardBudgetsFromGlobalCaps) {
  Fixture* f = GetFixture();
  ShardOptions opts;
  opts.num_shards = 4;
  opts.total_contexts = 32;
  opts.total_inflight_ios = 256;
  ShardedQueryEngine engine(f->index.get(), &f->gen.base, opts);
  EXPECT_EQ(engine.shard_engine_options().num_contexts, 8u);
  EXPECT_EQ(engine.shard_engine_options().max_inflight_ios, 64u);

  // Budgets smaller than the shard count shed shards instead of
  // overshooting the global caps via a per-shard floor of one.
  opts.num_shards = 7;
  opts.total_contexts = 4;
  opts.total_inflight_ios = 4;
  ShardedQueryEngine tiny(f->index.get(), &f->gen.base, opts);
  EXPECT_EQ(tiny.num_shards(), 4u);
  EXPECT_EQ(tiny.shard_engine_options().num_contexts, 1u);
  EXPECT_EQ(tiny.shard_engine_options().max_inflight_ios, 1u);
}

TEST(ResolveShardCount, MatchesEngineResolution) {
  EXPECT_EQ(ResolveShardCount(3), 3u);
  EXPECT_EQ(ResolveShardCount(kMaxShards + 40), kMaxShards);
  const uint32_t auto_resolved = ResolveShardCount(0);
  EXPECT_GE(auto_resolved, 1u);
  EXPECT_LE(auto_resolved, kMaxShards);
}

TEST(ShardedQueryEngine, MergedStatsSatisfyInvariants) {
  Fixture* f = GetFixture();
  ShardOptions opts;
  opts.num_shards = 4;
  ShardedQueryEngine engine(f->index.get(), &f->gen.base, opts);
  const uint64_t before = util::NowNs();
  auto batch = engine.SearchBatch(f->gen.queries, 10);
  const uint64_t after = util::NowNs();
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->stats.size(), f->gen.queries.n());
  // One clock around all shards, never the sum of per-shard times.
  EXPECT_LE(batch->wall_ns, after - before);

  uint64_t total_ios = 0;
  uint64_t total_radii = 0;
  for (size_t q = 0; q < batch->stats.size(); ++q) {
    const QueryStats& s = batch->stats[q];
    // Every I/O is either a table read or a bucket block read.
    EXPECT_EQ(s.ios, s.table_reads + s.bucket_block_reads) << "query " << q;
    EXPECT_GE(s.radii_searched, 1u) << "query " << q;
    EXPECT_GT(s.wall_ns, 0u) << "query " << q;
    total_ios += s.ios;
    total_radii += s.radii_searched;
  }
  const double n = static_cast<double>(batch->stats.size());
  EXPECT_DOUBLE_EQ(batch->MeanIos(), static_cast<double>(total_ios) / n);
  EXPECT_DOUBLE_EQ(batch->MeanRadii(), static_cast<double>(total_radii) / n);
  ASSERT_GT(batch->wall_ns, 0u);
  EXPECT_DOUBLE_EQ(batch->QueriesPerSecond(),
                   n * 1e9 / static_cast<double>(batch->wall_ns));
  EXPECT_GT(batch->compute_ns, 0u);
}

/// Sleeps 1 ms before passing on each read: a shard on a slow queue.
class SlowSubmits : public storage::BlockDevice {
 public:
  explicit SlowSubmits(std::unique_ptr<storage::BlockDevice> inner)
      : inner_(std::move(inner)) {}
  Status SubmitRead(const storage::IoRequest& req) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return inner_->SubmitRead(req);
  }
  size_t PollCompletions(storage::IoCompletion* out, size_t max) override {
    return inner_->PollCompletions(out, max);
  }
  Status Write(uint64_t offset, const void* data, uint32_t length) override {
    return inner_->Write(offset, data, length);
  }
  uint64_t capacity() const override { return inner_->capacity(); }
  uint32_t io_alignment() const override { return inner_->io_alignment(); }
  uint32_t outstanding() const override { return inner_->outstanding(); }
  std::string name() const override { return "slow(" + inner_->name() + ")"; }
  storage::DeviceStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  std::unique_ptr<storage::BlockDevice> inner_;
};

TEST(ShardedQueryEngine, FastShardTakesTheRowsASlowOneCannot) {
  // Both shards pull rows from one cursor, one query at a time: the shard
  // whose every submission stalls answers a few rows while the other
  // answers the rest, where fixed halves would hold the batch on the
  // slow one.
  Fixture* f = GetFixture();
  QueryEngine single(f->index.get(), &f->gen.base);
  auto ref = single.SearchBatch(f->gen.queries, 10);
  ASSERT_TRUE(ref.ok());

  ShardOptions opts;
  opts.num_shards = 2;
  opts.total_contexts = 2;
  uint32_t wrapped = 0;
  opts.wrap_shard_device =
      [&wrapped](std::unique_ptr<storage::BlockDevice> q) {
        if (wrapped++ == 0) return q;
        return std::unique_ptr<storage::BlockDevice>(
            std::make_unique<SlowSubmits>(std::move(q)));
      };
  ShardedQueryEngine engine(f->index.get(), &f->gen.base, opts);
  ASSERT_EQ(engine.num_shards(), 2u);
  auto got = engine.SearchBatch(f->gen.queries, 10);
  ASSERT_TRUE(got.ok());
  ExpectBatchesEqual(*got, *ref);

  const uint64_t fast = engine.shard_device(0)->stats().reads_completed;
  const uint64_t slow = engine.shard_device(1)->stats().reads_completed;
  EXPECT_GE(fast, 3 * slow) << "fast shard " << fast << " reads, slow shard "
                            << slow;
}

}  // namespace
}  // namespace e2lshos::core
