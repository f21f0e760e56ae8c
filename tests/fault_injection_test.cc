// Failure-injection tests: the query engine must terminate and return
// best-effort results under submit failures, completion failures, and
// payload corruption — a lost bucket costs candidates, never progress or
// memory safety.
#include <gtest/gtest.h>

#include <cmath>

#include "core/builder.h"
#include "core/query_engine.h"
#include "data/generators.h"
#include "data/ground_truth.h"
#include "storage/faulty_device.h"
#include "storage/simulated_device.h"

namespace e2lshos::core {
namespace {

struct Fixture {
  data::GeneratedData gen;
  lsh::E2lshParams params;
  std::unique_ptr<storage::SimulatedDevice> device;
  std::unique_ptr<StorageIndex> index;
};

Fixture MakeFixture(uint64_t n = 3000, uint32_t dim = 24) {
  Fixture f;
  data::GeneratorSpec spec;
  spec.kind = data::GeneratorKind::kClustered;
  spec.dim = dim;
  spec.num_clusters = 16;
  spec.cluster_std = 3.0 / std::sqrt(2.0 * dim);
  spec.center_spread = 10.0 * std::sqrt(6.0 / dim);
  spec.seed = 31;
  f.gen = data::Generate("fault", n, 40, spec);
  lsh::E2lshConfig cfg;
  cfg.rho = 0.25;
  cfg.s_factor = 8.0;
  cfg.x_max = f.gen.base.XMax();
  auto params = lsh::ComputeParams(n, dim, cfg);
  EXPECT_TRUE(params.ok());
  f.params = *params;
  auto dev = storage::SimulatedDevice::Create(storage::MemoryModel(2ULL << 30));
  EXPECT_TRUE(dev.ok());
  f.device = std::move(dev.value());
  auto idx = IndexBuilder::Build(f.gen.base, f.params, f.device.get());
  EXPECT_TRUE(idx.ok());
  f.index = std::move(idx.value());
  return f;
}

TEST(FaultInjection, SurvivesSubmitFailures) {
  auto f = MakeFixture();
  storage::FaultyDevice::Options opt;
  opt.submit_fail_rate = 0.10;
  storage::FaultyDevice faulty(f.device.get(), opt);
  auto view = f.index->WithDevice(&faulty);
  QueryEngine engine(view.get(), &f.gen.base);
  auto batch = engine.SearchBatch(f.gen.queries, 3);
  ASSERT_TRUE(batch.ok());
  EXPECT_GT(faulty.injected_submit_failures(), 0u);
  uint64_t errors = 0, answered = 0;
  for (uint64_t q = 0; q < f.gen.queries.n(); ++q) {
    errors += batch->stats[q].io_errors;
    answered += !batch->results[q].empty();
  }
  EXPECT_GT(errors, 0u);
  // Best-effort: the vast majority of queries still produce answers.
  EXPECT_GE(answered, f.gen.queries.n() * 8 / 10);
}

TEST(FaultInjection, SurvivesCompletionFailures) {
  auto f = MakeFixture();
  storage::FaultyDevice::Options opt;
  opt.completion_fail_rate = 0.15;
  storage::FaultyDevice faulty(f.device.get(), opt);
  auto view = f.index->WithDevice(&faulty);
  QueryEngine engine(view.get(), &f.gen.base);
  auto batch = engine.SearchBatch(f.gen.queries, 1);
  ASSERT_TRUE(batch.ok());
  EXPECT_GT(faulty.injected_completion_failures(), 0u);
  // Every query terminated (SearchBatch returned), none hung.
  EXPECT_EQ(batch->results.size(), f.gen.queries.n());
}

TEST(FaultInjection, SurvivesPayloadCorruption) {
  // Corrupted blocks may scramble headers (bogus next pointers and
  // counts), fingerprints, and ids: the engine must neither crash nor
  // dereference out-of-range ids, and must finish every query.
  auto f = MakeFixture();
  storage::FaultyDevice::Options opt;
  opt.corrupt_rate = 0.20;
  storage::FaultyDevice faulty(f.device.get(), opt);
  auto view = f.index->WithDevice(&faulty);
  QueryEngine engine(view.get(), &f.gen.base);
  auto batch = engine.SearchBatch(f.gen.queries, 3);
  ASSERT_TRUE(batch.ok());
  EXPECT_GT(faulty.injected_corruptions(), 0u);
  EXPECT_EQ(batch->results.size(), f.gen.queries.n());
  for (uint64_t q = 0; q < f.gen.queries.n(); ++q) {
    for (const auto& nb : batch->results[q]) {
      EXPECT_LT(nb.id, f.gen.base.n());
    }
  }
}

TEST(FaultInjection, AccuracyDegradesGracefully) {
  // With a low failure rate, accuracy stays close to the clean run.
  auto f = MakeFixture(5000);
  const auto gt = data::GroundTruth::Compute(f.gen.base, f.gen.queries, 1, 1);

  QueryEngine clean_engine(f.index.get(), &f.gen.base);
  auto clean = clean_engine.SearchBatch(f.gen.queries, 1);
  ASSERT_TRUE(clean.ok());
  const double clean_ratio = data::MeanOverallRatio(gt, clean->results, 1);

  storage::FaultyDevice::Options opt;
  opt.submit_fail_rate = 0.02;
  opt.completion_fail_rate = 0.02;
  storage::FaultyDevice faulty(f.device.get(), opt);
  auto view = f.index->WithDevice(&faulty);
  QueryEngine engine(view.get(), &f.gen.base);
  auto batch = engine.SearchBatch(f.gen.queries, 1);
  ASSERT_TRUE(batch.ok());
  const double faulty_ratio = data::MeanOverallRatio(gt, batch->results, 1);

  EXPECT_LT(faulty_ratio, clean_ratio + 1.0);
}

TEST(FaultInjection, SyncModeAlsoSurvives) {
  auto f = MakeFixture(1500);
  storage::FaultyDevice::Options opt;
  opt.submit_fail_rate = 0.05;
  opt.completion_fail_rate = 0.05;
  storage::FaultyDevice faulty(f.device.get(), opt);
  auto view = f.index->WithDevice(&faulty);
  QueryEngine engine(view.get(), &f.gen.base, {.synchronous = true});
  auto batch = engine.SearchBatch(f.gen.queries, 1);
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->results.size(), f.gen.queries.n());
}

}  // namespace
}  // namespace e2lshos::core
