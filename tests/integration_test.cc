// End-to-end integration tests: the full paper pipeline on a scaled
// SIFT-like dataset — all four methods (in-memory E2LSH, E2LSHoS, SRS,
// QALSH) answering the same queries, with the paper's qualitative
// relationships asserted.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/qalsh.h"
#include "baselines/srs.h"
#include "core/builder.h"
#include "core/query_engine.h"
#include "data/ground_truth.h"
#include "data/registry.h"
#include "e2lsh/in_memory.h"
#include "storage/device_registry.h"
#include "storage/file_device.h"
#include "storage/interface_model.h"
#include "storage/simulated_device.h"

namespace e2lshos {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto spec = data::GetDatasetSpec("SIFT");
    ASSERT_TRUE(spec.ok());
    spec_ = new data::DatasetSpec(*spec);
    gen_ = new data::GeneratedData(data::MakeDataset(*spec_, 10000, 50));
    gt_ = new data::GroundTruth(
        data::GroundTruth::Compute(gen_->base, gen_->queries, 100, 1));

    lsh::E2lshConfig cfg = spec_->lsh;
    cfg.x_max = gen_->base.XMax();
    auto params = lsh::ComputeParams(gen_->base.n(), gen_->base.dim(), cfg);
    ASSERT_TRUE(params.ok());
    params_ = new lsh::E2lshParams(*params);
  }

  static void TearDownTestSuite() {
    delete params_;
    delete gt_;
    delete gen_;
    delete spec_;
  }

  static data::DatasetSpec* spec_;
  static data::GeneratedData* gen_;
  static data::GroundTruth* gt_;
  static lsh::E2lshParams* params_;
};

data::DatasetSpec* PipelineTest::spec_ = nullptr;
data::GeneratedData* PipelineTest::gen_ = nullptr;
data::GroundTruth* PipelineTest::gt_ = nullptr;
lsh::E2lshParams* PipelineTest::params_ = nullptr;

TEST_F(PipelineTest, AllMethodsReachUsableAccuracy) {
  // In-memory E2LSH.
  auto mem = e2lsh::InMemoryE2lsh::Build(gen_->base, *params_);
  ASSERT_TRUE(mem.ok());
  const double r_e2lsh =
      data::MeanOverallRatio(*gt_, (*mem)->SearchBatch(gen_->queries, 1).results, 1);

  // E2LSHoS on an instant device.
  auto dev = storage::SimulatedDevice::Create(storage::MemoryModel(4ULL << 30));
  ASSERT_TRUE(dev.ok());
  auto idx = core::IndexBuilder::Build(gen_->base, *params_, dev->get());
  ASSERT_TRUE(idx.ok());
  core::QueryEngine engine(idx->get(), &gen_->base);
  auto os_batch = engine.SearchBatch(gen_->queries, 1);
  ASSERT_TRUE(os_batch.ok());
  const double r_os = data::MeanOverallRatio(*gt_, os_batch->results, 1);

  // SRS.
  baselines::SrsConfig srs_cfg;
  srs_cfg.max_verify = gen_->base.n() / 10;
  auto srs = baselines::Srs::Build(gen_->base, srs_cfg);
  ASSERT_TRUE(srs.ok());
  const double r_srs =
      data::MeanOverallRatio(*gt_, (*srs)->SearchBatch(gen_->queries, 1).results, 1);

  // QALSH.
  auto qalsh = baselines::Qalsh::Build(gen_->base, {});
  ASSERT_TRUE(qalsh.ok());
  const double r_qalsh = data::MeanOverallRatio(
      *gt_, (*qalsh)->SearchBatch(gen_->queries, 1).results, 1);

  EXPECT_LT(r_e2lsh, 1.35);
  EXPECT_LT(r_os, 1.35);
  EXPECT_LT(r_srs, 1.35);
  EXPECT_LT(r_qalsh, 1.35);
}

TEST_F(PipelineTest, E2lshComputationallyCheaperThanQalsh) {
  // Paper Observation 1 (Fig. 2): per-query CPU cost of E2LSH is well
  // below the small-index methods; QALSH is the consistently slowest.
  // (The E2LSH-vs-SRS gap widens with n and is exercised at larger scale
  // by bench_fig2; at this test's 10k points only the QALSH gap is
  // guaranteed to be decisive.)
  auto mem = e2lsh::InMemoryE2lsh::Build(gen_->base, *params_);
  ASSERT_TRUE(mem.ok());
  auto qalsh = baselines::Qalsh::Build(gen_->base, {});
  ASSERT_TRUE(qalsh.ok());

  const auto e2lsh_batch = (*mem)->SearchBatch(gen_->queries, 1);
  const auto qalsh_batch = (*qalsh)->SearchBatch(gen_->queries, 1);
  EXPECT_LT(e2lsh_batch.wall_ns, qalsh_batch.wall_ns);
}

TEST_F(PipelineTest, IoCountInPaperBallpark) {
  // Paper Observation 2: several hundred I/Os per query for many
  // workloads (Table 4 spans ~49 to ~791 at full scale; our scaled
  // datasets land lower but must stay within sane bounds).
  auto mem = e2lsh::InMemoryE2lsh::Build(gen_->base, *params_);
  ASSERT_TRUE(mem.ok());
  const auto batch = (*mem)->SearchBatch(gen_->queries, 1);
  const double n_io = batch.MeanIosInfiniteBlock();
  EXPECT_GT(n_io, 5.0);
  EXPECT_LT(n_io, 5000.0);

  // The reads E2LSHoS issues for the same queries: one per non-empty
  // slot it probes, plus overflow blocks.
  auto dev = storage::SimulatedDevice::Create(storage::MemoryModel(4ULL << 30));
  ASSERT_TRUE(dev.ok());
  auto idx = core::IndexBuilder::Build(gen_->base, *params_, dev->get());
  ASSERT_TRUE(idx.ok());
  core::QueryEngine engine(idx->get(), &gen_->base);
  auto os_batch = engine.SearchBatch(gen_->queries, 1);
  ASSERT_TRUE(os_batch.ok());
  EXPECT_GT(os_batch->MeanIos(), 5.0);
  EXPECT_LT(os_batch->MeanIos(), 5000.0);
}

TEST_F(PipelineTest, E2lshosOnFileDeviceWorks) {
  // Real filesystem I/O path end to end.
  const std::string path = ::testing::TempDir() + "/e2_integration_index.bin";
  storage::FileDevice::Options opt;
  opt.capacity = 4ULL << 30;
  opt.io_threads = 2;
  auto dev = storage::FileDevice::Create(path, opt);
  ASSERT_TRUE(dev.ok());
  auto idx = core::IndexBuilder::Build(gen_->base, *params_, dev->get());
  ASSERT_TRUE(idx.ok());
  core::QueryEngine engine(idx->get(), &gen_->base, {.num_contexts = 8});
  auto batch = engine.SearchBatch(gen_->queries, 1);
  ASSERT_TRUE(batch.ok());
  const double ratio = data::MeanOverallRatio(*gt_, batch->results, 1);
  EXPECT_LT(ratio, 1.35);
  std::remove(path.c_str());
}

TEST_F(PipelineTest, AsyncBeatsSyncOnSlowStorage) {
  // Sec. 6.5: the asynchronous engine hides storage latency; with a
  // latency-bound simulated device, sync execution is far slower.
  storage::DeviceModel model = storage::GetDeviceModel(storage::DeviceKind::kCssd);
  model.service_time_ns = 40000;  // 40 us latency, 25 kIOPS at QD1
  model.capacity_bytes = 4ULL << 30;
  auto ssd = storage::SimulatedDevice::Create(model);
  ASSERT_TRUE(ssd.ok());
  auto idx = core::IndexBuilder::Build(gen_->base, *params_, ssd->get());
  ASSERT_TRUE(idx.ok());

  data::Dataset few("few", gen_->queries.dim());
  for (uint64_t q = 0; q < 10; ++q) few.Append(gen_->queries.Row(q));

  core::QueryEngine async_engine(idx->get(), &gen_->base, {.num_contexts = 32});
  auto async_res = async_engine.SearchBatch(few, 1);
  ASSERT_TRUE(async_res.ok());

  core::QueryEngine sync_engine(idx->get(), &gen_->base,
                                {.num_contexts = 1, .max_inflight_ios = 1});
  auto sync_res = sync_engine.SearchBatch(few, 1);
  ASSERT_TRUE(sync_res.ok());

  EXPECT_GT(static_cast<double>(sync_res->wall_ns),
            1.5 * static_cast<double>(async_res->wall_ns));
}

TEST_F(PipelineTest, MemoryFootprintStory) {
  // Table 6: E2LSHoS keeps a large index on storage but only a small
  // DRAM-resident part, comparable to SRS's whole index.
  auto dev = storage::SimulatedDevice::Create(storage::MemoryModel(4ULL << 30));
  ASSERT_TRUE(dev.ok());
  auto idx = core::IndexBuilder::Build(gen_->base, *params_, dev->get());
  ASSERT_TRUE(idx.ok());
  auto mem = e2lsh::InMemoryE2lsh::Build(gen_->base, *params_);
  ASSERT_TRUE(mem.ok());

  const auto sizes = (*idx)->sizes();
  // On-storage index far exceeds the DRAM-resident remainder.
  EXPECT_GT(sizes.storage_bytes, 8 * sizes.dram_index_bytes);
  // In-memory E2LSH pays the full index in DRAM.
  EXPECT_GT((*mem)->IndexMemoryBytes(), 4 * sizes.dram_index_bytes);
}

}  // namespace
}  // namespace e2lshos
