// Regression tests for the FileDevice direct-I/O path and its bounds
// checks:
//
//  * O_DIRECT rejects extents that are not sector-aligned, so the query
//    engine must issue every read as whole aligned units — covered
//    end-to-end by building an index on a buffered file and re-serving
//    it through an O_DIRECT reopen.
//  * Unaligned direct requests must fail fast with InvalidArgument at
//    submission, not as a confusing kIoError completion.
//  * The capacity bounds must not wrap for hostile/corrupt addresses
//    near UINT64_MAX (`offset + length` overflow).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>

#include "core/builder.h"
#include "core/persistence.h"
#include "core/query_engine.h"
#include "data/generators.h"
#include "storage/device_registry.h"
#include "storage/file_device.h"
#include "storage/simulated_device.h"
#include "util/aligned_buffer.h"

namespace e2lshos::storage {
namespace {

constexpr uint64_t kCapacity = 1ULL << 20;  // 1 MiB, sector-multiple

// Some filesystems (tmpfs) do not support O_DIRECT at all; skip the
// direct tests there rather than failing.
std::unique_ptr<FileDevice> MakeDirectDeviceOrSkip(const std::string& path) {
  FileDevice::Options opt;
  opt.capacity = kCapacity;
  opt.io_threads = 1;
  opt.direct_io = true;
  auto dev = FileDevice::Create(path, opt);
  if (!dev.ok()) return nullptr;
  return std::move(dev).value();
}

IoCompletion AwaitOne(BlockDevice* dev) {
  IoCompletion comp;
  while (dev->PollCompletions(&comp, 1) == 0) {
  }
  return comp;
}

TEST(FileDeviceDirect, RejectsUnalignedRequestsWithInvalidArgument) {
  const std::string path = ::testing::TempDir() + "/e2_direct_reject.bin";
  auto dev = MakeDirectDeviceOrSkip(path);
  if (dev == nullptr) GTEST_SKIP() << "filesystem does not support O_DIRECT";

  util::AlignedBuffer buf(2 * kSectorBytes, kSectorBytes);

  IoRequest req;
  req.buf = buf.data();

  // 8-byte read, smaller than a sector. Must be rejected at submission
  // with a clear error.
  req.offset = 0;
  req.length = 8;
  EXPECT_EQ(dev->SubmitRead(req).code(), StatusCode::kInvalidArgument);

  // Unaligned offset.
  req.offset = 24;
  req.length = kSectorBytes;
  EXPECT_EQ(dev->SubmitRead(req).code(), StatusCode::kInvalidArgument);

  // Unaligned destination buffer.
  req.offset = 0;
  req.buf = buf.data() + 8;
  EXPECT_EQ(dev->SubmitRead(req).code(), StatusCode::kInvalidArgument);

  // Fully aligned request sails through and completes OK.
  req.buf = buf.data();
  ASSERT_TRUE(dev->SubmitRead(req).ok());
  EXPECT_EQ(AwaitOne(dev.get()).code, StatusCode::kOk);

  // Unaligned direct writes are rejected the same way.
  EXPECT_EQ(dev->Write(8, buf.data(), kSectorBytes).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(dev->Write(0, buf.data(), 24).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(dev->Write(0, buf.data(), kSectorBytes).ok());

  dev.reset();
  std::remove(path.c_str());
}

TEST(FileDeviceDirect, CapacityBoundsDoNotWrapOnOverflow) {
  const std::string path = ::testing::TempDir() + "/e2_overflow_bounds.bin";
  FileDevice::Options opt;
  opt.capacity = kCapacity;
  opt.io_threads = 1;
  auto dev = FileDevice::Create(path, opt);
  ASSERT_TRUE(dev.ok());

  util::AlignedBuffer buf(kSectorBytes, kSectorBytes);
  IoRequest req;
  req.buf = buf.data();
  req.length = kSectorBytes;

  // A corrupt chain pointer near UINT64_MAX: offset + length wraps past
  // zero and used to pass the `> capacity_` bound.
  req.offset = std::numeric_limits<uint64_t>::max() - kSectorBytes + 1;
  EXPECT_EQ((*dev)->SubmitRead(req).code(), StatusCode::kOutOfRange);
  req.offset = std::numeric_limits<uint64_t>::max();
  req.length = 2;
  EXPECT_EQ((*dev)->SubmitRead(req).code(), StatusCode::kOutOfRange);

  // Length alone exceeding capacity is also out of range.
  req.offset = 0;
  req.length = static_cast<uint32_t>(kCapacity) + kSectorBytes;
  EXPECT_EQ((*dev)->SubmitRead(req).code(), StatusCode::kOutOfRange);

  // Same wrap on the write path.
  EXPECT_EQ((*dev)
                ->Write(std::numeric_limits<uint64_t>::max() - 4, buf.data(), 8)
                .code(),
            StatusCode::kOutOfRange);

  // In-bounds requests still work at the very end of the device.
  req.offset = kCapacity - kSectorBytes;
  req.length = kSectorBytes;
  ASSERT_TRUE((*dev)->SubmitRead(req).ok());
  EXPECT_EQ(AwaitOne(dev->get()).code, StatusCode::kOk);

  dev->reset();
  std::remove(path.c_str());
}

// The same wrap must be caught by the in-memory devices — they back the
// tests and benches, and a corrupt chain pointer would otherwise walk a
// wild memcpy instead of returning OutOfRange.
TEST(FileDeviceDirect, InMemoryDeviceBoundsDoNotWrapOnOverflow) {
  util::AlignedBuffer buf(kSectorBytes, kSectorBytes);
  IoRequest req;
  req.buf = buf.data();
  req.length = kSectorBytes;
  req.offset = std::numeric_limits<uint64_t>::max() - kSectorBytes + 1;

  auto mem = SimulatedDevice::Create(MemoryModel(kCapacity));
  ASSERT_TRUE(mem.ok());
  EXPECT_EQ((*mem)->SubmitRead(req).code(), StatusCode::kOutOfRange);
  EXPECT_EQ((*mem)->Write(req.offset, buf.data(), kSectorBytes).code(),
            StatusCode::kOutOfRange);

  DeviceModel model = GetDeviceModel(DeviceKind::kCssd);
  model.capacity_bytes = kCapacity;
  auto sim = SimulatedDevice::Create(model);
  ASSERT_TRUE(sim.ok());
  EXPECT_EQ((*sim)->SubmitRead(req).code(), StatusCode::kOutOfRange);
  EXPECT_EQ((*sim)->Write(req.offset, buf.data(), kSectorBytes).code(),
            StatusCode::kOutOfRange);
}

// An index laid out with blocks smaller than a sector is still served
// correctly by a direct device: the engine widens each bucket read to
// the aligned span containing the block (the same treatment a 512-byte
// block layout gets on a 4Kn drive) and answers must match the buffered
// run bit for bit.
TEST(FileDeviceDirect, ServesSubSectorBlockLayoutThroughDirectDevice) {
  data::GeneratorSpec spec;
  spec.kind = data::GeneratorKind::kUniform;
  spec.dim = 8;
  spec.seed = 3;
  auto gen = data::Generate("tinyblocks", 500, 8, spec);
  lsh::E2lshConfig cfg;
  cfg.s_factor = 1000.0;  // no truncation: answers must match exactly
  cfg.x_max = gen.base.XMax();
  auto params = lsh::ComputeParams(500, 8, cfg);
  ASSERT_TRUE(params.ok());

  const std::string image = ::testing::TempDir() + "/e2_tinyblock_image.bin";
  const std::string meta = ::testing::TempDir() + "/e2_tinyblock_meta.bin";
  std::vector<std::vector<util::Neighbor>> before;
  {
    FileDevice::Options opt;
    opt.capacity = 256ULL << 20;
    opt.io_threads = 1;
    auto dev = FileDevice::Create(image, opt);
    ASSERT_TRUE(dev.ok());
    core::BuildOptions bopt;
    bopt.block_bytes = 128;  // sub-sector: every block read needs widening
    auto idx = core::IndexBuilder::Build(gen.base, *params, dev->get(), bopt);
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    ASSERT_TRUE(core::SaveIndexMeta(**idx, meta).ok());

    core::QueryEngine engine(idx->get(), &gen.base);
    auto batch = engine.SearchBatch(gen.queries, 3);
    ASSERT_TRUE(batch.ok());
    before = batch->results;
  }
  {
    FileDevice::Options opt;
    opt.io_threads = 1;
    opt.direct_io = true;
    auto dev = FileDevice::Open(image, opt);
    if (!dev.ok()) GTEST_SKIP() << "filesystem does not support O_DIRECT";
    auto idx = core::LoadIndexMeta(meta, dev->get());
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();

    core::QueryEngine engine(idx->get(), &gen.base);
    auto batch = engine.SearchBatch(gen.queries, 3);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->results.size(), before.size());
    for (size_t q = 0; q < before.size(); ++q) {
      EXPECT_EQ(batch->stats[q].io_errors, 0u) << "query " << q;
      ASSERT_EQ(batch->results[q].size(), before[q].size()) << "query " << q;
      for (size_t i = 0; i < before[q].size(); ++i) {
        EXPECT_EQ(batch->results[q][i].id, before[q][i].id);
        EXPECT_FLOAT_EQ(batch->results[q][i].dist, before[q][i].dist);
      }
    }
  }
  std::remove(image.c_str());
  std::remove(meta.c_str());
}

// End-to-end regression for aligned engine reads: build an index on a
// buffered file device, then serve the identical byte image through an
// O_DIRECT reopen. An unaligned read would fail with EINVAL and queries
// would silently return empty answers.
TEST(FileDeviceDirect, ServesQueriesThroughODirectReopen) {
  data::GeneratorSpec spec;
  spec.kind = data::GeneratorKind::kClustered;
  spec.dim = 24;
  spec.num_clusters = 16;
  spec.cluster_std = 3.0 / std::sqrt(2.0 * 24);
  spec.center_spread = 10.0 * std::sqrt(6.0 / 24);
  spec.seed = 11;
  auto gen = data::Generate("direct", 3000, 25, spec);

  lsh::E2lshConfig cfg;
  cfg.rho = 0.25;
  cfg.s_factor = 1000.0;  // no truncation: answers must match exactly
  cfg.x_max = gen.base.XMax();
  auto params = lsh::ComputeParams(3000, 24, cfg);
  ASSERT_TRUE(params.ok());

  const std::string image = ::testing::TempDir() + "/e2_direct_image.bin";
  const std::string meta = ::testing::TempDir() + "/e2_direct_meta.bin";

  std::vector<std::vector<util::Neighbor>> before;
  {
    FileDevice::Options opt;
    opt.capacity = 2ULL << 30;
    opt.io_threads = 2;
    auto dev = FileDevice::Create(image, opt);
    ASSERT_TRUE(dev.ok());
    auto idx = core::IndexBuilder::Build(gen.base, *params, dev->get());
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();
    ASSERT_TRUE(core::SaveIndexMeta(**idx, meta).ok());

    core::QueryEngine engine(idx->get(), &gen.base);
    auto batch = engine.SearchBatch(gen.queries, 5);
    ASSERT_TRUE(batch.ok());
    before = batch->results;
  }

  {
    FileDevice::Options opt;
    opt.io_threads = 2;
    opt.direct_io = true;
    auto dev = FileDevice::Open(image, opt);
    if (!dev.ok()) GTEST_SKIP() << "filesystem does not support O_DIRECT";
    auto idx = core::LoadIndexMeta(meta, dev->get());
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();

    core::QueryEngine engine(idx->get(), &gen.base);
    auto batch = engine.SearchBatch(gen.queries, 5);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->results.size(), before.size());
    for (size_t q = 0; q < before.size(); ++q) {
      // No read may fail: a single EINVAL would show up here.
      EXPECT_EQ(batch->stats[q].io_errors, 0u) << "query " << q;
      ASSERT_EQ(batch->results[q].size(), before[q].size()) << "query " << q;
      for (size_t i = 0; i < before[q].size(); ++i) {
        EXPECT_EQ(batch->results[q][i].id, before[q][i].id);
        EXPECT_FLOAT_EQ(batch->results[q][i].dist, before[q][i].dist);
      }
    }
  }
  std::remove(image.c_str());
  std::remove(meta.c_str());
}

}  // namespace
}  // namespace e2lshos::storage
