// Tests for index persistence: build an index on a real file, save the
// metadata, reopen everything in a "new process" (fresh objects), and
// verify queries produce identical answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>

#include "core/builder.h"
#include "core/persistence.h"
#include "core/query_engine.h"
#include "data/generators.h"
#include "storage/file_device.h"
#include "storage/simulated_device.h"
#include "util/crc32c.h"

namespace e2lshos::core {
namespace {

struct TestData {
  data::GeneratedData gen;
  lsh::E2lshParams params;
};

TestData MakeData(uint64_t n = 3000, uint32_t dim = 24) {
  TestData t;
  data::GeneratorSpec spec;
  spec.kind = data::GeneratorKind::kClustered;
  spec.dim = dim;
  spec.num_clusters = 16;
  spec.cluster_std = 3.0 / std::sqrt(2.0 * dim);
  spec.center_spread = 10.0 * std::sqrt(6.0 / dim);
  spec.seed = 9;
  t.gen = data::Generate("persist", n, 25, spec);
  lsh::E2lshConfig cfg;
  cfg.rho = 0.25;
  cfg.s_factor = 1000.0;  // no truncation: answers must match exactly
  cfg.x_max = t.gen.base.XMax();
  auto params = lsh::ComputeParams(n, dim, cfg);
  EXPECT_TRUE(params.ok());
  t.params = *params;
  return t;
}

TEST(Persistence, SaveLoadRoundTripsMetadata) {
  auto t = MakeData();
  auto dev = storage::SimulatedDevice::Create(storage::MemoryModel(2ULL << 30));
  ASSERT_TRUE(dev.ok());
  auto idx = IndexBuilder::Build(t.gen.base, t.params, dev->get());
  ASSERT_TRUE(idx.ok());

  const std::string meta = ::testing::TempDir() + "/e2_meta_roundtrip.bin";
  ASSERT_TRUE(SaveIndexMeta(**idx, meta).ok());
  auto loaded = LoadIndexMeta(meta, dev->get());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ((*loaded)->n(), (*idx)->n());
  EXPECT_EQ((*loaded)->dim(), (*idx)->dim());
  EXPECT_EQ((*loaded)->layout().L, (*idx)->layout().L);
  EXPECT_EQ((*loaded)->layout().fp.u, (*idx)->layout().fp.u);
  EXPECT_EQ((*loaded)->params().S, (*idx)->params().S);
  EXPECT_EQ((*loaded)->params().radii.size(), (*idx)->params().radii.size());
  EXPECT_EQ((*loaded)->sizes().storage_bytes, (*idx)->sizes().storage_bytes);
  std::remove(meta.c_str());
}

TEST(Persistence, ReopenedFileIndexAnswersIdentically) {
  auto t = MakeData();
  const std::string image = ::testing::TempDir() + "/e2_persist_image.bin";
  const std::string meta = ::testing::TempDir() + "/e2_persist_meta.bin";

  std::vector<std::vector<util::Neighbor>> before;
  {
    storage::FileDevice::Options opt;
    opt.capacity = 2ULL << 30;
    opt.io_threads = 2;
    auto dev = storage::FileDevice::Create(image, opt);
    ASSERT_TRUE(dev.ok());
    auto idx = IndexBuilder::Build(t.gen.base, t.params, dev->get());
    ASSERT_TRUE(idx.ok());
    ASSERT_TRUE(SaveIndexMeta(**idx, meta).ok());

    QueryEngine engine(idx->get(), &t.gen.base);
    auto batch = engine.SearchBatch(t.gen.queries, 5);
    ASSERT_TRUE(batch.ok());
    before = batch->results;
  }  // device and index destroyed: "process exit"

  {
    storage::FileDevice::Options opt;
    opt.io_threads = 2;
    auto dev = storage::FileDevice::Open(image, opt);
    ASSERT_TRUE(dev.ok()) << dev.status().ToString();
    auto idx = LoadIndexMeta(meta, dev->get());
    ASSERT_TRUE(idx.ok()) << idx.status().ToString();

    QueryEngine engine(idx->get(), &t.gen.base);
    auto batch = engine.SearchBatch(t.gen.queries, 5);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->results.size(), before.size());
    for (size_t q = 0; q < before.size(); ++q) {
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

TEST(Persistence, RejectsCorruptMagic) {
  const std::string path = ::testing::TempDir() + "/e2_bad_magic.bin";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("NOTANIDX-GARBAGE", f);
  std::fclose(f);
  auto dev = storage::SimulatedDevice::Create(storage::MemoryModel(1 << 20));
  ASSERT_TRUE(dev.ok());
  EXPECT_EQ(LoadIndexMeta(path, dev->get()).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Persistence, RefusesPreV4ImagesByName) {
  // A v3 header as the previous format wrote it: magic, then n and dim.
  // Its image carries an on-storage hash table that format v4 no longer
  // reads, so the file is refused with a pointer to a rebuild rather
  // than served through a second read path.
  const std::string path = ::testing::TempDir() + "/e2_v3_meta.bin";
  auto dev = storage::SimulatedDevice::Create(storage::MemoryModel(1 << 20));
  ASSERT_TRUE(dev.ok());
  for (const char* magic : {"E2OSIDX3", "E2OSIDX2"}) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const uint64_t n = 3000;
    const uint32_t dim = 24;
    std::fwrite(magic, 1, 8, f);
    std::fwrite(&n, sizeof(n), 1, f);
    std::fwrite(&dim, sizeof(dim), 1, f);
    std::fclose(f);
    const Status st = LoadIndexMeta(path, dev->get()).status();
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << magic;
    EXPECT_NE(st.message().find("format v4"), std::string::npos) << st.ToString();
    EXPECT_NE(st.message().find("rebuild"), std::string::npos) << st.ToString();
  }
  std::remove(path.c_str());
}

TEST(Persistence, RejectsMissingFileAndNullDevice) {
  auto dev = storage::SimulatedDevice::Create(storage::MemoryModel(1 << 20));
  ASSERT_TRUE(dev.ok());
  EXPECT_EQ(LoadIndexMeta("/nonexistent/meta.bin", dev->get()).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(LoadIndexMeta("/tmp/whatever.bin", nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Persistence, RejectsTooSmallDevice) {
  auto t = MakeData();
  auto dev = storage::SimulatedDevice::Create(storage::MemoryModel(2ULL << 30));
  ASSERT_TRUE(dev.ok());
  auto idx = IndexBuilder::Build(t.gen.base, t.params, dev->get());
  ASSERT_TRUE(idx.ok());
  const std::string meta = ::testing::TempDir() + "/e2_meta_small.bin";
  ASSERT_TRUE(SaveIndexMeta(**idx, meta).ok());
  auto tiny = storage::SimulatedDevice::Create(storage::MemoryModel(1 << 16));
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(LoadIndexMeta(meta, tiny->get()).status().code(),
            StatusCode::kOutOfRange);
  std::remove(meta.c_str());
}

TEST(Persistence, TruncatedFileRejected) {
  auto t = MakeData(800);
  auto dev = storage::SimulatedDevice::Create(storage::MemoryModel(2ULL << 30));
  ASSERT_TRUE(dev.ok());
  auto idx = IndexBuilder::Build(t.gen.base, t.params, dev->get());
  ASSERT_TRUE(idx.ok());
  const std::string meta = ::testing::TempDir() + "/e2_meta_trunc.bin";
  ASSERT_TRUE(SaveIndexMeta(**idx, meta).ok());
  // Truncate the tail off.
  ::truncate(meta.c_str(), 64);
  EXPECT_FALSE(LoadIndexMeta(meta, dev->get()).ok());
  std::remove(meta.c_str());
}

TEST(Persistence, RejectsAllocationCursorInsideImage) {
  // The builder and LiveUpdater::Flush leave the allocation cursor at the
  // image's end. A cursor inside the image would hand built blocks to
  // later inserts, so it is refused even under a valid file checksum.
  auto t = MakeData(800);
  auto dev = storage::SimulatedDevice::Create(storage::MemoryModel(2ULL << 30));
  ASSERT_TRUE(dev.ok());
  auto idx = IndexBuilder::Build(t.gen.base, t.params, dev->get());
  ASSERT_TRUE(idx.ok());
  const std::string meta = ::testing::TempDir() + "/e2_meta_cursor.bin";
  ASSERT_TRUE(SaveIndexMeta(**idx, meta).ok());
  std::vector<uint8_t> file;
  {
    std::ifstream in(meta, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in), {});
  }

  // The cursor is followed by the (empty) tombstone count, the checksum
  // flag and the first pair base.
  const IndexLayout& layout = (*idx)->layout();
  const uint64_t cursor =
      ((*idx)->sizes().storage_bytes - layout.bucket_base) / layout.block_bytes;
  const uint64_t no_tombstones = 0;
  const uint8_t checksums = 1;
  std::vector<uint8_t> pattern(25);
  std::memcpy(pattern.data(), &cursor, 8);
  std::memcpy(pattern.data() + 8, &no_tombstones, 8);
  std::memcpy(pattern.data() + 16, &checksums, 1);
  std::memcpy(pattern.data() + 17, (*idx)->pair_bases().data(), 8);
  const auto at = std::search(file.begin(), file.end(), pattern.begin(),
                              pattern.end());
  ASSERT_NE(at, file.end());

  const uint64_t lowered = cursor / 2;
  std::memcpy(&*at, &lowered, 8);
  const size_t body = file.size() - sizeof(uint32_t);
  const uint32_t crc = util::Crc32c(file.data(), body);
  std::memcpy(file.data() + body, &crc, sizeof(crc));
  std::ofstream(meta, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(file.data()),
             static_cast<std::streamsize>(file.size()));
  const Status st = LoadIndexMeta(meta, dev->get()).status();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("allocation cursor"), std::string::npos)
      << st.ToString();
  std::remove(meta.c_str());
}

TEST(Persistence, LoadRecomputesTheDramFigure) {
  // The recorded dram_index_bytes is whatever the writing build counted;
  // a loaded index reports what its own structures hold.
  auto t = MakeData(800);
  auto dev = storage::SimulatedDevice::Create(storage::MemoryModel(2ULL << 30));
  ASSERT_TRUE(dev.ok());
  auto idx = IndexBuilder::Build(t.gen.base, t.params, dev->get());
  ASSERT_TRUE(idx.ok());
  const IndexSizes built = (*idx)->sizes();
  const std::string meta = ::testing::TempDir() + "/e2_meta_dram.bin";
  ASSERT_TRUE(SaveIndexMeta(**idx, meta).ok());
  std::vector<uint8_t> file;
  {
    std::ifstream in(meta, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in), {});
  }

  const auto* raw = reinterpret_cast<const uint8_t*>(&built);
  const auto at = std::search(file.begin(), file.end(), raw, raw + sizeof(built));
  ASSERT_NE(at, file.end());
  IndexSizes recorded = built;
  recorded.dram_index_bytes += 14592;  // another build's accounting
  std::memcpy(&*at, &recorded, sizeof(recorded));
  const size_t body = file.size() - sizeof(uint32_t);
  const uint32_t crc = util::Crc32c(file.data(), body);
  std::memcpy(file.data() + body, &crc, sizeof(crc));
  std::ofstream(meta, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(file.data()),
             static_cast<std::streamsize>(file.size()));

  auto loaded = LoadIndexMeta(meta, dev->get());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->sizes().dram_index_bytes, built.dram_index_bytes);
  EXPECT_EQ((*loaded)->sizes().storage_bytes, built.storage_bytes);
  std::remove(meta.c_str());
}

}  // namespace
}  // namespace e2lshos::core
