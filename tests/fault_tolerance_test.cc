// End-to-end fault-tolerance tests for the storage -> core pipeline:
//
//  * `fault=` / `retry=` as first-class device-URI layers (parse,
//    canonical round-trip, OpenDeviceUri stacking order);
//  * block checksums plus the meta-file checksum (format v4): a
//    corrupted bucket block is detected and its candidates dropped
//    (never returned), corruption is visible in QueryStats
//    (corrupt_blocks / dropped_candidates / partial), a corrupted meta
//    file is refused, and persistence round-trips the head addressing;
//  * live inserts keep checksums valid, and refuse to re-stamp a
//    corrupt chain head;
//  * RetryDevice makes transient faults invisible: with retries enabled
//    and the same engine seed, results are bit-identical to a
//    fault-free run;
//  * sharded vs single engine report identical per-query corruption
//    accounting under the same deterministic fault seed, across
//    mem: / sim:cssd*4 / file: backends at shard counts 1 and 4.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/builder.h"
#include "core/live_updater.h"
#include "core/persistence.h"
#include "core/query_engine.h"
#include "core/sharded_engine.h"
#include "data/generators.h"
#include "storage/device_registry.h"
#include "storage/faulty_device.h"
#include "storage/simulated_device.h"
#include "storage/retry_device.h"

namespace e2lshos::core {
namespace {

struct Fixture {
  data::GeneratedData gen;
  lsh::E2lshParams params;
  std::unique_ptr<storage::SimulatedDevice> device;
  std::unique_ptr<StorageIndex> index;
};

Fixture MakeFixture(uint64_t n = 3000, uint32_t dim = 24,
                    bool checksums = true) {
  Fixture f;
  data::GeneratorSpec spec;
  spec.kind = data::GeneratorKind::kClustered;
  spec.dim = dim;
  spec.num_clusters = 16;
  spec.cluster_std = 3.0 / std::sqrt(2.0 * dim);
  spec.center_spread = 10.0 * std::sqrt(6.0 / dim);
  spec.seed = 31;
  f.gen = data::Generate("ftol", n, 40, spec);
  lsh::E2lshConfig cfg;
  cfg.rho = 0.25;
  cfg.s_factor = 1000.0;  // no draining: deterministic candidate sets
  cfg.x_max = f.gen.base.XMax();
  auto params = lsh::ComputeParams(n, dim, cfg);
  EXPECT_TRUE(params.ok());
  f.params = *params;
  auto dev = storage::SimulatedDevice::Create(storage::MemoryModel(2ULL << 30));
  EXPECT_TRUE(dev.ok());
  f.device = std::move(dev.value());
  BuildOptions opt;
  opt.checksums = checksums;
  auto idx = IndexBuilder::Build(f.gen.base, f.params, f.device.get(), opt);
  EXPECT_TRUE(idx.ok());
  f.index = std::move(idx.value());
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

// ---------------------------------------------------------------------------
// URI layer
// ---------------------------------------------------------------------------

TEST(FaultUri, ParseAndCanonicalRoundTrip) {
  auto uri = storage::ParseDeviceUri(
      "sim:cssd?fault=submit:0.01,complete:0.02,corrupt:0.03,stall:500,"
      "seed:42&retry=5,backoff:300,deadline:100000");
  ASSERT_TRUE(uri.ok());
  EXPECT_TRUE(uri->fault);
  EXPECT_DOUBLE_EQ(uri->fault_submit, 0.01);
  EXPECT_DOUBLE_EQ(uri->fault_complete, 0.02);
  EXPECT_DOUBLE_EQ(uri->fault_corrupt, 0.03);
  EXPECT_EQ(uri->fault_stall_usec, 500u);
  EXPECT_GT(uri->fault_stall_rate, 0.0);  // stallp default kicks in
  EXPECT_EQ(uri->fault_seed, 42u);
  EXPECT_EQ(uri->retry_attempts, 5u);
  EXPECT_EQ(uri->retry_backoff_usec, 300u);
  EXPECT_EQ(uri->retry_deadline_usec, 100000u);

  // Canonical form reparses to the same configuration.
  auto again = storage::ParseDeviceUri(uri->ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->ToString(), uri->ToString());
  EXPECT_DOUBLE_EQ(again->fault_corrupt, uri->fault_corrupt);
  EXPECT_EQ(again->retry_attempts, uri->retry_attempts);
}

TEST(FaultUri, RejectsMalformedSpecs) {
  for (const char* bad : {
           "mem:?fault=submit:2.0",       // probability out of range
           "mem:?fault=submit:-0.1",      // negative
           "mem:?fault=bogus:0.1",        // unknown sub-key
           "mem:?fault=submit",           // missing value
           "mem:?retry=0x3",              // not a number
       }) {
    EXPECT_FALSE(storage::ParseDeviceUri(bad).ok()) << bad;
  }
}

TEST(FaultUri, OpenStacksFaultInsideRetry) {
  auto dev = storage::OpenDeviceUri(
      "mem:?capacity=1048576&fault=corrupt:0.1&retry=3",
      storage::DeviceUriOpenOptions{});
  ASSERT_TRUE(dev.ok());
  // Layering is innermost-out: bare -> fault -> retry.
  const std::string name = (*dev)->name();
  const size_t faulty_pos = name.find("(faulty)");
  const size_t retry_pos = name.find("(retry)");
  ASSERT_NE(faulty_pos, std::string::npos) << name;
  ASSERT_NE(retry_pos, std::string::npos) << name;
  EXPECT_LT(faulty_pos, retry_pos) << name;
}

// ---------------------------------------------------------------------------
// Checksums (format v4)
// ---------------------------------------------------------------------------

TEST(Checksums, CleanIndexVerifiesEverywhere) {
  auto f = MakeFixture();
  ASSERT_TRUE(f.index->checksums_enabled());
  QueryEngine engine(f.index.get(), &f.gen.base);
  auto batch = engine.SearchBatch(f.gen.queries, 10);
  ASSERT_TRUE(batch.ok());
  for (uint64_t q = 0; q < f.gen.queries.n(); ++q) {
    EXPECT_EQ(batch->stats[q].corrupt_blocks, 0u) << "query " << q;
    EXPECT_EQ(batch->stats[q].dropped_candidates, 0u) << "query " << q;
    EXPECT_FALSE(batch->stats[q].partial) << "query " << q;
  }
}

TEST(Checksums, CorruptedBlockNeverReturnsCandidates) {
  // Flip one payload byte in EVERY bucket block: with checksums on, no
  // candidate can survive — every returned neighbor would have come
  // from a block whose CRC now fails.
  auto f = MakeFixture();
  const IndexLayout& layout = f.index->layout();
  const IndexSizes sizes = f.index->sizes();
  // Header bytes [kBlockCrcOffset+4, 16) are zero in every valid block
  // and covered by the CRC, so this write is a guaranteed corruption.
  const uint8_t junk = 0x5A;
  for (uint64_t addr = layout.bucket_base;
       addr < layout.bucket_base + sizes.bucket_bytes;
       addr += layout.block_bytes) {
    ASSERT_TRUE(f.device->Write(addr + kBlockCrcOffset + 4, &junk, 1).ok());
  }
  QueryEngine engine(f.index.get(), &f.gen.base);
  auto batch = engine.SearchBatch(f.gen.queries, 10);
  ASSERT_TRUE(batch.ok());
  uint64_t corrupt = 0, dropped = 0;
  for (uint64_t q = 0; q < f.gen.queries.n(); ++q) {
    EXPECT_TRUE(batch->results[q].empty()) << "query " << q;
    EXPECT_TRUE(batch->stats[q].partial) << "query " << q;
    corrupt += batch->stats[q].corrupt_blocks;
    dropped += batch->stats[q].dropped_candidates;
  }
  EXPECT_GT(corrupt, 0u);
  EXPECT_GT(dropped, 0u);
}

/// Index of the first occurrence of `pattern` in `data`, or SIZE_MAX.
size_t FindBytes(const std::vector<uint8_t>& data, const void* pattern,
                 size_t len) {
  const auto* p = static_cast<const uint8_t*>(pattern);
  const auto it = std::search(data.begin(), data.end(), p, p + len);
  return it == data.end() ? SIZE_MAX : static_cast<size_t>(it - data.begin());
}

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::vector<uint8_t> data;
  if (f == nullptr) return data;
  uint8_t buf[4096];
  size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.insert(data.end(), buf, buf + got);
  }
  std::fclose(f);
  return data;
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
  std::fclose(f);
}

TEST(Checksums, CorruptedMetaIsRejected) {
  // The bitmap addresses every chain head: one flipped bit would shift
  // every later head of its pair onto valid blocks of other buckets,
  // whose CRCs pass. The meta file's own CRC must refuse it, and a
  // corrupted pair base alike.
  auto f = MakeFixture(1500);
  const IndexLayout& layout = f.index->layout();
  const std::string path = ::testing::TempDir() + "ft_meta_corrupt_" +
                           std::to_string(::getpid()) + ".bin";
  ASSERT_TRUE(SaveIndexMeta(*f.index, path).ok());
  const std::vector<uint8_t> clean = ReadAll(path);

  // Locate the bitmap by its first four words and a pair base by value.
  uint64_t words[4] = {};
  for (uint32_t bit = 0; bit < 256; ++bit) {
    const uint32_t pair = static_cast<uint32_t>(bit / layout.slots_per_table());
    const uint32_t slot = static_cast<uint32_t>(bit % layout.slots_per_table());
    if (f.index->SlotNonEmpty(pair / layout.L, pair % layout.L, slot)) {
      words[bit / 64] |= uint64_t{1} << (bit % 64);
    }
  }
  const size_t bitmap_at = FindBytes(clean, words, sizeof(words));
  ASSERT_NE(bitmap_at, SIZE_MAX);
  const size_t base_at =
      FindBytes(clean, f.index->pair_bases().data(), 2 * sizeof(uint64_t));
  ASSERT_NE(base_at, SIZE_MAX);

  for (const size_t flip : {bitmap_at + 3, base_at + sizeof(uint64_t)}) {
    std::vector<uint8_t> bad = clean;
    bad[flip] ^= 0x10;
    WriteAll(path, bad);
    auto loaded = LoadIndexMeta(path, f.device.get());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "byte " << flip;
  }
  WriteAll(path, clean);
  EXPECT_TRUE(LoadIndexMeta(path, f.device.get()).ok());
  std::remove(path.c_str());
}

TEST(Checksums, DisabledBuildSkipsVerification) {
  auto f = MakeFixture(1500, 24, /*checksums=*/false);
  EXPECT_FALSE(f.index->checksums_enabled());
  QueryEngine engine(f.index.get(), &f.gen.base);
  auto batch = engine.SearchBatch(f.gen.queries, 5);
  ASSERT_TRUE(batch.ok());
}

TEST(Checksums, PersistenceRoundTripsHeadAddressing) {
  auto f = MakeFixture(1500);
  // A far-away row lands in buckets that were empty at build time, so
  // the born-live map is populated too.
  data::Dataset& base = f.gen.base;
  std::vector<float> far(base.dim(), 1000.0f);
  base.Append(far.data());
  LiveUpdater live(f.index.get());
  ASSERT_TRUE(live.Insert(far.data()).ok());
  ASSERT_TRUE(live.Flush().ok());
  ASSERT_FALSE(f.index->born_live().empty());

  const std::string path = ::testing::TempDir() + "ft_meta_" +
                           std::to_string(::getpid()) + ".bin";
  ASSERT_TRUE(SaveIndexMeta(*f.index, path).ok());
  auto loaded = LoadIndexMeta(path, f.device.get());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE((*loaded)->checksums_enabled());
  EXPECT_EQ((*loaded)->pair_bases(), f.index->pair_bases());
  ASSERT_EQ((*loaded)->born_live().size(), f.index->born_live().size());
  for (size_t i = 0; i < f.index->born_live().size(); ++i) {
    EXPECT_EQ((*loaded)->born_live()[i].key, f.index->born_live()[i].key);
    EXPECT_EQ((*loaded)->born_live()[i].addr, f.index->born_live()[i].addr);
  }

  QueryEngine before(f.index.get(), &base);
  QueryEngine after(loaded->get(), &base);
  auto want = before.SearchBatch(f.gen.queries, 10);
  auto got = after.SearchBatch(f.gen.queries, 10);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  ExpectBatchesEqual(*got, *want);
  auto hit = after.Search(far.data(), 1);
  ASSERT_TRUE(hit.ok());
  ASSERT_FALSE(hit->empty());
  EXPECT_EQ((*hit)[0].id, base.n() - 1);
  EXPECT_EQ((*hit)[0].dist, 0.f);
  std::remove(path.c_str());
}

TEST(Checksums, PersistenceRoundTripsChecksumlessIndex) {
  auto f = MakeFixture(1500, 24, /*checksums=*/false);
  const std::string path = ::testing::TempDir() + "ft_meta_v2ish_" +
                           std::to_string(::getpid()) + ".bin";
  ASSERT_TRUE(SaveIndexMeta(*f.index, path).ok());
  auto loaded = LoadIndexMeta(path, f.device.get());
  ASSERT_TRUE(loaded.ok());
  EXPECT_FALSE((*loaded)->checksums_enabled());
  std::remove(path.c_str());
}

TEST(Checksums, UpdaterMaintainsChecksumsAcrossInserts) {
  auto f = MakeFixture(2000);
  // Insert 200 fresh objects (perturbed copies of existing rows): every
  // written or copied block is stamped, so a full-verification query
  // stays clean, through the overlay and after Flush.
  const data::Dataset& base = f.gen.base;
  LiveUpdater live(f.index.get());
  std::vector<float> row(base.dim());
  for (uint32_t i = 0; i < 200; ++i) {
    const float* src = base.Row(i % 2000);
    for (uint32_t d = 0; d < base.dim(); ++d) row[d] = src[d] + 0.25f;
    ASSERT_TRUE(live.Insert(row.data()).ok()) << "insert " << i;
  }
  QueryEngine engine(f.index.get(), &base);
  auto expect_clean = [&](const char* phase) {
    auto batch = engine.SearchBatch(f.gen.queries, 10);
    ASSERT_TRUE(batch.ok());
    for (uint64_t q = 0; q < f.gen.queries.n(); ++q) {
      EXPECT_EQ(batch->stats[q].corrupt_blocks, 0u) << phase << " query " << q;
      EXPECT_FALSE(batch->stats[q].partial) << phase << " query " << q;
    }
  };
  ASSERT_NO_FATAL_FAILURE(expect_clean("before Flush"));
  ASSERT_TRUE(live.Flush().ok());
  ASSERT_NO_FATAL_FAILURE(expect_clean("after Flush"));
}

TEST(Checksums, InsertRefusesCorruptHeadAndWritesNothing) {
  // Appending to a head block re-stamps its CRC. A head whose bytes
  // were flipped on the device must fail the insert, not come out of it
  // validly stamped with the flipped byte kept.
  auto f = MakeFixture(1500);
  const IndexLayout& layout = f.index->layout();
  const float* row = f.gen.base.Row(7);
  std::vector<uint8_t> block(layout.block_bytes);
  uint64_t head = 0;
  for (uint32_t l = 0; l < layout.L && head == 0; ++l) {
    const uint32_t h = f.index->family().Get(0, l).Hash32(row);
    const uint64_t addr = f.index->ChainHead(0, l, layout.fp.TableIndex(h));
    ASSERT_TRUE(f.device->ReadSync(addr, block.data(), block.size()).ok());
    if (BlockHeader::DecodeFrom(block.data()).count < layout.objects_per_block()) {
      head = addr;
    }
  }
  ASSERT_NE(head, 0u) << "no radius-0 head of row 7 has room";
  const uint8_t flipped = block[kBlockHeaderBytes] ^ 0x01;
  ASSERT_TRUE(f.device->Write(head + kBlockHeaderBytes, &flipped, 1).ok());
  QueryEngine engine(f.index.get(), &f.gen.base);
  QueryStats before;
  ASSERT_TRUE(engine.Search(row, 1, &before).ok());
  ASSERT_GT(before.corrupt_blocks, 0u);

  LiveUpdater live(f.index.get());
  const uint64_t written = f.device->stats().bytes_written;
  const auto id = live.Insert(row);
  EXPECT_EQ(id.status().code(), StatusCode::kIoError);
  EXPECT_NE(id.status().message().find(std::to_string(head)), std::string::npos)
      << id.status().ToString();
  EXPECT_EQ(f.device->stats().bytes_written, written);
  EXPECT_EQ(live.n(), f.index->n());
  EXPECT_EQ(live.epoch_seq(), 0u);
  QueryStats after;
  ASSERT_TRUE(engine.Search(row, 1, &after).ok());
  EXPECT_EQ(after.corrupt_blocks, before.corrupt_blocks);
}

// ---------------------------------------------------------------------------
// Retry invisibility
// ---------------------------------------------------------------------------

TEST(RetryInvisibility, RetriedTransientFaultsDoNotChangeResults) {
  auto f = MakeFixture();
  QueryEngine clean(f.index.get(), &f.gen.base);
  auto want = clean.SearchBatch(f.gen.queries, 10);
  ASSERT_TRUE(want.ok());

  storage::FaultyDevice::Options fopt;
  fopt.submit_fail_rate = 0.05;
  fopt.completion_fail_rate = 0.05;
  fopt.seed = 77;
  storage::FaultyDevice faulty(f.device.get(), fopt);
  storage::RetryDevice::Options ropt;
  ropt.max_attempts = 8;  // P(8 consecutive transient failures) ~ 0
  ropt.backoff_usec = 50;
  storage::RetryDevice retry(&faulty, ropt);

  auto view = f.index->WithDevice(&retry);
  QueryEngine engine(view.get(), &f.gen.base);
  auto got = engine.SearchBatch(f.gen.queries, 10);
  ASSERT_TRUE(got.ok());

  // Faults were injected and absorbed; no query saw an I/O error.
  EXPECT_GT(faulty.injected_submit_failures() +
                faulty.injected_completion_failures(),
            0u);
  EXPECT_GT(retry.retries(), 0u);
  EXPECT_EQ(retry.retries_exhausted(), 0u);
  for (uint64_t q = 0; q < f.gen.queries.n(); ++q) {
    EXPECT_EQ(got->stats[q].io_errors, 0u) << "query " << q;
    EXPECT_FALSE(got->stats[q].partial) << "query " << q;
  }
  // Bit-identical to the fault-free run.
  ExpectBatchesEqual(*got, *want);

  // The retry counters surface through DeviceStats for the daemon.
  const storage::DeviceStats stats = retry.stats();
  EXPECT_EQ(stats.retries, retry.retries());
  EXPECT_GT(stats.faults_injected, 0u);
}

// ---------------------------------------------------------------------------
// Sharded vs single corruption accounting (deterministic fault seed)
// ---------------------------------------------------------------------------

TEST(ShardedFaultParity, IdenticalAccountingAcrossBackendsAndShards) {
  data::GeneratorSpec spec;
  spec.kind = data::GeneratorKind::kClustered;
  spec.dim = 16;
  spec.num_clusters = 8;
  spec.cluster_std = 3.0 / std::sqrt(32.0);
  spec.center_spread = 10.0 * std::sqrt(6.0 / 16.0);
  spec.seed = 5;
  auto gen = data::Generate("ftol_shard", 2000, 24, spec);
  lsh::E2lshConfig cfg;
  cfg.rho = 0.25;
  cfg.s_factor = 1000.0;
  cfg.x_max = gen.base.XMax();
  auto params = lsh::ComputeParams(gen.base.n(), gen.base.dim(), cfg);
  ASSERT_TRUE(params.ok());

  const std::string file_path = ::testing::TempDir() + "ft_parity_" +
                                std::to_string(::getpid()) + ".img";
  const std::vector<std::string> uris = {
      "mem:?capacity=268435456",
      "sim:cssd*4",
      "file:" + file_path + "?capacity=268435456",
  };
  storage::DeviceUriOpenOptions open_opt;
  open_opt.create = true;  // file: backend: create the backing image
  // Cap sim: children below their multi-TB nameplate — sanitizer runs
  // cannot map that much even sparsely.
  open_opt.capacity = 256ULL << 20;
  for (const std::string& uri : uris) {
    auto dev = storage::OpenDeviceUri(uri, open_opt);
    ASSERT_TRUE(dev.ok()) << uri;
    auto idx = IndexBuilder::Build(gen.base, *params, dev->get());
    ASSERT_TRUE(idx.ok()) << uri;

    // Corruption is a pure function of (seed, offset): every engine
    // shape over the same device image must report the same per-query
    // corruption accounting.
    storage::FaultyDevice::Options fopt;
    fopt.corrupt_rate = 0.25;
    fopt.seed = 99;
    storage::FaultyDevice faulty(dev->get(), fopt);
    auto view = (*idx)->WithDevice(&faulty);

    QueryEngine single(view.get(), &gen.base);
    auto ref = single.SearchBatch(gen.queries, 10);
    ASSERT_TRUE(ref.ok()) << uri;
    uint64_t ref_corrupt = 0;
    for (uint64_t q = 0; q < gen.queries.n(); ++q) {
      ref_corrupt += ref->stats[q].corrupt_blocks;
    }
    EXPECT_GT(ref_corrupt, 0u) << uri;  // the fault plane actually fired

    for (const uint32_t shards : {1u, 4u}) {
      ShardOptions sopt;
      sopt.num_shards = shards;
      ShardedQueryEngine engine(view.get(), &gen.base, sopt);
      auto got = engine.SearchBatch(gen.queries, 10);
      ASSERT_TRUE(got.ok()) << uri << " shards=" << shards;
      for (uint64_t q = 0; q < gen.queries.n(); ++q) {
        EXPECT_EQ(got->stats[q].corrupt_blocks, ref->stats[q].corrupt_blocks)
            << uri << " shards=" << shards << " query " << q;
        EXPECT_EQ(got->stats[q].dropped_candidates,
                  ref->stats[q].dropped_candidates)
            << uri << " shards=" << shards << " query " << q;
        EXPECT_EQ(got->stats[q].partial, ref->stats[q].partial)
            << uri << " shards=" << shards << " query " << q;
      }
      ExpectBatchesEqual(*got, *ref);
    }
  }
  std::remove(file_path.c_str());
}

}  // namespace
}  // namespace e2lshos::core
