// Tests for E2LSHoS: on-storage layout codecs, index construction
// invariants, and the asynchronous query engine — including equivalence
// with in-memory E2LSH under identical hash functions.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "core/builder.h"
#include "core/layout.h"
#include "core/query_engine.h"
#include "data/generators.h"
#include "data/ground_truth.h"
#include "e2lsh/in_memory.h"
#include "storage/device_registry.h"
#include "storage/interface_model.h"
#include "storage/simulated_device.h"
#include "storage/striped_device.h"
#include "util/rng.h"

namespace e2lshos::core {
namespace {

TEST(Layout, ObjectsPerBlockMatchesPaper) {
  EXPECT_EQ(ObjectsPerBlock(512), 99u);   // (512 - 16) / 5, paper Sec. 5.1
  EXPECT_EQ(ObjectsPerBlock(128), 22u);
  EXPECT_EQ(ObjectsPerBlock(4096), 816u);
}

TEST(Layout, BlockHeaderRoundTrips) {
  uint8_t block[512] = {};
  BlockHeader h;
  h.next = 0x123456789abcULL;
  h.count = 77;
  h.EncodeTo(block);
  const BlockHeader d = BlockHeader::DecodeFrom(block);
  EXPECT_EQ(d.next, h.next);
  EXPECT_EQ(d.count, h.count);
  // Padding bytes are zeroed (reserved for debug, paper Sec. 5.1).
  for (int i = 10; i < 16; ++i) EXPECT_EQ(block[i], 0);
}

TEST(Layout, ObjectInfoCodecRoundTrips) {
  const lsh::FingerprintScheme fp{14};
  auto codec = ObjectInfoCodec::Make(1 << 16, fp);
  ASSERT_TRUE(codec.ok());
  EXPECT_EQ(codec->id_bits, 17u);  // ceil(log2 n) + 1 headroom bit
  EXPECT_EQ(codec->fp_bits, 18u);
  uint8_t buf[5];
  codec->Write(buf, 54321, 0x2ffff);
  const uint64_t v = codec->Read(buf);
  EXPECT_EQ(codec->DecodeId(v), 54321u);
  EXPECT_EQ(codec->DecodeFingerprint(v), 0x2ffffu);
}

TEST(Layout, ObjectInfoRejectsOverflow) {
  // 32 id bits + 24 fp bits > 40 bits must be rejected.
  const lsh::FingerprintScheme fp{8};
  EXPECT_FALSE(ObjectInfoCodec::Make(1ULL << 32, fp).ok());
}

TEST(Layout, HeadAddressingIsDisjoint) {
  // Every set bit of a (seeded random) bitmap maps to its own head block
  // inside its pair's head region — including the slots at word and
  // rank-directory boundaries and the last slot of each table.
  util::Rng rng(2024);
  for (const uint32_t u : {4u, 6u, 9u, 12u}) {
    IndexLayout layout;
    layout.num_radii = 3;
    layout.L = 4;
    layout.fp = {u};
    layout.bucket_base = layout.block_bytes;
    const uint64_t slots = layout.slots_per_table();
    std::vector<uint64_t> words((layout.num_pairs() * slots + 63) / 64, 0);
    std::vector<uint64_t> heads(layout.num_pairs(), 0);
    for (uint64_t p = 0; p < layout.num_pairs(); ++p) {
      for (uint64_t s = 0; s < slots; ++s) {
        const bool forced = s == 0 || s == 63 || s == 64 || s == 511 ||
                            s == 512 || s == slots - 1;
        if (forced || rng.NextU64Below(3) == 0) {
          const uint64_t bit = p * slots + s;
          words[bit >> 6] |= uint64_t{1} << (bit & 63);
          ++heads[p];
        }
      }
    }
    const SlotBitmap bitmap(words);
    // Pair regions as the builder lays them out: heads, then overflow.
    std::vector<uint64_t> bases(layout.num_pairs());
    uint64_t next = layout.bucket_base;
    for (uint64_t p = 0; p < layout.num_pairs(); ++p) {
      bases[p] = next;
      next += (heads[p] + rng.NextU64Below(5)) * layout.block_bytes;
    }
    std::set<uint64_t> addrs;
    for (uint64_t p = 0; p < layout.num_pairs(); ++p) {
      for (uint64_t s = 0; s < slots; ++s) {
        const uint64_t bit = p * slots + s;
        if (!bitmap.Test(bit)) continue;
        const uint64_t a = layout.HeadAddr(bitmap, bases[p], bit);
        EXPECT_NE(a, 0u);
        EXPECT_EQ((a - layout.bucket_base) % layout.block_bytes, 0u);
        EXPECT_GE(a, bases[p]) << "u=" << u << " pair " << p << " slot " << s;
        EXPECT_LT(a, bases[p] + heads[p] * layout.block_bytes)
            << "u=" << u << " pair " << p << " slot " << s;
        EXPECT_TRUE(addrs.insert(a).second) << "u=" << u << " slot " << s;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Builder + engine fixtures.

struct Fixture {
  data::GeneratedData gen;
  lsh::E2lshParams params;
  std::unique_ptr<storage::SimulatedDevice> device;
  std::unique_ptr<StorageIndex> index;
};

Fixture MakeFixture(uint64_t n = 4000, uint32_t dim = 24, double s_factor = 4.0,
                    uint64_t seed = 1, uint32_t block_bytes = 512) {
  Fixture f;
  data::GeneratorSpec spec;
  spec.kind = data::GeneratorKind::kClustered;
  spec.dim = dim;
  spec.num_clusters = 16;
  spec.cluster_std = 3.0 / std::sqrt(2.0 * dim);
  spec.center_spread = 10.0 * std::sqrt(6.0 / dim);
  spec.seed = seed;
  f.gen = data::Generate("fixture", n, 40, spec);

  lsh::E2lshConfig cfg;
  cfg.rho = 0.25;
  cfg.s_factor = s_factor;
  cfg.x_max = f.gen.base.XMax();
  auto params = lsh::ComputeParams(n, dim, cfg);
  EXPECT_TRUE(params.ok());
  f.params = *params;

  auto dev = storage::SimulatedDevice::Create(storage::MemoryModel(2ULL << 30));
  EXPECT_TRUE(dev.ok());
  f.device = std::move(dev.value());

  BuildOptions opt;
  opt.block_bytes = block_bytes;
  auto idx = IndexBuilder::Build(f.gen.base, f.params, f.device.get(), opt);
  EXPECT_TRUE(idx.ok()) << idx.status().ToString();
  f.index = std::move(idx.value());
  return f;
}

TEST(Builder, RejectsBadInputs) {
  auto f = MakeFixture(500);
  data::Dataset empty("e", 24);
  EXPECT_FALSE(IndexBuilder::Build(empty, f.params, f.device.get()).ok());
  EXPECT_FALSE(IndexBuilder::Build(f.gen.base, f.params, nullptr).ok());
  BuildOptions bad;
  bad.block_bytes = 8;  // smaller than header + one entry
  EXPECT_FALSE(IndexBuilder::Build(f.gen.base, f.params, f.device.get(), bad).ok());
}

TEST(Builder, FailsWhenDeviceTooSmall) {
  auto f = MakeFixture(2000);
  auto tiny = storage::SimulatedDevice::Create(storage::MemoryModel(1 << 20));
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(IndexBuilder::Build(f.gen.base, f.params, tiny->get()).status().code(),
            StatusCode::kOutOfRange);
}

TEST(Builder, SizesAccounting) {
  auto f = MakeFixture();
  const IndexSizes sizes = f.index->sizes();
  // Every object lands in L buckets per radius.
  EXPECT_EQ(sizes.total_entries,
            f.gen.base.n() * f.params.L * f.params.num_radii());
  EXPECT_EQ(sizes.storage_bytes,
            f.index->layout().bucket_base + sizes.bucket_bytes);
  EXPECT_GT(sizes.bucket_bytes, 0u);
  // The DRAM-resident part is much smaller than the storage part
  // (Table 6's central claim).
  EXPECT_LT(sizes.dram_index_bytes, sizes.storage_bytes / 4);
}

// Walk all chains on the device and verify every (radius, l) pair stores
// each object exactly once, with the correct fingerprint.
TEST(Builder, ChainsContainEveryObjectOncePerPair) {
  auto f = MakeFixture(1500);
  const IndexLayout& layout = f.index->layout();
  auto codec = ObjectInfoCodec::Make(f.gen.base.n(), layout.fp);
  ASSERT_TRUE(codec.ok());

  for (uint32_t r = 0; r < layout.num_radii; ++r) {
    for (uint32_t l = 0; l < layout.L; ++l) {
      std::map<uint32_t, int> seen;
      for (uint32_t slot = 0; slot < layout.slots_per_table(); ++slot) {
        uint64_t addr = f.index->ChainHead(r, l, slot);
        ASSERT_EQ(addr != 0, f.index->SlotNonEmpty(r, l, slot))
            << "bitmap/chain head disagree at r=" << r << " l=" << l;
        std::vector<uint8_t> block(layout.block_bytes);
        while (addr != 0) {
          ASSERT_TRUE(
              f.device->ReadSync(addr, block.data(), layout.block_bytes).ok());
          const BlockHeader hdr = BlockHeader::DecodeFrom(block.data());
          ASSERT_LE(hdr.count, layout.objects_per_block());
          for (uint16_t e = 0; e < hdr.count; ++e) {
            const uint64_t v =
                codec->Read(block.data() + kBlockHeaderBytes + e * kObjectInfoBytes);
            seen[codec->DecodeId(v)]++;
          }
          addr = hdr.next;
        }
      }
      ASSERT_EQ(seen.size(), f.gen.base.n()) << "r=" << r << " l=" << l;
      for (const auto& [id, count] : seen) EXPECT_EQ(count, 1) << "id " << id;
    }
  }
}

TEST(Builder, FingerprintsMatchHashes) {
  auto f = MakeFixture(800);
  const IndexLayout& layout = f.index->layout();
  auto codec = ObjectInfoCodec::Make(f.gen.base.n(), layout.fp);
  ASSERT_TRUE(codec.ok());
  // Follow object 0's bucket at (radius 0, l 0) and check its fingerprint.
  const uint32_t h = f.index->family().Get(0, 0).Hash32(f.gen.base.Row(0));
  const uint32_t slot = layout.fp.TableIndex(h);
  uint64_t addr = f.index->ChainHead(0, 0, slot);
  ASSERT_NE(addr, 0u);
  bool found = false;
  std::vector<uint8_t> block(layout.block_bytes);
  while (addr != 0 && !found) {
    ASSERT_TRUE(f.device->ReadSync(addr, block.data(), layout.block_bytes).ok());
    const BlockHeader hdr = BlockHeader::DecodeFrom(block.data());
    for (uint16_t e = 0; e < hdr.count; ++e) {
      const uint64_t v =
          codec->Read(block.data() + kBlockHeaderBytes + e * kObjectInfoBytes);
      if (codec->DecodeId(v) == 0) {
        EXPECT_EQ(codec->DecodeFingerprint(v), layout.fp.Fingerprint(h));
        found = true;
      }
    }
    addr = hdr.next;
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Query engine.

TEST(QueryEngine, FindsExactDuplicates) {
  auto f = MakeFixture();
  QueryEngine engine(f.index.get(), &f.gen.base);
  for (uint64_t i = 0; i < 10; ++i) {
    auto res = engine.Search(f.gen.base.Row(i * 31), 1);
    ASSERT_TRUE(res.ok());
    ASSERT_FALSE(res->empty());
    EXPECT_EQ((*res)[0].dist, 0.f);
    EXPECT_EQ((*res)[0].id, static_cast<uint32_t>(i * 31));
  }
}

TEST(QueryEngine, MatchesInMemoryE2lshResults) {
  // Same hash family + same semantics => identical result sets when the
  // candidate cap is generous enough that truncation order cannot differ.
  auto f = MakeFixture(4000, 24, /*s_factor=*/1000.0);
  auto mem = e2lsh::InMemoryE2lsh::Build(f.gen.base, f.params);
  ASSERT_TRUE(mem.ok());

  QueryEngine engine(f.index.get(), &f.gen.base);
  auto batch = engine.SearchBatch(f.gen.queries, 5);
  ASSERT_TRUE(batch.ok());
  const auto mem_batch = (*mem)->SearchBatch(f.gen.queries, 5);

  for (uint64_t q = 0; q < f.gen.queries.n(); ++q) {
    const auto& a = batch->results[q];
    const auto& b = mem_batch.results[q];
    ASSERT_EQ(a.size(), b.size()) << "query " << q;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << "query " << q << " rank " << i;
      EXPECT_FLOAT_EQ(a[i].dist, b[i].dist);
    }
  }
}

TEST(QueryEngine, StatsMatchInMemoryProbes) {
  auto f = MakeFixture(4000, 24, 1000.0);
  auto mem = e2lsh::InMemoryE2lsh::Build(f.gen.base, f.params);
  ASSERT_TRUE(mem.ok());
  QueryEngine engine(f.index.get(), &f.gen.base, {.num_contexts = 1});

  for (uint64_t q = 0; q < 10; ++q) {
    QueryStats st;
    ASSERT_TRUE(engine.Search(f.gen.queries.Row(q), 1, &st).ok());
    e2lsh::SearchStats ms;
    (*mem)->Search(f.gen.queries.Row(q), 1, &ms);
    EXPECT_EQ(st.radii_searched, ms.radii_searched);
    // E2LSHoS indexes by the u-bit slot, so table-index collisions make it
    // probe a superset of the true buckets; fingerprints reject the extras
    // without affecting the candidate set (paper Sec. 5.2).
    EXPECT_GE(st.buckets_probed, ms.buckets_probed);
    EXPECT_EQ(st.candidates, ms.candidates);
    // One read per probed bucket plus its overflow blocks: the chain
    // head is found in DRAM, never through a table read.
    EXPECT_EQ(st.table_reads, 0u);
    EXPECT_GE(st.bucket_block_reads, ms.buckets_probed);
    EXPECT_EQ(st.ios, st.bucket_block_reads);
  }
}

TEST(QueryEngine, CandidateCapRespected) {
  auto f = MakeFixture(4000, 24, /*s_factor=*/0.5);
  QueryEngine engine(f.index.get(), &f.gen.base);
  for (uint64_t q = 0; q < 20; ++q) {
    QueryStats st;
    ASSERT_TRUE(engine.Search(f.gen.queries.Row(q), 1, &st).ok());
    EXPECT_LE(st.candidates, f.params.S * st.radii_searched);
  }
}

TEST(QueryEngine, SynchronousModeSameResults) {
  auto f = MakeFixture(3000, 24, 1000.0);
  QueryEngine async_engine(f.index.get(), &f.gen.base);
  QueryEngine sync_engine(f.index.get(), &f.gen.base, {.synchronous = true});
  auto a = async_engine.SearchBatch(f.gen.queries, 3);
  auto s = sync_engine.SearchBatch(f.gen.queries, 3);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(s.ok());
  for (uint64_t q = 0; q < f.gen.queries.n(); ++q) {
    ASSERT_EQ(a->results[q].size(), s->results[q].size());
    for (size_t i = 0; i < a->results[q].size(); ++i) {
      EXPECT_EQ(a->results[q][i].id, s->results[q][i].id);
    }
  }
}

TEST(QueryEngine, ManyContextsSameResultsAsOne) {
  auto f = MakeFixture(3000, 24, 1000.0);
  QueryEngine one(f.index.get(), &f.gen.base, {.num_contexts = 1});
  QueryEngine many(f.index.get(), &f.gen.base, {.num_contexts = 64});
  auto a = one.SearchBatch(f.gen.queries, 3);
  auto b = many.SearchBatch(f.gen.queries, 3);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (uint64_t q = 0; q < f.gen.queries.n(); ++q) {
    ASSERT_EQ(a->results[q].size(), b->results[q].size());
    for (size_t i = 0; i < a->results[q].size(); ++i) {
      EXPECT_EQ(a->results[q][i].id, b->results[q][i].id);
    }
  }
}

TEST(QueryEngine, WorksOnSimulatedSsd) {
  auto f = MakeFixture(2000);
  // Rebuild the index on a simulated cSSD behind SPDK.
  storage::DeviceModel model = storage::GetDeviceModel(storage::DeviceKind::kCssd);
  model.service_time_ns = 5000;  // sped-up cSSD to keep the test quick
  // The registry capacity is 2 TB; ThreadSanitizer cannot reserve
  // multi-TB anonymous mappings, and this 2000-point index needs far
  // less anyway.
  model.capacity_bytes = 4ULL << 30;
  auto ssd = storage::SimulatedDevice::Create(model);
  ASSERT_TRUE(ssd.ok());
  storage::ChargedDevice charged(
      ssd->get(), storage::GetInterfaceSpec(storage::InterfaceKind::kSpdk));
  auto idx = IndexBuilder::Build(f.gen.base, f.params, &charged);
  ASSERT_TRUE(idx.ok());
  QueryEngine engine(idx->get(), &f.gen.base, {.num_contexts = 16});
  auto batch = engine.SearchBatch(f.gen.queries, 1);
  ASSERT_TRUE(batch.ok());
  EXPECT_GT(batch->MeanIos(), 0.0);
  EXPECT_GT(charged.io_cpu_ns(), 0u);
  // Every query got an answer (clustered data, generous ladder).
  for (const auto& r : batch->results) EXPECT_FALSE(r.empty());
}

TEST(QueryEngine, WorksOnStripedDevices) {
  auto f = MakeFixture(2000);
  std::vector<std::unique_ptr<storage::BlockDevice>> children;
  for (int i = 0; i < 4; ++i) {
    auto dev = storage::SimulatedDevice::Create(storage::MemoryModel(512ULL << 20));
    ASSERT_TRUE(dev.ok());
    children.push_back(std::move(dev.value()));
  }
  auto striped = storage::StripedDevice::Create(std::move(children));
  ASSERT_TRUE(striped.ok());
  auto idx = IndexBuilder::Build(f.gen.base, f.params, striped->get());
  ASSERT_TRUE(idx.ok());
  QueryEngine engine(idx->get(), &f.gen.base);
  auto res = engine.Search(f.gen.base.Row(123), 1);
  ASSERT_TRUE(res.ok());
  ASSERT_FALSE(res->empty());
  EXPECT_EQ((*res)[0].id, 123u);
}

TEST(QueryEngine, SmallBlocksNeedMoreIos) {
  auto f128 = MakeFixture(4000, 24, 4.0, 7, /*block_bytes=*/128);
  auto f4k = MakeFixture(4000, 24, 4.0, 7, /*block_bytes=*/4096);
  QueryEngine e128(f128.index.get(), &f128.gen.base);
  QueryEngine e4k(f4k.index.get(), &f4k.gen.base);
  auto b128 = e128.SearchBatch(f128.gen.queries, 1);
  auto b4k = e4k.SearchBatch(f4k.gen.queries, 1);
  ASSERT_TRUE(b128.ok());
  ASSERT_TRUE(b4k.ok());
  EXPECT_GT(b128->MeanIos(), b4k->MeanIos());
}

TEST(QueryEngine, RejectsBadQueries) {
  auto f = MakeFixture(1000);
  QueryEngine engine(f.index.get(), &f.gen.base);
  data::Dataset wrong("w", 7);
  EXPECT_FALSE(engine.SearchBatch(wrong, 1).ok());
  EXPECT_FALSE(engine.SearchBatch(f.gen.queries, 0).ok());
}

TEST(QueryEngine, AccuracyAgainstGroundTruth) {
  auto f = MakeFixture(6000);
  const auto gt = data::GroundTruth::Compute(f.gen.base, f.gen.queries, 1, 1);
  QueryEngine engine(f.index.get(), &f.gen.base);
  auto batch = engine.SearchBatch(f.gen.queries, 1);
  ASSERT_TRUE(batch.ok());
  const double ratio = data::MeanOverallRatio(gt, batch->results, 1);
  EXPECT_LT(ratio, 1.5);
}

// Block-size sweep: identical result sets regardless of B (the paper's
// observation that block size affects I/O count, never correctness).
class BlockSizeSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BlockSizeSweep, ResultsIndependentOfBlockSize) {
  auto base_f = MakeFixture(2500, 24, 1000.0, 5, 512);
  auto f = MakeFixture(2500, 24, 1000.0, 5, GetParam());
  QueryEngine a(base_f.index.get(), &base_f.gen.base);
  QueryEngine b(f.index.get(), &f.gen.base);
  auto ra = a.SearchBatch(base_f.gen.queries, 3);
  auto rb = b.SearchBatch(f.gen.queries, 3);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  for (uint64_t q = 0; q < base_f.gen.queries.n(); ++q) {
    ASSERT_EQ(ra->results[q].size(), rb->results[q].size());
    for (size_t i = 0; i < ra->results[q].size(); ++i) {
      EXPECT_EQ(ra->results[q][i].id, rb->results[q][i].id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Blocks, BlockSizeSweep,
                         ::testing::Values(128, 256, 1024, 4096));

}  // namespace
}  // namespace e2lshos::core
