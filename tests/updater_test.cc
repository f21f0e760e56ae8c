// Tests for online index maintenance: insertion (in-place block append
// and chain-head prepend), deletion via tombstones, endurance accounting,
// and persistence of the updated state.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>

#include "core/builder.h"
#include "core/persistence.h"
#include "core/query_engine.h"
#include "core/updater.h"
#include "data/generators.h"
#include "storage/file_device.h"
#include "storage/memory_device.h"
#include "util/aligned_buffer.h"

namespace e2lshos::core {
namespace {

struct Fixture {
  data::GeneratedData gen;
  lsh::E2lshParams params;
  std::unique_ptr<storage::MemoryDevice> device;
  std::unique_ptr<StorageIndex> index;
};

Fixture MakeFixture(uint64_t n = 3000, uint32_t dim = 24, double s_factor = 1000.0) {
  Fixture f;
  data::GeneratorSpec spec;
  spec.kind = data::GeneratorKind::kClustered;
  spec.dim = dim;
  spec.num_clusters = 16;
  spec.cluster_std = 3.0 / std::sqrt(2.0 * dim);
  spec.center_spread = 10.0 * std::sqrt(6.0 / dim);
  spec.seed = 21;
  f.gen = data::Generate("upd", n, 30, spec);
  lsh::E2lshConfig cfg;
  cfg.rho = 0.25;
  cfg.s_factor = s_factor;
  cfg.x_max = f.gen.base.XMax();
  auto params = lsh::ComputeParams(n, dim, cfg);
  EXPECT_TRUE(params.ok());
  f.params = *params;
  auto dev = storage::MemoryDevice::Create(2ULL << 30);
  EXPECT_TRUE(dev.ok());
  f.device = std::move(dev.value());
  auto idx = IndexBuilder::Build(f.gen.base, f.params, f.device.get());
  EXPECT_TRUE(idx.ok());
  f.index = std::move(idx.value());
  return f;
}

TEST(Updater, InsertedObjectBecomesSearchable) {
  // Build on n-10 points, insert the held-out 10, and verify each is
  // found as its own exact nearest neighbor.
  auto f = MakeFixture();
  const uint64_t n_total = f.gen.base.n();
  const uint64_t n_initial = n_total - 10;

  data::Dataset initial("initial", f.gen.base.dim());
  for (uint64_t i = 0; i < n_initial; ++i) initial.Append(f.gen.base.Row(i));
  auto dev = storage::MemoryDevice::Create(2ULL << 30);
  ASSERT_TRUE(dev.ok());
  auto idx = IndexBuilder::Build(initial, f.params, dev->get());
  ASSERT_TRUE(idx.ok());

  IndexUpdater updater(idx->get());
  for (uint64_t i = n_initial; i < n_total; ++i) {
    ASSERT_TRUE(updater.Insert(f.gen.base, static_cast<uint32_t>(i)).ok());
  }
  EXPECT_EQ(updater.inserts(), 10u);
  EXPECT_GT(updater.bytes_written(), 0u);

  QueryEngine engine(idx->get(), &f.gen.base);
  for (uint64_t i = n_initial; i < n_total; ++i) {
    auto res = engine.Search(f.gen.base.Row(i), 1);
    ASSERT_TRUE(res.ok());
    ASSERT_FALSE(res->empty());
    EXPECT_EQ((*res)[0].id, static_cast<uint32_t>(i));
    EXPECT_EQ((*res)[0].dist, 0.f);
  }
}

TEST(Updater, InsertMatchesBulkBuiltIndex) {
  // Index built on n points must answer identically to an index built on
  // n-1 points with the last inserted online (same hash family, no
  // candidate truncation).
  auto f = MakeFixture(2000);
  const uint32_t last = static_cast<uint32_t>(f.gen.base.n() - 1);

  data::Dataset initial("initial", f.gen.base.dim());
  for (uint32_t i = 0; i < last; ++i) initial.Append(f.gen.base.Row(i));
  auto dev = storage::MemoryDevice::Create(2ULL << 30);
  ASSERT_TRUE(dev.ok());
  auto incremental = IndexBuilder::Build(initial, f.params, dev->get());
  ASSERT_TRUE(incremental.ok());
  IndexUpdater updater(incremental->get());
  ASSERT_TRUE(updater.Insert(f.gen.base, last).ok());

  QueryEngine bulk_engine(f.index.get(), &f.gen.base);
  QueryEngine incr_engine(incremental->get(), &f.gen.base);
  auto bulk = bulk_engine.SearchBatch(f.gen.queries, 5);
  auto incr = incr_engine.SearchBatch(f.gen.queries, 5);
  ASSERT_TRUE(bulk.ok());
  ASSERT_TRUE(incr.ok());
  for (uint64_t q = 0; q < f.gen.queries.n(); ++q) {
    ASSERT_EQ(bulk->results[q].size(), incr->results[q].size());
    for (size_t i = 0; i < bulk->results[q].size(); ++i) {
      EXPECT_EQ(bulk->results[q][i].id, incr->results[q][i].id) << "query " << q;
    }
  }
}

TEST(Updater, ManyInsertsGrowChains) {
  // Insert enough near-identical points to overflow head blocks and force
  // chain-head prepends; all must remain searchable. n = 3000 leaves
  // id-space headroom (ceil(log2 3000) = 12 bits -> 4096 ids).
  auto f = MakeFixture(3000);
  data::Dataset& base = f.gen.base;
  const uint32_t dim = base.dim();
  std::vector<float> clone(base.Row(0), base.Row(0) + dim);
  IndexUpdater updater(f.index.get());
  const uint32_t start = static_cast<uint32_t>(base.n());
  const uint64_t storage_before = f.index->sizes().storage_bytes;
  for (int i = 0; i < 120; ++i) {
    clone[0] += 0.0001f;  // near-duplicates share most buckets
    base.Append(clone.data());
    ASSERT_TRUE(updater.Insert(base, start + i).ok());
  }
  EXPECT_GT(f.index->sizes().storage_bytes, storage_before);
  QueryEngine engine(f.index.get(), &base);
  auto res = engine.Search(clone.data(), 1);
  ASSERT_TRUE(res.ok());
  ASSERT_FALSE(res->empty());
  EXPECT_EQ((*res)[0].id, start + 119);

  // Full heads moved off their rank addresses on the way: no clone may
  // be lost. The 121 nearest rows of the first clone are row 0 and all
  // 120 clones.
  QueryStats stats;
  auto near = engine.Search(base.Row(start), 121, &stats);
  ASSERT_TRUE(near.ok());
  EXPECT_FALSE(stats.partial);
  std::set<uint32_t> ids;
  for (const auto& nb : *near) ids.insert(nb.id);
  for (uint32_t i = 0; i < 120; ++i) EXPECT_EQ(ids.count(start + i), 1u) << i;
}

TEST(Updater, RemoveHidesObjectAndRestoreRevives) {
  auto f = MakeFixture();
  QueryEngine engine(f.index.get(), &f.gen.base);
  const uint32_t victim = 137;
  auto before = engine.Search(f.gen.base.Row(victim), 1);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ((*before)[0].id, victim);

  IndexUpdater updater(f.index.get());
  ASSERT_TRUE(updater.Remove(victim).ok());
  EXPECT_EQ(f.index->num_tombstones(), 1u);
  auto after = engine.Search(f.gen.base.Row(victim), 1);
  ASSERT_TRUE(after.ok());
  ASSERT_FALSE(after->empty());
  EXPECT_NE((*after)[0].id, victim);
  EXPECT_GT((*after)[0].dist, 0.f);

  ASSERT_TRUE(updater.Restore(victim).ok());
  auto revived = engine.Search(f.gen.base.Row(victim), 1);
  ASSERT_TRUE(revived.ok());
  EXPECT_EQ((*revived)[0].id, victim);
}

TEST(Updater, RemoveIsIdempotent) {
  auto f = MakeFixture(500);
  IndexUpdater updater(f.index.get());
  ASSERT_TRUE(updater.Remove(3).ok());
  ASSERT_TRUE(updater.Remove(3).ok());
  EXPECT_EQ(f.index->num_tombstones(), 1u);
}

TEST(Updater, RestoreOfNeverRemovedIdIsNoOp) {
  auto f = MakeFixture(500);
  IndexUpdater updater(f.index.get());
  // Never removed, and (for the second id) never even inserted: Restore
  // must succeed without creating any tombstone state.
  ASSERT_TRUE(updater.Restore(7).ok());
  ASSERT_TRUE(updater.Restore(400000).ok());
  EXPECT_EQ(f.index->num_tombstones(), 0u);
  QueryEngine engine(f.index.get(), &f.gen.base);
  auto hit = engine.Search(f.gen.base.Row(7), 1);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ((*hit)[0].id, 7u);
}

TEST(Updater, RejectsIdBeyondIdSpace) {
  auto f = MakeFixture(500);
  data::Dataset& base = f.gen.base;
  std::vector<float> p(base.dim(), 0.f);
  // Grow the dataset far past the id space fixed at build time.
  const uint64_t limit = 1ULL << ObjectInfoCodec::Make(
                             500, f.index->layout().fp).value().id_bits;
  while (base.n() <= limit) base.Append(p.data());
  IndexUpdater updater(f.index.get());
  EXPECT_EQ(updater.Insert(base, static_cast<uint32_t>(limit)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(Updater, EnduranceAccountingPerInsert) {
  // Each insert writes at most (blocks touched) * 512 B across all
  // (radius, l) pairs — the paper's "impact of insertion is small" claim
  // in numbers.
  auto f = MakeFixture(2000);
  data::Dataset& base = f.gen.base;
  std::vector<float> p(base.Row(42), base.Row(42) + base.dim());
  base.Append(p.data());
  // Row 42's buckets all exist; count those whose head block is full.
  const IndexLayout& layout = f.index->layout();
  std::vector<uint8_t> block(layout.block_bytes);
  uint64_t full = 0;
  for (uint32_t r = 0; r < layout.num_radii; ++r) {
    for (uint32_t l = 0; l < layout.L; ++l) {
      const uint32_t h = f.index->family().Get(r, l).Hash32(p.data());
      const uint64_t head = f.index->ChainHead(r, l, layout.fp.TableIndex(h));
      ASSERT_NE(head, 0u);
      ASSERT_TRUE(f.device->ReadSync(head, block.data(), block.size()).ok());
      const BlockHeader hdr = BlockHeader::DecodeFrom(block.data());
      if (hdr.count == layout.objects_per_block()) ++full;
    }
  }
  EXPECT_GT(full, 0u);
  IndexUpdater updater(f.index.get());
  ASSERT_TRUE(updater.Insert(base, static_cast<uint32_t>(base.n() - 1)).ok());
  const uint64_t pairs = static_cast<uint64_t>(f.params.num_radii()) * f.params.L;
  // One block write per pair, plus one where a full head moves off its
  // rank address to make room for a one-entry head (exact on mem:).
  EXPECT_EQ(updater.bytes_written(), (pairs + full) * layout.block_bytes);
}

// ---------------------------------------------------------------------------
// Direct-I/O regression: the updater's 512-byte block writes violate a
// 4K direct device's alignment contract unless they are staged through
// aligned read-modify-write windows.
// ---------------------------------------------------------------------------

/// Hard-enforces a (larger) alignment unit on every read and write — a
/// deterministic stand-in for a 4Kn direct-I/O drive, independent of
/// whether the host filesystem supports O_DIRECT.
class AlignmentShim : public storage::BlockDevice {
 public:
  AlignmentShim(storage::BlockDevice* inner, uint32_t unit)
      : inner_(inner), unit_(unit) {}

  Status SubmitRead(const storage::IoRequest& req) override {
    if (req.offset % unit_ != 0 || req.length % unit_ != 0) {
      return Status::InvalidArgument("unaligned read through shim");
    }
    return inner_->SubmitRead(req);
  }
  size_t PollCompletions(storage::IoCompletion* out, size_t max) override {
    return inner_->PollCompletions(out, max);
  }
  Status Write(uint64_t offset, const void* data, uint32_t length) override {
    if (offset % unit_ != 0 || length % unit_ != 0) {
      return Status::InvalidArgument("unaligned write through shim");
    }
    return inner_->Write(offset, data, length);
  }
  uint64_t capacity() const override {
    return inner_->capacity() / unit_ * unit_;
  }
  uint32_t io_alignment() const override { return unit_; }
  uint32_t outstanding() const override { return inner_->outstanding(); }
  std::string name() const override { return "align+" + inner_->name(); }
  storage::DeviceStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  storage::BlockDevice* inner_;
  uint32_t unit_;
};

TEST(UpdaterDirectIo, InsertThroughFourKAlignmentShim) {
  auto f = MakeFixture(2000);
  const uint64_t n_total = f.gen.base.n();
  const uint64_t n_initial = n_total - 10;
  data::Dataset initial("initial", f.gen.base.dim());
  for (uint64_t i = 0; i < n_initial; ++i) initial.Append(f.gen.base.Row(i));
  auto dev = storage::MemoryDevice::Create(2ULL << 30);
  ASSERT_TRUE(dev.ok());
  auto idx = IndexBuilder::Build(initial, f.params, dev->get());
  ASSERT_TRUE(idx.ok());
  const std::string meta = ::testing::TempDir() + "/e2_upd_4k_meta.bin";
  ASSERT_TRUE(SaveIndexMeta(**idx, meta).ok());

  AlignmentShim shim(dev->get(), 4096);
  // The shim really enforces the contract the updater must survive:
  // a bare 512-byte block write is rejected.
  const std::vector<uint8_t> probe(512, 0);
  EXPECT_EQ(shim.Write(512, probe.data(), 512).code(),
            StatusCode::kInvalidArgument);

  auto reopened = LoadIndexMeta(meta, &shim);
  ASSERT_TRUE(reopened.ok());
  IndexUpdater updater(reopened->get());
  for (uint64_t i = n_initial; i < n_total; ++i) {
    ASSERT_TRUE(updater.Insert(f.gen.base, static_cast<uint32_t>(i)).ok())
        << "insert " << i;
  }
  // Every staged write pushed whole 4K windows to the device.
  EXPECT_GT(updater.bytes_written(), 0u);
  EXPECT_EQ(updater.bytes_written() % 4096, 0u);

  QueryEngine engine(reopened->get(), &f.gen.base);
  for (uint64_t i = n_initial; i < n_total; ++i) {
    auto res = engine.Search(f.gen.base.Row(i), 1);
    ASSERT_TRUE(res.ok());
    ASSERT_FALSE(res->empty());
    EXPECT_EQ((*res)[0].id, static_cast<uint32_t>(i));
    EXPECT_EQ((*res)[0].dist, 0.f);
  }
  std::remove(meta.c_str());
}

TEST(UpdaterDirectIo, InsertOnRealDirectFileDevice) {
  const std::string path = ::testing::TempDir() + "/e2_upd_direct.img";
  storage::FileDevice::Options opt;
  opt.capacity = 64ULL << 20;
  opt.io_threads = 2;
  opt.direct_io = true;
  auto direct = storage::FileDevice::Create(path, opt);
  if (!direct.ok()) GTEST_SKIP() << "filesystem does not support O_DIRECT";
  const uint32_t unit = (*direct)->io_alignment();
  ASSERT_GE(unit, 512u);

  auto f = MakeFixture(1500);
  const uint64_t n_total = f.gen.base.n();
  const uint64_t n_initial = n_total - 5;
  data::Dataset initial("initial", f.gen.base.dim());
  for (uint64_t i = 0; i < n_initial; ++i) initial.Append(f.gen.base.Row(i));
  auto mem = storage::MemoryDevice::Create(2ULL << 30);
  ASSERT_TRUE(mem.ok());
  auto idx = IndexBuilder::Build(initial, f.params, mem->get());
  ASSERT_TRUE(idx.ok());

  // Ship the image to the direct device in aligned chunks.
  const uint64_t image =
      ((*idx)->sizes().storage_bytes + unit - 1) / unit * unit;
  ASSERT_LE(image, opt.capacity);
  util::AlignedBuffer chunk(1 << 20, unit);
  for (uint64_t off = 0; off < image; off += chunk.size()) {
    const uint32_t len = static_cast<uint32_t>(
        std::min<uint64_t>(chunk.size(), image - off));
    ASSERT_TRUE(mem->get()->ReadSync(off, chunk.data(), len).ok());
    ASSERT_TRUE((*direct)->Write(off, chunk.data(), len).ok());
  }
  const std::string meta = ::testing::TempDir() + "/e2_upd_direct_meta.bin";
  ASSERT_TRUE(SaveIndexMeta(**idx, meta).ok());
  auto reopened = LoadIndexMeta(meta, direct->get());
  ASSERT_TRUE(reopened.ok());

  IndexUpdater updater(reopened->get());
  for (uint64_t i = n_initial; i < n_total; ++i) {
    ASSERT_TRUE(updater.Insert(f.gen.base, static_cast<uint32_t>(i)).ok())
        << "insert " << i;
  }
  QueryEngine engine(reopened->get(), &f.gen.base);
  for (uint64_t i = n_initial; i < n_total; ++i) {
    auto res = engine.Search(f.gen.base.Row(i), 1);
    ASSERT_TRUE(res.ok());
    ASSERT_FALSE(res->empty());
    EXPECT_EQ((*res)[0].id, static_cast<uint32_t>(i));
  }
  std::remove(meta.c_str());
  std::remove(path.c_str());
}

TEST(Updater, TombstonesSurvivePersistence) {
  auto f = MakeFixture(800);
  IndexUpdater updater(f.index.get());
  ASSERT_TRUE(updater.Remove(7).ok());
  ASSERT_TRUE(updater.Remove(9).ok());
  const std::string meta = ::testing::TempDir() + "/e2_upd_meta.bin";
  ASSERT_TRUE(SaveIndexMeta(*f.index, meta).ok());
  auto loaded = LoadIndexMeta(meta, f.device.get());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->num_tombstones(), 2u);
  EXPECT_TRUE((*loaded)->IsDeleted(7));
  EXPECT_TRUE((*loaded)->IsDeleted(9));
  EXPECT_FALSE((*loaded)->IsDeleted(8));
  std::remove(meta.c_str());
}

}  // namespace
}  // namespace e2lshos::core
