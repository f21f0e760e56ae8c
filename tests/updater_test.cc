// Tests for offline index maintenance: LiveUpdater inserts, removes and
// restores followed by an immediate Flush (what Index::Save runs) and a
// meta save. Equality with a bulk build, id-space exhaustion, exact
// endurance accounting, 4 KiB alignment, tombstone persistence, and a
// direct-I/O URI end to end. Serving-side behavior (visibility, soaks,
// relocation of full heads on Save) is live_update_test's.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "api/index.h"
#include "core/builder.h"
#include "core/live_updater.h"
#include "core/persistence.h"
#include "core/query_engine.h"
#include "data/generators.h"
#include "storage/file_device.h"
#include "storage/memory_device.h"

namespace e2lshos::core {
namespace {

struct Fixture {
  data::GeneratedData gen;
  lsh::E2lshConfig cfg;
  lsh::E2lshParams params;
  std::unique_ptr<storage::MemoryDevice> device;
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
  spec.seed = 21;
  f.gen = data::Generate("upd", n, 30, spec);
  f.cfg.rho = 0.25;
  f.cfg.s_factor = 1000.0;
  f.cfg.x_max = f.gen.base.XMax();
  auto params = lsh::ComputeParams(n, dim, f.cfg);
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

/// The first `n` rows of `all`.
data::Dataset Prefix(const data::Dataset& all, uint64_t n) {
  data::Dataset out("prefix", all.dim());
  for (uint64_t i = 0; i < n; ++i) out.Append(all.Row(i));
  return out;
}

TEST(OfflineUpdate, InsertMatchesBulkBuildBeforeAndAfterFlush) {
  // An index built on n-1 rows with the last inserted must answer like
  // the bulk build over all n (same hash family, no candidate
  // truncation): through the published overlay, and again once Flush
  // has written the new heads at their rank addresses.
  auto f = MakeFixture(2000);
  const uint32_t last = static_cast<uint32_t>(f.gen.base.n() - 1);
  const data::Dataset initial = Prefix(f.gen.base, last);
  auto dev = storage::MemoryDevice::Create(2ULL << 30);
  ASSERT_TRUE(dev.ok());
  auto incremental = IndexBuilder::Build(initial, f.params, dev->get());
  ASSERT_TRUE(incremental.ok());
  LiveUpdater live(incremental->get());
  auto id = live.Insert(f.gen.base.Row(last));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*id, last);

  QueryEngine bulk_engine(f.index.get(), &f.gen.base);
  auto bulk = bulk_engine.SearchBatch(f.gen.queries, 5);
  ASSERT_TRUE(bulk.ok());
  auto expect_bulk_answers = [&](const char* phase) {
    QueryEngine engine(incremental->get(), &initial);
    auto incr = engine.SearchBatch(f.gen.queries, 5);
    ASSERT_TRUE(incr.ok());
    for (uint64_t q = 0; q < f.gen.queries.n(); ++q) {
      ASSERT_EQ(bulk->results[q].size(), incr->results[q].size())
          << phase << " query " << q;
      for (size_t i = 0; i < bulk->results[q].size(); ++i) {
        EXPECT_EQ(bulk->results[q][i].id, incr->results[q][i].id)
            << phase << " query " << q;
      }
    }
  };
  ASSERT_NO_FATAL_FAILURE(expect_bulk_answers("before Flush"));
  ASSERT_TRUE(live.Flush().ok());
  EXPECT_EQ((*incremental)->n(), f.gen.base.n());
  ASSERT_NO_FATAL_FAILURE(expect_bulk_answers("after Flush"));
}

TEST(OfflineUpdate, IdSpaceExhaustionFailsAndChangesNothing) {
  auto f = MakeFixture(500);
  const uint32_t dim = f.gen.base.dim();
  const uint64_t limit = 1ULL << f.index->layout().id_bits;
  std::vector<float> rows;
  for (uint64_t i = f.gen.base.n(); i < limit; ++i) {
    const float* src = f.gen.base.Row(i % f.gen.base.n());
    rows.insert(rows.end(), src, src + dim);
  }
  LiveUpdater live(f.index.get());
  ASSERT_TRUE(live.InsertBatch(rows.data(),
                               static_cast<uint32_t>(rows.size() / dim))
                  .ok());
  ASSERT_EQ(live.n(), limit);

  const uint64_t written = f.device->stats().bytes_written;
  const uint64_t staged = live.counters().staged_bytes;
  const uint64_t seq = live.epoch_seq();
  EXPECT_EQ(live.Insert(f.gen.base.Row(0)).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(live.n(), limit);
  EXPECT_EQ(f.device->stats().bytes_written, written);
  EXPECT_EQ(live.counters().staged_bytes, staged);
  EXPECT_EQ(live.epoch_seq(), seq);
}

TEST(OfflineUpdate, InsertAndFlushWriteExactBlockCounts) {
  // The paper's "impact of insertion is small" claim in numbers, exact
  // on mem: (512-byte RMW window = one block).
  auto f = MakeFixture(2000);
  const std::vector<float> p(f.gen.base.Row(42),
                             f.gen.base.Row(42) + f.gen.base.dim());
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
  const uint64_t pairs = static_cast<uint64_t>(layout.num_pairs());
  const uint64_t written = f.device->stats().bytes_written;

  LiveUpdater live(f.index.get());
  ASSERT_TRUE(live.Insert(p.data()).ok());
  // One block per pair — the head copied on write, or the one-entry
  // block prepended to a full head — plus the full head's own copy away
  // from its rank address.
  const uint64_t staged = live.counters().staged_bytes;
  EXPECT_EQ(staged, (pairs + full) * layout.block_bytes);
  // Flush writes each pair's new head at its rank address.
  ASSERT_TRUE(live.Flush().ok());
  EXPECT_EQ(live.counters().staged_bytes - staged, pairs * layout.block_bytes);
  EXPECT_EQ(f.device->stats().bytes_written - written,
            live.counters().staged_bytes);
}

TEST(OfflineUpdate, TombstonesCountOnceAndSurviveFlushAndPersistence) {
  auto f = MakeFixture(800);
  LiveUpdater live(f.index.get());
  ASSERT_TRUE(live.Remove(7).ok());
  ASSERT_TRUE(live.Remove(7).ok());
  ASSERT_TRUE(live.Remove(9).ok());
  // Restoring ids never removed (8) or never inserted creates nothing.
  ASSERT_TRUE(live.Restore(8).ok());
  ASSERT_TRUE(live.Restore(400000).ok());
  EXPECT_EQ(f.index->num_tombstones(), 0u);  // staged, not flushed yet
  ASSERT_TRUE(live.Flush().ok());
  EXPECT_EQ(f.index->num_tombstones(), 2u);

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

// ---------------------------------------------------------------------------
// Direct I/O: 512-byte blocks on devices with a coarser alignment unit
// ---------------------------------------------------------------------------

/// Hard-enforces a (larger) alignment unit on every read and write, of
/// the device and of every queue it makes — a deterministic stand-in for
/// a 4Kn direct-I/O drive, independent of whether the host filesystem
/// supports O_DIRECT.
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
  storage::QueueResult CreateQueue(
      const storage::QueueOptions& options) override {
    E2_ASSIGN_OR_RETURN(auto queue, inner_->CreateQueue(options));
    auto shim = std::make_unique<AlignmentShim>(queue.get(), unit_);
    shim->owned_ = std::move(queue);
    return std::unique_ptr<storage::BlockDevice>(std::move(shim));
  }

 private:
  storage::BlockDevice* inner_;
  uint32_t unit_;
  std::unique_ptr<storage::BlockDevice> owned_;  ///< A queue's inner queue.
};

TEST(OfflineUpdate, InsertFlushAndPersistThroughFourKAlignmentShim) {
  auto f = MakeFixture(2000);
  const uint64_t n_total = f.gen.base.n();
  const uint64_t n_initial = n_total - 10;
  const data::Dataset initial = Prefix(f.gen.base, n_initial);
  auto dev = storage::MemoryDevice::Create(2ULL << 30);
  ASSERT_TRUE(dev.ok());
  auto idx = IndexBuilder::Build(initial, f.params, dev->get());
  ASSERT_TRUE(idx.ok());
  const std::string meta = ::testing::TempDir() + "/e2_upd_4k_meta.bin";
  ASSERT_TRUE(SaveIndexMeta(**idx, meta).ok());

  AlignmentShim shim(dev->get(), 4096);
  // The shim really enforces the contract the updater must survive: a
  // bare 512-byte block write is rejected, on the device and its queues.
  const std::vector<uint8_t> probe(512, 0);
  EXPECT_EQ(shim.Write(512, probe.data(), 512).code(),
            StatusCode::kInvalidArgument);
  auto queue = shim.CreateQueue(storage::QueueOptions{});
  ASSERT_TRUE(queue.ok());
  EXPECT_EQ((*queue)->Write(512, probe.data(), 512).code(),
            StatusCode::kInvalidArgument);

  auto reopened = LoadIndexMeta(meta, &shim);
  ASSERT_TRUE(reopened.ok());
  LiveUpdater live(reopened->get());
  ASSERT_TRUE(live.InsertBatch(f.gen.base.Row(n_initial),
                               static_cast<uint32_t>(n_total - n_initial))
                  .ok());
  // Every staged write pushed whole 4K windows to the device.
  const uint64_t inserted_bytes = live.counters().staged_bytes;
  EXPECT_GT(inserted_bytes, 0u);
  EXPECT_EQ(inserted_bytes % 4096, 0u);
  ASSERT_TRUE(live.Flush().ok());
  EXPECT_GT(live.counters().staged_bytes, inserted_bytes);
  EXPECT_EQ(live.counters().staged_bytes % 4096, 0u);

  // Persisted and reloaded through the shim, the inserted rows are found.
  ASSERT_TRUE(SaveIndexMeta(**reopened, meta).ok());
  auto saved = LoadIndexMeta(meta, &shim);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  QueryEngine engine(saved->get(), &f.gen.base);
  for (uint64_t i = n_initial; i < n_total; ++i) {
    auto res = engine.Search(f.gen.base.Row(i), 1);
    ASSERT_TRUE(res.ok());
    ASSERT_FALSE(res->empty());
    EXPECT_EQ((*res)[0].id, static_cast<uint32_t>(i));
    EXPECT_EQ((*res)[0].dist, 0.f);
  }
  std::remove(meta.c_str());
}

TEST(OfflineUpdate, DirectUriInsertRemoveSaveAndReopen) {
  // Build buffered, then maintain and save through a direct=1 URI: the
  // inserts and the save's head copies run on an O_DIRECT device.
  const std::string image = ::testing::TempDir() + "/e2_upd_direct.img";
  const std::string meta = ::testing::TempDir() + "/e2_upd_direct.meta";
  {
    storage::FileDevice::Options opt;
    opt.capacity = 1 << 20;
    opt.direct_io = true;
    if (!storage::FileDevice::Create(image, opt).ok()) {
      std::remove(image.c_str());
      GTEST_SKIP() << "filesystem does not support O_DIRECT";
    }
  }
  auto f = MakeFixture(1500);
  const uint64_t n_total = f.gen.base.n();
  const uint64_t n_initial = n_total - 5;
  IndexSpec spec;
  spec.lsh = f.cfg;
  spec.device_uri = "file:" + image;
  spec.device_capacity = 64ULL << 20;
  auto built = Index::Build(spec, Prefix(f.gen.base, n_initial));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_TRUE((*built)->Save(meta).ok());
  built->reset();

  const OpenSpec direct{"file:" + image + "?direct=1"};
  const uint32_t victim = 17;
  auto expect_updated = [&](Index* idx, const char* phase) {
    for (uint64_t i = n_initial; i < n_total; ++i) {
      auto hit = idx->Search(f.gen.base.Row(i), 1);
      ASSERT_TRUE(hit.ok()) << phase << ": " << hit.status().ToString();
      ASSERT_FALSE(hit->empty()) << phase;
      EXPECT_EQ((*hit)[0].id, i) << phase;
      EXPECT_EQ((*hit)[0].dist, 0.f) << phase;
    }
    auto hidden = idx->Search(f.gen.base.Row(victim), 1);
    ASSERT_TRUE(hidden.ok()) << phase;
    ASSERT_FALSE(hidden->empty()) << phase;
    EXPECT_NE((*hidden)[0].id, victim) << phase;
  };

  auto idx = Index::Open(meta, direct, Prefix(f.gen.base, n_initial));
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  ASSERT_GE((*idx)->device()->io_alignment(), 512u);  // O_DIRECT is on
  auto first = (*idx)->InsertBatch(f.gen.base.Row(n_initial),
                                   static_cast<uint32_t>(n_total - n_initial));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, n_initial);
  ASSERT_TRUE((*idx)->Remove(victim).ok());
  ASSERT_NO_FATAL_FAILURE(expect_updated(idx->get(), "live"));
  ASSERT_TRUE((*idx)->Save(meta).ok());
  idx->reset();

  auto reopened = Index::Open(meta, direct, f.gen.base);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_NO_FATAL_FAILURE(expect_updated(reopened->get(), "reopened"));
  reopened->reset();
  std::remove(meta.c_str());
  std::remove(image.c_str());
}

}  // namespace
}  // namespace e2lshos::core
