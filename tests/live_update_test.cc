// Tests for the live mutation subsystem: Index::Insert/Remove/Restore
// concurrent with serving, published as epochs (core/live_updater.h).
//
// The load-bearing properties:
//  * Visibility: a mutation is searchable exactly when its epoch
//    publishes — an Insert that returned is found (top-1, distance 0)
//    by any search STARTED afterwards; a Remove that returned is
//    filtered from any search started afterwards.
//  * Reader safety: a serving engine admitting queries while a
//    writer stages and publishes sees zero corrupt blocks, zero I/O
//    errors, and no partial results — on every backend (mem:, striped
//    sim:, file:, uring:) at 1 and 4 shards. This is the suite the TSan
//    CI leg runs (concurrency label).
//  * Quiesced parity: after Save() folds the overlay into the chain
//    heads the index computes (rank addresses and the born-live map),
//    the same queries return bit-identical results as through the
//    overlay path, and a reopened image holds every entry exactly once.
//  * Fault absorption: with injected transient read faults + the retry
//    layer, failed inserts roll back cleanly and a retried insert lands
//    intact; a save whose writes fail partway leaves the published
//    chains whole, and its retry saves every entry.
//  * Staging I/O: an Insert reads only blocks that existed before it,
//    each page once, in bursts deeper than one on the updater's own
//    queue; over a device that cannot create one, inserts refuse and
//    change nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "api/index.h"
#include "core/builder.h"
#include "core/layout.h"
#include "core/live_updater.h"
#include "core/persistence.h"
#include "core/query_engine.h"
#include "data/generators.h"
#include "e2lsh/in_memory.h"
#include "storage/simulated_device.h"
#include "storage/uring_device.h"

namespace e2lshos {
namespace {

struct TestData {
  data::GeneratedData gen;
  lsh::E2lshConfig cfg;
};

TestData MakeData(uint64_t n = 1200, uint32_t dim = 16, uint64_t seed = 9) {
  TestData t;
  data::GeneratorSpec spec;
  spec.kind = data::GeneratorKind::kClustered;
  spec.dim = dim;
  spec.num_clusters = 16;
  spec.cluster_std = 3.0 / std::sqrt(2.0 * dim);
  spec.center_spread = 10.0 * std::sqrt(6.0 / dim);
  spec.seed = seed;
  t.gen = data::Generate("live", n, 20, spec);
  t.cfg.rho = 0.25;
  t.cfg.s_factor = 1000.0;  // no draining: exact-match answers are exact
  return t;
}

/// Rows to insert live: same distribution as the base set but a
/// different seed, so every row is distinct from every base row.
data::Dataset MakeExtraRows(uint64_t count, uint32_t dim = 16) {
  return MakeData(count, dim, /*seed=*/77).gen.base;
}

Result<std::unique_ptr<Index>> BuildOn(const TestData& t,
                                       const std::string& uri) {
  IndexSpec spec;
  spec.lsh = t.cfg;
  spec.device_uri = uri;
  spec.device_capacity = 2ULL << 30;
  return Index::Build(spec, t.gen.base /* copy */);
}

// ---------------------------------------------------------------------------
// Single-threaded visibility semantics
// ---------------------------------------------------------------------------

TEST(LiveUpdate, InsertBecomesSearchableImmediately) {
  auto t = MakeData();
  auto idx = BuildOn(t, "mem:");
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  const uint64_t n0 = (*idx)->n();
  const auto extras = MakeExtraRows(5);

  for (uint64_t j = 0; j < extras.n(); ++j) {
    auto id = (*idx)->Insert(extras.Row(j));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_EQ(*id, n0 + j);
    EXPECT_EQ((*idx)->n(), n0 + j + 1);
    // The epoch published before Insert returned: this search must see
    // the new row as its own exact nearest neighbor.
    core::QueryStats qs;
    auto hit = (*idx)->Search(extras.Row(j), 1, &qs);
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    ASSERT_EQ(hit->size(), 1u);
    EXPECT_EQ((*hit)[0].id, n0 + j);
    EXPECT_EQ((*hit)[0].dist, 0.f);
    EXPECT_EQ(qs.corrupt_blocks, 0u);
    EXPECT_EQ(qs.io_errors, 0u);
  }

  const auto dev = (*idx)->device_stats();
  EXPECT_EQ(dev.updates_applied, extras.n());
  EXPECT_EQ(dev.epochs_published, extras.n());
  EXPECT_GT(dev.update_staged_bytes, 0u);
  EXPECT_EQ(dev.update_lag, 0u);
}

TEST(LiveUpdate, RemoveHidesRestoreRevivesAndUnknownRestoreIsNoOp) {
  auto t = MakeData();
  auto idx = BuildOn(t, "mem:");
  ASSERT_TRUE(idx.ok());
  const uint32_t victim = 137;

  auto before = (*idx)->Search(t.gen.base.Row(victim), 1);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ((*before)[0].id, victim);

  ASSERT_TRUE((*idx)->Remove(victim).ok());
  auto hidden = (*idx)->Search(t.gen.base.Row(victim), 1);
  ASSERT_TRUE(hidden.ok());
  ASSERT_FALSE(hidden->empty());
  EXPECT_NE((*hidden)[0].id, victim);
  EXPECT_GT((*hidden)[0].dist, 0.f);

  ASSERT_TRUE((*idx)->Restore(victim).ok());
  auto revived = (*idx)->Search(t.gen.base.Row(victim), 1);
  ASSERT_TRUE(revived.ok());
  EXPECT_EQ((*revived)[0].id, victim);

  // Restoring ids that were never removed — or never inserted at all —
  // is an accepted no-op, not an error and not new tombstone state.
  ASSERT_TRUE((*idx)->Restore(victim).ok());
  ASSERT_TRUE((*idx)->Restore(4000000).ok());
  auto still = (*idx)->Search(t.gen.base.Row(victim), 1);
  ASSERT_TRUE(still.ok());
  EXPECT_EQ((*still)[0].id, victim);
}

TEST(LiveUpdate, InsertBatchIsOneEpochWithConsecutiveIds) {
  auto t = MakeData();
  auto idx = BuildOn(t, "mem:");
  ASSERT_TRUE(idx.ok());
  const uint64_t n0 = (*idx)->n();
  const uint64_t epochs0 = (*idx)->device_stats().epochs_published;
  const auto extras = MakeExtraRows(64);

  auto first = (*idx)->InsertBatch(extras.Row(0),
                                   static_cast<uint32_t>(extras.n()));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, n0);
  EXPECT_EQ((*idx)->n(), n0 + extras.n());
  // The whole batch became visible together: one publish.
  EXPECT_EQ((*idx)->device_stats().epochs_published, epochs0 + 1);

  for (uint64_t j = 0; j < extras.n(); ++j) {
    auto hit = (*idx)->Search(extras.Row(j), 1);
    ASSERT_TRUE(hit.ok());
    EXPECT_EQ((*hit)[0].id, n0 + j) << "row " << j;
    EXPECT_EQ((*hit)[0].dist, 0.f) << "row " << j;
  }
}

// ---------------------------------------------------------------------------
// Quiesced parity: overlay path vs. saved chain heads
// ---------------------------------------------------------------------------

TEST(LiveUpdate, SaveFlushesOverlayWithBitIdenticalResults) {
  for (const std::string scheme : {"mem:", "sim:cssd", "file:"}) {
    auto t = MakeData();
    std::string uri = scheme;
    if (scheme == "file:") {
      uri += ::testing::TempDir() + "/e2_live_flush.bin";
    }
    auto idx = BuildOn(t, uri);
    ASSERT_TRUE(idx.ok()) << uri << ": " << idx.status().ToString();
    const uint64_t n0 = (*idx)->n();

    const auto extras = MakeExtraRows(96);
    auto first = (*idx)->InsertBatch(extras.Row(0),
                                     static_cast<uint32_t>(extras.n()));
    ASSERT_TRUE(first.ok());
    const uint32_t removed[] = {11, 42, 99};
    ASSERT_TRUE((*idx)->RemoveBatch(removed, 3).ok());

    // Results through the overlay path (mutations staged, not flushed).
    auto before = (*idx)->SearchBatch(t.gen.queries, 5);
    ASSERT_TRUE(before.ok());

    // Save() quiesces and folds the overlay into the saved chain heads.
    const std::string meta = ::testing::TempDir() + "/e2_live_flush.meta";
    ASSERT_TRUE((*idx)->Save(meta).ok());
    EXPECT_EQ((*idx)->device_stats().update_lag, 0u);

    // Same queries through the saved chain heads: bit parity.
    auto after = (*idx)->SearchBatch(t.gen.queries, 5);
    ASSERT_TRUE(after.ok());
    ASSERT_EQ(after->results.size(), before->results.size());
    for (size_t q = 0; q < before->results.size(); ++q) {
      ASSERT_EQ(after->results[q].size(), before->results[q].size())
          << uri << " query " << q;
      for (size_t i = 0; i < before->results[q].size(); ++i) {
        EXPECT_EQ(after->results[q][i].id, before->results[q][i].id)
            << uri << " query " << q << " rank " << i;
        EXPECT_FLOAT_EQ(after->results[q][i].dist, before->results[q][i].dist)
            << uri << " query " << q << " rank " << i;
      }
    }
    for (const auto& qs : after->stats) {
      EXPECT_EQ(qs.corrupt_blocks, 0u);
      EXPECT_EQ(qs.io_errors, 0u);
    }
    // Inserted rows still found, removed ids still hidden.
    auto hit = (*idx)->Search(extras.Row(17), 1);
    ASSERT_TRUE(hit.ok());
    EXPECT_EQ((*hit)[0].id, n0 + 17);
    auto hidden = (*idx)->Search(t.gen.base.Row(42), 1);
    ASSERT_TRUE(hidden.ok());
    EXPECT_NE((*hidden)[0].id, 42u);
  }
}

/// The standard queries over `index` (rows resolve through `base` and
/// any published epoch) equal in-memory E2LSH over `all`, and the two
/// far-away rows are their own nearest neighbors.
void ExpectAnswersAreWhole(const core::StorageIndex& index,
                           const data::Dataset& base, const data::Dataset& all,
                           const data::Dataset& queries, uint64_t base_n,
                           const std::vector<float>& far_f,
                           const std::vector<float>& far_g) {
  core::QueryEngine engine(&index, &base);
  auto mem = e2lsh::InMemoryE2lsh::Build(all, index.params());
  ASSERT_TRUE(mem.ok());
  const auto want = (*mem)->SearchBatch(queries, 5);
  auto got = engine.SearchBatch(queries, 5);
  ASSERT_TRUE(got.ok());
  for (uint64_t q = 0; q < queries.n(); ++q) {
    ASSERT_EQ(got->results[q].size(), want.results[q].size()) << "query " << q;
    for (size_t i = 0; i < want.results[q].size(); ++i) {
      EXPECT_EQ(got->results[q][i].id, want.results[q][i].id)
          << "query " << q << " rank " << i;
      EXPECT_FLOAT_EQ(got->results[q][i].dist, want.results[q][i].dist);
    }
    EXPECT_FALSE(got->stats[q].partial) << "query " << q;
  }
  for (const std::vector<float>* far : {&far_f, &far_g}) {
    auto hit = engine.Search(far->data(), 1);
    ASSERT_TRUE(hit.ok());
    ASSERT_FALSE(hit->empty());
    EXPECT_EQ((*hit)[0].dist, 0.f);
    EXPECT_GE((*hit)[0].id, base_n);
  }
}

/// Every chain of a saved index, walked from StorageIndex::ChainHead over
/// a copy of its image, holds every id exactly once per pair, and its
/// answers are whole (ExpectAnswersAreWhole).
void ExpectSavedIndexIsWhole(const core::StorageIndex& index,
                             const data::Dataset& all,
                             const data::Dataset& queries, uint64_t base_n,
                             const std::vector<float>& far_f,
                             const std::vector<float>& far_g) {
  const core::IndexLayout& layout = index.layout();
  ASSERT_EQ(index.n(), all.n());
  std::vector<uint8_t> image(index.sizes().storage_bytes);
  for (uint64_t off = 0; off < image.size(); off += 1 << 16) {
    const uint32_t len =
        static_cast<uint32_t>(std::min<uint64_t>(1 << 16, image.size() - off));
    ASSERT_TRUE(index.device()->ReadSync(off, image.data() + off, len).ok());
  }
  auto codec = core::ObjectInfoCodec::MakeWithIdBits(layout.id_bits, layout.fp);
  ASSERT_TRUE(codec.ok());
  for (uint32_t r = 0; r < layout.num_radii; ++r) {
    for (uint32_t l = 0; l < layout.L; ++l) {
      std::vector<uint32_t> seen(all.n(), 0);
      for (uint32_t slot = 0; slot < layout.slots_per_table(); ++slot) {
        uint64_t addr = index.ChainHead(r, l, slot);
        for (uint64_t hops = 0; addr != 0; ++hops) {
          ASSERT_LT(hops, all.n()) << "cyclic chain at r=" << r << " l=" << l;
          ASSERT_LE(addr + layout.block_bytes, image.size());
          const uint8_t* block = image.data() + addr;
          ASSERT_TRUE(core::VerifyBlockCrc(block, layout.block_bytes));
          const core::BlockHeader hdr = core::BlockHeader::DecodeFrom(block);
          for (uint32_t e = 0; e < hdr.count; ++e) {
            const uint32_t id = codec->DecodeId(codec->Read(
                block + core::kBlockHeaderBytes + e * core::kObjectInfoBytes));
            ASSERT_LT(id, all.n());
            ++seen[id];
          }
          addr = hdr.next;
        }
      }
      for (uint64_t id = 0; id < all.n(); ++id) {
        ASSERT_EQ(seen[id], 1u) << "id " << id << " at r=" << r << " l=" << l;
      }
    }
  }
  ASSERT_NO_FATAL_FAILURE(
      ExpectAnswersAreWhole(index, all, all, queries, base_n, far_f, far_g));
}

/// Pairs in which the saved head block of `row`'s bucket holds exactly
/// `count` entries.
uint32_t PairsWithHeadCount(Index* idx, const std::vector<float>& row,
                            uint32_t count) {
  const core::StorageIndex& index = *idx->storage_index();
  const core::IndexLayout& layout = index.layout();
  std::vector<uint8_t> block(layout.block_bytes);
  uint32_t pairs = 0;
  for (uint32_t r = 0; r < layout.num_radii; ++r) {
    for (uint32_t l = 0; l < layout.L; ++l) {
      const uint32_t h = index.family().Get(r, l).Hash32(row.data());
      const uint64_t head = index.ChainHead(r, l, layout.fp.TableIndex(h));
      if (head == 0 ||
          !idx->device()->ReadSync(head, block.data(), layout.block_bytes).ok()) {
        continue;
      }
      if (core::BlockHeader::DecodeFrom(block.data()).count == count) ++pairs;
    }
  }
  return pairs;
}

TEST(LiveUpdate, SaveRelocatesFullHeadsAndKeepsEveryEntry) {
  for (const std::string scheme : {"file:", "sim:cssd"}) {
    auto t = MakeData();
    const uint64_t base_n = t.gen.base.n();
    const uint32_t dim = t.gen.base.dim();
    // F is far from every base row: 120 built copies fill its head block
    // in every pair. G is far from both, so its buckets are born live in
    // the pairs where its slot was empty at build time.
    const std::vector<float> far_f(dim, 40.0f);
    const std::vector<float> far_g(dim, -40.0f);
    TestData built = t;
    for (int i = 0; i < 120; ++i) built.gen.base.Append(far_f.data());
    data::Dataset all = built.gen.base;

    std::string uri = scheme;
    if (scheme == "file:") uri += ::testing::TempDir() + "/e2_live_reloc.bin";
    const std::string meta = ::testing::TempDir() + "/e2_live_reloc.meta";
    auto idx = BuildOn(built, uri);
    ASSERT_TRUE(idx.ok()) << uri << ": " << idx.status().ToString();
    auto insert = [&](const float* rows, uint32_t count) {
      auto first = (*idx)->InsertBatch(rows, count);
      ASSERT_TRUE(first.ok()) << first.status().ToString();
      ASSERT_EQ(*first, all.n());
      for (uint32_t i = 0; i < count; ++i) all.Append(rows + size_t{i} * dim);
    };
    auto save_and_reopen = [&] {
      ASSERT_TRUE((*idx)->Save(meta).ok());
      idx->reset();
      idx = Index::Open(meta, OpenSpec{uri}, all);
      ASSERT_TRUE(idx.ok()) << uri << ": " << idx.status().ToString();
    };

    // Round 1: the first F copies every full built head of F's buckets
    // away from its rank address and prepends a block in front of the
    // copy; the rest of the batch fills that block and a second one in
    // front of it. The extra rows copy heads on write; G starts new
    // buckets. Save writes each new head at its bucket's rank address.
    const uint32_t per_block =
        (*idx)->storage_index()->layout().objects_per_block();
    std::vector<float> fs;
    for (uint32_t i = 0; i < 2 * per_block; ++i) {
      fs.insert(fs.end(), far_f.begin(), far_f.end());
    }
    ASSERT_NO_FATAL_FAILURE(insert(fs.data(), 2 * per_block));
    const auto extras = MakeExtraRows(96);
    ASSERT_NO_FATAL_FAILURE(
        insert(extras.Row(0), static_cast<uint32_t>(extras.n())));
    ASSERT_NO_FATAL_FAILURE(insert(far_g.data(), 1));
    ASSERT_NO_FATAL_FAILURE(save_and_reopen());
    EXPECT_FALSE((*idx)->storage_index()->born_live().empty()) << uri;
    // The second, filled prepend now sits at F's rank addresses.
    EXPECT_GT(PairsWithHeadCount(idx->get(), far_f, per_block), 0u) << uri;
    ASSERT_NO_FATAL_FAILURE(ExpectSavedIndexIsWhole(
        *(*idx)->storage_index(), all, t.gen.queries, base_n, far_f, far_g));

    // Round 2: the heads the first save wrote at the rank addresses are
    // full, so one more F copies them away again and prepends in front of
    // the copies; another G grows born-live buckets.
    ASSERT_NO_FATAL_FAILURE(insert(far_f.data(), 1));
    ASSERT_NO_FATAL_FAILURE(insert(far_g.data(), 1));
    ASSERT_NO_FATAL_FAILURE(save_and_reopen());
    EXPECT_GT(PairsWithHeadCount(idx->get(), far_f, 1), 0u) << uri;
    ASSERT_NO_FATAL_FAILURE(ExpectSavedIndexIsWhole(
        *(*idx)->storage_index(), all, t.gen.queries, base_n, far_f, far_g));
    idx->reset();
    std::remove(meta.c_str());
    std::remove((meta + ".image").c_str());
    if (scheme == "file:") std::remove(uri.substr(5).c_str());
  }
}

// ---------------------------------------------------------------------------
// Staging I/O: bursts on the updater's own queue
// ---------------------------------------------------------------------------

/// Queue-making wrapper over a `mem:` device that logs, per queue, every
/// read's offset and the peak number of reads in flight, plus the end of
/// the highest byte ever written through the device itself.
class RecordingDevice : public storage::BlockDevice {
 public:
  struct QueueLog {
    std::vector<uint64_t> offsets;
    uint32_t in_flight = 0;
    uint32_t peak_in_flight = 0;
  };

  explicit RecordingDevice(std::unique_ptr<storage::SimulatedDevice> inner)
      : inner_(std::move(inner)) {}

  Status SubmitRead(const storage::IoRequest& req) override {
    return inner_->SubmitRead(req);
  }
  size_t PollCompletions(storage::IoCompletion* out, size_t max) override {
    return inner_->PollCompletions(out, max);
  }
  Status Write(uint64_t offset, const void* data, uint32_t length) override {
    written_end_ = std::max(written_end_, offset + length);
    return inner_->Write(offset, data, length);
  }
  uint64_t capacity() const override { return inner_->capacity(); }
  uint32_t outstanding() const override { return inner_->outstanding(); }
  std::string name() const override { return "recording"; }
  storage::DeviceStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

  storage::QueueResult CreateQueue(
      const storage::QueueOptions& options) override {
    E2_ASSIGN_OR_RETURN(auto queue, inner_->CreateQueue(options));
    logs_.push_back(std::make_unique<QueueLog>());
    return std::unique_ptr<storage::BlockDevice>(
        new Queue(std::move(queue), logs_.back().get()));
  }

  uint64_t written_end() const { return written_end_; }
  const std::vector<std::unique_ptr<QueueLog>>& logs() const { return logs_; }

 private:
  class Queue : public storage::BlockDevice {
   public:
    Queue(std::unique_ptr<storage::BlockDevice> inner, QueueLog* log)
        : inner_(std::move(inner)), log_(log) {}
    Status SubmitRead(const storage::IoRequest& req) override {
      E2_RETURN_NOT_OK(inner_->SubmitRead(req));
      log_->offsets.push_back(req.offset);
      log_->peak_in_flight = std::max(log_->peak_in_flight, ++log_->in_flight);
      return Status::OK();
    }
    size_t PollCompletions(storage::IoCompletion* out, size_t max) override {
      const size_t n = inner_->PollCompletions(out, max);
      log_->in_flight -= static_cast<uint32_t>(n);
      return n;
    }
    Status Write(uint64_t offset, const void* data, uint32_t length) override {
      return inner_->Write(offset, data, length);
    }
    uint64_t capacity() const override { return inner_->capacity(); }
    uint32_t outstanding() const override { return inner_->outstanding(); }
    std::string name() const override { return "recording queue"; }
    storage::DeviceStats stats() const override { return inner_->stats(); }
    void ResetStats() override { inner_->ResetStats(); }

   private:
    std::unique_ptr<storage::BlockDevice> inner_;
    QueueLog* log_;
  };

  std::unique_ptr<storage::SimulatedDevice> inner_;
  uint64_t written_end_ = 0;
  std::vector<std::unique_ptr<QueueLog>> logs_;
};

/// Build straight through the core builder onto `device`.
Result<std::unique_ptr<core::StorageIndex>> BuildCore(
    const TestData& t, storage::BlockDevice* device) {
  lsh::E2lshConfig cfg = t.cfg;
  cfg.x_max = t.gen.base.XMax();
  E2_ASSIGN_OR_RETURN(
      const lsh::E2lshParams params,
      lsh::ComputeParams(t.gen.base.n(), t.gen.base.dim(), cfg));
  return core::IndexBuilder::Build(t.gen.base, params, device);
}

TEST(LiveUpdate, InsertReadsOnlyOldPagesOnceEachInDeepBursts) {
  auto t = MakeData();
  auto mem = storage::SimulatedDevice::Create(storage::MemoryModel(256ULL << 20));
  ASSERT_TRUE(mem.ok());
  RecordingDevice dev(std::move(*mem));
  auto index = BuildCore(t, &dev);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const uint64_t built_end = dev.written_end();
  const core::IndexLayout& layout = (*index)->layout();

  core::LiveUpdater live(index->get());
  ASSERT_EQ(dev.logs().size(), 1u);  // the updater's private queue
  const RecordingDevice::QueueLog& log = *dev.logs()[0];
  const auto extras = MakeExtraRows(1);
  auto id = live.Insert(extras.Row(0));
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(live.n(), t.gen.base.n() + 1);

  // Every read is of a block the build wrote: the blocks the insert
  // allocates are written without being read.
  ASSERT_FALSE(log.offsets.empty());
  for (const uint64_t off : log.offsets) {
    const bool old_block =
        off >= layout.bucket_base &&
        (off - layout.bucket_base) % layout.block_bytes == 0 &&
        off + layout.block_bytes <= built_end;
    EXPECT_TRUE(old_block) << "read at " << off;
  }
  std::vector<uint64_t> sorted = log.offsets;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << "a page was read twice";
  // The reads went out as bursts, not one at a time.
  EXPECT_GT(log.peak_in_flight, 1u);
}

/// Pass-through over a device that keeps BlockDevice's default
/// CreateQueue (Unimplemented).
class NoQueueDevice : public storage::BlockDevice {
 public:
  explicit NoQueueDevice(storage::BlockDevice* inner) : inner_(inner) {}
  Status SubmitRead(const storage::IoRequest& req) override {
    return inner_->SubmitRead(req);
  }
  size_t PollCompletions(storage::IoCompletion* out, size_t max) override {
    return inner_->PollCompletions(out, max);
  }
  Status Write(uint64_t offset, const void* data, uint32_t length) override {
    return inner_->Write(offset, data, length);
  }
  uint64_t capacity() const override { return inner_->capacity(); }
  uint32_t outstanding() const override { return inner_->outstanding(); }
  std::string name() const override { return "no-queue"; }
  storage::DeviceStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  storage::BlockDevice* inner_;
};

TEST(LiveUpdate, InsertWithoutNativeQueuesFailsAndChangesNothing) {
  auto t = MakeData();
  auto mem = storage::SimulatedDevice::Create(storage::MemoryModel(256ULL << 20));
  ASSERT_TRUE(mem.ok());
  auto index = BuildCore(t, mem->get());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  // A device that cannot create a queue: a staging burst on the shared
  // device-level path would swallow the serving threads' completions,
  // so inserts refuse with the device's status.
  NoQueueDevice no_queues(mem->get());
  auto view = (*index)->WithDevice(&no_queues);
  core::LiveUpdater live(view.get());
  const uint64_t n0 = live.n();
  const auto extras = MakeExtraRows(2);

  EXPECT_EQ(live.Insert(extras.Row(0)).status().code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(live.InsertBatch(extras.Row(0), 2).status().code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(live.n(), n0);
  EXPECT_EQ(live.epoch_seq(), 0u);
  EXPECT_EQ(live.counters().inserts, 0u);
  EXPECT_EQ(live.counters().staged_bytes, 0u);
  // Removes and restores read nothing from the device: unaffected.
  EXPECT_TRUE(live.Remove(3).ok());
  EXPECT_TRUE(live.Restore(3).ok());
}

// ---------------------------------------------------------------------------
// Concurrent soak: mutations racing a serving engine
// ---------------------------------------------------------------------------

/// (device URI template, engine shards). "file:" / "uring:" get a
/// concrete temp path substituted in the test body.
using SoakParam = std::tuple<const char*, uint32_t>;

class LiveUpdateSoak : public ::testing::TestWithParam<SoakParam> {};

TEST_P(LiveUpdateSoak, MixedReadWriteSoakKeepsEveryOracle) {
  std::string uri = std::get<0>(GetParam());
  const uint32_t shards = std::get<1>(GetParam());
  if (uri.rfind("uring:", 0) == 0) {
    if (!storage::UringDevice::Available()) {
      GTEST_SKIP() << "io_uring unavailable in this environment";
    }
  }
  if (uri == "file:" || uri == "uring:") {
    uri += ::testing::TempDir() + "/e2_live_soak_" +
           std::to_string(shards) + (uri[0] == 'f' ? "_f.bin" : "_u.bin");
  }

  auto t = MakeData();
  auto idx = BuildOn(t, uri);
  ASSERT_TRUE(idx.ok()) << uri << ": " << idx.status().ToString();
  const uint32_t base_n = static_cast<uint32_t>((*idx)->n());

  // Id roles: [0, 50) removed mid-soak and never restored; [50, 100)
  // churned (removed + restored repeatedly, restored at the end);
  // [100, 300) never touched — stable exact-match targets.
  constexpr uint32_t kDoomed = 50;
  constexpr uint32_t kChurn = 50;
  constexpr uint32_t kStable = 200;
  const auto extras = MakeExtraRows(150);

  // One answer slot per reader: a reader submits with its slot's index
  // as the tag and waits on that slot, so the answers are routed by tag
  // from the shard workers to the two reader threads.
  struct ReaderSlot {
    std::mutex mu;
    std::condition_variable filled;
    std::optional<core::QueryResult> result;
  };
  std::array<ReaderSlot, 2> slots;
  ServeSpec serve;
  serve.k = 3;
  serve.search.shards = shards;
  serve.on_result = [&slots](core::QueryResult&& r) {
    ReaderSlot& slot = slots.at(r.tag);
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.result = std::move(r);
    slot.filled.notify_one();
  };
  auto server = (*idx)->Serve(serve);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  std::atomic<uint32_t> inserted{0};
  std::atomic<bool> doomed_done{false};
  std::atomic<bool> writer_done{false};
  std::atomic<uint64_t> reader_failures{0};

  std::thread writer([&] {
    // Interleave: inserts, the one-way doomed removals, and churn
    // remove/restore cycles, all publishing epochs under live reads.
    for (uint32_t j = 0; j < extras.n(); ++j) {
      auto id = (*idx)->Insert(extras.Row(j));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      ASSERT_EQ(*id, base_n + j);
      inserted.store(j + 1, std::memory_order_release);
      if (j < kDoomed) {
        ASSERT_TRUE((*idx)->Remove(j).ok());
        if (j + 1 == kDoomed) doomed_done.store(true,
                                                std::memory_order_release);
      }
      const uint32_t churn_id = kDoomed + (j % kChurn);
      ASSERT_TRUE((*idx)->Remove(churn_id).ok());
      ASSERT_TRUE((*idx)->Restore(churn_id).ok());
    }
    // Batch forms too, racing the readers.
    std::vector<uint32_t> churn_ids(kChurn);
    for (uint32_t i = 0; i < kChurn; ++i) churn_ids[i] = kDoomed + i;
    ASSERT_TRUE((*idx)->RemoveBatch(churn_ids.data(), kChurn).ok());
    ASSERT_TRUE((*idx)->RestoreBatch(churn_ids.data(), kChurn).ok());
    writer_done.store(true, std::memory_order_release);
  });

  auto reader = [&](uint64_t tag, uint64_t seed) {
    ReaderSlot& slot = slots[tag];
    uint64_t state = seed;
    auto next = [&state] {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<uint32_t>(state >> 33);
    };
    for (int round = 0; round < 400; ++round) {
      // Pick a target: a stable base id, or an already-published insert.
      const uint32_t pub = inserted.load(std::memory_order_acquire);
      uint32_t want;
      const float* vec;
      if (pub > 0 && next() % 2 == 0) {
        const uint32_t j = next() % pub;
        want = base_n + j;
        vec = extras.Row(j);
      } else {
        want = kDoomed + kChurn + next() % kStable;
        vec = t.gen.base.Row(want);
      }
      const bool check_doomed = doomed_done.load(std::memory_order_acquire);
      auto id = (*server)->Submit(vec, 3, tag);
      if (!id.ok()) {
        ++reader_failures;
        continue;
      }
      core::QueryResult qr;
      {
        std::unique_lock<std::mutex> lock(slot.mu);
        slot.filled.wait(lock, [&] { return slot.result.has_value(); });
        qr = std::move(*slot.result);
        slot.result.reset();
      }
      if (qr.id != *id || !qr.status.ok() || qr.stats.partial ||
          qr.stats.corrupt_blocks > 0 || qr.stats.io_errors > 0 ||
          qr.neighbors.empty() || qr.neighbors[0].id != want ||
          qr.neighbors[0].dist != 0.f) {
        ++reader_failures;
        continue;
      }
      if (check_doomed) {
        // Every removal published before this Submit: no doomed id may
        // surface in any result from here on.
        for (const auto& nb : qr.neighbors) {
          if (nb.id < kDoomed) ++reader_failures;
        }
      }
    }
  };
  std::thread r1(reader, 0, 0x9e3779b97f4a7c15ULL);
  std::thread r2(reader, 1, 0xd1b54a32d192ed03ULL);

  writer.join();
  r1.join();
  r2.join();
  EXPECT_EQ(reader_failures.load(), 0u) << uri << " shards=" << shards;

  (*server)->Close();
  (*server)->Wait();
  server->reset();

  // Quiesced sweep through the direct engine: the end state holds.
  ASSERT_TRUE((*idx)->Configure(SearchSpec{shards, 32, 256}).ok());
  for (uint32_t d = 0; d < kDoomed; ++d) {
    auto res = (*idx)->Search(t.gen.base.Row(d), 1);
    ASSERT_TRUE(res.ok());
    ASSERT_FALSE(res->empty());
    EXPECT_NE((*res)[0].id, d) << "doomed id resurfaced";
  }
  for (uint32_t c = kDoomed; c < kDoomed + kChurn; ++c) {
    auto res = (*idx)->Search(t.gen.base.Row(c), 1);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ((*res)[0].id, c) << "churned id not restored";
  }
  for (uint64_t j = 0; j < extras.n(); ++j) {
    core::QueryStats qs;
    auto res = (*idx)->Search(extras.Row(j), 1, &qs);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ((*res)[0].id, base_n + j);
    EXPECT_EQ((*res)[0].dist, 0.f);
    EXPECT_EQ(qs.corrupt_blocks, 0u);
    EXPECT_EQ(qs.io_errors, 0u);
  }

  const auto dev = (*idx)->device_stats();
  EXPECT_EQ(dev.updates_applied,
            extras.n() + kDoomed + 2ull * extras.n() + 2ull * kChurn);
  EXPECT_GT(dev.epochs_published, 0u);
  EXPECT_EQ(dev.update_lag, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Devices, LiveUpdateSoak,
    ::testing::Combine(::testing::Values("mem:", "sim:cssd*4", "file:",
                                         "uring:"),
                       ::testing::Values(1u, 4u)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == ':' || c == '*' || c == '?') c = '_';
      }
      return name + "_s" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Fault-injected inserts
// ---------------------------------------------------------------------------

TEST(LiveUpdate, InsertsSurviveInjectedFaultsWithRetry) {
  auto t = MakeData();
  // Build on a clean device, persist, reopen behind the fault + retry
  // stack: every staging read can fail transiently, the retry layer
  // absorbs almost all of it, and the test retries the rest — a failed
  // Insert must roll back cleanly enough that the retry lands intact.
  auto clean = BuildOn(t, "mem:");
  ASSERT_TRUE(clean.ok());
  const std::string meta = ::testing::TempDir() + "/e2_live_fault.meta";
  ASSERT_TRUE((*clean)->Save(meta).ok());
  clean->reset();

  auto idx = Index::Open(
      meta, OpenSpec{"mem:?fault=complete:0.05,seed:11&retry=8"}, t.gen.base);
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  const uint64_t n0 = (*idx)->n();

  const auto extras = MakeExtraRows(40);
  for (uint64_t j = 0; j < extras.n(); ++j) {
    Status last = Status::OK();
    bool landed = false;
    for (int attempt = 0; attempt < 6 && !landed; ++attempt) {
      auto id = (*idx)->Insert(extras.Row(j));
      if (id.ok()) {
        EXPECT_EQ(*id, n0 + j);
        landed = true;
      } else {
        last = id.status();
      }
    }
    ASSERT_TRUE(landed) << "row " << j << ": " << last.ToString();
  }

  for (uint64_t j = 0; j < extras.n(); ++j) {
    core::QueryStats qs;
    auto hit = (*idx)->Search(extras.Row(j), 1, &qs);
    ASSERT_TRUE(hit.ok());
    EXPECT_EQ((*hit)[0].id, n0 + j) << "row " << j;
    EXPECT_EQ((*hit)[0].dist, 0.f) << "row " << j;
    EXPECT_EQ(qs.corrupt_blocks, 0u);
  }
  EXPECT_GT((*idx)->device_stats().faults_injected, 0u);
}

/// Pass-through over a queue-making device whose writes fail once armed.
class FailingWriteDevice : public storage::BlockDevice {
 public:
  explicit FailingWriteDevice(storage::BlockDevice* inner) : inner_(inner) {}
  /// Let `writes` more writes land, then fail every write; -1 disarms.
  void FailAfter(int64_t writes) { left_ = writes; }

  Status SubmitRead(const storage::IoRequest& req) override {
    return inner_->SubmitRead(req);
  }
  size_t PollCompletions(storage::IoCompletion* out, size_t max) override {
    return inner_->PollCompletions(out, max);
  }
  Status Write(uint64_t offset, const void* data, uint32_t length) override {
    if (left_ == 0) return Status::IoError("injected write failure");
    if (left_ > 0) --left_;
    return inner_->Write(offset, data, length);
  }
  uint64_t capacity() const override { return inner_->capacity(); }
  uint32_t outstanding() const override { return inner_->outstanding(); }
  std::string name() const override { return "failing-write"; }
  storage::DeviceStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }
  storage::QueueResult CreateQueue(
      const storage::QueueOptions& options) override {
    return inner_->CreateQueue(options);
  }

 private:
  storage::BlockDevice* inner_;
  int64_t left_ = -1;
};

TEST(LiveUpdate, FailedSaveKeepsEveryChainWholeAndRetrySucceeds) {
  auto t = MakeData();
  const uint64_t base_n = t.gen.base.n();
  const uint32_t dim = t.gen.base.dim();
  // F's built heads are full, so inserting F copies them away from their
  // rank addresses; G starts born-live buckets (see
  // SaveRelocatesFullHeadsAndKeepsEveryEntry).
  const std::vector<float> far_f(dim, 40.0f);
  const std::vector<float> far_g(dim, -40.0f);
  for (int i = 0; i < 120; ++i) t.gen.base.Append(far_f.data());
  auto mem = storage::SimulatedDevice::Create(storage::MemoryModel(256ULL << 20));
  ASSERT_TRUE(mem.ok());
  FailingWriteDevice dev(mem->get());
  auto index = BuildCore(t, &dev);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const data::Dataset& built = t.gen.base;
  data::Dataset all = built;

  core::LiveUpdater live(index->get());
  const auto extras = MakeExtraRows(24);
  std::vector<float> rows(far_f);
  rows.insert(rows.end(), extras.Row(0), extras.Row(0) + extras.n() * dim);
  rows.insert(rows.end(), far_g.begin(), far_g.end());
  const uint32_t count = static_cast<uint32_t>(rows.size() / dim);
  ASSERT_TRUE(live.InsertBatch(rows.data(), count).ok());
  for (uint32_t i = 0; i < count; ++i) all.Append(rows.data() + size_t{i} * dim);

  // The save writes one block per redirected built bucket: a few of them
  // land at their rank addresses, then the device fails. Nothing links
  // to those addresses, so the published chains still answer whole.
  dev.FailAfter(4);
  EXPECT_EQ(live.Flush().code(), StatusCode::kIoError);
  ASSERT_NO_FATAL_FAILURE(ExpectAnswersAreWhole(
      **index, built, all, t.gen.queries, base_n, far_f, far_g));

  dev.FailAfter(-1);
  ASSERT_TRUE(live.Flush().ok());
  const std::string meta = ::testing::TempDir() + "/e2_live_failed_save.meta";
  ASSERT_TRUE(core::SaveIndexMeta(**index, meta).ok());
  auto reopened = core::LoadIndexMeta(meta, &dev);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_NO_FATAL_FAILURE(ExpectSavedIndexIsWhole(
      **reopened, all, t.gen.queries, base_n, far_f, far_g));
  std::remove(meta.c_str());
}

}  // namespace
}  // namespace e2lshos
