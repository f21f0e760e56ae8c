// Tests for the public facade (e2lshos::Index) and the device-URI
// parser.
//
// The load-bearing property is *parity*: Build -> Save -> Open ->
// SearchBatch through the facade must return bit-identical ids and
// distances to the hand-wired builder + persistence + QueryEngine path,
// across device URIs (mem:, sim:cssd, file:) and shard counts (1, 4).
// The candidate cap is set high enough that draining never triggers, so
// results are deterministic and the comparison is exact.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "api/index.h"
#include "core/builder.h"
#include "core/persistence.h"
#include "core/query_engine.h"
#include "data/generators.h"
#include "data/registry.h"
#include "e2lsh/in_memory.h"
#include "storage/device_registry.h"
#include "storage/simulated_device.h"
#include "streaming_test_util.h"

namespace e2lshos {
namespace {

// ---------------------------------------------------------------------------
// ParseDeviceUri
// ---------------------------------------------------------------------------

using storage::DeviceUri;
using storage::ParseDeviceUri;

TEST(DeviceUri, ParsesEverySchemeAndRoundTrips) {
  const char* uris[] = {
      "mem:",
      "mem:?capacity=1073741824",
      "sim:cssd",
      "sim:hdd",
      "sim:essd*8",
      "sim:cssd*4?iface=spdk",
      "sim:xlfdd*12?iface=xlfdd&queue=2048",
      "file:/tmp/img.bin",
      "file:/tmp/img.bin?direct=1&threads=8",
      "file:relative/path?queue=64",
      "uring:/tmp/img.bin?direct=1&sqpoll=1",
      "uring:/tmp/img.bin?fixed=1",
  };
  for (const char* uri : uris) {
    auto parsed = ParseDeviceUri(uri);
    ASSERT_TRUE(parsed.ok()) << uri << ": " << parsed.status().ToString();
    // Canonical form re-parses to the same canonical form.
    auto reparsed = ParseDeviceUri(parsed->ToString());
    ASSERT_TRUE(reparsed.ok()) << parsed->ToString();
    EXPECT_EQ(reparsed->ToString(), parsed->ToString()) << uri;
  }
}

TEST(DeviceUri, ParsedFieldsMatch) {
  auto sim = ParseDeviceUri("sim:essd*8?iface=spdk&queue=2048");
  ASSERT_TRUE(sim.ok());
  EXPECT_EQ(sim->scheme, DeviceUri::Scheme::kSim);
  EXPECT_EQ(sim->sim_kind, storage::DeviceKind::kEssd);
  EXPECT_EQ(sim->sim_count, 8u);
  EXPECT_EQ(sim->iface, "spdk");
  EXPECT_EQ(sim->queue_capacity, 2048u);

  auto file = ParseDeviceUri("file:/a/b?direct=1&threads=2&capacity=4m");
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->scheme, DeviceUri::Scheme::kFile);
  EXPECT_EQ(file->path, "/a/b");
  EXPECT_TRUE(file->direct_io);
  EXPECT_EQ(file->io_threads, 2u);
  EXPECT_EQ(file->capacity, 4ULL << 20);

  auto uring = ParseDeviceUri("uring:/a/b?sqpoll=1");
  ASSERT_TRUE(uring.ok());
  EXPECT_EQ(uring->scheme, DeviceUri::Scheme::kUring);
  EXPECT_TRUE(uring->sqpoll);
  EXPECT_FALSE(uring->direct_io);
  // fixed=1 is uring-only.
  EXPECT_FALSE(uring->fixed_buffers);
  auto fixed = ParseDeviceUri("uring:/a/b?fixed=1");
  ASSERT_TRUE(fixed.ok());
  EXPECT_TRUE(fixed->fixed_buffers);
}

TEST(DeviceUri, RejectsMalformedUris) {
  const char* bad[] = {
      "",                          // no scheme
      "file",                      // no colon
      "ssd:cssd",                  // unknown scheme
      "mem:stuff",                 // mem takes no body
      "sim:",                      // missing kind
      "sim:nvme",                  // unknown kind
      "sim:cssd*0",                // zero stripe
      "sim:cssd*four",             // malformed stripe count
      "sim:cssd?direct=1",         // direct doesn't apply to sim
      "sim:cssd?iface=verbs",      // unknown interface model
      "file:/p?sqpoll=1",          // sqpoll is uring-only
      "uring:/p?threads=4",        // threads is file-only
      "file:/p?direct=yes",        // bool must be 0|1
      "file:/p?threads=0",         // zero pool
      "file:/p?queue=0",           // zero queue
      "file:/p?capacity=12q",      // bad size suffix
      "file:/p?capacity=-1",       // negative (strtoull would wrap)
      "file:/p?queue=+4",          // explicit sign rejected
      "file:/p?queue= 4",          // leading whitespace rejected
      "file:/p?capacity=99999999999999999999",  // overflow, not saturation
      "file:/p?bogus=1",           // unknown key
      "file:/p?direct",            // key without value
      "mem:?capacity=",            // empty value
      "file:/p?fixed=1",           // fixed is uring-only
      "mem:?queues=4",             // every device makes queues: no knob
  };
  for (const char* uri : bad) {
    auto parsed = ParseDeviceUri(uri);
    EXPECT_FALSE(parsed.ok()) << "'" << uri << "' should have been rejected";
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << uri;
    }
  }
}

TEST(DeviceUri, OpenRejectsPathlessFileAndOversizedStripe) {
  storage::DeviceUriOpenOptions opt;
  opt.create = true;
  opt.capacity = 1 << 20;
  EXPECT_EQ(storage::OpenDeviceUri("file:", opt).status().code(),
            StatusCode::kInvalidArgument);
  // mem: with no capacity anywhere.
  EXPECT_EQ(storage::OpenDeviceUri("mem:", storage::DeviceUriOpenOptions{})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(DeviceUri, OpenBuildsSimStacksAndChargesInterface) {
  // Explicit capacity: the 2 TB model nameplate cannot be mapped under
  // TSan's shadow memory (the facade always supplies a capacity too).
  storage::DeviceUriOpenOptions opt;
  opt.capacity = 1ULL << 30;
  auto plain = storage::OpenDeviceUri("sim:cssd", opt);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  EXPECT_EQ((*plain)->name(), "cSSD");
  EXPECT_EQ((*plain)->capacity(), 1ULL << 30);

  auto striped = storage::OpenDeviceUri("sim:cssd*4?iface=spdk", opt);
  ASSERT_TRUE(striped.ok()) << striped.status().ToString();
  EXPECT_NE((*striped)->name().find("SPDK"), std::string::npos)
      << (*striped)->name();
}

// ---------------------------------------------------------------------------
// Facade parity
// ---------------------------------------------------------------------------

struct TestData {
  data::GeneratedData gen;
  lsh::E2lshConfig cfg;
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
  t.gen = data::Generate("api", n, 25, spec);
  t.cfg.rho = 0.25;
  t.cfg.s_factor = 1000.0;  // no draining: answers must match exactly
  return t;
}

/// The hand-wired reference path: builder + `mem:` device + QueryEngine.
std::vector<std::vector<util::Neighbor>> ReferenceResults(const TestData& t,
                                                          uint32_t k) {
  auto dev = storage::SimulatedDevice::Create(storage::MemoryModel(2ULL << 30));
  EXPECT_TRUE(dev.ok());
  lsh::E2lshConfig cfg = t.cfg;
  cfg.x_max = t.gen.base.XMax();
  auto params = lsh::ComputeParams(t.gen.base.n(), t.gen.base.dim(), cfg);
  EXPECT_TRUE(params.ok());
  auto idx = core::IndexBuilder::Build(t.gen.base, *params, dev->get());
  EXPECT_TRUE(idx.ok());
  core::QueryEngine engine(idx->get(), &t.gen.base);
  auto batch = engine.SearchBatch(t.gen.queries, k);
  EXPECT_TRUE(batch.ok());
  return batch->results;
}

void ExpectSameResults(const std::vector<std::vector<util::Neighbor>>& got,
                       const std::vector<std::vector<util::Neighbor>>& want,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t q = 0; q < want.size(); ++q) {
    ASSERT_EQ(got[q].size(), want[q].size()) << label << " query " << q;
    for (size_t i = 0; i < want[q].size(); ++i) {
      EXPECT_EQ(got[q][i].id, want[q][i].id)
          << label << " query " << q << " rank " << i;
      EXPECT_FLOAT_EQ(got[q][i].dist, want[q][i].dist)
          << label << " query " << q << " rank " << i;
    }
  }
}

class ApiParity : public ::testing::TestWithParam<const char*> {};

TEST_P(ApiParity, BuildSaveOpenSearchMatchesHandWiredPath) {
  const uint32_t k = 5;
  auto t = MakeData();
  const auto want = ReferenceResults(t, k);

  std::string uri = GetParam();
  const std::string image = ::testing::TempDir() + "/e2_api_image.bin";
  const std::string meta = ::testing::TempDir() + "/e2_api_meta.bin";
  // The file: parameterization needs a concrete path.
  if (uri == std::string("file:")) uri += image;

  IndexSpec spec;
  spec.lsh = t.cfg;
  spec.device_uri = uri;
  spec.device_capacity = 2ULL << 30;

  // Build through the facade; results must match before persistence too.
  auto built = Index::Build(spec, t.gen.base /* copy: reused below */);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ((*built)->n(), t.gen.base.n());
  EXPECT_EQ((*built)->dim(), t.gen.base.dim());
  {
    auto batch = (*built)->SearchBatch(t.gen.queries, k);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ExpectSameResults(batch->results, want, uri + " built");
  }
  ASSERT_TRUE((*built)->Save(meta).ok());
  const auto built_sizes = (*built)->sizes();
  built->reset();  // release the backing file before reopening

  for (const uint32_t shards : {1u, 4u}) {
    auto opened = Index::Open(meta, OpenSpec{uri}, t.gen.base);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    EXPECT_EQ((*opened)->sizes().storage_bytes, built_sizes.storage_bytes);
    ASSERT_TRUE((*opened)->Configure(SearchSpec{shards, 32, 256}).ok());
    auto batch = (*opened)->SearchBatch(t.gen.queries, k);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ExpectSameResults(batch->results, want,
                      uri + " shards=" + std::to_string(shards));
  }

  std::remove(meta.c_str());
  std::remove((meta + ".image").c_str());
  std::remove(image.c_str());
}

INSTANTIATE_TEST_SUITE_P(Devices, ApiParity,
                         ::testing::Values("mem:", "sim:cssd", "sim:cssd*4",
                                           "file:"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == ':' || c == '*' || c == '?') c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Facade behavior beyond parity
// ---------------------------------------------------------------------------

TEST(ApiIndex, FittedLadderRoundTripsAndMatchesInMemoryE2lsh) {
  // The registry's SIFT at n = 3000 barely collides at R = 1, so the
  // build starts its ladder at R = 2. The meta stores that ladder, and
  // the in-memory reference fits the same one from the same params.
  const data::DatasetSpec sift = *data::GetDatasetSpec("SIFT");
  const data::GeneratedData gen = data::MakeDataset(sift, 3000, 30);
  IndexSpec spec;
  spec.lsh = sift.lsh;
  spec.lsh.s_factor = 1000.0;  // no draining: answers must match exactly
  auto built = Index::Build(spec, gen.base);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const std::vector<double> fitted = (*built)->params().radii;
  EXPECT_EQ(fitted.front(), 2.0);

  const std::string meta = ::testing::TempDir() + "/e2_api_fitted_meta.bin";
  ASSERT_TRUE((*built)->Save(meta).ok());
  built->reset();
  auto opened = Index::Open(meta, OpenSpec{"mem:"}, gen.base);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->params().radii, fitted);

  auto mem = e2lsh::InMemoryE2lsh::Build(gen.base, (*opened)->params());
  ASSERT_TRUE(mem.ok());
  EXPECT_EQ((*mem)->params().radii, fitted);
  auto batch = (*opened)->SearchBatch(gen.queries, 5);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ExpectSameResults(batch->results, (*mem)->SearchBatch(gen.queries, 5).results,
                    "reopened vs InMemoryE2lsh");
  std::remove(meta.c_str());
  std::remove((meta + ".image").c_str());
}

TEST(ApiIndex, RejectsDirectBuildAndEmptyDataset) {
  auto t = MakeData(400);
  IndexSpec spec;
  spec.lsh = t.cfg;
  spec.device_uri = "file:/tmp/e2_api_direct.bin?direct=1";
  auto built = Index::Build(spec, t.gen.base);
  EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);

  IndexSpec mem_spec;
  mem_spec.device_uri = "mem:";
  EXPECT_EQ(Index::Build(mem_spec, data::Dataset("empty", 8)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ApiIndex, OpenRejectsShapeMismatchAndMissingSidecar) {
  auto t = MakeData(600);
  IndexSpec spec;
  spec.lsh = t.cfg;
  spec.device_uri = "mem:";
  auto built = Index::Build(spec, t.gen.base);
  ASSERT_TRUE(built.ok());
  const std::string meta = ::testing::TempDir() + "/e2_api_shape.bin";
  ASSERT_TRUE((*built)->Save(meta).ok());

  // Wrong dataset shape.
  auto wrong = MakeData(500);
  EXPECT_EQ(Index::Open(meta, OpenSpec{"mem:"}, wrong.gen.base)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // Sidecar removed: a volatile reopen cannot restore the image.
  std::remove((meta + ".image").c_str());
  EXPECT_EQ(Index::Open(meta, OpenSpec{"mem:"}, t.gen.base).status().code(),
            StatusCode::kNotFound);
  std::remove(meta.c_str());
}

TEST(ApiIndex, SingleQuerySearchMatchesBatch) {
  auto t = MakeData(1500);
  IndexSpec spec;
  spec.lsh = t.cfg;
  spec.device_uri = "mem:";
  auto idx = Index::Build(spec, t.gen.base);
  ASSERT_TRUE(idx.ok());
  auto batch = (*idx)->SearchBatch(t.gen.queries, 5);
  ASSERT_TRUE(batch.ok());
  for (uint64_t q = 0; q < t.gen.queries.n(); ++q) {
    core::QueryStats stats;
    auto one = (*idx)->Search(t.gen.queries.Row(q), 5, &stats);
    ASSERT_TRUE(one.ok());
    ExpectSameResults({*one}, {batch->results[q]},
                      "single query " + std::to_string(q));
    EXPECT_GT(stats.ios, 0u);
  }
}

TEST(ApiIndex, ReshapingTheEngineKeepsDeviceCounters) {
  // Configure drops the 2-shard engine and its queues; the reads they
  // served must stay counted by the device.
  auto t = MakeData(1500);
  IndexSpec spec;
  spec.lsh = t.cfg;
  spec.device_uri = "sim:cssd?cache=1m";
  spec.device_capacity = 64ULL << 20;
  auto idx = Index::Build(spec, t.gen.base);
  ASSERT_TRUE(idx.ok()) << idx.status().ToString();
  (*idx)->device()->ResetStats();
  SearchSpec two;
  two.shards = 2;
  ASSERT_TRUE((*idx)->Configure(two).ok());
  ASSERT_TRUE((*idx)->SearchBatch(t.gen.queries, 5).ok());
  ASSERT_TRUE((*idx)->SearchBatch(t.gen.queries, 5).ok());  // warm: hits
  const storage::DeviceStats served = (*idx)->device_stats();
  EXPECT_GT(served.reads_completed, 0u);
  EXPECT_GT(served.cache_hits, 0u);

  SearchSpec four;
  four.shards = 4;
  ASSERT_TRUE((*idx)->Configure(four).ok());
  const storage::DeviceStats reshaped = (*idx)->device_stats();
  EXPECT_EQ(reshaped.reads_completed, served.reads_completed);
  EXPECT_EQ(reshaped.cache_hits, served.cache_hits);
  EXPECT_EQ(reshaped.cache_misses, served.cache_misses);
}

TEST(ApiIndex, CandidateCapFactorRetunesWithoutRebuild) {
  auto t = MakeData(1500);
  IndexSpec spec;
  spec.lsh = t.cfg;
  spec.device_uri = "mem:";
  auto idx = Index::Build(spec, t.gen.base);
  ASSERT_TRUE(idx.ok());
  const uint64_t s_before = (*idx)->params().S;
  ASSERT_TRUE((*idx)->SetCandidateCapFactor(0.5).ok());
  EXPECT_LT((*idx)->params().S, s_before);
  EXPECT_FALSE((*idx)->SetCandidateCapFactor(0.0).ok());
  // Queries still run after the retune (engine was rebuilt).
  EXPECT_TRUE((*idx)->SearchBatch(t.gen.queries, 5).ok());
}

TEST(ApiIndex, ServeDeliversEveryQueryAndGuardsTheEngine) {
  auto t = MakeData(1500);
  IndexSpec spec;
  spec.lsh = t.cfg;
  spec.device_uri = "mem:";
  auto idx = Index::Build(spec, t.gen.base);
  ASSERT_TRUE(idx.ok());

  auto batch = (*idx)->SearchBatch(t.gen.queries, 5);
  ASSERT_TRUE(batch.ok());

  core::Collector collector;
  ServeSpec serve;
  serve.k = 5;
  serve.search.shards = 2;
  serve.on_result = collector.Callback();
  auto server = (*idx)->Serve(serve);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // The engine is single-owner while serving — and so is the device:
  // Save's image dump polls the device-level path a 1-shard server uses.
  EXPECT_EQ((*idx)->SearchBatch(t.gen.queries, 5).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*idx)->Serve(serve).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*idx)->Save(::testing::TempDir() + "/e2_api_live.bin").code(),
            StatusCode::kFailedPrecondition);

  std::vector<std::pair<uint64_t, uint64_t>> ids;  // (query row, id)
  for (uint64_t q = 0; q < t.gen.queries.n(); ++q) {
    auto id = (*server)->Submit(t.gen.queries.Row(q));
    ASSERT_TRUE(id.ok());
    ids.emplace_back(q, *id);
  }
  (*server)->Close();
  (*server)->Wait();
  for (const auto& [q, id] : ids) {
    core::QueryResult result;
    ASSERT_TRUE(collector.Await(id, &result)) << "query " << q;
    ASSERT_TRUE(result.status.ok()) << result.status.ToString();
    ExpectSameResults({result.neighbors}, {batch->results[q]},
                      "served query " + std::to_string(q));
  }
  const auto snap = (*server)->stats();
  EXPECT_EQ(snap.completed, t.gen.queries.n());

  server->reset();  // destroying the Server releases the engine
  EXPECT_TRUE((*idx)->SearchBatch(t.gen.queries, 5).ok());
}

TEST(ApiIndex, ServerStopUnblocksProducers) {
  auto t = MakeData(1500);
  IndexSpec spec;
  spec.lsh = t.cfg;
  spec.device_uri = "mem:";
  auto idx = Index::Build(spec, t.gen.base);
  ASSERT_TRUE(idx.ok());

  ServeSpec serve;
  serve.k = 3;
  serve.queue_capacity = 2;  // tiny: producers hit backpressure fast
  auto server = (*idx)->Serve(serve);
  ASSERT_TRUE(server.ok());

  // A producer pushing far more than the queue holds blocks in Submit()
  // regularly; Stop() must wake it (closed queue) rather than leave it
  // waiting on a drain that never comes.
  std::atomic<bool> done{false};
  std::thread producer([&] {
    for (int i = 0; i < 100000 && !done.load(); ++i) {
      if (!(*server)->Submit(t.gen.queries.Row(0)).ok()) break;
    }
    done.store(true);
  });
  while (!done.load() && (*server)->stats().completed < 10) {
    std::this_thread::yield();
  }
  (*server)->Stop();  // must not deadlock against the blocked producer
  producer.join();
  EXPECT_FALSE((*server)->Submit(t.gen.queries.Row(0)).ok());
}

TEST(ApiIndex, IndexDestroyedBeforeServerIsSafe) {
  auto t = MakeData(1500);
  IndexSpec spec;
  spec.lsh = t.cfg;
  spec.device_uri = "mem:";
  auto idx = Index::Build(spec, t.gen.base);
  ASSERT_TRUE(idx.ok());

  ServeSpec serve;
  serve.k = 3;
  auto server = (*idx)->Serve(serve);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Submit(t.gen.queries.Row(0)).ok());

  // Documented misuse, but it must not be a use-after-free: the Index
  // stops serving on destruction and detaches the Server, which then
  // rejects submissions and destructs cleanly on its own.
  idx->reset();
  EXPECT_FALSE((*server)->Submit(t.gen.queries.Row(0)).ok());
  server->reset();
}

}  // namespace
}  // namespace e2lshos
