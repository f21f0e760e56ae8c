// Skewed-traffic cache sweep (no single paper figure; supports the
// Sec. 7 "storage-specific issues" discussion): production query streams
// are rarely i.i.d. — a few hot queries dominate (Zipf) or a hot working
// set absorbs most of the load. This bench measures what the PR's
// transparent DRAM read cache (storage::CacheDevice, `cache=SIZE` in any
// device URI) buys on such streams.
//
// One index image is built once, copied onto a simulated cSSD, and
// queried under skew distribution x cache size:
//
//   distributions: Zipf theta=0.5, Zipf theta=1.0, hotspot 90/10
//   cache sizes:   0 (baseline), 5%, 10%, 25% of the index image
//
// Per cell: a warmup pass populates the cache, device counters reset
// (cache *contents* survive ResetStats by design), then a measured pass
// reports hit rate, QPS, and p99 latency. Headline acceptance cell:
// Zipf theta=1.0 with a cache of 10% of the index must serve >= 90% of
// reads from DRAM and beat the uncached QPS; its rows carry the
// headline_* keys, which name that cell in the JSONL output.
#include "common.h"

#include <algorithm>

#include "core/query_engine.h"
#include "data/generators.h"
#include "storage/simulated_device.h"
#include "util/aligned_buffer.h"

using namespace e2lshos;

namespace {

// p99 of per-query wall latency, in microseconds.
double P99Us(const std::vector<core::QueryStats>& stats) {
  if (stats.empty()) return 0.0;
  std::vector<uint64_t> ns;
  ns.reserve(stats.size());
  for (const auto& s : stats) ns.push_back(s.wall_ns);
  std::sort(ns.begin(), ns.end());
  const size_t idx = (ns.size() - 1) * 99 / 100;
  return static_cast<double>(ns[idx]) / 1e3;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::Args::Parse(argc, argv);
  auto json = args.OpenJson();
  const std::string name = args.dataset.empty() ? "SIFT" : args.dataset;
  auto spec = data::GetDatasetSpec(name);
  if (!spec.ok()) return 1;
  const uint64_t n = args.n ? args.n : 2000;
  // Measured draws per cell. The population behind the skewed modes is
  // deliberately small (32 distinct templates): hot-query traffic repeats,
  // and repeats are exactly what a read cache converts into DRAM hits.
  const uint64_t nq = args.queries ? args.queries : 256;
  constexpr uint64_t kPopulation = 32;

  auto w = bench::MakeWorkload(*spec, n, 16, 1);
  if (!w.ok()) {
    std::fprintf(stderr, "workload: %s\n", w.status().ToString().c_str());
    return 1;
  }

  // Build once on an instant device; copy the image into every cell.
  auto master_dev = storage::SimulatedDevice::Create(storage::MemoryModel(1ULL << 30));
  if (!master_dev.ok()) return 1;
  auto master =
      core::IndexBuilder::Build(w->gen.base, w->params, master_dev->get());
  if (!master.ok()) {
    std::fprintf(stderr, "build: %s\n", master.status().ToString().c_str());
    return 1;
  }
  const uint64_t image_bytes = (*master)->sizes().storage_bytes;

  struct Skew {
    const char* label;
    data::QueryDistribution dist;
    double theta;  // kZipf only
  };
  const Skew skews[] = {
      {"zipf0.5", data::QueryDistribution::kZipf, 0.5},
      {"zipf1.0", data::QueryDistribution::kZipf, 1.0},
      {"hotspot", data::QueryDistribution::kHotspot, 0.0},
  };
  const double cache_fracs[] = {0.0, 0.05, 0.10, 0.25};

  // One fixed query set per skew, drawn up front so every cache size of a
  // row answers the byte-identical stream.
  auto make_queries = [&](const Skew& s) {
    data::GeneratorSpec g = spec->gen;
    g.seed = spec->gen.seed + 7717;
    g.query_dist = s.dist;
    g.query_population = kPopulation;
    if (s.dist == data::QueryDistribution::kZipf) g.zipf_theta = s.theta;
    data::PointSampler sampler(g);
    data::Dataset qs("skew", g.dim);
    qs.Reserve(nq);
    std::vector<float> buf(g.dim);
    for (uint64_t i = 0; i < nq; ++i) {
      sampler.NextQuery(buf.data());
      qs.Append(buf.data());
    }
    return qs;
  };

  core::EngineOptions opts;
  opts.num_contexts = 32;
  opts.max_inflight_ios = 256;

  bench::PrintHeader(
      "Skew x cache sweep on sim:cssd (" + name + ", n=" + std::to_string(n) +
          ", population=" + std::to_string(kPopulation) +
          ", image=" + bench::FmtBytes(image_bytes) + ")",
      {"skew", "cache", "hit rate", "QPS", "p99 us", "mean I/Os"});

  for (const auto& skew : skews) {
    const data::Dataset queries = make_queries(skew);
    double qps_nocache = 0.0;
    for (const double frac : cache_fracs) {
      const uint64_t cache_bytes =
          frac > 0 ? static_cast<uint64_t>(frac * image_bytes) : 0;
      std::string uri = "sim:cssd";
      if (cache_bytes > 0) uri += "?cache=" + std::to_string(cache_bytes);
      storage::DeviceUriOpenOptions oopts;
      // Size the simulated drive to the image (the model's nameplate
      // capacity is irrelevant here), rounded up for the stripe layout.
      oopts.capacity = (image_bytes + (1ULL << 20)) & ~((1ULL << 20) - 1);
      auto dev = storage::OpenDeviceUri(uri, oopts);
      if (!dev.ok()) {
        std::fprintf(stderr, "open %s: %s\n", uri.c_str(),
                     dev.status().ToString().c_str());
        continue;
      }
      if (!bench::CopyIndexImage(master_dev->get(), dev->get(), image_bytes)
               .ok()) {
        continue;
      }
      auto view = (*master)->WithDevice(dev->get());
      core::QueryEngine engine(view.get(), &w->gen.base, opts);

      // Warmup populates the cache; the measured pass starts from clean
      // counters but a warm cache.
      if (!engine.SearchBatch(queries, 1).ok()) continue;
      (*dev)->ResetStats();
      auto batch = engine.SearchBatch(queries, 1);
      if (!batch.ok()) continue;

      const auto dstats = (*dev)->stats();
      const uint64_t lookups = dstats.cache_hits + dstats.cache_misses;
      const double hit_rate =
          lookups > 0
              ? static_cast<double>(dstats.cache_hits) / static_cast<double>(lookups)
              : 0.0;
      const double qps = batch->QueriesPerSecond();
      const double p99_us = P99Us(batch->stats);
      if (cache_bytes == 0) qps_nocache = qps;

      bench::PrintRow({skew.label,
                       cache_bytes ? bench::FmtBytes(cache_bytes) : "off",
                       bench::Fmt(hit_rate * 100, 1) + "%", bench::Fmt(qps, 0),
                       bench::Fmt(p99_us, 1), bench::Fmt(batch->MeanIos(), 1)});
      if (json != nullptr) {
        util::JsonRow row;
        row.Set("bench", "skew_cache")
            .Set("dataset", name)
            .Set("n", w->n())
            .Set("skew", skew.label)
            .Set("zipf_theta", skew.theta)
            .Set("population", kPopulation)
            .Set("queries", nq)
            .Set("cache_frac", frac)
            .Set("cache_bytes", cache_bytes)
            .Set("image_bytes", image_bytes)
            .Set("hit_rate", hit_rate)
            .Set("qps", qps)
            .Set("p99_us", p99_us)
            .Set("mean_ios", batch->MeanIos())
            .Set("cache_hits", dstats.cache_hits)
            .Set("cache_misses", dstats.cache_misses)
            .Set("cache_evictions", dstats.cache_evictions)
            .Set("bytes_cached", dstats.bytes_cached);
        // The acceptance cell and its uncached baseline carry dedicated
        // keys, so a reader of the JSONL finds exactly them.
        const bool theta1 = skew.dist == data::QueryDistribution::kZipf &&
                            skew.theta == 1.0;
        if (theta1 && frac == 0.10) {
          row.Set("headline_hit_rate", hit_rate).Set("headline_qps", qps);
        }
        if (theta1 && frac == 0.0) row.Set("headline_qps_nocache", qps);
        json->Write(row);
      }
    }
    if (qps_nocache > 0) std::printf("\n");
  }

  std::printf(
      "\nExpected shape: hit rate grows with cache size and with skew "
      "(theta=1.0 and\nhotspot concentrate traffic on few templates); at 10%% "
      "of the index the\ntheta=1.0 stream serves >= 90%% of reads from DRAM "
      "and QPS rises well above\nthe uncached baseline, since hits skip the "
      "simulated device latency entirely.\n");
  return 0;
}
