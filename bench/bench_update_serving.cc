// Query latency under a concurrent writer (no single paper figure;
// quantifies the PR's live-mutation subsystem, core/live_updater.h):
// production ANN services take inserts while they serve, and the epoch
// publication design claims readers never block on writers. This bench
// puts a number on the residual interference.
//
// One cell = shards x target update rate on sim:cssd: the index serves
// a paced query stream through Index::Serve while a writer thread
// paces Index::Insert at the target rate (closed-loop when the device
// can't sustain it — the achieved rate is reported). Per cell: serving
// p50/p99 and QPS from the server's merged recorders, plus the update
// counters (updates_applied / epochs_published / update_staged_bytes)
// from DeviceStats.
//
// Headline acceptance cells: at the highest shard count, query p99
// with the writer running at the top update rate must stay within 2x
// of the no-writes p99 (headline_p99_ratio < 2). Those rows carry the
// headline_* keys, which name those cells in the JSONL output.
#include "common.h"

#include <atomic>
#include <chrono>
#include <thread>

#include "api/index.h"

using namespace e2lshos;

namespace {

/// Pace `total` calls of `op` at `rate` per second (closed-loop when
/// rate == 0 is not used here; the writer breaks out via `stop`).
template <typename Op>
uint64_t PacedLoop(uint64_t rate, const std::atomic<bool>& stop, Op op) {
  const auto t0 = std::chrono::steady_clock::now();
  uint64_t done = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const auto due =
        t0 + std::chrono::nanoseconds(done * 1000000000ull / rate);
    std::this_thread::sleep_until(due);
    if (stop.load(std::memory_order_relaxed)) break;
    if (!op(done)) break;
    ++done;
  }
  return done;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::Args::Parse(argc, argv);
  auto json = args.OpenJson();
  const std::string name = args.dataset.empty() ? "SIFT" : args.dataset;
  auto spec = data::GetDatasetSpec(name);
  if (!spec.ok()) return 1;
  const uint64_t n = args.n ? args.n : 2000;
  // Queries per cell; every cell answers the same paced stream so p99
  // differences isolate the writer's interference.
  const uint64_t nq = args.queries ? args.queries : (args.fast ? 96 : 256);
  // Below the knee in every cell (sim:cssd sustains ~800/s at these
  // engine shapes even with the writer on): p99 then measures genuine
  // interference from staging/publication, not unbounded queue growth.
  const uint64_t arrival_qps = 400;

  auto w = bench::MakeWorkload(*spec, n, 32, 1);
  if (!w.ok()) {
    std::fprintf(stderr, "workload: %s\n", w.status().ToString().c_str());
    return 1;
  }
  // Rows the writer inserts: same distribution, disjoint seed. Sized to
  // the id headroom the layout reserves (one spare bit over n).
  data::GeneratorSpec egen = spec->gen;
  egen.seed = spec->gen.seed + 4242;
  const uint64_t extra_cap = n;  // never exceeds the spare id bit
  data::GeneratedData extras = data::Generate("extras", extra_cap, 0, egen);

  std::vector<uint32_t> shard_counts = {1};
  if (!args.fast) shard_counts.push_back(2);
  if (args.shards != 0) shard_counts = {args.shards};
  // A SIFT insert stages ~50 CoW blocks + their RMW reads, so sim:cssd
  // closed-loops near 45/s: 20/s is a genuinely paced rate, 100/s runs
  // the writer flat out (the achieved rate is what's reported).
  const uint64_t update_rates[] = {0, 20, 100};
  const uint32_t max_shards = shard_counts.back();

  bench::PrintHeader(
      "Query p99 under concurrent inserts on sim:cssd (" + name +
          ", n=" + std::to_string(n) + ", " + std::to_string(nq) +
          " queries @ " + std::to_string(arrival_qps) + "/s)",
      {"shards", "target up/s", "achieved up/s", "QPS", "p50 us", "p99 us",
       "epochs"});

  int failures = 0;
  for (const uint32_t shards : shard_counts) {
    double p99_nowrites_us = 0.0;
    for (const uint64_t rate : update_rates) {
      // A fresh build per cell: inserts from the previous cell must not
      // grow this cell's index or id space.
      IndexSpec is;
      is.lsh.rho = 0.25;
      is.device_uri = args.device.empty() ? "sim:cssd" : args.device;
      is.device_capacity = 2ULL << 30;
      auto idx = Index::Build(is, w->gen.base /* copy */);
      if (!idx.ok()) {
        std::fprintf(stderr, "build: %s\n", idx.status().ToString().c_str());
        return 1;
      }
      ServeSpec serve;
      serve.k = 10;
      serve.search.shards = shards;
      auto served = (*idx)->Serve(serve);
      if (!served.ok()) {
        std::fprintf(stderr, "serve: %s\n",
                     served.status().ToString().c_str());
        return 1;
      }
      auto server = std::move(*served);

      std::atomic<bool> stop_writer{false};
      uint64_t inserted = 0;
      std::thread writer;
      if (rate > 0) {
        writer = std::thread([&] {
          inserted = PacedLoop(rate, stop_writer, [&](uint64_t i) {
            return (*idx)->Insert(extras.base.Row(i % extras.base.n())).ok();
          });
        });
      }

      // The measured stream: nq paced submissions, then drain. The
      // writer keeps running through the drain so tail queries still
      // contend with publication.
      const auto t0 = std::chrono::steady_clock::now();
      std::atomic<bool> never{false};
      uint64_t submitted = 0;
      PacedLoop(arrival_qps, never, [&](uint64_t i) {
        if (i >= nq) return false;
        ++submitted;
        return server->Submit(w->gen.queries.Row(i % w->gen.queries.n()))
            .ok();
      });
      server->Close();
      server->Wait();
      const double elapsed_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      const auto snap = server->stats();
      stop_writer.store(true, std::memory_order_relaxed);
      if (writer.joinable()) writer.join();
      const auto dstats = (*idx)->device_stats();
      server.reset();  // before the index

      const double achieved_rate =
          elapsed_s > 0 ? static_cast<double>(inserted) / elapsed_s : 0.0;
      const double p50_us = static_cast<double>(snap.p50_ns) / 1e3;
      const double p99_us = static_cast<double>(snap.p99_ns) / 1e3;
      const double qps = snap.overall_qps;
      if (rate == 0) p99_nowrites_us = p99_us;
      const uint64_t failed = submitted - snap.completed;
      if (failed != 0) ++failures;

      bench::PrintRow({std::to_string(shards), std::to_string(rate),
                       bench::Fmt(achieved_rate, 0), bench::Fmt(qps, 0),
                       bench::Fmt(p50_us, 1), bench::Fmt(p99_us, 1),
                       std::to_string(dstats.epochs_published)});
      if (json != nullptr) {
        util::JsonRow row;
        row.Set("bench", "update_serving")
            .Set("dataset", name)
            .Set("n", w->n())
            .Set("shards", shards)
            .Set("update_rate_target", rate)
            .Set("update_rate_achieved", achieved_rate)
            .Set("arrival_qps", arrival_qps)
            .Set("queries", nq)
            .Set("completed", snap.completed)
            .Set("failed", failed)
            .Set("inserted", inserted)
            .Set("updates_applied", dstats.updates_applied)
            .Set("epochs_published", dstats.epochs_published)
            .Set("update_staged_bytes", dstats.update_staged_bytes)
            .Set("update_lag", dstats.update_lag)
            .Set("qps", qps)
            .Set("p50_us", p50_us)
            .Set("p99_us", p99_us);
        // The acceptance cells: top shard count at the top update rate
        // vs. its own no-writes baseline.
        if (shards == max_shards && rate == update_rates[2] &&
            p99_nowrites_us > 0) {
          row.Set("headline_p99_us_writes", p99_us)
              .Set("headline_p99_us_nowrites", p99_nowrites_us)
              .Set("headline_p99_ratio", p99_us / p99_nowrites_us);
        }
        json->Write(row);
      }
    }
    std::printf("\n");
  }

  std::printf(
      "Expected shape: p99 at a nonzero update rate stays within 2x of the "
      "same\nshard count's no-writes p99 — each query pins the epoch "
      "current at its\nadmission and never blocks on the writer; the residual "
      "interference is the\ndevice-level contention of staging I/O with "
      "query reads.\n");
  return failures == 0 ? 0 : 1;
}
