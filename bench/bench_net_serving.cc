// Network serving: what the wire costs, and how concurrent connections
// scale against one daemon.
//
// The streaming bench measures enqueue→completion latency with the
// producer in-process; this bench puts the net::Daemon's UNIX-socket
// wire protocol in the loop. Baseline: one in-process SearchBatch over
// the query set. Then a sweep over client-connection counts, each
// client round-tripping SearchBatch frames against the daemon, so the
// rows separate protocol overhead (1 client vs. in-process) from
// connection-level concurrency (N clients feeding the shared MPMC
// submission queue). Expected shape: a single connection pays the
// serialize/copy/wake tax per round trip; a handful of connections
// recover most of the engine's batch capacity because their queries
// share the shards' free engine contexts.
//
// --shards S (default 2), --queries Q, --json PATH.
#include "common.h"

#include <sys/types.h>
#include <unistd.h>

#include <thread>

#include "api/index.h"
#include "net/client.h"
#include "net/daemon.h"
#include "util/clock.h"

using namespace e2lshos;

namespace {

struct SweepPoint {
  uint32_t clients = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  double wall_s = 0;
  uint64_t p50_ns = 0;   ///< Per-round-trip wire latency.
  uint64_t p99_ns = 0;
};

uint64_t Percentile(std::vector<uint64_t>* lat, double q) {
  if (lat->empty()) return 0;
  const size_t idx = static_cast<size_t>(q * static_cast<double>(lat->size() - 1));
  std::nth_element(lat->begin(), lat->begin() + static_cast<long>(idx), lat->end());
  return (*lat)[idx];
}

SweepPoint RunClients(const std::string& endpoint, const data::Dataset& queries,
                      uint32_t k, uint32_t clients, uint64_t rounds,
                      uint32_t batch) {
  SweepPoint point;
  point.clients = clients;
  std::vector<std::thread> threads;
  std::mutex mu;
  std::vector<uint64_t> latencies;
  std::atomic<uint64_t> completed{0}, failed{0};
  const uint64_t t0 = util::NowNs();
  for (uint32_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = net::Client::Connect(endpoint);
      if (!client.ok()) {
        failed += rounds * batch;
        return;
      }
      std::vector<uint64_t> local;
      local.reserve(rounds);
      for (uint64_t r = 0; r < rounds; ++r) {
        // Each client walks the query set from its own offset so the
        // daemon sees a mixed stream, not N copies of query 0.
        const uint64_t off = (c * 37 + r * batch) % queries.n();
        const uint32_t count = static_cast<uint32_t>(
            std::min<uint64_t>(batch, queries.n() - off));
        const uint64_t s = util::NowNs();
        auto res = (*client)->SearchBatch("bench", queries.Row(off), count,
                                          queries.dim(), k);
        if (!res.ok()) {
          failed += count;
          continue;
        }
        local.push_back(util::NowNs() - s);
        for (const auto& qr : *res) {
          if (qr.status.ok()) {
            ++completed;
          } else {
            ++failed;
          }
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      latencies.insert(latencies.end(), local.begin(), local.end());
    });
  }
  for (auto& t : threads) t.join();
  point.wall_s = static_cast<double>(util::NowNs() - t0) / 1e9;
  point.completed = completed.load();
  point.failed = failed.load();
  point.p50_ns = Percentile(&latencies, 0.50);
  point.p99_ns = Percentile(&latencies, 0.99);
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::Args::Parse(argc, argv);
  if (args.shards == 0) args.shards = 2;
  const uint32_t k = 10;

  auto spec = data::GetDatasetSpec(args.dataset.empty() ? "SIFT" : args.dataset);
  if (!spec.ok()) {
    std::fprintf(stderr, "error: %s\n", spec.status().ToString().c_str());
    return 1;
  }
  const uint64_t n = args.n > 0 ? args.n : (args.fast ? 10000 : 30000);
  auto w = bench::MakeWorkload(*spec, n, args.queries ? args.queries : 256, k);
  if (!w.ok()) {
    std::fprintf(stderr, "error: %s\n", w.status().ToString().c_str());
    return 1;
  }

  IndexSpec ispec;
  ispec.device_uri = "sim:cssd*4?iface=io_uring";
  auto index = Index::Build(ispec, w->gen.base);  // copy: baseline needs it too
  if (!index.ok()) {
    std::fprintf(stderr, "error: %s\n", index.status().ToString().c_str());
    return 1;
  }

  // In-process anchor: the same engine shape the daemon will serve.
  SearchSpec search;
  search.shards = args.shards;
  if (Status st = (*index)->Configure(search); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  auto batch = (*index)->SearchBatch(w->gen.queries, k);
  if (!batch.ok()) {
    std::fprintf(stderr, "error: %s\n", batch.status().ToString().c_str());
    return 1;
  }
  const double capacity = batch->QueriesPerSecond();
  std::printf("dataset %s, n=%llu, shards=%u, in-process batch %.0f qps\n",
              spec->name.c_str(), static_cast<unsigned long long>(w->n()),
              (*index)->num_shards(), capacity);

  net::DaemonOptions dopts;
  dopts.unix_path = "/tmp/e2lshos_bench_net_" +
                    std::to_string(static_cast<unsigned long>(::getpid())) +
                    ".sock";
  dopts.serve.k = k;
  dopts.serve.search = search;
  dopts.serve.queue_capacity = 2048;
  net::Daemon daemon(std::move(dopts));
  if (Status st = daemon.AddIndex("bench", std::move(*index)); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  if (Status st = daemon.Start(); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  const std::string endpoint =
      "unix:/tmp/e2lshos_bench_net_" +
      std::to_string(static_cast<unsigned long>(::getpid())) + ".sock";

  auto json = args.OpenJson();
  bench::PrintHeader("Network serving (" + spec->name +
                         "): connections vs. remote throughput",
                     {"clients", "remote qps", "% of in-process", "rt p50 us",
                      "rt p99 us", "failed"});

  const uint32_t batch_size = 64;
  const uint64_t rounds = args.fast ? 8 : 32;
  for (const uint32_t clients : {1u, 2u, 4u, 8u, 16u}) {
    const SweepPoint p = RunClients(endpoint, w->gen.queries, k, clients,
                                    rounds, batch_size);
    const double qps =
        p.wall_s > 0 ? static_cast<double>(p.completed) / p.wall_s : 0;
    bench::PrintRow({std::to_string(p.clients), bench::Fmt(qps, 0),
                     bench::Fmt(capacity > 0 ? 100.0 * qps / capacity : 0, 1),
                     bench::Fmt(static_cast<double>(p.p50_ns) / 1e3, 1),
                     bench::Fmt(static_cast<double>(p.p99_ns) / 1e3, 1),
                     std::to_string(p.failed)});
    if (json != nullptr) {
      util::JsonRow row;
      row.Set("bench", "net_serving")
          .Set("dataset", spec->name)
          .Set("shards", static_cast<uint64_t>(args.shards))
          .Set("k", static_cast<uint64_t>(k))
          .Set("clients", static_cast<uint64_t>(p.clients))
          .Set("batch", static_cast<uint64_t>(batch_size))
          .Set("remote_qps", qps)
          .Set("inprocess_qps", capacity)
          .Set("rt_p50_ns", p.p50_ns)
          .Set("rt_p99_ns", p.p99_ns)
          .Set("completed", p.completed)
          .Set("failed", p.failed);
      json->Write(row);
    }
  }

  daemon.RequestStop();
  daemon.Wait();
  std::printf(
      "\nExpected shape: one connection pays the per-round-trip protocol "
      "tax;\na handful of concurrent connections share the shards' free "
      "engine contexts\nand close most of the gap to the in-process batch "
      "rate.\n");
  return 0;
}
