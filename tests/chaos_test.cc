// Chaos tests for the full fault-tolerance stack: a net::Daemon serving
// an index over a `fault=`+`retry=` device URI, clients with timeouts,
// reconnects, and idempotent retries, the error-rate breaker tripping
// into degraded mode and recovering, and a 16-connection soak mixing
// injected storage faults with random disconnects — run under TSan via
// the `concurrency` CTest label, and drained clean at the end.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/index.h"
#include "data/generators.h"
#include "net/client.h"
#include "net/daemon.h"
#include "net/socket.h"
#include "net/wire.h"

namespace e2lshos {
namespace {

struct TestData {
  data::GeneratedData gen;
  lsh::E2lshConfig cfg;
};

TestData MakeData(uint64_t n = 1500, uint32_t dim = 16,
                  uint64_t num_queries = 20) {
  TestData t;
  data::GeneratorSpec spec;
  spec.kind = data::GeneratorKind::kClustered;
  spec.dim = dim;
  spec.num_clusters = 8;
  spec.cluster_std = 3.0 / std::sqrt(2.0 * dim);
  spec.center_spread = 10.0 * std::sqrt(6.0 / dim);
  spec.seed = 23;
  t.gen = data::Generate("chaos", n, num_queries, spec);
  t.cfg.rho = 0.25;
  t.cfg.s_factor = 1000.0;
  return t;
}

Result<std::unique_ptr<Index>> BuildIndex(const TestData& t,
                                          const std::string& uri) {
  IndexSpec spec;
  spec.lsh = t.cfg;
  spec.device_uri = uri;
  spec.device_capacity = 1ULL << 30;
  return Index::Build(spec, t.gen.base);
}

std::string SockPath(const std::string& tag) {
  return ::testing::TempDir() + "e2chaos_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

// ---------------------------------------------------------------------------
// Transient faults are invisible end to end
// ---------------------------------------------------------------------------

TEST(Chaos, DaemonOverFaultRetryUriAbsorbsTransients) {
  const TestData t = MakeData();
  auto index = BuildIndex(
      t, "mem:?fault=submit:0.03,complete:0.03,seed:7&retry=6,backoff:50");
  ASSERT_TRUE(index.ok());
  const std::string sock = SockPath("transient");
  net::DaemonOptions opts;
  opts.unix_path = sock;
  opts.serve.search.shards = 2;
  net::Daemon daemon(opts);
  ASSERT_TRUE(daemon.AddIndex("default", std::move(*index)).ok());
  ASSERT_TRUE(daemon.Start().ok());

  auto client = net::Client::Connect("unix:" + sock);
  ASSERT_TRUE(client.ok());
  auto results = (*client)->SearchBatch(
      "default", t.gen.queries.Row(0),
      static_cast<uint32_t>(t.gen.queries.n()), t.gen.queries.dim(), 10);
  ASSERT_TRUE(results.ok());
  for (size_t q = 0; q < results->size(); ++q) {
    EXPECT_TRUE((*results)[q].status.ok()) << "query " << q;
  }
  // The retry layer worked underneath and is visible in Stats.
  auto stats = (*client)->Stats("default");
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->faults_injected, 0u);
  EXPECT_GT(stats->retries, 0u);
  EXPECT_EQ(stats->retries_exhausted, 0u);
  EXPECT_EQ(stats->failed, 0u);

  // Healthy daemon: no breaker, no shedding.
  auto health = (*client)->Health();
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health->state, 0);
  EXPECT_EQ(health->total_shed, 0u);

  daemon.RequestStop();
  daemon.Wait();
}

// ---------------------------------------------------------------------------
// Client receive timeout (satellite: strict --timeout-ms)
// ---------------------------------------------------------------------------

TEST(Chaos, ClientRecvTimeoutSurfacesDeadlineExceeded) {
  // A listener that accepts and then stays silent forever.
  auto listen_fd = net::ListenTcp("127.0.0.1", 0);
  ASSERT_TRUE(listen_fd.ok());
  auto port = net::LocalPort(*listen_fd);
  ASSERT_TRUE(port.ok());
  std::atomic<int> accepted_fd{-1};
  std::thread acceptor([&] {
    accepted_fd.store(::accept(*listen_fd, nullptr, nullptr));
  });

  net::ClientOptions copts;
  copts.recv_timeout_ms = 150;
  auto client = net::Client::Connect(
      "tcp:127.0.0.1:" + std::to_string(*port), copts);
  ASSERT_TRUE(client.ok());
  const auto t0 = std::chrono::steady_clock::now();
  const Status st = (*client)->Ping();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded) << st.ToString();
  // Bounded wait: the timeout fired, not a 2-minute TCP stall.
  EXPECT_LT(elapsed, 5000);

  acceptor.join();
  net::CloseFd(accepted_fd.load());
  net::CloseFd(*listen_fd);
}

// ---------------------------------------------------------------------------
// Reconnect with idempotent retry
// ---------------------------------------------------------------------------

TEST(Chaos, ClientReconnectsAcrossDaemonRestart) {
  const TestData t = MakeData();
  const std::string sock = SockPath("reconnect");

  auto first = BuildIndex(t, "mem:");
  ASSERT_TRUE(first.ok());
  net::DaemonOptions opts;
  opts.unix_path = sock;
  auto daemon1 = std::make_unique<net::Daemon>(opts);
  ASSERT_TRUE(daemon1->AddIndex("default", std::move(*first)).ok());
  ASSERT_TRUE(daemon1->Start().ok());

  net::ClientOptions copts;
  copts.max_retries = 3;
  copts.retry_backoff_ms = 20;
  auto client = net::Client::Connect("unix:" + sock, copts);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Ping().ok());
  EXPECT_EQ((*client)->reconnects(), 0u);

  // Kill the daemon; a second generation binds the same socket path.
  daemon1->RequestStop();
  daemon1->Wait();
  daemon1.reset();
  auto second = BuildIndex(t, "mem:");
  ASSERT_TRUE(second.ok());
  net::Daemon daemon2(opts);
  ASSERT_TRUE(daemon2.AddIndex("default", std::move(*second)).ok());
  ASSERT_TRUE(daemon2.Start().ok());

  // The old connection is dead; the retry path must reconnect and
  // resend the same frame transparently.
  auto r = (*client)->Search("default", t.gen.queries.Row(0),
                             t.gen.queries.dim(), 5);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE((*client)->reconnects(), 1u);

  daemon2.RequestStop();
  daemon2.Wait();
}

// ---------------------------------------------------------------------------
// Error-rate breaker: trip, shed, recover
// ---------------------------------------------------------------------------

TEST(Chaos, BreakerTripsShedsAndRecovers) {
  const TestData t = MakeData(1000, 12, 16);
  // Every offset corrupt: with checksums on, every query is partial —
  // a 100% failure signal for the breaker (while still returning OK,
  // empty-ish results to clients).
  auto index = BuildIndex(t, "mem:?fault=corrupt:1.0,seed:5");
  ASSERT_TRUE(index.ok());
  const std::string sock = SockPath("breaker");
  net::DaemonOptions opts;
  opts.unix_path = sock;
  opts.breaker_trip_ratio = 0.5;
  opts.breaker_min_rate = 1.0;
  net::Daemon daemon(opts);
  ASSERT_TRUE(daemon.AddIndex("default", std::move(*index)).ok());
  ASSERT_TRUE(daemon.Start().ok());

  auto client = net::Client::Connect("unix:" + sock);
  ASSERT_TRUE(client.ok());

  // One batch of all-partial queries trips the breaker.
  auto batch = (*client)->SearchBatch(
      "default", t.gen.queries.Row(0),
      static_cast<uint32_t>(t.gen.queries.n()), t.gen.queries.dim(), 5);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(daemon.degraded());

  // Tripped: queries are shed with kUnavailable before the engine.
  auto shed = (*client)->Search("default", t.gen.queries.Row(0),
                                t.gen.queries.dim(), 5);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable)
      << shed.status().ToString();
  EXPECT_GT(daemon.breaker_shed(), 0u);

  auto health = (*client)->Health();
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health->state, 0);
  EXPECT_GT(health->total_shed, 0u);

  // Shed traffic is recorded as non-failing, so the rolling failure
  // share decays and the breaker clears (hysteresis at half the trip
  // ratio). Keep poking until a query reaches the engine again.
  bool recovered = false;
  for (int i = 0; i < 400 && !recovered; ++i) {
    auto r = (*client)->Search("default", t.gen.queries.Row(0),
                               t.gen.queries.dim(), 5);
    recovered = r.ok();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(recovered) << "breaker never cleared";

  daemon.RequestStop();
  daemon.Wait();
}

// ---------------------------------------------------------------------------
// Chaos soak: storage faults x random disconnects x drain (TSan leg)
// ---------------------------------------------------------------------------

TEST(ChaosSoak, FaultsDisconnectsAndDrain) {
  const TestData t = MakeData(1200, 12, 8);
  auto index = BuildIndex(
      t,
      "mem:?fault=submit:0.02,complete:0.03,corrupt:0.05,stall:200,"
      "stallp:0.02,seed:9&retry=5,backoff:100");
  ASSERT_TRUE(index.ok());
  const std::string sock = SockPath("soak");
  net::DaemonOptions opts;
  opts.unix_path = sock;
  opts.serve.search.shards = 4;  // per-shard queues over the stack
  opts.serve.queue_capacity = 128;
  opts.recv_timeout_ms = 5000;
  opts.send_timeout_ms = 5000;
  net::Daemon daemon(opts);
  ASSERT_TRUE(daemon.AddIndex("default", std::move(*index)).ok());
  ASSERT_TRUE(daemon.Start().ok());
  auto ep = net::ParseEndpoint("unix:" + sock);
  ASSERT_TRUE(ep.ok());

  constexpr int kThreads = 16;
  constexpr int kOpsPerThread = 10;
  std::atomic<uint64_t> ok_ops{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&, ti] {
      std::mt19937 rng(77 + ti);
      net::ClientOptions copts;
      copts.max_retries = 2;
      copts.retry_backoff_ms = 20;
      for (int op = 0; op < kOpsPerThread; ++op) {
        switch (rng() % 4) {
          case 0: {  // retried batch over the faulty device
            auto client = net::Client::Connect("unix:" + sock, copts);
            if (!client.ok()) {
              failures.fetch_add(1);
              break;
            }
            auto r = (*client)->SearchBatch(
                "default", t.gen.queries.Row(0),
                static_cast<uint32_t>(t.gen.queries.n()),
                t.gen.queries.dim(), 5);
            if (r.ok()) {
              ok_ops.fetch_add(1);
            } else {
              failures.fetch_add(1);
            }
            break;
          }
          case 1: {  // abrupt disconnect with a request in flight
            auto fd = net::Connect(*ep);
            if (!fd.ok()) {
              failures.fetch_add(1);
              break;
            }
            net::Writer w;
            w.Begin(static_cast<uint8_t>(net::MsgType::kSearch), rng());
            w.Str("default");
            w.U32(5);
            w.U32(0);
            w.U32(t.gen.queries.dim());
            w.Raw(t.gen.queries.Row(0),
                  t.gen.queries.dim() * sizeof(float));
            const auto frame = w.Finish();
            net::WriteFull(*fd, frame.data(), frame.size());
            net::CloseFd(*fd);  // never reads the response
            ok_ops.fetch_add(1);
            break;
          }
          case 2: {  // disconnect mid-frame
            auto fd = net::Connect(*ep);
            if (!fd.ok()) {
              failures.fetch_add(1);
              break;
            }
            const uint8_t partial[3] = {0x40, 0x00, 0x00};
            net::WriteFull(*fd, partial, sizeof(partial));
            net::CloseFd(*fd);
            ok_ops.fetch_add(1);
            break;
          }
          default: {  // health + stats probes under load
            auto client = net::Client::Connect("unix:" + sock, copts);
            if (client.ok() && (*client)->Health().ok() &&
                (*client)->Stats("default").ok()) {
              ok_ops.fetch_add(1);
            } else {
              failures.fetch_add(1);
            }
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(ok_ops.load(), 0u);

  // The daemon survived and its device absorbed real injected faults.
  auto client = net::Client::Connect("unix:" + sock);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE((*client)->Ping().ok());
  auto stats = (*client)->Stats("default");
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->faults_injected, 0u);
  EXPECT_GT(stats->retries, 0u);

  // Drain: stop with the soak's debris (half-written frames, vanished
  // peers) behind us; Wait() must return with nothing leaked.
  daemon.RequestStop();
  daemon.Wait();
  EXPECT_EQ(daemon.connections(), 0u);
}

}  // namespace
}  // namespace e2lshos
