// Tests for the network serving layer (net/wire.h, net/socket.h,
// net/daemon.h, net/client.h).
//
// The load-bearing claim is *remote parity*: SearchBatch through a
// net::Client against a net::Daemon must return bit-identical ids and
// distances to in-process Index::SearchBatch, across device URIs. The
// candidate cap is set high enough that draining never triggers, so the
// comparison is exact regardless of admission order or shard
// assignment. Around that: protocol-error containment (garbage frames
// close one connection, never the listener), multi-index routing,
// clean-drain shutdown with requests in flight, abrupt-disconnect
// robustness, and a 64-connection random-disconnect soak (run under
// TSan via the `concurrency` label).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <random>
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

TestData MakeData(uint64_t n = 2000, uint32_t dim = 16,
                  uint64_t num_queries = 20, uint64_t seed = 11) {
  TestData t;
  data::GeneratorSpec spec;
  spec.kind = data::GeneratorKind::kClustered;
  spec.dim = dim;
  spec.num_clusters = 8;
  spec.cluster_std = 3.0 / std::sqrt(2.0 * dim);
  spec.center_spread = 10.0 * std::sqrt(6.0 / dim);
  spec.seed = seed;
  t.gen = data::Generate("net", n, num_queries, spec);
  t.cfg.rho = 0.25;
  t.cfg.s_factor = 1000.0;  // no draining: remote == local must be exact
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
  return ::testing::TempDir() + "e2net_" + tag + "_" +
         std::to_string(::getpid()) + ".sock";
}

net::DaemonOptions UnixOptions(const std::string& sock) {
  net::DaemonOptions opts;
  opts.unix_path = sock;
  opts.serve.search.shards = 2;
  opts.serve.queue_capacity = 256;
  return opts;
}

void ExpectParity(const std::vector<net::WireQueryResult>& remote,
                  const std::vector<std::vector<util::Neighbor>>& local,
                  const std::string& tag) {
  ASSERT_EQ(remote.size(), local.size()) << tag;
  for (size_t q = 0; q < local.size(); ++q) {
    ASSERT_TRUE(remote[q].status.ok())
        << tag << " query " << q << ": " << remote[q].status.ToString();
    ASSERT_EQ(remote[q].neighbors.size(), local[q].size())
        << tag << " query " << q;
    for (size_t i = 0; i < local[q].size(); ++i) {
      EXPECT_EQ(remote[q].neighbors[i].id, local[q][i].id)
          << tag << " query " << q << " rank " << i;
      EXPECT_EQ(remote[q].neighbors[i].dist, local[q][i].dist)
          << tag << " query " << q << " rank " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------------

TEST(Wire, StatusCodesSurviveRoundTrip) {
  const Status statuses[] = {
      Status::OK(),
      Status::InvalidArgument("bad"),
      Status::OutOfRange("range"),
      Status::IoError("io"),
      Status::ResourceExhausted("full"),
      Status::FailedPrecondition("pre"),
      Status::NotFound("missing"),
      Status::Internal("bug"),
      Status::Unimplemented("todo"),
  };
  for (const Status& st : statuses) {
    net::Writer w;
    w.Begin(net::kResponseBit, 7);
    net::EncodeStatus(&w, st);
    const auto frame = w.Finish();
    net::Reader r(frame.data() + 4, frame.size() - 4);
    net::FrameHeader hdr;
    ASSERT_TRUE(r.Header(&hdr).ok());
    EXPECT_EQ(hdr.request_id, 7u);
    Status back = Status::OK();
    ASSERT_TRUE(net::DecodeStatus(&r, &back).ok());
    EXPECT_EQ(back.code(), st.code());
    if (!st.ok()) {
      EXPECT_EQ(back.message(), st.message());
    }
  }
}

TEST(Wire, FrameLengthValidation) {
  EXPECT_FALSE(net::ValidateFrameLength(0, 1024).ok());
  EXPECT_FALSE(net::ValidateFrameLength(net::kHeaderBytes - 1, 1024).ok());
  EXPECT_TRUE(net::ValidateFrameLength(net::kHeaderBytes, 1024).ok());
  EXPECT_TRUE(net::ValidateFrameLength(1024, 1024).ok());
  EXPECT_FALSE(net::ValidateFrameLength(1025, 1024).ok());
}

TEST(Wire, ReaderRejectsTruncationAndTrailingGarbage) {
  net::Writer w;
  w.Begin(static_cast<uint8_t>(net::MsgType::kPing), 1);
  w.U32(42);
  const auto frame = w.Finish();

  // Truncated: stop one byte short of the u32.
  net::Reader trunc(frame.data() + 4, frame.size() - 4 - 1);
  net::FrameHeader hdr;
  ASSERT_TRUE(trunc.Header(&hdr).ok());
  uint32_t v;
  EXPECT_FALSE(trunc.U32(&v).ok());

  // Trailing garbage: header consumed, u32 left over.
  net::Reader full(frame.data() + 4, frame.size() - 4);
  ASSERT_TRUE(full.Header(&hdr).ok());
  EXPECT_FALSE(full.ExpectEnd().ok());
  ASSERT_TRUE(full.U32(&v).ok());
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(full.ExpectEnd().ok());
}

TEST(Wire, QueryResultRejectsLyingNeighborCount) {
  net::Writer w;
  w.Begin(net::kResponseBit, 1);
  w.U8(0);           // qcode OK
  w.U64(123);        // latency
  w.U32(1u << 30);   // nk far beyond the frame
  const auto frame = w.Finish();
  net::Reader r(frame.data() + 4, frame.size() - 4);
  net::FrameHeader hdr;
  ASSERT_TRUE(r.Header(&hdr).ok());
  net::WireQueryResult out;
  EXPECT_FALSE(net::DecodeQueryResult(&r, &out).ok());
}

// ---------------------------------------------------------------------------
// Endpoint / flag validation (strict range checks)
// ---------------------------------------------------------------------------

TEST(Endpoint, ParsesValidSpecs) {
  auto ux = net::ParseEndpoint("unix:/tmp/a.sock");
  ASSERT_TRUE(ux.ok());
  EXPECT_EQ(ux->kind, net::Endpoint::Kind::kUnix);
  EXPECT_EQ(ux->path, "/tmp/a.sock");

  auto tcp = net::ParseEndpoint("tcp:127.0.0.1:7070");
  ASSERT_TRUE(tcp.ok());
  EXPECT_EQ(tcp->kind, net::Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp->host, "127.0.0.1");
  EXPECT_EQ(tcp->port, 7070);

  // Port 0 is only an ephemeral-listener request, never a connect target.
  EXPECT_FALSE(net::ParseEndpoint("tcp:127.0.0.1:0").ok());
  auto eph = net::ParseEndpoint("tcp:127.0.0.1:0", /*allow_port_zero=*/true);
  EXPECT_TRUE(eph.ok());
}

TEST(Endpoint, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",                      // no scheme
      "unix:",                 // empty path
      "tcp:127.0.0.1",         // missing port
      "tcp::80",               // empty host
      "tcp:127.0.0.1:65536",   // above the u16 range
      "tcp:127.0.0.1:-1",      // sign rejected (no wrap into range)
      "tcp:127.0.0.1:80x",     // trailing garbage, not truncation
      "tcp:127.0.0.1: 80",     // whitespace rejected
      "tcp:127.0.0.1:99999999999999999999",  // overflow, not saturation
      "http:127.0.0.1:80",     // unknown scheme
  };
  for (const char* spec : bad) {
    EXPECT_FALSE(net::ParseEndpoint(spec).ok()) << spec;
  }
  // A UNIX path must fit sockaddr_un with its terminator.
  EXPECT_FALSE(net::ValidateUnixPath(std::string(200, 'x')).ok());
  EXPECT_TRUE(net::ValidateUnixPath("/tmp/short.sock").ok());
}

// ---------------------------------------------------------------------------
// Daemon lifecycle misuse
// ---------------------------------------------------------------------------

TEST(Daemon, LifecycleValidation) {
  const TestData t = MakeData(300, 8, 4);
  net::Daemon empty(UnixOptions(SockPath("lifecycle_empty")));
  EXPECT_EQ(empty.Start().code(), StatusCode::kFailedPrecondition);

  net::Daemon daemon(UnixOptions(SockPath("lifecycle")));
  EXPECT_EQ(daemon.AddIndex("", nullptr).code(), StatusCode::kInvalidArgument);
  auto a = BuildIndex(t, "mem:");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(daemon.AddIndex("a", std::move(*a)).ok());
  auto b = BuildIndex(t, "mem:");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(daemon.AddIndex("a", std::move(*b)).code(),
            StatusCode::kInvalidArgument);  // duplicate name
  ASSERT_TRUE(daemon.Start().ok());
  EXPECT_EQ(daemon.Start().code(), StatusCode::kFailedPrecondition);
  auto c = BuildIndex(t, "mem:");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(daemon.AddIndex("c", std::move(*c)).code(),
            StatusCode::kFailedPrecondition);  // after Start
  daemon.RequestStop();
  daemon.Wait();
}

// ---------------------------------------------------------------------------
// Remote parity: the tentpole claim
// ---------------------------------------------------------------------------

TEST(Daemon, RemoteParityAcrossDeviceUris) {
  const TestData t = MakeData();
  const uint32_t k = 10;
  const std::string image = ::testing::TempDir() + "e2net_parity_image.bin";
  const std::string uris[] = {"mem:", "sim:cssd*4", "file:" + image};

  for (const std::string& uri : uris) {
    auto index = BuildIndex(t, uri);
    ASSERT_TRUE(index.ok()) << uri << ": " << index.status().ToString();

    // In-process answers first; Serve() takes the engine after this.
    auto local = (*index)->SearchBatch(t.gen.queries, k);
    ASSERT_TRUE(local.ok()) << uri << ": " << local.status().ToString();

    const std::string sock = SockPath("parity");
    net::Daemon daemon(UnixOptions(sock));
    ASSERT_TRUE(daemon.AddIndex("default", std::move(*index)).ok());
    ASSERT_TRUE(daemon.Start().ok()) << uri;

    auto client = net::Client::Connect("unix:" + sock);
    ASSERT_TRUE(client.ok()) << uri << ": " << client.status().ToString();
    ASSERT_TRUE((*client)->Ping().ok());

    const uint32_t count = static_cast<uint32_t>(t.gen.queries.n());
    auto remote = (*client)->SearchBatch("default", t.gen.queries.Row(0),
                                         count, t.gen.queries.dim(), k);
    ASSERT_TRUE(remote.ok()) << uri << ": " << remote.status().ToString();
    ExpectParity(*remote, local->results, uri);

    // Single-query path and the nowait admission path agree too.
    auto one = (*client)->Search("default", t.gen.queries.Row(0),
                                 t.gen.queries.dim(), k);
    ASSERT_TRUE(one.ok()) << uri;
    ExpectParity({*one}, {local->results[0]}, uri + " single");
    auto nowait = (*client)->Search("default", t.gen.queries.Row(1),
                                    t.gen.queries.dim(), k, /*nowait=*/true);
    ASSERT_TRUE(nowait.ok()) << uri;
    ExpectParity({*nowait}, {local->results[1]}, uri + " nowait");

    // Stats reflect the served traffic, captured without tearing.
    auto stats = (*client)->Stats("default");
    ASSERT_TRUE(stats.ok()) << uri;
    EXPECT_GE(stats->completed, static_cast<uint64_t>(count) + 2) << uri;
    EXPECT_EQ(stats->failed, 0u) << uri;
    EXPECT_GT(stats->p50_ns, 0u) << uri;

    daemon.RequestStop();
    daemon.Wait();
    EXPECT_EQ(daemon.connections(), 0u) << uri;
  }
  std::remove(image.c_str());
}

TEST(Daemon, TcpEphemeralPortRoundTrip) {
  const TestData t = MakeData(800, 12, 8);
  const uint32_t k = 5;
  auto index = BuildIndex(t, "mem:");
  ASSERT_TRUE(index.ok());
  auto local = (*index)->SearchBatch(t.gen.queries, k);
  ASSERT_TRUE(local.ok());

  net::DaemonOptions opts;
  opts.tcp_port = 0;  // ephemeral
  opts.serve.search.shards = 2;
  net::Daemon daemon(opts);
  ASSERT_TRUE(daemon.AddIndex("default", std::move(*index)).ok());
  ASSERT_TRUE(daemon.Start().ok());
  ASSERT_GT(daemon.tcp_port(), 0);

  auto client = net::Client::Connect("tcp:127.0.0.1:" +
                                     std::to_string(daemon.tcp_port()));
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->Ping().ok());
  const uint32_t count = static_cast<uint32_t>(t.gen.queries.n());
  auto remote = (*client)->SearchBatch("default", t.gen.queries.Row(0), count,
                                       t.gen.queries.dim(), k);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ExpectParity(*remote, local->results, "tcp");
}

// ---------------------------------------------------------------------------
// Multi-index routing + per-index configuration
// ---------------------------------------------------------------------------

TEST(Daemon, MultiIndexRoutingAndConfigure) {
  const TestData ta = MakeData(1000, 16, 8, /*seed=*/21);
  const TestData tb = MakeData(1000, 24, 8, /*seed=*/22);
  auto ia = BuildIndex(ta, "mem:");
  auto ib = BuildIndex(tb, "mem:");
  ASSERT_TRUE(ia.ok());
  ASSERT_TRUE(ib.ok());
  auto la = (*ia)->SearchBatch(ta.gen.queries, 10);
  auto lb = (*ib)->SearchBatch(tb.gen.queries, 10);
  ASSERT_TRUE(la.ok());
  ASSERT_TRUE(lb.ok());

  const std::string sock = SockPath("multi");
  net::Daemon daemon(UnixOptions(sock));
  ASSERT_TRUE(daemon.AddIndex("alpha", std::move(*ia)).ok());
  ASSERT_TRUE(daemon.AddIndex("beta", std::move(*ib)).ok());
  ASSERT_TRUE(daemon.Start().ok());

  auto client = net::Client::Connect("unix:" + sock);
  ASSERT_TRUE(client.ok());

  // Each name answers from its own index (different dims prove routing).
  auto ra = (*client)->SearchBatch(
      "alpha", ta.gen.queries.Row(0),
      static_cast<uint32_t>(ta.gen.queries.n()), ta.gen.queries.dim(), 10);
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ExpectParity(*ra, la->results, "alpha");
  auto rb = (*client)->SearchBatch(
      "beta", tb.gen.queries.Row(0),
      static_cast<uint32_t>(tb.gen.queries.n()), tb.gen.queries.dim(), 10);
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  ExpectParity(*rb, lb->results, "beta");

  // Semantic errors answer on the wire without closing the connection.
  EXPECT_EQ((*client)
                ->Search("gamma", ta.gen.queries.Row(0),
                         ta.gen.queries.dim(), 10)
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ((*client)
                ->Search("beta", ta.gen.queries.Row(0),
                         ta.gen.queries.dim() /* != beta's 24 */, 10)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*client)->Configure("gamma", 5).code(), StatusCode::kNotFound);
  EXPECT_EQ((*client)->Configure("alpha", 0).code(),
            StatusCode::kInvalidArgument);

  // Configure sets the k applied when a Search carries k == 0 — and only
  // for the named index.
  ASSERT_TRUE((*client)->Configure("alpha", 3).ok());
  auto k0 = (*client)->Search("alpha", ta.gen.queries.Row(0),
                              ta.gen.queries.dim(), /*k=*/0);
  ASSERT_TRUE(k0.ok());
  EXPECT_EQ(k0->neighbors.size(), 3u);
  auto beta_k0 = (*client)->Search("beta", tb.gen.queries.Row(0),
                                   tb.gen.queries.dim(), /*k=*/0);
  ASSERT_TRUE(beta_k0.ok());
  EXPECT_EQ(beta_k0->neighbors.size(), 10u);  // untouched default

  // The connection survived every error above.
  EXPECT_TRUE((*client)->Ping().ok());
}

// ---------------------------------------------------------------------------
// Protocol-error containment
// ---------------------------------------------------------------------------

/// Read one frame (length prefix + payload) from a raw socket.
Status ReadFrame(int fd, std::vector<uint8_t>* payload) {
  uint8_t lenbuf[4];
  E2_RETURN_NOT_OK(net::ReadFull(fd, lenbuf, sizeof(lenbuf)));
  const uint32_t len = static_cast<uint32_t>(lenbuf[0]) |
                       (static_cast<uint32_t>(lenbuf[1]) << 8) |
                       (static_cast<uint32_t>(lenbuf[2]) << 16) |
                       (static_cast<uint32_t>(lenbuf[3]) << 24);
  E2_RETURN_NOT_OK(net::ValidateFrameLength(len, net::kDefaultMaxFrameBytes));
  payload->resize(len);
  return net::ReadFull(fd, payload->data(), len);
}

/// Expect a kProtocolError response followed by EOF (connection closed).
void ExpectProtocolErrorThenClose(int fd) {
  std::vector<uint8_t> payload;
  ASSERT_TRUE(ReadFrame(fd, &payload).ok());
  net::Reader r(payload.data(), payload.size());
  net::FrameHeader hdr;
  ASSERT_TRUE(r.Header(&hdr).ok());
  EXPECT_NE(hdr.type & net::kResponseBit, 0);
  uint8_t code;
  ASSERT_TRUE(r.U8(&code).ok());
  EXPECT_EQ(code, static_cast<uint8_t>(net::WireCode::kProtocolError));
  // Then EOF: the daemon closed this connection.
  uint8_t b;
  bool eof = false;
  ASSERT_TRUE(net::ReadFull(fd, &b, 1, &eof).ok());
  EXPECT_TRUE(eof);
}

TEST(Daemon, MalformedFramesCloseOneConnectionNotTheListener) {
  const TestData t = MakeData(300, 8, 4);
  auto index = BuildIndex(t, "mem:");
  ASSERT_TRUE(index.ok());
  const std::string sock = SockPath("garbage");
  net::Daemon daemon(UnixOptions(sock));
  ASSERT_TRUE(daemon.AddIndex("default", std::move(*index)).ok());
  ASSERT_TRUE(daemon.Start().ok());
  auto ep = net::ParseEndpoint("unix:" + sock);
  ASSERT_TRUE(ep.ok());

  {  // Length prefix 0: below the header floor.
    auto fd = net::Connect(*ep);
    ASSERT_TRUE(fd.ok());
    const uint8_t zeros[4] = {0, 0, 0, 0};
    ASSERT_TRUE(net::WriteFull(*fd, zeros, sizeof(zeros)).ok());
    ExpectProtocolErrorThenClose(*fd);
    net::CloseFd(*fd);
  }
  {  // Oversized length prefix: rejected before any allocation.
    auto fd = net::Connect(*ep);
    ASSERT_TRUE(fd.ok());
    const uint32_t huge = net::kDefaultMaxFrameBytes + 1;
    uint8_t lenbuf[4];
    for (int i = 0; i < 4; ++i) lenbuf[i] = static_cast<uint8_t>(huge >> (8 * i));
    ASSERT_TRUE(net::WriteFull(*fd, lenbuf, sizeof(lenbuf)).ok());
    ExpectProtocolErrorThenClose(*fd);
    net::CloseFd(*fd);
  }
  {  // Bad magic.
    auto fd = net::Connect(*ep);
    ASSERT_TRUE(fd.ok());
    net::Writer w;
    w.Begin(static_cast<uint8_t>(net::MsgType::kPing), 1);
    auto frame = w.Finish();
    frame[4] ^= 0xFF;  // corrupt the magic
    ASSERT_TRUE(net::WriteFull(*fd, frame.data(), frame.size()).ok());
    ExpectProtocolErrorThenClose(*fd);
    net::CloseFd(*fd);
  }
  {  // Unknown message type.
    auto fd = net::Connect(*ep);
    ASSERT_TRUE(fd.ok());
    net::Writer w;
    w.Begin(0x7F, 1);
    const auto frame = w.Finish();
    ASSERT_TRUE(net::WriteFull(*fd, frame.data(), frame.size()).ok());
    ExpectProtocolErrorThenClose(*fd);
    net::CloseFd(*fd);
  }
  {  // Truncated Search body (name promised, bytes missing).
    auto fd = net::Connect(*ep);
    ASSERT_TRUE(fd.ok());
    net::Writer w;
    w.Begin(static_cast<uint8_t>(net::MsgType::kSearch), 1);
    w.U16(500);  // string length with no bytes behind it
    const auto frame = w.Finish();
    ASSERT_TRUE(net::WriteFull(*fd, frame.data(), frame.size()).ok());
    ExpectProtocolErrorThenClose(*fd);
    net::CloseFd(*fd);
  }
  {  // Trailing garbage after a well-formed Ping body.
    auto fd = net::Connect(*ep);
    ASSERT_TRUE(fd.ok());
    net::Writer w;
    w.Begin(static_cast<uint8_t>(net::MsgType::kPing), 1);
    w.U32(0xDEAD);
    const auto frame = w.Finish();
    ASSERT_TRUE(net::WriteFull(*fd, frame.data(), frame.size()).ok());
    ExpectProtocolErrorThenClose(*fd);
    net::CloseFd(*fd);
  }

  // After all of that the listener still accepts and serves.
  auto client = net::Client::Connect("unix:" + sock);
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->Ping().ok());
  auto result = (*client)->Search("default", t.gen.queries.Row(0),
                                  t.gen.queries.dim(), 3);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
}

// ---------------------------------------------------------------------------
// Abrupt disconnect + shutdown drain
// ---------------------------------------------------------------------------

TEST(Daemon, AbruptDisconnectWithQueriesInFlight) {
  const TestData t = MakeData(1500, 16, 16);
  auto index = BuildIndex(t, "sim:cssd");
  ASSERT_TRUE(index.ok());
  const std::string sock = SockPath("abrupt");
  net::Daemon daemon(UnixOptions(sock));
  ASSERT_TRUE(daemon.AddIndex("default", std::move(*index)).ok());
  ASSERT_TRUE(daemon.Start().ok());
  auto ep = net::ParseEndpoint("unix:" + sock);
  ASSERT_TRUE(ep.ok());

  // Fire SearchBatch frames and slam the connection shut without ever
  // reading a response: the handler's results are dropped on the floor,
  // and no shard worker may wedge on it.
  for (int round = 0; round < 8; ++round) {
    auto fd = net::Connect(*ep);
    ASSERT_TRUE(fd.ok());
    net::Writer w;
    w.Begin(static_cast<uint8_t>(net::MsgType::kSearchBatch), 1);
    w.Str("default");
    w.U32(5);  // k
    w.U32(0);  // flags
    w.U32(static_cast<uint32_t>(t.gen.queries.n()));
    w.U32(t.gen.queries.dim());
    w.Raw(t.gen.queries.Row(0),
          t.gen.queries.n() * t.gen.queries.dim() * sizeof(float));
    const auto frame = w.Finish();
    ASSERT_TRUE(net::WriteFull(*fd, frame.data(), frame.size()).ok());
    net::CloseFd(*fd);  // gone before the response exists
  }

  // The daemon still serves new clients correctly afterwards.
  auto client = net::Client::Connect("unix:" + sock);
  ASSERT_TRUE(client.ok());
  auto result = (*client)->Search("default", t.gen.queries.Row(0),
                                  t.gen.queries.dim(), 5);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->neighbors.size(), 5u);

  // And shuts down cleanly with those dropped results behind it.
  daemon.RequestStop();
  daemon.Wait();
}

TEST(Daemon, ShutdownDrainsInFlightRequests) {
  const TestData t = MakeData(1500, 16, 32);
  auto index = BuildIndex(t, "sim:cssd");
  ASSERT_TRUE(index.ok());
  auto local = (*index)->SearchBatch(t.gen.queries, 10);
  ASSERT_TRUE(local.ok());

  const std::string sock = SockPath("drain");
  net::Daemon daemon(UnixOptions(sock));
  ASSERT_TRUE(daemon.AddIndex("default", std::move(*index)).ok());
  ASSERT_TRUE(daemon.Start().ok());

  // A client mid-batch when the stop lands must still get its complete,
  // correct response: that is the drain guarantee.
  std::atomic<bool> ok{false};
  std::thread requester([&] {
    auto client = net::Client::Connect("unix:" + sock);
    ASSERT_TRUE(client.ok());
    for (int round = 0; round < 20; ++round) {
      auto remote = (*client)->SearchBatch(
          "default", t.gen.queries.Row(0),
          static_cast<uint32_t>(t.gen.queries.n()), t.gen.queries.dim(), 10);
      if (!remote.ok()) return;  // raced past the drain window: fine
      ExpectParity(*remote, local->results, "drain round");
    }
    ok.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  daemon.RequestStop();
  daemon.Wait();  // returns only after the in-flight response was written
  requester.join();
  // Whether the requester finished all rounds or was cut off at a frame
  // boundary, every response it did receive was complete and correct
  // (ExpectParity above); reaching here without a wedge is the drain.
  EXPECT_EQ(daemon.connections(), 0u);
}

// ---------------------------------------------------------------------------
// Soak: 64 concurrent connections with random disconnects (TSan-covered
// via the `concurrency` ctest label)
// ---------------------------------------------------------------------------

TEST(DaemonSoak, ConcurrentConnectionsWithRandomDisconnects) {
  const TestData t = MakeData(1200, 12, 8);
  auto index = BuildIndex(t, "mem:");
  ASSERT_TRUE(index.ok());
  const std::string sock = SockPath("soak");
  net::DaemonOptions opts = UnixOptions(sock);
  opts.serve.queue_capacity = 64;  // small: exercise real backpressure
  net::Daemon daemon(opts);
  ASSERT_TRUE(daemon.AddIndex("default", std::move(*index)).ok());
  ASSERT_TRUE(daemon.Start().ok());
  auto ep = net::ParseEndpoint("unix:" + sock);
  ASSERT_TRUE(ep.ok());

  constexpr int kThreads = 64;
  constexpr int kOpsPerThread = 12;
  std::atomic<uint64_t> ok_ops{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&, ti] {
      std::mt19937 rng(1234 + ti);
      for (int op = 0; op < kOpsPerThread; ++op) {
        switch (rng() % 6) {
          case 0: {  // full client round trip
            auto client = net::Client::Connect("unix:" + sock);
            if (!client.ok()) {
              failures.fetch_add(1);
              break;
            }
            auto r = (*client)->Search(
                "default", t.gen.queries.Row(rng() % t.gen.queries.n()),
                t.gen.queries.dim(), 5, /*nowait=*/(rng() % 2) == 0);
            // nowait may surface ResourceExhausted under this load —
            // that is the admission control working, not a failure.
            if (r.ok() || r.status().code() == StatusCode::kResourceExhausted) {
              ok_ops.fetch_add(1);
            } else {
              failures.fetch_add(1);
            }
            break;
          }
          case 1: {  // batch round trip
            auto client = net::Client::Connect("unix:" + sock);
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
          case 2: {  // stats while everyone else is searching
            auto client = net::Client::Connect("unix:" + sock);
            if (!client.ok()) {
              failures.fetch_add(1);
              break;
            }
            auto s = (*client)->Stats("default");
            if (s.ok() && s->failed == 0) {
              ok_ops.fetch_add(1);
            } else {
              failures.fetch_add(1);
            }
            break;
          }
          case 3: {  // abrupt disconnect with a request in flight
            auto fd = net::Connect(*ep);
            if (!fd.ok()) {
              failures.fetch_add(1);
              break;
            }
            net::Writer w;
            w.Begin(static_cast<uint8_t>(net::MsgType::kSearchBatch),
                    rng());
            w.Str("default");
            w.U32(5);
            w.U32(0);
            w.U32(static_cast<uint32_t>(t.gen.queries.n()));
            w.U32(t.gen.queries.dim());
            w.Raw(t.gen.queries.Row(0),
                  t.gen.queries.n() * t.gen.queries.dim() * sizeof(float));
            const auto frame = w.Finish();
            net::WriteFull(*fd, frame.data(), frame.size());
            net::CloseFd(*fd);  // never reads the response
            ok_ops.fetch_add(1);
            break;
          }
          case 4: {  // disconnect mid-frame (dies inside the length)
            auto fd = net::Connect(*ep);
            if (!fd.ok()) {
              failures.fetch_add(1);
              break;
            }
            const uint8_t partial[2] = {0x40, 0x00};
            net::WriteFull(*fd, partial, sizeof(partial));
            net::CloseFd(*fd);
            ok_ops.fetch_add(1);
            break;
          }
          default: {  // ping
            auto client = net::Client::Connect("unix:" + sock);
            if (client.ok() && (*client)->Ping().ok()) {
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

  // The daemon survived the storm and still answers...
  auto client = net::Client::Connect("unix:" + sock);
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE((*client)->Ping().ok());
  auto stats = (*client)->Stats("default");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->failed, 0u);

  // ...and still shuts down clean.
  daemon.RequestStop();
  daemon.Wait();
  EXPECT_EQ(daemon.connections(), 0u);
}

}  // namespace
}  // namespace e2lshos
