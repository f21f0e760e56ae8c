// Command-line front end over the e2lshos::Index facade: build, persist,
// query, and serve E2LSHoS indexes on any storage backend a device URI
// can name.
//
//   e2lshos_cli gen    --dataset SIFT --out data.fvecs [--n N] [--queries Q]
//   e2lshos_cli build  --base data.fvecs --index idx.bin --device URI
//                      [--rho R] [--c C] [--w W] [--gamma G] [--s S]
//                      [--max-n N]
//   e2lshos_cli query  --base data.fvecs --index idx.bin --device URI
//                      --queries q.fvecs [--k K] [--shards S]
//                      [--probe-contexts P] [--max-n N]
//   e2lshos_cli serve  --base data.fvecs --index idx.bin --device URI
//                      [--queries q.fvecs] [--count N] [--rate QPS]
//                      [--k K] [--shards S] [--deadline-us D]
//                      [--probe-contexts P] [--max-n N]
//
// The device URI selects and configures the backend in one string —
// file:/path/img.bin, file:/path/img.bin?direct=1&threads=8,
// uring:/path/img.bin?sqpoll=1, sim:cssd*4, mem: — replacing the old
// --image/--device/--direct/--sqpoll flag zoo. Build writes the image
// through the URI's device and the metadata to --index; query/serve
// reopen both. mem:/sim: indexes persist their image in a
// `<index>.image` sidecar, so even simulated runs survive restarts.
//
// Unknown flags and malformed values are errors with a usage hint,
// never silently ignored.
#include <algorithm>
#include <array>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/index.h"
#include "data/io.h"
#include "data/registry.h"
#include "lsh/hash_function.h"
#include "net/client.h"
#include "net/daemon.h"
#include "net/socket.h"
#include "util/clock.h"
#include "util/crc32c.h"
#include "util/parse.h"
#include "util/rng.h"

using namespace e2lshos;

namespace {

using FlagMap = std::map<std::string, std::string>;

/// Strict flag parser: every token must be a known `--flag value` pair.
/// Flags listed in `repeatable` may appear any number of times (their
/// values land in *repeated, in order); every other flag at most once.
Result<FlagMap> ParseFlags(int argc, char** argv,
                           const std::set<std::string>& known,
                           const std::set<std::string>& repeatable = {},
                           std::vector<std::pair<std::string, std::string>>*
                               repeated = nullptr) {
  auto usage_hint = [&known]() {
    std::string hint = " (known flags:";
    for (const auto& k : known) hint += " --" + k;
    hint += "; run without arguments for usage)";
    return hint;
  };
  FlagMap flags;
  for (int i = 2; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.size() < 3 || token.compare(0, 2, "--") != 0) {
      return Status::InvalidArgument("expected a --flag, got '" + token + "'" +
                                     usage_hint());
    }
    const std::string name = token.substr(2);
    if (known.count(name) == 0 && repeatable.count(name) == 0) {
      return Status::InvalidArgument("unknown flag '" + token + "'" +
                                     usage_hint());
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag '" + token + "' needs a value" +
                                     usage_hint());
    }
    if (repeatable.count(name) != 0) {
      repeated->emplace_back(name, argv[++i]);
      continue;
    }
    if (!flags.emplace(name, argv[++i]).second) {
      return Status::InvalidArgument("flag '" + token + "' given twice");
    }
  }
  return flags;
}

/// Whole-string numeric parses (util::ParseU64/ParseF64): signs,
/// whitespace, trailing garbage, and overflow are errors, not zeros —
/// `--n -1` must not become 2^64-1 points.
Result<uint64_t> GetU(const FlagMap& f, const std::string& k, uint64_t dflt) {
  auto it = f.find(k);
  if (it == f.end()) return dflt;
  auto v = util::ParseU64(it->second);
  if (!v.ok()) {
    return Status::InvalidArgument("flag --" + k + " expects a non-negative "
                                   "integer, got '" + it->second + "'");
  }
  return v;
}

/// For flags consumed as uint32 (--k, --shards, ...): an
/// out-of-range value is an error, never a modular wrap (--k 2^32
/// must not silently become k=0).
Result<uint32_t> GetU32(const FlagMap& f, const std::string& k, uint32_t dflt) {
  E2_ASSIGN_OR_RETURN(const uint64_t v, GetU(f, k, dflt));
  if (v > UINT32_MAX) {
    return Status::InvalidArgument("flag --" + k + " value " +
                                   std::to_string(v) + " is out of range");
  }
  return static_cast<uint32_t>(v);
}

Result<double> GetD(const FlagMap& f, const std::string& k, double dflt) {
  auto it = f.find(k);
  if (it == f.end()) return dflt;
  auto v = util::ParseF64(it->second);
  if (!v.ok()) {
    return Status::InvalidArgument("flag --" + k + " expects a non-negative "
                                   "number, got '" + it->second + "'");
  }
  return v;
}

std::string GetS(const FlagMap& f, const std::string& k) {
  auto it = f.find(k);
  return it == f.end() ? std::string() : it->second;
}

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

#define CLI_ASSIGN(lhs, expr)               \
  auto lhs##_res = (expr);                  \
  if (!lhs##_res.ok()) return Fail(lhs##_res.status()); \
  auto lhs = std::move(lhs##_res).value();

int CmdGen(int argc, char** argv) {
  CLI_ASSIGN(flags, ParseFlags(argc, argv, {"dataset", "out", "n", "queries"}));
  const std::string name = GetS(flags, "dataset");
  const std::string out = GetS(flags, "out");
  if (name.empty() || out.empty()) {
    return Fail(Status::InvalidArgument("gen requires --dataset and --out"));
  }
  auto spec = data::GetDatasetSpec(name);
  if (!spec.ok()) return Fail(spec.status());
  CLI_ASSIGN(n, GetU(flags, "n", 0));
  CLI_ASSIGN(nq, GetU(flags, "queries", 100));
  auto gen = data::MakeDataset(*spec, n, nq);
  if (Status st = data::SaveFvecs(gen.base, out); !st.ok()) return Fail(st);
  if (Status st = data::SaveFvecs(gen.queries, out + ".queries"); !st.ok()) {
    return Fail(st);
  }
  std::printf("wrote %llu vectors to %s (+%llu queries to %s.queries)\n",
              static_cast<unsigned long long>(gen.base.n()), out.c_str(),
              static_cast<unsigned long long>(gen.queries.n()), out.c_str());
  return 0;
}

/// Shared build/query/serve preamble: the base set and the required
/// --index / --device flags.
struct Common {
  data::Dataset base;
  std::string index_path;
  std::string device_uri;
};

Result<Common> LoadCommon(const FlagMap& flags, const char* cmd) {
  Common c;
  const std::string base_path = GetS(flags, "base");
  c.index_path = GetS(flags, "index");
  c.device_uri = GetS(flags, "device");
  if (base_path.empty() || c.index_path.empty() || c.device_uri.empty()) {
    return Status::InvalidArgument(
        std::string(cmd) +
        " requires --base, --index, and --device URI (e.g. "
        "file:/tmp/img.bin, sim:cssd, mem:)");
  }
  E2_ASSIGN_OR_RETURN(const uint64_t max_n, GetU(flags, "max-n", 0));
  E2_ASSIGN_OR_RETURN(c.base, data::LoadVectorFile(base_path, max_n));
  return c;
}

/// The --shards / --probe-contexts engine shape shared by query/serve.
Result<SearchSpec> MakeSearchSpec(const FlagMap& flags) {
  SearchSpec spec;
  E2_ASSIGN_OR_RETURN(spec.shards, GetU32(flags, "shards", 1));
  E2_ASSIGN_OR_RETURN(const uint32_t contexts,
                      GetU32(flags, "probe-contexts", 32));
  spec.contexts_per_shard = std::max<uint32_t>(1, contexts);
  return spec;
}

int CmdBuild(int argc, char** argv) {
  CLI_ASSIGN(flags,
             ParseFlags(argc, argv, {"base", "index", "device", "rho", "c", "w",
                                     "gamma", "s", "max-n", "capacity"}));
  IndexSpec spec;
  CLI_ASSIGN(c, GetD(flags, "c", 2.0));
  CLI_ASSIGN(w, GetD(flags, "w", 4.0));
  CLI_ASSIGN(rho, GetD(flags, "rho", 0.25));
  CLI_ASSIGN(gamma, GetD(flags, "gamma", 1.0));
  CLI_ASSIGN(s, GetD(flags, "s", 4.0));
  CLI_ASSIGN(capacity, GetU(flags, "capacity", 0));
  CLI_ASSIGN(common, LoadCommon(flags, "build"));
  std::printf("loaded %llu x %u vectors\n",
              static_cast<unsigned long long>(common.base.n()),
              common.base.dim());
  spec.lsh.c = c;
  spec.lsh.w = w;
  spec.lsh.rho = rho;
  spec.lsh.gamma = gamma;
  spec.lsh.s_factor = s;
  spec.device_uri = common.device_uri;
  spec.device_capacity = capacity;

  const uint64_t t0 = util::NowNs();
  auto index = Index::Build(spec, std::move(common.base));
  if (!index.ok()) return Fail(index.status());
  std::printf("device: %s\nparams: m=%u L=%u radii=%u\n",
              (*index)->device()->name().c_str(), (*index)->params().m,
              (*index)->params().L, (*index)->params().num_radii());
  if (Status st = (*index)->Save(common.index_path); !st.ok()) return Fail(st);
  const auto sizes = (*index)->sizes();
  std::printf("built in %.1fs: %.1f MB on storage, %.1f MB DRAM metadata\n",
              static_cast<double>(util::NowNs() - t0) / 1e9,
              static_cast<double>(sizes.storage_bytes) / (1 << 20),
              static_cast<double>(sizes.dram_index_bytes) / (1 << 20));
  return 0;
}

int CmdQuery(int argc, char** argv) {
  CLI_ASSIGN(flags, ParseFlags(argc, argv,
                               {"base", "index", "device", "queries", "k",
                                "shards", "probe-contexts", "max-n"}));
  CLI_ASSIGN(k, GetU32(flags, "k", 10));
  CLI_ASSIGN(search, MakeSearchSpec(flags));
  CLI_ASSIGN(common, LoadCommon(flags, "query"));
  const std::string query_path = GetS(flags, "queries");
  if (query_path.empty()) {
    return Fail(Status::InvalidArgument("query requires --queries"));
  }
  auto queries = data::LoadVectorFile(query_path);
  if (!queries.ok()) return Fail(queries.status());

  auto index = Index::Open(common.index_path, OpenSpec{common.device_uri},
                           std::move(common.base));
  if (!index.ok()) return Fail(index.status());
  std::printf("device: %s\n", (*index)->device()->name().c_str());

  if (Status st = (*index)->Configure(search); !st.ok()) return Fail(st);

  auto batch = (*index)->SearchBatch(*queries, k);
  if (!batch.ok()) return Fail(batch.status());

  for (uint64_t q = 0; q < std::min<uint64_t>(queries->n(), 5); ++q) {
    std::printf("query %llu:", static_cast<unsigned long long>(q));
    for (const auto& nb : batch->results[q]) {
      std::printf(" %u(%.3f)", nb.id, nb.dist);
    }
    std::printf("\n");
  }
  std::printf(
      "%llu queries on %u shard(s), %.0f qps, %.1f I/Os per query, "
      "%.1f radii per query\n",
      static_cast<unsigned long long>(queries->n()), (*index)->num_shards(),
      batch->QueriesPerSecond(), batch->MeanIos(), batch->MeanRadii());
  return 0;
}

int CmdServe(int argc, char** argv) {
  CLI_ASSIGN(flags,
             ParseFlags(argc, argv,
                        {"base", "index", "device", "queries", "count", "rate",
                         "k", "shards", "deadline-us", "probe-contexts",
                         "max-n"}));
  ServeSpec serve;
  CLI_ASSIGN(k, GetU32(flags, "k", 10));
  CLI_ASSIGN(deadline, GetU(flags, "deadline-us", 0));
  serve.k = k;
  serve.deadline_us = deadline;
  CLI_ASSIGN(search, MakeSearchSpec(flags));
  serve.search = search;

  CLI_ASSIGN(common, LoadCommon(flags, "serve"));

  // Query source: a file (cycled up to --count), else random base rows
  // (the generator case — a load without a recorded query log).
  const std::string query_path = GetS(flags, "queries");
  data::Dataset queries;
  if (!query_path.empty()) {
    auto loaded = data::LoadVectorFile(query_path);
    if (!loaded.ok()) return Fail(loaded.status());
    if (loaded->dim() != common.base.dim()) {
      return Fail(Status::InvalidArgument("query dimension mismatch"));
    }
    queries = std::move(*loaded);
  }
  CLI_ASSIGN(count, GetU(flags, "count",
                         queries.n() > 0 ? queries.n() : 1000));
  CLI_ASSIGN(rate, GetD(flags, "rate", 0.0));  // 0 = unthrottled

  auto index = Index::Open(common.index_path, OpenSpec{common.device_uri},
                           std::move(common.base));
  if (!index.ok()) return Fail(index.status());
  std::printf("device: %s\n", (*index)->device()->name().c_str());

  auto server = (*index)->Serve(serve);
  if (!server.ok()) return Fail(server.status());

  const data::Dataset& base = (*index)->base();
  util::Rng rng(17);
  const uint64_t interval_ns =
      rate > 0 ? static_cast<uint64_t>(1e9 / rate) : 0;
  const uint64_t t0 = util::NowNs();
  uint64_t submitted = 0;
  for (uint64_t i = 0; i < count; ++i) {
    if (interval_ns > 0) {
      // Sleep off most of the interval, spin only the last stretch: the
      // pacing thread shares the host with the shard workers it drives.
      const uint64_t deadline_ns = t0 + i * interval_ns;
      uint64_t now = util::NowNs();
      if (deadline_ns > now + 200000) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(deadline_ns - now - 100000));
      }
      while (util::NowNs() < deadline_ns) {
      }
    }
    const float* vec = queries.n() > 0
                           ? queries.Row(i % queries.n())
                           : base.Row(rng.NextU64Below(base.n()));
    if ((*server)->Submit(vec).ok()) ++submitted;
  }
  (*server)->Close();
  (*server)->Wait();

  const core::StreamingSnapshot snap = (*server)->stats();
  std::printf("served %llu/%llu queries on %u shard(s), k=%u\n",
              static_cast<unsigned long long>(snap.completed),
              static_cast<unsigned long long>(submitted),
              (*index)->num_shards(), serve.k);
  std::printf("  offered rate: %s qps\n",
              rate > 0 ? std::to_string(static_cast<uint64_t>(rate)).c_str()
                       : "unthrottled");
  std::printf("  achieved:     %.0f qps overall, %.0f qps sustained window\n",
              snap.overall_qps, snap.sustained_qps);
  std::printf(
      "  latency (enqueue->completion): p50 %.2f ms, p95 %.2f ms, "
      "p99 %.2f ms, max %.2f ms\n",
      static_cast<double>(snap.p50_ns) / 1e6,
      static_cast<double>(snap.p95_ns) / 1e6,
      static_cast<double>(snap.p99_ns) / 1e6,
      static_cast<double>(snap.max_ns) / 1e6);
  std::printf("  admitting polls: %llu (mean %.1f queries admitted), "
              "failed queries: %llu\n",
              static_cast<unsigned long long>(snap.batches),
              snap.mean_batch_size,
              static_cast<unsigned long long>(snap.failed));
  if (serve.deadline_us > 0) {
    std::printf("  load shedding: %llu rejected past the %llu us deadline\n",
                static_cast<unsigned long long>(snap.rejected),
                static_cast<unsigned long long>(serve.deadline_us));
  }
  return 0;
}

// ---------------------------------------------------------------------------
// serve-daemon / query-remote: network serving over net::Daemon.
// ---------------------------------------------------------------------------

net::Daemon* g_daemon = nullptr;

/// SIGTERM/SIGINT land here; RequestStop is async-signal-safe.
void HandleStopSignal(int /*sig*/) {
  if (g_daemon != nullptr) g_daemon->RequestStop();
}

/// One `--also NAME@BASE@META@URI` value, split on '@'.
Result<std::array<std::string, 4>> SplitAlso(const std::string& value) {
  std::array<std::string, 4> parts;
  size_t start = 0;
  for (int i = 0; i < 3; ++i) {
    const size_t at = value.find('@', start);
    if (at == std::string::npos) {
      return Status::InvalidArgument(
          "--also expects NAME@BASE.fvecs@INDEX.meta@DEVICE_URI, got '" +
          value + "'");
    }
    parts[i] = value.substr(start, at - start);
    start = at + 1;
  }
  parts[3] = value.substr(start);
  for (const auto& p : parts) {
    if (p.empty()) {
      return Status::InvalidArgument("--also has an empty field in '" + value +
                                     "'");
    }
  }
  return parts;
}

Result<std::unique_ptr<Index>> OpenForServing(const std::string& base_path,
                                              const std::string& index_path,
                                              const std::string& device_uri,
                                              uint64_t max_n) {
  E2_ASSIGN_OR_RETURN(data::Dataset base,
                      data::LoadVectorFile(base_path, max_n));
  return Index::Open(index_path, OpenSpec{device_uri}, std::move(base));
}

int CmdServeDaemon(int argc, char** argv) {
  std::vector<std::pair<std::string, std::string>> repeated;
  CLI_ASSIGN(flags,
             ParseFlags(argc, argv,
                        {"base", "index", "device", "name", "listen", "port",
                         "host", "k", "shards", "deadline-us",
                         "probe-contexts", "max-n",
                         "queue-capacity", "max-frame-bytes",
                         "recv-timeout-ms", "send-timeout-ms",
                         "breaker-ratio", "breaker-min-rate"},
                        {"also"}, &repeated));

  net::DaemonOptions opts;
  opts.unix_path = GetS(flags, "listen");
  if (!opts.unix_path.empty()) {
    if (Status st = net::ValidateUnixPath(opts.unix_path); !st.ok()) {
      return Fail(st);
    }
  }
  const std::string host = GetS(flags, "host");
  if (!host.empty()) opts.tcp_host = host;
  if (flags.count("port") != 0) {
    // Strict range validation: 0, >65535, signs, and trailing garbage
    // are errors here, never a silent wrap into some bindable port.
    CLI_ASSIGN(port, GetU(flags, "port", 0));
    if (port == 0 || port > 65535) {
      return Fail(Status::InvalidArgument(
          "--port must be in 1..65535, got " + std::to_string(port)));
    }
    opts.tcp_port = static_cast<int>(port);
  }
  if (opts.unix_path.empty() && opts.tcp_port < 0) {
    return Fail(Status::InvalidArgument(
        "serve-daemon requires --listen SOCKET_PATH and/or --port PORT"));
  }
  CLI_ASSIGN(max_frame,
             GetU(flags, "max-frame-bytes", net::kDefaultMaxFrameBytes));
  if (max_frame < net::kHeaderBytes || max_frame > (1ull << 30)) {
    return Fail(Status::InvalidArgument("--max-frame-bytes must be in " +
                                        std::to_string(net::kHeaderBytes) +
                                        "..2^30"));
  }
  opts.max_frame_bytes = static_cast<uint32_t>(max_frame);
  CLI_ASSIGN(recv_timeout, GetU32(flags, "recv-timeout-ms", 0));
  CLI_ASSIGN(send_timeout, GetU32(flags, "send-timeout-ms", 0));
  opts.recv_timeout_ms = recv_timeout;
  opts.send_timeout_ms = send_timeout;
  CLI_ASSIGN(breaker_ratio, GetD(flags, "breaker-ratio", 0.0));
  CLI_ASSIGN(breaker_min_rate, GetD(flags, "breaker-min-rate", 5.0));
  if (breaker_ratio < 0.0 || breaker_ratio > 1.0) {
    return Fail(Status::InvalidArgument(
        "--breaker-ratio must be in 0..1 (0 disables the breaker)"));
  }
  opts.breaker_trip_ratio = breaker_ratio;
  opts.breaker_min_rate = breaker_min_rate;

  CLI_ASSIGN(k, GetU32(flags, "k", 10));
  CLI_ASSIGN(deadline, GetU(flags, "deadline-us", 0));
  CLI_ASSIGN(queue_capacity, GetU(flags, "queue-capacity", 1024));
  opts.serve.k = k;
  opts.serve.deadline_us = deadline;
  opts.serve.queue_capacity = queue_capacity;
  CLI_ASSIGN(search, MakeSearchSpec(flags));
  opts.serve.search = search;
  CLI_ASSIGN(max_n, GetU(flags, "max-n", 0));

  net::Daemon daemon(std::move(opts));

  // Primary index from --base/--index/--device, named by --name.
  {
    const std::string base_path = GetS(flags, "base");
    const std::string index_path = GetS(flags, "index");
    const std::string device_uri = GetS(flags, "device");
    if (base_path.empty() || index_path.empty() || device_uri.empty()) {
      return Fail(Status::InvalidArgument(
          "serve-daemon requires --base, --index, and --device URI"));
    }
    std::string name = GetS(flags, "name");
    if (name.empty()) name = "default";
    auto index = OpenForServing(base_path, index_path, device_uri, max_n);
    if (!index.ok()) return Fail(index.status());
    std::printf("index '%s': %llu x %u vectors on %s\n", name.c_str(),
                static_cast<unsigned long long>((*index)->n()),
                (*index)->dim(), (*index)->device()->name().c_str());
    if (Status st = daemon.AddIndex(name, std::move(*index)); !st.ok()) {
      return Fail(st);
    }
  }
  // Additional indexes: --also NAME@BASE@META@URI, repeatable.
  for (const auto& [flag, value] : repeated) {
    (void)flag;
    CLI_ASSIGN(parts, SplitAlso(value));
    auto index = OpenForServing(parts[1], parts[2], parts[3], max_n);
    if (!index.ok()) return Fail(index.status());
    std::printf("index '%s': %llu x %u vectors on %s\n", parts[0].c_str(),
                static_cast<unsigned long long>((*index)->n()),
                (*index)->dim(), (*index)->device()->name().c_str());
    if (Status st = daemon.AddIndex(parts[0], std::move(*index)); !st.ok()) {
      return Fail(st);
    }
  }

  if (Status st = daemon.Start(); !st.ok()) return Fail(st);
  std::printf("kernels: hash=%s crc32c=%s\n",
              lsh::HashKernelName(lsh::ActiveHashKernel()),
              util::Crc32cKernelName(util::ActiveCrc32cKernel()));
  if (!GetS(flags, "listen").empty()) {
    std::printf("listening on unix:%s\n", GetS(flags, "listen").c_str());
  }
  if (daemon.tcp_port() > 0) {
    const std::string h = GetS(flags, "host");
    std::printf("listening on tcp:%s:%u\n",
                h.empty() ? "127.0.0.1" : h.c_str(), daemon.tcp_port());
  }
  std::fflush(stdout);

  g_daemon = &daemon;
  struct sigaction sa {};
  sa.sa_handler = HandleStopSignal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);

  daemon.Wait();  // returns only after in-flight requests drained
  g_daemon = nullptr;
  std::printf("daemon stopped: connections drained, indexes released\n");
  return 0;
}

int CmdQueryRemote(int argc, char** argv) {
  CLI_ASSIGN(flags, ParseFlags(argc, argv,
                               {"to", "index", "queries", "k", "nowait",
                                "stats", "health", "max-n", "timeout-ms",
                                "retries", "retry-backoff-ms"}));
  const std::string to = GetS(flags, "to");
  const std::string query_path = GetS(flags, "queries");
  if (to.empty() || query_path.empty()) {
    return Fail(Status::InvalidArgument(
        "query-remote requires --to unix:PATH|tcp:HOST:PORT and "
        "--queries q.fvecs"));
  }
  CLI_ASSIGN(k, GetU32(flags, "k", 10));
  CLI_ASSIGN(nowait, GetU32(flags, "nowait", 0));
  CLI_ASSIGN(want_stats, GetU32(flags, "stats", 0));
  CLI_ASSIGN(want_health, GetU32(flags, "health", 0));
  if (nowait > 1 || want_stats > 1 || want_health > 1) {
    return Fail(Status::InvalidArgument(
        "--nowait/--stats/--health expect 0 or 1"));
  }
  std::string name = GetS(flags, "index");
  if (name.empty()) name = "default";
  CLI_ASSIGN(max_n, GetU(flags, "max-n", 0));
  CLI_ASSIGN(queries, data::LoadVectorFile(query_path, max_n));

  net::ClientOptions copts;
  CLI_ASSIGN(timeout_ms, GetU32(flags, "timeout-ms", 0));
  CLI_ASSIGN(retries, GetU32(flags, "retries", 0));
  CLI_ASSIGN(retry_backoff, GetU32(flags, "retry-backoff-ms", 50));
  copts.recv_timeout_ms = timeout_ms;
  copts.max_retries = retries;
  copts.retry_backoff_ms = retry_backoff;

  auto client = net::Client::Connect(to, copts);
  if (!client.ok()) return Fail(client.status());
  if (Status st = (*client)->Ping(); !st.ok()) return Fail(st);

  // Chunk batches so huge query files never trip the frame cap.
  constexpr uint32_t kChunk = 256;
  std::vector<net::WireQueryResult> results;
  results.reserve(queries.n());
  const uint64_t t0 = util::NowNs();
  for (uint64_t off = 0; off < queries.n(); off += kChunk) {
    const uint32_t count = static_cast<uint32_t>(
        std::min<uint64_t>(kChunk, queries.n() - off));
    auto chunk = (*client)->SearchBatch(name, queries.Row(off), count,
                                        queries.dim(), k, nowait != 0);
    if (!chunk.ok()) return Fail(chunk.status());
    for (auto& r : *chunk) results.push_back(std::move(r));
  }
  const double secs = static_cast<double>(util::NowNs() - t0) / 1e9;

  // Same per-query lines as `query`, so local and remote runs diff
  // clean on the "query N:" prefix.
  for (uint64_t q = 0; q < std::min<uint64_t>(queries.n(), 5); ++q) {
    if (!results[q].status.ok()) {
      std::printf("query %llu: error %s\n",
                  static_cast<unsigned long long>(q),
                  results[q].status.ToString().c_str());
      continue;
    }
    std::printf("query %llu:", static_cast<unsigned long long>(q));
    for (const auto& nb : results[q].neighbors) {
      std::printf(" %u(%.3f)", nb.id, nb.dist);
    }
    std::printf("\n");
  }
  uint64_t ok_count = 0, rejected = 0, failed = 0;
  for (const auto& r : results) {
    if (r.status.ok()) {
      ++ok_count;
    } else if (r.status.code() == StatusCode::kResourceExhausted) {
      ++rejected;
    } else {
      ++failed;
    }
  }
  std::printf("%llu remote queries against '%s' at %s: %llu ok, %llu "
              "rejected, %llu failed, %.0f qps end-to-end\n",
              static_cast<unsigned long long>(results.size()), name.c_str(),
              to.c_str(), static_cast<unsigned long long>(ok_count),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(failed),
              secs > 0 ? static_cast<double>(results.size()) / secs : 0.0);
  if ((*client)->reconnects() > 0) {
    std::printf("  client reconnects: %llu\n",
                static_cast<unsigned long long>((*client)->reconnects()));
  }
  if (failed > 0) return 1;

  if (want_stats != 0) {
    auto stats = (*client)->Stats(name);
    if (!stats.ok()) return Fail(stats.status());
    std::printf("server stats for '%s': %llu completed, %llu failed, %llu "
                "rejected, queue depth %llu\n",
                name.c_str(),
                static_cast<unsigned long long>(stats->completed),
                static_cast<unsigned long long>(stats->failed),
                static_cast<unsigned long long>(stats->rejected),
                static_cast<unsigned long long>(stats->queue_depth));
    std::printf("  p50 %.2f ms, p95 %.2f ms, p99 %.2f ms; %.0f qps "
                "sustained; %llu device reads, %llu cache hits\n",
                static_cast<double>(stats->p50_ns) / 1e6,
                static_cast<double>(stats->p95_ns) / 1e6,
                static_cast<double>(stats->p99_ns) / 1e6,
                stats->sustained_qps,
                static_cast<unsigned long long>(stats->reads_completed),
                static_cast<unsigned long long>(stats->cache_hits));
    std::printf("  faults injected: %llu, device retries: %llu, retries "
                "exhausted: %llu\n",
                static_cast<unsigned long long>(stats->faults_injected),
                static_cast<unsigned long long>(stats->retries),
                static_cast<unsigned long long>(stats->retries_exhausted));
    std::printf("  updates applied: %llu, epochs published: %llu, staged "
                "bytes: %llu, update lag: %llu\n",
                static_cast<unsigned long long>(stats->updates_applied),
                static_cast<unsigned long long>(stats->epochs_published),
                static_cast<unsigned long long>(stats->update_staged_bytes),
                static_cast<unsigned long long>(stats->update_lag));
  }
  if (want_health != 0) {
    auto health = (*client)->Health();
    if (!health.ok()) return Fail(health.status());
    const char* state = health->state == 0   ? "ok"
                        : health->state == 1 ? "degraded"
                                             : "unhealthy";
    std::printf("daemon health: %s (error rate %.1f/s, shed rate %.1f/s, "
                "%llu shed total)\n",
                state, health->error_rate, health->shed_rate,
                static_cast<unsigned long long>(health->total_shed));
    if (health->state == 2) return 1;
  }
  return 0;
}

/// "17,42,99" -> {17, 42, 99}; any empty or non-numeric token is an error.
Result<std::vector<uint32_t>> ParseIdList(const std::string& flag,
                                          const std::string& value) {
  std::vector<uint32_t> ids;
  size_t start = 0;
  while (true) {
    const size_t comma = value.find(',', start);
    const std::string tok =
        comma == std::string::npos ? value.substr(start)
                                   : value.substr(start, comma - start);
    auto id = util::ParseU64(tok);
    if (!id.ok() || *id > UINT32_MAX) {
      return Status::InvalidArgument("flag --" + flag +
                                     " expects comma-separated u32 ids, got '" +
                                     value + "'");
    }
    ids.push_back(static_cast<uint32_t>(*id));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return ids;
}

int CmdUpdateRemote(int argc, char** argv) {
  CLI_ASSIGN(flags, ParseFlags(argc, argv,
                               {"to", "index", "insert", "remove", "restore",
                                "max-n", "timeout-ms", "retries",
                                "retry-backoff-ms"}));
  const std::string to = GetS(flags, "to");
  const std::string insert_path = GetS(flags, "insert");
  const std::string remove_list = GetS(flags, "remove");
  const std::string restore_list = GetS(flags, "restore");
  if (to.empty()) {
    return Fail(Status::InvalidArgument(
        "update-remote requires --to unix:PATH|tcp:HOST:PORT"));
  }
  if (insert_path.empty() && remove_list.empty() && restore_list.empty()) {
    return Fail(Status::InvalidArgument(
        "update-remote needs --insert rows.fvecs, --remove id[,id...], "
        "and/or --restore id[,id...]"));
  }
  std::string name = GetS(flags, "index");
  if (name.empty()) name = "default";

  net::ClientOptions copts;
  CLI_ASSIGN(timeout_ms, GetU32(flags, "timeout-ms", 0));
  CLI_ASSIGN(retries, GetU32(flags, "retries", 0));
  CLI_ASSIGN(retry_backoff, GetU32(flags, "retry-backoff-ms", 50));
  copts.recv_timeout_ms = timeout_ms;
  copts.max_retries = retries;
  copts.retry_backoff_ms = retry_backoff;

  auto client = net::Client::Connect(to, copts);
  if (!client.ok()) return Fail(client.status());
  if (Status st = (*client)->Ping(); !st.ok()) return Fail(st);

  if (!insert_path.empty()) {
    CLI_ASSIGN(max_n, GetU(flags, "max-n", 0));
    CLI_ASSIGN(rows, data::LoadVectorFile(insert_path, max_n));
    // Chunk like query-remote so huge files never trip the frame cap.
    constexpr uint32_t kChunk = 256;
    uint64_t inserted = 0, first_id = 0, epoch = 0;
    for (uint64_t off = 0; off < rows.n(); off += kChunk) {
      const uint32_t count =
          static_cast<uint32_t>(std::min<uint64_t>(kChunk, rows.n() - off));
      auto ack = (*client)->Insert(name, rows.Row(off), count, rows.dim());
      if (!ack.ok()) return Fail(ack.status());
      if (inserted == 0) first_id = ack->first_id;
      inserted += ack->count_applied;
      epoch = ack->epoch;
    }
    std::printf("inserted %llu rows into '%s': ids %llu..%llu, epoch %llu\n",
                static_cast<unsigned long long>(inserted), name.c_str(),
                static_cast<unsigned long long>(first_id),
                static_cast<unsigned long long>(first_id + inserted - 1),
                static_cast<unsigned long long>(epoch));
  }
  if (!remove_list.empty()) {
    CLI_ASSIGN(ids, ParseIdList("remove", remove_list));
    auto ack = (*client)->Remove(name, ids.data(),
                                 static_cast<uint32_t>(ids.size()));
    if (!ack.ok()) return Fail(ack.status());
    std::printf("removed %u ids from '%s', epoch %llu\n", ack->count_applied,
                name.c_str(), static_cast<unsigned long long>(ack->epoch));
  }
  if (!restore_list.empty()) {
    CLI_ASSIGN(ids, ParseIdList("restore", restore_list));
    auto ack = (*client)->Restore(name, ids.data(),
                                  static_cast<uint32_t>(ids.size()));
    if (!ack.ok()) return Fail(ack.status());
    std::printf("restored %u ids on '%s', epoch %llu\n", ack->count_applied,
                name.c_str(), static_cast<unsigned long long>(ack->epoch));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(
        stderr,
        "usage: %s {gen|build|query|serve|serve-daemon|query-remote|"
        "update-remote} --flag value ...\n"
        "  gen    --dataset SIFT --out data.fvecs [--n N] [--queries Q]\n"
        "  build  --base data.fvecs --index idx.bin --device URI\n"
        "         [--rho R] [--c C] [--w W] [--gamma G] [--s S] [--max-n N]\n"
        "  query  --base data.fvecs --index idx.bin --device URI "
        "--queries q.fvecs\n"
        "         [--k K] [--shards S] [--probe-contexts P] [--max-n N]\n"
        "  serve  --base data.fvecs --index idx.bin --device URI "
        "[--queries q.fvecs]\n"
        "         [--count N] [--rate QPS] [--k K] [--shards S]\n"
        "         [--deadline-us D]\n"
        "  serve-daemon  --base data.fvecs --index idx.bin --device URI\n"
        "         {--listen SOCKET_PATH | --port PORT [--host H]}\n"
        "         [--name NAME] [--also NAME@BASE@META@URI ...]\n"
        "         [--k K] [--shards S] [--deadline-us D] [--queue-capacity N] "
        "[--max-frame-bytes N]\n"
        "         [--recv-timeout-ms MS] [--send-timeout-ms MS]\n"
        "         [--breaker-ratio R] [--breaker-min-rate QPS]\n"
        "         (SIGTERM/SIGINT drain in-flight queries, then exit 0)\n"
        "  query-remote  --to unix:PATH|tcp:HOST:PORT --queries q.fvecs\n"
        "         [--index NAME] [--k K] [--nowait 0|1] [--stats 0|1]\n"
        "         [--health 0|1] [--timeout-ms MS] [--retries N]\n"
        "         [--retry-backoff-ms MS] [--max-n N]\n"
        "  update-remote  --to unix:PATH|tcp:HOST:PORT [--index NAME]\n"
        "         [--insert rows.fvecs [--max-n N]] [--remove id[,id...]]\n"
        "         [--restore id[,id...]] [--timeout-ms MS] [--retries N]\n"
        "         (live mutations against a serving daemon; inserts become\n"
        "         searchable on the published epoch the ack reports)\n"
        "device URIs: mem: | sim:cssd|essd|xlfdd|hdd[*N][?iface=...] |\n"
        "  file:PATH[?direct=1&threads=N] | uring:PATH[?direct=1&sqpoll=1"
        "&fixed=1]\n"
        "  (+ ?capacity=SIZE, ?queue=N, ?cache=SIZE,\n"
        "   ?fault=submit:P,complete:P,corrupt:P,stall:USEC[,seed:N],\n"
        "   ?retry=N[,backoff:USEC][,deadline:USEC] on any scheme;\n"
        "   fixed=1 [uring] registers engine arenas for READ_FIXED,\n"
        "   cache=SIZE adds a DRAM read cache, fault= injects storage\n"
        "   faults, retry= retries transient failures; build needs a\n"
        "   buffered device — serve the same image with direct=1)\n",
        argv[0]);
    return 1;
  }
  const std::string cmd = argv[1];
  if (cmd == "gen") return CmdGen(argc, argv);
  if (cmd == "build") return CmdBuild(argc, argv);
  if (cmd == "query") return CmdQuery(argc, argv);
  if (cmd == "serve") return CmdServe(argc, argv);
  if (cmd == "serve-daemon") return CmdServeDaemon(argc, argv);
  if (cmd == "query-remote") return CmdQueryRemote(argc, argv);
  if (cmd == "update-remote") return CmdUpdateRemote(argc, argv);
  std::fprintf(stderr,
               "unknown command: %s (expected gen|build|query|serve|"
               "serve-daemon|query-remote|update-remote)\n",
               cmd.c_str());
  return 1;
}
