// perfbench: one seeded run of one workload.
//
//   perfbench --workload cssd_uniform --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints every end-to-end metric; --trace 1 repeats the same
// legs with spans on, adds the in-process leg and the kernel pass, and
// prints every per-layer metric. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Exit status 0
// when every answer check passed, 1 when one failed, 2 on bad usage or
// a set-up failure (no result line).
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_set>

#include "bench.h"
#include "legs.h"
#include "net/daemon.h"
#include "traced.h"
#include "util/clock.h"

using namespace perfbench;
using e2lshos::Index;
using e2lshos::Status;
using e2lshos::util::NowNs;

namespace {

/// The per-layer metrics of a traced run, in BENCHMARK.json's order.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"net.rtt_p50_us", "us"},
    {"net.self_p50_us", "us"},
    {"net.frame_queries_mean", "count"},
    {"net.update_rtt_p50_ms", "ms"},
    {"net.start_s", "s"},
    {"core.server.wait_p50_us", "us"},
    {"core.server.batch_mean", "count"},
    {"core.server.queue_depth_max", "count"},
    {"core.engine.query_p50_us", "us"},
    {"core.engine.ios_per_query", "count"},
    {"core.engine.table_reads_per_query", "count"},
    {"core.engine.block_reads_per_query", "count"},
    {"core.engine.radii_per_query", "count"},
    {"core.engine.cpu_us_per_query", "us"},
    {"core.engine.candidates_per_query", "count"},
    {"core.engine.fp_reject_frac", "frac"},
    {"core.engine.dup_skip_frac", "frac"},
    {"core.engine.candidates_per_read", "count"},
    {"core.engine.partial_frac", "frac"},
    {"core.engine.hash_us_per_query", "us"},
    {"core.engine.verify_us_per_query", "us"},
    {"core.engine.distance_us_per_query", "us"},
    {"lsh.hash_ns_per_table", "ns"},
    {"util.crc32c_ns_512", "ns"},
    {"util.crc32c_ns_4k", "ns"},
    {"util.l2_ns_dim128", "ns"},
    {"util.topk_push_ns", "ns"},
    {"storage.reads_per_query", "count"},
    {"storage.bytes_per_query", "B"},
    {"storage.busy_frac", "frac"},
    {"storage.read_p50_us", "us"},
    {"storage.read_p99_us", "us"},
    {"storage.submit_us_per_query", "us"},
    {"storage.cache.hit_frac", "frac"},
    {"storage.cache.evictions_per_s", "1/s"},
    {"storage.device_kiops", "k/s"},
    {"core.live.ms_per_row", "ms"},
    {"core.live.reads_per_row", "count"},
    {"core.live.staged_bytes_per_row", "B"},
    {"core.live.bytes_per_user_byte", "ratio"},
    {"core.live.epochs_per_s", "1/s"},
    {"core.live.lag_max", "count"},
    {"core.build.s", "s"},
    {"core.build.bytes_written", "B"},
    {"gen.late_p99_us", "us"},
    {"gen.late_max_us", "us"},
    {"trace.overhead_us_per_query", "us"},
};

struct Args {
  std::string workload, spans, sock;
  uint64_t seed = 1;
  double seconds = 15;
  int trace = 0;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--spans PATH] [--sock PATH]\n"
               "workloads:",
               why.c_str());
  for (const auto& n : WorkloadNames()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

[[noreturn]] void Die(const std::string& what, const Status& st) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               st.ToString().c_str());
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  a.sock = "perfbench-" + std::to_string(::getpid()) + ".sock";
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + k);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') Usage("bad --seed " + v);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds >= 1 && a.seconds <= 120)) {
        Usage("--seconds must be in [1, 120]");
      }
    } else if (k == "--trace") {
      if (v != "0" && v != "1") Usage("--trace must be 0 or 1");
      a.trace = v == "1";
    } else if (k == "--spans") {
      a.spans = v;
    } else if (k == "--sock") {
      a.sock = v;
    } else {
      Usage("unknown flag " + k);
    }
  }
  if (FindWorkload(a.workload) == nullptr) Usage("unknown workload '" + a.workload + "'");
  return a;
}

/// One set-up: Index::Build until the daemon answers a ping, or until the
/// in-process engine has answered its first query.
struct Setup {
  std::unique_ptr<e2lshos::net::Daemon> daemon;
  std::unique_ptr<Index> local;
  Index* index = nullptr;
  double build_s = 0, start_s = 0;
  e2lshos::core::IndexSizes sizes;
  uint64_t bytes_written = 0;
};

std::string Endpoint(const std::string& sock) { return "unix:" + sock; }

Setup SetUp(const Workload& w, const Inputs& in, bool remote,
            const std::string& sock) {
  Setup s;
  e2lshos::IndexSpec spec;
  spec.lsh = in.lsh;
  spec.auto_x_max = false;  // Inputs fixes x_max to the value range
  spec.device_uri = w.uri;
  const uint64_t t0 = NowNs();
  auto built = Index::Build(spec, in.base);
  if (!built.ok()) Die("Index::Build(" + w.uri + ")", built.status());
  const uint64_t t1 = NowNs();
  s.index = built->get();
  s.sizes = s.index->sizes();
  s.bytes_written = s.index->device_stats().bytes_written;
  if (remote) {
    e2lshos::net::DaemonOptions opt;
    opt.unix_path = sock;
    opt.serve.k = kK;
    opt.serve.search.shards = kShards;
    s.daemon = std::make_unique<e2lshos::net::Daemon>(std::move(opt));
    if (Status st = s.daemon->AddIndex(kIndexName, std::move(*built)); !st.ok()) {
      Die("Daemon::AddIndex", st);
    }
    if (Status st = s.daemon->Start(); !st.ok()) Die("Daemon::Start", st);
    auto client = e2lshos::net::Client::Connect(Endpoint(sock));
    if (!client.ok()) Die("Client::Connect", client.status());
    if (Status st = (*client)->Ping(); !st.ok()) Die("Client::Ping", st);
  } else {
    e2lshos::SearchSpec search;
    search.shards = kShards;
    if (Status st = s.index->Configure(search); !st.ok()) Die("Configure", st);
    e2lshos::data::Dataset one("ready", kDim);
    one.Append(in.templates.Row(0));
    auto r = s.index->SearchBatch(one, kK);
    if (!r.ok()) Die("first SearchBatch", r.status());
    s.local = std::move(*built);
  }
  const uint64_t t2 = NowNs();
  s.build_s = static_cast<double>(t1 - t0) / 1e9;
  s.start_s = static_cast<double>(t2 - t1) / 1e9;
  return s;
}

void TearDown(Setup* s) {
  if (s->daemon != nullptr) {
    s->daemon->RequestStop();
    s->daemon->Wait();
    s->daemon.reset();
  }
  s->local.reset();
  s->index = nullptr;
}

std::vector<std::unique_ptr<Conn>> Connect(const std::string& sock,
                                           uint32_t count) {
  std::vector<std::unique_ptr<Conn>> conns;
  for (uint32_t i = 0; i < count; ++i) {
    auto c = e2lshos::net::Client::Connect(Endpoint(sock));
    if (!c.ok()) Die("Client::Connect", c.status());
    conns.push_back(std::make_unique<Conn>(std::move(*c)));
  }
  return conns;
}

/// After the writer stopped: every acknowledged inserted row is found at
/// distance 0 under its own id, no removed id is returned, and (into
/// `acc`) recall/ratio of the templates against the exact top-k over
/// base + acknowledged inserts - removes.
void PostWriteChecks(Conn* conn, Load* load, const Writer& writer,
                     Accuracy* acc) {
  const Inputs& in = *load->in;
  const auto inserted = writer.inserted();
  const auto removed_ids = writer.removed();
  const std::unordered_set<uint32_t> removed(removed_ids.begin(),
                                             removed_ids.end());
  const uint64_t n_now = kN + inserted.size();
  e2lshos::data::Dataset live("live", kDim);
  std::vector<uint32_t> id_map;
  for (uint32_t i = 0; i < kN; ++i) {
    if (removed.count(i) != 0) continue;
    live.Append(in.base.Row(i));
    id_map.push_back(i);
  }
  for (const auto& [id, row] : inserted) {
    live.Append(in.insert_pool.Row(row));
    id_map.push_back(id);
  }
  const auto live_gt = e2lshos::data::GroundTruth::Compute(live, in.templates, kK, 4);

  Tally* t = load->tally;
  std::vector<Answer> answers;
  std::vector<float> buf;
  auto check = [&](uint32_t count, const std::vector<uint32_t>& tags,
                   bool own_row) {
    (void)conn->Search(buf.data(), count, &answers);
    for (uint32_t i = 0; i < count; ++i) {
      t->attempted++;
      const Answer& a = answers[i];
      if (!a.status.ok()) {
        t->Fail("check query failed: " + a.status.ToString(), false);
        continue;
      }
      if (!CheckAnswer(a.neighbors, n_now, t)) continue;
      bool bad = false;
      for (const Neighbor& nb : a.neighbors) bad |= removed.count(nb.id) != 0;
      if (bad) {
        t->Fail("a removed id was returned", true);
        continue;
      }
      if (own_row) {
        bool found = false;
        for (const Neighbor& nb : a.neighbors) {
          found |= nb.id == tags[i] && nb.dist == 0.0f;
        }
        if (!found) t->Fail("inserted id " + std::to_string(tags[i]) +
                                " not found at distance 0", true);
      } else {
        acc->Add(live_gt, tags[i], a.neighbors, &id_map);
      }
    }
  };
  std::vector<uint32_t> tags;
  for (uint32_t b = 0; b < in.templates.n(); b += kFrameCap) {
    const uint32_t count =
        std::min<uint32_t>(kFrameCap, static_cast<uint32_t>(in.templates.n()) - b);
    buf.assign(in.templates.Row(b), in.templates.Row(b) + size_t{count} * kDim);
    tags.clear();
    for (uint32_t i = 0; i < count; ++i) tags.push_back(b + i);
    check(count, tags, false);
  }
  for (size_t b = 0; b < inserted.size(); b += kFrameCap) {
    const uint32_t count =
        static_cast<uint32_t>(std::min<size_t>(kFrameCap, inserted.size() - b));
    buf.clear();
    tags.clear();
    for (uint32_t i = 0; i < count; ++i) {
      const auto& [id, row] = inserted[b + i];
      buf.insert(buf.end(), in.insert_pool.Row(row), in.insert_pool.Row(row) + kDim);
      tags.push_back(id);
    }
    check(count, tags, true);
  }
  std::printf("  checks     %zu inserted rows found at distance 0, %zu removed "
              "ids absent, %llu templates re-searched\n",
              inserted.size(), removed.size(),
              static_cast<unsigned long long>(in.templates.n()));
}

/// Partial answers (blocks dropped as corrupt or unreadable) ship as OK:
/// the wire has no partial flag. What the benchmark can see of them is
/// a read the retry layer gave up on, in the daemon's Stats, and, once
/// the daemon has stopped, QueryStats::partial of an in-process
/// SearchBatch on the index it served, over the templates and every
/// acknowledged inserted row. Stops the daemon.
void PartialChecks(Setup* s, Conn* conn, const Inputs& in,
                   const Writer& writer, Tally* t) {
  t->attempted++;
  auto stats = conn->client()->Stats(kIndexName);
  uint64_t exhausted = 0;
  if (!stats.ok()) {
    t->Fail("Stats: " + stats.status().ToString(), false);
  } else if ((exhausted = stats->retries_exhausted) > 0) {
    t->Fail(std::to_string(exhausted) + " reads failed after the last retry",
            false);
  }
  s->daemon->RequestStop();
  s->daemon->Wait();
  e2lshos::data::Dataset queries("served", kDim);
  for (uint64_t q = 0; q < in.templates.n(); ++q) queries.Append(in.templates.Row(q));
  for (const auto& [id, row] : writer.inserted()) queries.Append(in.insert_pool.Row(row));
  t->attempted += queries.n();
  auto r = s->index->SearchBatch(queries, kK);
  if (!r.ok()) {
    t->Fail("SearchBatch on the served index: " + r.status().ToString(), false);
    return;
  }
  uint64_t partial = 0;
  for (const auto& st : r->stats) {
    if (st.partial) {
      ++partial;
      t->Fail("a query on the served index returned a partial result", false);
    }
  }
  std::printf("  checks     %llu reads failed after the last retry; %llu of %llu "
              "queries partial on the served index after it stopped\n",
              static_cast<unsigned long long>(exhausted),
              static_cast<unsigned long long>(partial),
              static_cast<unsigned long long>(queries.n()));
}

std::vector<double> Concat(const std::vector<double>& a,
                           const std::vector<double>& b) {
  std::vector<double> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

/// Results of the timed legs of one workload. Write ops are timed in
/// lo and hi when the writer runs beside the reads, else in `writes`.
struct Run {
  LegResult closed, lo, hi, writes;
  double recall = 0, ratio = 0;
  double late_p99_us = 0, late_max_us = 0, backlog_late_us = 0;
};

/// The timed legs, identical in both modes (spans are recorded only when
/// tracing is on).
Run Legs(const Workload& w, Setup* s, const std::string& sock,
         const Inputs& in, double seconds, Tally* tally) {
  Tracer& tr = GlobalTracer();
  Accuracy timed_acc, post_acc;
  Load load;
  load.in = &in;
  load.zipf = w.zipf;
  load.tally = tally;

  std::vector<std::unique_ptr<Conn>> owned = Connect(sock, kQueryConns);
  std::unique_ptr<Conn> wconn = std::move(Connect(sock, 1)[0]);
  std::vector<Conn*> conns;
  for (auto& c : owned) conns.push_back(c.get());
  Writer writer(RemoteWrites(wconn->client()), &load);

  // Timed answers feed recall/ratio only while no write has happened.
  Accuracy* const timed = w.writes_beside ? nullptr : &timed_acc;
  auto closed = [&](const char* leg, double s, Accuracy* acc, uint64_t stream) {
    tr.SetLeg(leg);
    load.accuracy = acc;
    return ClosedLoop(leg, conns, &load, s, stream);
  };
  auto open = [&](const char* leg, double qps, double s, Accuracy* acc,
                  uint64_t stream) {
    tr.SetLeg(leg);
    load.accuracy = acc;
    const KeepWarm keep_warm;
    return OpenLoop(leg, conns, &load, qps, s, stream);
  };

  Run run;
  // Warm-up: cache fill and first-touch page faults, untimed.
  closed("warmup", w.zipf ? 1.5 : 0.5, nullptr, 100);
  if (w.writes_beside) {
    writer.Start();
    closed("warmup", 0.3, nullptr, 101);
  }
  open("warmup", kLoQps, 0.3, nullptr, 102);
  open("warmup", kHiQps, 0.3, nullptr, 103);
  // The timed read legs, interleaved in rounds (see kRounds).
  std::vector<LegResult> cl, lo, hi;
  for (uint32_t r = 0; r < kRounds; ++r) {
    cl.push_back(closed("closed", seconds * w.closed_share / kRounds, timed, 1 + r));
    lo.push_back(open("lo", kLoQps, seconds * w.lo_share / kRounds, timed, 2 + 2 * r));
    hi.push_back(open("hi", kHiQps, seconds * w.hi_share / kRounds, timed, 3 + 2 * r));
  }
  load.accuracy = nullptr;
  if (!w.writes_beside) {
    // Writes alone, after every read leg: one untimed op, then the leg.
    tr.SetLeg("writes");
    const KeepWarm keep_warm;
    const uint64_t start = NowNs();
    writer.Start();
    const uint64_t t0 = start + static_cast<uint64_t>(1e9 / kWriteOpsPerSec);
    const uint64_t t1 = t0 + static_cast<uint64_t>(seconds * w.write_share * 1e9);
    SleepUntilNs(t1);
    writer.Stop();
    run.writes.name = "writes";
    run.writes.update_ms = writer.LatenciesMs(t0, t1);
  }
  writer.Stop();
  run.closed = Merge(cl, nullptr);
  run.lo = Merge(lo, w.writes_beside ? &writer : nullptr);
  run.hi = Merge(hi, w.writes_beside ? &writer : nullptr);
  tr.SetLeg("checks");
  PostWriteChecks(conns[0], &load, writer, &post_acc);
  PartialChecks(s, conns[0], in, writer, tally);
  tr.SetLeg("");
  const Accuracy& acc = w.writes_beside ? post_acc : timed_acc;
  run.recall = acc.recall();
  run.ratio = acc.ratio();
  std::vector<double> late = Concat(run.lo.late_us, run.hi.late_us);
  run.late_p99_us = Quantile(&late, 0.99);
  run.late_max_us = Quantile(&late, 1.0);
  run.backlog_late_us = std::max(run.lo.backlog_late_us, run.hi.backlog_late_us);

  std::printf("legs (%s):\n", tr.on() ? "traced" : "untraced");
  PrintLeg(run.closed);
  PrintLeg(run.lo);
  PrintLeg(run.hi);
  PrintLeg(run.writes);
  return run;
}

/// The mean over the legs with timed write ops of each leg's windowed
/// q-quantile, so a change in write latency under either read rate
/// moves it.
double UpdateQuantile(const Run& run, double q) {
  double sum = 0;
  uint32_t legs = 0;
  for (const LegResult* leg : {&run.lo, &run.hi, &run.writes}) {
    if (leg->update_ms.empty()) continue;
    sum += WindowedQuantile(leg->update_ms,
                            leg->update_ms.size() / kUpdateWindows, q);
    ++legs;
  }
  return legs != 0 ? sum / legs : 0;
}

void SetEndToEnd(const Run& run, double setup_s, const Setup& s,
                 Report* r) {
  const size_t lo_w = run.lo.lat_ms.size() / kWindows;
  const size_t hi_w = run.hi.lat_ms.size() / kWindows;
  r->Set("setup_s", "s", setup_s);
  r->Set("max_qps", "qps", Median(run.closed.window_qps));
  r->Set("p50_ms.lo", "ms", WindowedQuantile(run.lo.lat_ms, lo_w, 0.5));
  r->Set("p90_ms.lo", "ms", WindowedQuantile(run.lo.lat_ms, lo_w, 0.9));
  r->Set("p50_ms.hi", "ms", WindowedQuantile(run.hi.lat_ms, hi_w, 0.5));
  r->Set("p90_ms.hi", "ms", WindowedQuantile(run.hi.lat_ms, hi_w, 0.9));
  r->Set("update_p50_ms", "ms", UpdateQuantile(run, 0.5));
  r->Set("update_p90_ms", "ms", UpdateQuantile(run, 0.9));
  r->Set("recall10", "frac", run.recall);
  r->Set("ratio", "ratio", run.ratio);
  r->Set("dram_mb", "MB", static_cast<double>(s.sizes.dram_index_bytes) / 1e6);
  r->Set("storage_mb", "MB", static_cast<double>(s.sizes.storage_bytes) / 1e6);
  r->Set("rss_mb", "MB", PeakRssMb());
}

/// Median and sample values of one span layer, merged over legs.
struct SpanStats {
  std::vector<double> dur_us, self_us;
  uint64_t count = 0, children = 0;
};

SpanStats Spans(const std::map<std::string, Tracer::Layer>& layers,
                const std::vector<std::string>& legs, const std::string& name) {
  SpanStats out;
  for (const auto& leg : legs) {
    auto it = layers.find(leg + "/" + name);
    if (it == layers.end()) continue;
    out.dur_us.insert(out.dur_us.end(), it->second.dur_us.begin(),
                      it->second.dur_us.end());
    out.self_us.insert(out.self_us.end(), it->second.self_us.begin(),
                       it->second.self_us.end());
    out.count += it->second.count;
    out.children += it->second.children;
  }
  return out;
}

/// Cost of recording one span, in ns. Call after Fold(): these spans are
/// never written out.
double SpanCostNs() {
  Tracer& t = GlobalTracer();
  t.SetLeg("span_cost");
  const uint64_t t0 = NowNs();
  for (uint32_t i = 0; i < 200000; ++i) t.Add("probe", i, i + 1, 0, i);
  return static_cast<double>(NowNs() - t0) / 200000.0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  const Workload& w = *FindWorkload(args.workload);
  Tracer& tr = GlobalTracer();
  if (args.trace) tr.Enable();
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace);
  std::printf("settings: n=%llu dim=%u k=%u shards=%u device=%s daemon on a "
              "UNIX socket, templates=%u%s rates=%g/%g qps frame_cap=%u "
              "conns=%u writes=%g ops/s x (%u inserts + %u removes) %s\n",
              static_cast<unsigned long long>(kN), kDim, kK, kShards,
              w.uri.c_str(), kTemplates, w.zipf ? " zipf(1.0)" : " uniform",
              kLoQps, kHiQps, kFrameCap, kQueryConns, kWriteOpsPerSec,
              kInsertRows, kRemoveIds,
              w.writes_beside ? "beside reads" : "alone after reads");
  const double probe_start = HostProbeMs();
  std::printf("host probe (start): %.1f ms\n", probe_start);

  const double g0 = NowS();
  const Inputs in = MakeInputs(args.seed, Writer::PoolOps(args.seconds));
  std::printf("inputs: %.2f s (data, templates, exact top-%u)\n", NowS() - g0, kK);

  // Set-up, several times: the median is setup_s; the last one serves.
  std::vector<double> setup_s, build_s, start_s;
  Setup s;
  for (uint32_t rep = 0; rep < kSetupReps; ++rep) {
    TearDown(&s);
    s = SetUp(w, in, true, args.sock);
    setup_s.push_back(s.build_s + s.start_s);
    build_s.push_back(s.build_s);
    start_s.push_back(s.start_s);
  }
  std::printf("setup: build %.3f/%.3f/%.3f s, start %.4f/%.4f/%.4f s\n",
              build_s[0], build_s[1], build_s[2], start_s[0], start_s[1],
              start_s[2]);

  Tally tally;
  const Run run = Legs(w, &s, args.sock, in, args.seconds, &tally);
  Report e2e;
  SetEndToEnd(run, Median(setup_s), s, &e2e);
  const bool behind = run.backlog_late_us > kMaxBacklogLateUs;
  if (behind) {
    std::printf("INVALID: generator fell behind (median lateness over the "
                "last tenth of a segment %.0f us > %.0f us)\n",
                run.backlog_late_us, kMaxBacklogLateUs);
  }

  Report out;
  if (!args.trace) {
    out = e2e;
  } else {
    std::printf("traced end-to-end values (compare with an untraced run of "
                "the same seed for the tracing overhead):\n");
    for (const Metric& m : e2e.metrics()) {
      std::printf("  traced %-14s %12.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    const uint64_t spans_main = tr.size();
    const double queries_main = static_cast<double>(tally.attempted.load());
    TearDown(&s);

    Values v;
    Setup local = SetUp(w, in, false, args.sock);
    InprocLeg(w, local.index, in, args.seconds * 0.4, &tally, &v);
    KernelPass(local.index, in, &v);
    TearDown(&local);
    v["storage.device_kiops"] = DeviceProbeKiops(w.uri);

    const auto layers = tr.Fold(args.spans);
    const SpanStats frames = Spans(layers, {"lo", "hi"}, "net.client.frame");
    const SpanStats writes =
        Spans(layers, {"lo", "hi", "writes", "closed", "warmup"},
              "net.client.write_op");
    v["net.rtt_p50_us"] = Median(frames.dur_us);
    v["net.self_p50_us"] = Median(frames.self_us);
    v["net.frame_queries_mean"] =
        frames.count ? static_cast<double>(frames.children) / frames.count : 0;
    v["net.update_rtt_p50_ms"] = Median(writes.dur_us) / 1e3;
    v["net.start_s"] = Median(start_s);
    v["core.build.s"] = Median(build_s);
    v["core.build.bytes_written"] = static_cast<double>(s.bytes_written);
    v["gen.late_p99_us"] = run.late_p99_us;
    v["gen.late_max_us"] = run.late_max_us;
    v["trace.overhead_us_per_query"] =
        SpanCostNs() * static_cast<double>(spans_main) /
        std::max(1.0, queries_main) / 1e3;

    std::printf("span layers (self time per span, all legs):\n");
    for (const auto& [name, layer] : layers) {
      std::vector<double> self = layer.self_us;
      std::printf("  %-40s %9llu spans  self p50 %9.2f us  self total %9.3f s\n",
                  name.c_str(), static_cast<unsigned long long>(layer.count),
                  Quantile(&self, 0.5), layer.self_ns / 1e9);
    }
    std::printf("reconcile: storage.reads_per_query %.3f vs "
                "core.engine.ios_per_query %.3f (%+.2f%%)\n",
                v["storage.reads_per_query"], v["core.engine.ios_per_query"],
                100.0 * (v["storage.reads_per_query"] /
                             std::max(1e-9, v["core.engine.ios_per_query"]) - 1));
    const double modeled = ModeledIops(w.uri);
    if (modeled > 0) {
      const double max_qps = Median(run.closed.window_qps);
      const double delivered = max_qps * v["core.engine.ios_per_query"];
      std::printf("reconcile: max_qps %.0f x ios_per_query %.2f = %.0f reads/s "
                  "vs modeled %.0f (%+.2f%%); device probe %.0f reads/s\n",
                  max_qps, v["core.engine.ios_per_query"], delivered,
                  modeled, 100.0 * (delivered / modeled - 1),
                  v["storage.device_kiops"] * 1e3);
    }
    // Where a query's time goes, ranked (us per query at the hi rate).
    const double cpu = v["core.engine.hash_us_per_query"] +
                       v["core.engine.verify_us_per_query"] +
                       v["core.engine.distance_us_per_query"] +
                       v["storage.submit_us_per_query"];
    std::vector<std::pair<double, std::string>> costs = {
        {v["core.engine.query_p50_us"] - cpu,
         "storage: device time inside the engine"},
        {v["core.server.wait_p50_us"], "core.server: admission + batch-forming wait"},
        {v["storage.submit_us_per_query"], "storage: submit/poll incl. iface charge"},
        {v["core.engine.hash_us_per_query"], "lsh: hashing"},
        {v["core.engine.verify_us_per_query"], "util: CRC32C verification"},
        {v["core.engine.distance_us_per_query"], "util: distance + top-k"},
        {v["net.self_p50_us"], "net: encode, socket, wake, decode"},
    };
    std::sort(costs.rbegin(), costs.rend());
    std::printf("top three costs of a %s remote query:\n", w.name.c_str());
    for (size_t i = 0; i < 3 && i < costs.size(); ++i) {
      std::printf("  %zu. %-46s %9.1f us\n", i + 1, costs[i].second.c_str(),
                  costs[i].first);
    }
    for (const auto& [name, unit] : kPerLayer) {
      auto it = v.find(name);
      if (it == v.end()) {
        tally.Fail(std::string("per-layer metric ") + name + " not measured", false);
        continue;
      }
      out.Set(name, unit, it->second);
      v.erase(it);
    }
    for (const auto& [name, value] : v) {
      std::printf("  info %-36s %14.4f\n", name.c_str(), value);
    }
  }
  TearDown(&s);

  const double probe_end = HostProbeMs();
  std::printf("host probe (end): %.1f ms (start %.1f ms; printed only, never "
              "applied to a metric)\n",
              probe_end, probe_start);
  std::printf("operations: %llu attempted, %llu failed (%llu answer-check "
              "mismatches)\n",
              static_cast<unsigned long long>(tally.attempted.load()),
              static_cast<unsigned long long>(tally.failed.load()),
              static_cast<unsigned long long>(tally.mismatches.load()));
  for (const auto& e : tally.errors) std::printf("FAILED: %s\n", e.c_str());
  const bool correct = tally.failed.load() == 0 && !behind;
  out.Print(correct, tally.attempted.load(), tally.failed.load());
  ::unlink(args.sock.c_str());
  return correct ? 0 : 1;
}
