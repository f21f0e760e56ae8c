#include "traced.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <thread>
#include <unordered_map>

#include "core/query_stream.h"
#include "core/sharded_engine.h"
#include "core/streaming_server.h"
#include "storage/device_registry.h"
#include "util/clock.h"
#include "util/crc32c.h"
#include "util/distance.h"
#include "util/rng.h"
#include "util/stats.h"

namespace perfbench {

namespace core = e2lshos::core;
namespace storage = e2lshos::storage;
using e2lshos::Status;
using e2lshos::util::NowNs;

namespace {

/// Per-shard counters of the timing decorator. Each shard queue is driven
/// by one thread at a time; read only while the engine is idle.
struct ShardIo {
  uint64_t submits = 0, bytes = 0, submit_ns = 0;
  uint64_t completions = 0, poll_ns = 0;
  e2lshos::util::LatencyHistogram latency;
};

/// A shard queue sees about 60 calls per query; one span in this many is
/// kept (the counters in ShardIo cover every call).
constexpr uint64_t kStorageSpanSample = 64;

/// Times every SubmitRead and every PollCompletions that harvested
/// something on one shard's queue, and records the device-reported read
/// latency of each completion.
class TimedQueue : public storage::BlockDevice {
 public:
  TimedQueue(std::unique_ptr<storage::BlockDevice> inner, ShardIo* io,
             uint32_t shard)
      : inner_(std::move(inner)), io_(io), shard_(shard) {}

  Status SubmitRead(const storage::IoRequest& req) override {
    const uint64_t t0 = NowNs();
    Status st = inner_->SubmitRead(req);
    const uint64_t t1 = NowNs();
    io_->submit_ns += t1 - t0;
    if (st.ok()) {
      ++io_->submits;
      io_->bytes += req.length;
    }
    if (++calls_ % kStorageSpanSample == 0) {
      GlobalTracer().Add("storage.submit", t0, t1, 0, shard_);
    }
    return st;
  }

  size_t PollCompletions(storage::IoCompletion* out, size_t max) override {
    const uint64_t t0 = NowNs();
    const size_t n = inner_->PollCompletions(out, max);
    if (n == 0) return 0;  // an empty poll is waiting, not work
    const uint64_t t1 = NowNs();
    io_->poll_ns += t1 - t0;
    io_->completions += n;
    for (size_t i = 0; i < n; ++i) io_->latency.Add(out[i].latency_ns);
    if (++calls_ % kStorageSpanSample == 0) {
      GlobalTracer().Add("storage.poll", t0, t1, 0, shard_);
    }
    return n;
  }

  Status Write(uint64_t offset, const void* data, uint32_t length) override {
    return inner_->Write(offset, data, length);
  }
  uint64_t capacity() const override { return inner_->capacity(); }
  uint32_t io_alignment() const override { return inner_->io_alignment(); }
  uint32_t outstanding() const override { return inner_->outstanding(); }
  std::string name() const override { return "timed(" + inner_->name() + ")"; }
  storage::DeviceStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }
  Status RegisterBuffers(
      const std::vector<std::pair<void*, size_t>>& regions) override {
    return inner_->RegisterBuffers(regions);
  }

 private:
  std::unique_ptr<storage::BlockDevice> inner_;
  ShardIo* io_;
  uint32_t shard_;
  uint64_t calls_ = 0;
};

ShardIo SumIo(const std::vector<ShardIo>& io) {
  ShardIo sum;
  for (const ShardIo& s : io) {
    sum.submits += s.submits;
    sum.bytes += s.bytes;
    sum.submit_ns += s.submit_ns;
    sum.completions += s.completions;
    sum.poll_ns += s.poll_ns;
    sum.latency.Merge(s.latency);
  }
  return sum;
}

double Div(double a, double b) { return b != 0 ? a / b : 0; }

/// Engine counters summed over the queries of the in-process leg.
struct EngineTotals {
  std::mutex mu;
  uint64_t queries = 0, partial = 0;
  uint64_t ios = 0, table_reads = 0, block_reads = 0, radii = 0;
  uint64_t candidates = 0, fp_rejects = 0, dup_skips = 0;
  uint64_t compute_ns = 0;
  void Add(const e2lshos::core::BatchResult& r);
};

void EngineTotals::Add(const e2lshos::core::BatchResult& r) {
  std::lock_guard<std::mutex> lock(mu);
  queries += r.stats.size();
  compute_ns += r.compute_ns;
  for (const auto& s : r.stats) {
    partial += s.partial ? 1 : 0;
    ios += s.ios;
    table_reads += s.table_reads;
    block_reads += s.bucket_block_reads;
    radii += s.radii_searched;
    candidates += s.candidates;
    fp_rejects += s.fp_rejects;
    dup_skips += s.dup_skips;
  }
}

/// Update-lag gauge sampled every 2 ms while live writes run.
class LagSampler {
 public:
  explicit LagSampler(e2lshos::Index* index)
      : thread_([this, index] {
          std::unique_lock<std::mutex> lock(mu_);
          while (!cv_.wait_for(lock, std::chrono::milliseconds(2),
                               [this] { return stop_; })) {
            lock.unlock();
            const uint64_t lag = index->device_stats().update_lag;
            lock.lock();
            max_ = std::max(max_, lag);
          }
        }) {}
  ~LagSampler() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  LagSampler(const LagSampler&) = delete;
  LagSampler& operator=(const LagSampler&) = delete;
  uint64_t max() {
    std::lock_guard<std::mutex> lock(mu_);
    return max_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  uint64_t max_ = 0;
  std::thread thread_;  // last: starts after the members it reads
};

}  // namespace

double ModeledIops(const std::string& uri) {
  auto parsed = storage::ParseDeviceUri(uri);
  // Cache hits never reach the device, so only an uncached stack has a
  // throughput the device model bounds.
  if (!parsed.ok() || parsed->scheme != storage::DeviceUri::Scheme::kSim ||
      parsed->cache_bytes != 0) {
    return 0;
  }
  const storage::DeviceModel m = storage::GetDeviceModel(parsed->sim_kind);
  return m.ExpectedIops(m.parallel_units) * parsed->sim_count;
}

void InprocLeg(const Workload& w, e2lshos::Index* index, const Inputs& in,
               double seconds, Tally* tally, Values* out) {
  Tracer& tr = GlobalTracer();
  std::vector<ShardIo> io(kShards);
  uint32_t wrapped = 0;
  core::ShardOptions opts;
  // The engine shape Index::Serve builds for SearchSpec{shards = 2}.
  const e2lshos::SearchSpec search;
  opts.num_shards = kShards;
  opts.total_contexts = search.contexts_per_shard * kShards;
  opts.total_inflight_ios = search.inflight_per_shard * kShards;
  opts.wrap_shard_device = [&](std::unique_ptr<storage::BlockDevice> q) {
    const uint32_t s = wrapped++ % kShards;
    return std::unique_ptr<storage::BlockDevice>(
        std::make_unique<TimedQueue>(std::move(q), &io[s], s));
  };
  core::ShardedQueryEngine engine(index->storage_index(), &index->base(), opts);

  Load load;
  load.in = &in;
  load.zipf = w.zipf;
  load.tally = tally;
  Writer writer(LocalWrites(index), &load);

  // --- Serving leg: open-loop arrivals into a SubmissionQueue. ---------
  const e2lshos::ServeSpec serve;
  core::SubmissionQueue queue(kDim, serve.queue_capacity);
  struct Sub {
    uint64_t due = 0, submit = 0;
  };
  std::mutex mu;
  std::unordered_map<uint64_t, Sub> subs;
  std::vector<double> lat_ms, wait_us, engine_us;
  EngineTotals served;
  core::ServerOptions so;
  so.k = kK;
  so.max_batch_size = serve.max_batch_size;
  so.max_wait_us = serve.max_wait_us;
  so.deadline_us = serve.deadline_us;
  so.on_result = [&](core::QueryResult&& r) {
    const uint64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu);
    const Sub sub = subs[r.id];
    tally->attempted.fetch_add(1, std::memory_order_relaxed);
    if (r.status.ok()) {  // partial answers too, so partial_frac sees them
      core::BatchResult one;
      one.stats.push_back(r.stats);
      served.Add(one);
    }
    if (!r.status.ok() || r.stats.partial) {
      tally->Fail(r.status.ok() ? "in-process query returned a partial result"
                                : "in-process query failed: " + r.status.ToString(),
                  false);
      lat_ms.push_back(std::numeric_limits<double>::infinity());
      return;
    }
    if (!CheckAnswer(r.neighbors, load.n_bound.load(), tally)) return;
    lat_ms.push_back(static_cast<double>(now - sub.due) / 1e6);
    wait_us.push_back(
        static_cast<double>(r.latency_ns - std::min(r.latency_ns, r.stats.wall_ns)) / 1e3);
    engine_us.push_back(static_cast<double>(r.stats.wall_ns) / 1e3);
    const uint64_t span =
        tr.Add("core.server.query", sub.submit, now, 0, r.id);
    tr.Add("core.engine.query", now - std::min(r.stats.wall_ns, now - sub.submit),
           now, span, r.id);
  };
  core::StreamingServer server(&engine, so);
  if (Status st = server.Start(&queue); !st.ok()) {
    tally->Fail("in-process server: " + st.ToString(), false);
    return;
  }
  const storage::DeviceStats dev0 = index->device_stats();
  std::unique_ptr<LagSampler> lag;
  if (w.writes_beside) {
    lag = std::make_unique<LagSampler>(index);
    writer.Start();
  }
  tr.SetLeg("inproc");
  const double serve_s = w.writes_beside ? seconds : seconds * 0.6;
  const uint64_t total = static_cast<uint64_t>(kHiQps * serve_s);
  const double interval = 1e9 / kHiQps;
  const uint64_t t0 = NowNs() + 1000000;
  uint64_t depth_max = 0;
  for (uint64_t i = 0; i < total; ++i) {
    const uint64_t due = t0 + static_cast<uint64_t>(interval * i);
    SleepUntilNs(due);
    const uint32_t q = in.Draw(w.zipf, 7, i);
    std::lock_guard<std::mutex> lock(mu);
    auto id = queue.TrySubmit(in.templates.Row(q), kK);
    if (!id.ok()) {
      tally->attempted.fetch_add(1, std::memory_order_relaxed);
      tally->Fail("in-process submit: " + id.status().ToString(), false);
      continue;
    }
    subs[*id] = Sub{due, NowNs()};
    depth_max = std::max<uint64_t>(depth_max, queue.depth());
  }
  queue.Close();
  server.Wait();
  const uint64_t t1 = NowNs();
  if (w.writes_beside) writer.Stop();
  const storage::DeviceStats dev1 = index->device_stats();
  const ShardIo serve_io = SumIo(io);
  const core::StreamingSnapshot snap = server.stats();

  // --- Writes alone (workloads whose writer does not run beside). -----
  storage::DeviceStats wdev0 = dev1, wdev1 = dev1;
  uint64_t w0 = t0, w1 = t1;
  if (!w.writes_beside) {
    tr.SetLeg("inproc_writes");
    lag = std::make_unique<LagSampler>(index);
    wdev0 = index->device_stats();
    w0 = NowNs();
    writer.Start();
    SleepUntilNs(w0 + static_cast<uint64_t>(seconds * 0.25 * 1e9));
    writer.Stop();
    w1 = NowNs();
    wdev1 = index->device_stats();
  } else {
    wdev0 = dev0;
    wdev1 = dev1;
  }
  const uint64_t lag_max = lag != nullptr ? lag->max() : 0;
  lag.reset();

  // --- Closed SearchBatch pass over the templates (saturation). -------
  tr.SetLeg("inproc_batch");
  for (ShardIo& s : io) s = ShardIo{};
  EngineTotals batch;
  const storage::DeviceStats bdev0 = index->device_stats();
  const uint64_t b0 = NowNs();
  do {
    auto r = engine.SearchBatch(in.templates, kK);
    if (!r.ok()) {
      tally->Fail("in-process batch: " + r.status().ToString(), false);
      break;
    }
    batch.Add(*r);
  } while (NowNs() - b0 < static_cast<uint64_t>(seconds * 0.15 * 1e9));
  const uint64_t b1 = NowNs();
  const storage::DeviceStats bdev1 = index->device_stats();
  const ShardIo batch_io = SumIo(io);
  tr.SetLeg("");
  tally->attempted.fetch_add(batch.queries, std::memory_order_relaxed);
  for (uint64_t i = 0; i < batch.partial; ++i) {
    tally->Fail("in-process batch query returned a partial result", false);
  }

  // --- Values. ---------------------------------------------------------
  Values& v = *out;
  const double nq = static_cast<double>(served.queries);
  v["core.server.wait_p50_us"] = Median(wait_us);
  v["core.server.batch_mean"] = snap.mean_batch_size;
  v["core.server.queue_depth_max"] = static_cast<double>(depth_max);
  v["core.engine.query_p50_us"] = Median(engine_us);
  v["core.engine.ios_per_query"] = Div(served.ios, nq);
  v["core.engine.table_reads_per_query"] = Div(served.table_reads, nq);
  v["core.engine.block_reads_per_query"] = Div(served.block_reads, nq);
  v["core.engine.radii_per_query"] = Div(served.radii, nq);
  v["core.engine.candidates_per_query"] = Div(served.candidates, nq);
  v["core.engine.fp_reject_frac"] =
      Div(served.fp_rejects, served.fp_rejects + served.candidates + served.dup_skips);
  v["core.engine.dup_skip_frac"] =
      Div(served.dup_skips, served.candidates + served.dup_skips);
  v["core.engine.candidates_per_read"] = Div(served.candidates, served.block_reads);
  v["core.engine.partial_frac"] =
      Div(served.partial + batch.partial, nq + static_cast<double>(batch.queries));
  v["core.engine.cpu_us_per_query"] =
      Div(static_cast<double>(batch.compute_ns) / 1e3, batch.queries);
  v["inproc.open_p50_ms"] = Median(lat_ms);
  v["inproc.batch_qps"] = Div(batch.queries * 1e9, static_cast<double>(b1 - b0));

  v["storage.reads_per_query"] = Div(serve_io.submits, nq);
  v["storage.bytes_per_query"] = Div(serve_io.bytes, nq);
  v["storage.submit_us_per_query"] =
      Div((serve_io.submit_ns + serve_io.poll_ns) / 1e3, nq);
  v["storage.read_p50_us"] = serve_io.latency.Quantile(0.5) / 1e3;
  v["storage.read_p99_us"] = serve_io.latency.Quantile(0.99) / 1e3;
  const double hits = static_cast<double>(dev1.cache_hits - dev0.cache_hits);
  const double misses = static_cast<double>(dev1.cache_misses - dev0.cache_misses);
  v["storage.cache.hit_frac"] = Div(hits, hits + misses);
  v["storage.cache.evictions_per_s"] =
      Div((dev1.cache_evictions - dev0.cache_evictions) * 1e9,
          static_cast<double>(t1 - t0));
  auto parsed = storage::ParseDeviceUri(w.uri);
  double units = 1;
  if (parsed.ok() && parsed->scheme == storage::DeviceUri::Scheme::kSim) {
    units = storage::GetDeviceModel(parsed->sim_kind).parallel_units *
            static_cast<double>(parsed->sim_count);
  }
  v["storage.busy_frac"] =
      Div(static_cast<double>(bdev1.busy_ns - bdev0.busy_ns),
          static_cast<double>(b1 - b0) * units);
  v["storage.batch_reads_per_query"] = Div(batch_io.submits, batch.queries);
  v["core.engine.batch_ios_per_query"] = Div(batch.ios, batch.queries);

  // Live updates: the updater's device reads are the device's reads minus
  // the ones the engine submitted through the timed queues.
  const double rows = writer.rows_inserted();
  const double insert_ms = writer.InsertMs();
  const double dev_reads =
      static_cast<double>(wdev1.reads_completed - wdev0.reads_completed);
  const double engine_reads = w.writes_beside ? serve_io.completions : 0;
  v["core.live.ms_per_row"] = Div(insert_ms, rows);
  v["core.live.reads_per_row"] = Div(std::max(0.0, dev_reads - engine_reads), rows);
  v["core.live.staged_bytes_per_row"] =
      Div(wdev1.update_staged_bytes - wdev0.update_staged_bytes, rows);
  v["core.live.bytes_per_user_byte"] =
      Div(v["core.live.staged_bytes_per_row"], kDim * sizeof(float));
  v["core.live.epochs_per_s"] =
      Div((wdev1.epochs_published - wdev0.epochs_published) * 1e9,
          static_cast<double>(w1 - w0));
  v["core.live.lag_max"] = static_cast<double>(lag_max);
  v["core.live.rows"] = rows;
}

void KernelPass(e2lshos::Index* index, const Inputs& in, Values* out) {
  Values& v = *out;
  uint64_t acc = 0;

  // Hashing: every radius of every compound hash, per template.
  const auto& family = index->storage_index()->family();
  std::vector<uint32_t> hashes(family.L());
  uint64_t t0 = NowNs();
  for (uint64_t q = 0; q < in.templates.n(); ++q) {
    for (uint32_t r = 0; r < family.num_radii(); ++r) {
      family.HashAll(r, in.templates.Row(q), hashes.data());
      acc += hashes[0];
    }
  }
  v["lsh.hash_ns_per_table"] =
      Div(static_cast<double>(NowNs() - t0),
          static_cast<double>(in.templates.n()) * family.num_radii() * family.L());

  // CRC32C over the workload's own bucket blocks, as read from its device.
  const auto& layout = index->storage_index()->layout();
  const uint64_t region = index->sizes().bucket_bytes;
  const uint32_t chunk = 4096;
  const uint32_t nblocks = 128;
  e2lshos::util::Rng rng(MixSeed(in.seed, 9));
  std::vector<uint8_t> blocks(size_t{nblocks} * chunk);
  for (uint32_t b = 0; b < nblocks; ++b) {
    const uint64_t span = region > chunk ? region / chunk : 1;
    const uint64_t off = layout.bucket_base + rng.NextU64Below(span) * chunk;
    (void)index->device()->ReadSync(off, blocks.data() + size_t{b} * chunk, chunk);
  }
  auto time_crc = [&](uint32_t len) {
    uint64_t calls = 0;
    const uint64_t s = NowNs();
    do {
      for (size_t o = 0; o + len <= blocks.size(); o += len) {
        acc += e2lshos::util::Crc32c(blocks.data() + o, len);
        ++calls;
      }
    } while (NowNs() - s < 20000000);
    return static_cast<double>(NowNs() - s) / static_cast<double>(calls);
  };
  v["util.crc32c_ns_512"] = time_crc(512);
  v["util.crc32c_ns_4k"] = time_crc(4096);

  // Distances from each template to a seeded sample of base rows, then
  // those distances pushed through a top-k heap.
  const uint32_t per_q = 64;
  std::vector<uint32_t> rows(per_q);
  for (uint32_t& r : rows) r = static_cast<uint32_t>(rng.NextU64Below(in.base.n()));
  std::vector<float> dists(in.templates.n() * per_q);
  t0 = NowNs();
  for (uint64_t q = 0; q < in.templates.n(); ++q) {
    for (uint32_t j = 0; j < per_q; ++j) {
      dists[q * per_q + j] = e2lshos::util::SquaredL2(
          in.templates.Row(q), in.base.Row(rows[j]), kDim);
    }
  }
  v["util.l2_ns_dim128"] =
      Div(static_cast<double>(NowNs() - t0), static_cast<double>(dists.size()));
  t0 = NowNs();
  for (uint64_t q = 0; q < in.templates.n(); ++q) {
    e2lshos::util::TopK topk(kK);
    for (uint32_t j = 0; j < per_q; ++j) {
      acc += topk.Push(rows[j], dists[q * per_q + j]) ? 1 : 0;
    }
  }
  v["util.topk_push_ns"] =
      Div(static_cast<double>(NowNs() - t0), static_cast<double>(dists.size()));
  KeepAlive(acc);

  // Per-query estimates from the engine's own counts.
  const double radii = v["core.engine.radii_per_query"];
  v["core.engine.hash_us_per_query"] =
      v["lsh.hash_ns_per_table"] * family.L() * radii / 1e3;
  const double crc = layout.block_bytes >= 4096 ? v["util.crc32c_ns_4k"]
                                                : v["util.crc32c_ns_512"];
  v["core.engine.verify_us_per_query"] = crc * v["core.engine.ios_per_query"] / 1e3;
  v["core.engine.distance_us_per_query"] =
      v["core.engine.candidates_per_query"] *
      (v["util.l2_ns_dim128"] + v["util.topk_push_ns"]) / 1e3;
}

double DeviceProbeKiops(const std::string& uri) {
  storage::DeviceUriOpenOptions opt;
  opt.capacity = 64ull << 20;
  auto dev = storage::OpenDeviceUri(uri, opt);
  if (!dev.ok()) return 0;
  const uint32_t qd = 64, len = 512;
  const uint64_t span = (64ull << 20) / len;
  e2lshos::util::AlignedBuffer arena(size_t{qd} * len, 4096);
  e2lshos::util::Rng rng(12345);
  std::vector<storage::IoCompletion> comps(qd);
  uint64_t submitted = 0, done = 0;
  auto submit = [&](uint32_t slot) {
    storage::IoRequest req;
    req.offset = rng.NextU64Below(span) * len;
    req.length = len;
    req.buf = arena.data() + size_t{slot} * len;
    req.user_data = slot;
    if ((*dev)->SubmitRead(req).ok()) ++submitted;
  };
  for (uint32_t s = 0; s < qd; ++s) submit(s);
  const uint64_t t0 = NowNs();
  uint64_t t1 = t0;
  while ((t1 = NowNs()) - t0 < 300000000) {
    const size_t n = (*dev)->PollCompletions(comps.data(), comps.size());
    done += n;
    for (size_t i = 0; i < n; ++i) submit(static_cast<uint32_t>(comps[i].user_data));
  }
  const uint64_t in_window = done;
  while (done < submitted) {
    done += (*dev)->PollCompletions(comps.data(), comps.size());
  }
  return Div(static_cast<double>(in_window) * 1e6, static_cast<double>(t1 - t0));
}

}  // namespace perfbench
