// Streaming serving: arrival rate vs. latency percentiles.
//
// The batch benches measure throughput with the whole query set
// materialized up front; this bench measures what a serving front-end
// actually exposes — per-query enqueue→completion latency under a
// sustained arrival process. A producer thread submits queries into a
// bounded SubmissionQueue at a target rate while a StreamingServer
// drains it across N engine shards (each shard admits a query into a
// free engine context as soon as it arrives; no global barrier); each
// point of the sweep reports achieved QPS, p50/p95/p99/max latency and
// the mean number of queries admitted per admitting engine poll
// (mean_batch_size). Expected shape: latency is flat while the offered
// rate is below the engine's capacity, then the queue saturates and p99
// blows up — the classic open-loop hockey stick.
//
// --shards S (default 2), --json PATH for machine-readable rows,
// --deadline-us D to enable load shedding (queries older than D are
// rejected instead of served; the over-capacity points then show p99
// staying bounded at the cost of a nonzero rejected count).
#include "common.h"

#include "core/query_stream.h"
#include "core/sharded_engine.h"
#include "core/streaming_server.h"
#include "util/clock.h"

using namespace e2lshos;

namespace {

struct RatePoint {
  double offered_qps = 0;
  core::StreamingSnapshot snap;
  uint64_t submitted = 0;
};

// Submit `count` queries (cycling the workload's query set) at
// `offered_qps`, serve them, and snapshot the latency profile.
RatePoint RunPoint(core::ShardedQueryEngine* engine, const bench::Workload& w,
                   uint32_t k, double offered_qps, uint64_t count,
                   uint64_t deadline_us) {
  RatePoint point;
  point.offered_qps = offered_qps;

  core::SubmissionQueue queue(w.dim(), 1024);
  core::ServerOptions sopts;
  sopts.k = k;
  sopts.deadline_us = deadline_us;
  core::StreamingServer server(engine, sopts);
  if (!server.Start(&queue).ok()) return point;

  const uint64_t interval_ns =
      static_cast<uint64_t>(1e9 / std::max(1.0, offered_qps));
  const uint64_t t0 = util::NowNs();
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t deadline = t0 + i * interval_ns;
    while (util::NowNs() < deadline) {
      // Open-loop pacing: spin to the per-query deadline so bursts are
      // not smoothed away by sleep granularity.
    }
    if (queue.Submit(w.gen.queries.Row(i % w.gen.queries.n())).ok()) {
      ++point.submitted;
    }
  }
  queue.Close();
  server.Wait();
  point.snap = server.stats();
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  auto args = bench::Args::Parse(argc, argv);
  if (args.shards == 0) args.shards = 2;
  const uint32_t k = 10;
  const uint64_t deadline_us = args.deadline_us;

  auto spec = data::GetDatasetSpec(args.dataset.empty() ? "SIFT" : args.dataset);
  if (!spec.ok()) {
    std::fprintf(stderr, "error: %s\n", spec.status().ToString().c_str());
    return 1;
  }
  const uint64_t n = args.n > 0 ? args.n : (args.fast ? 20000 : 60000);
  auto w = bench::MakeWorkload(*spec, n, args.queries ? args.queries : 200, k);
  if (!w.ok()) {
    std::fprintf(stderr, "error: %s\n", w.status().ToString().c_str());
    return 1;
  }

  // Index on a cSSD x 4 stripe set behind io_uring — the paper's
  // low-cost serving configuration (Sec. 6.2).
  auto stack = bench::MakeStack(storage::DeviceKind::kCssd, 4,
                                storage::InterfaceKind::kIoUring);
  if (!stack.ok()) {
    std::fprintf(stderr, "error: %s\n", stack.status().ToString().c_str());
    return 1;
  }
  auto index =
      core::IndexBuilder::Build(w->gen.base, w->params, stack->raw.get());
  if (!index.ok()) {
    std::fprintf(stderr, "error: %s\n", index.status().ToString().c_str());
    return 1;
  }

  core::ShardOptions sopts;
  sopts.num_shards = args.shards;
  sopts.total_contexts = 32 * args.shards;
  sopts.total_inflight_ios = 256 * args.shards;
  sopts.wrap_shard_device = bench::ChargeWrapper(storage::InterfaceKind::kIoUring);
  core::ShardedQueryEngine engine(index->get(), &w->gen.base, sopts);

  // Closed-loop capacity estimate: one-shot batch QPS sets the sweep's
  // upper anchor.
  auto batch = engine.SearchBatch(w->gen.queries, k);
  if (!batch.ok()) {
    std::fprintf(stderr, "error: %s\n", batch.status().ToString().c_str());
    return 1;
  }
  const double capacity = batch->QueriesPerSecond();
  std::printf("dataset %s, n=%llu, shards=%u, one-shot batch capacity %.0f qps\n",
              spec->name.c_str(), static_cast<unsigned long long>(w->n()),
              engine.num_shards(), capacity);

  auto json = args.OpenJson();
  bench::PrintHeader(
      "Streaming serving (" + spec->name + "): arrival rate vs. latency",
      {"offered qps", "achieved qps", "sustained qps", "p50 us", "p95 us",
       "p99 us", "max us", "admitted/poll", "rejected"});

  for (const double frac : {0.25, 0.5, 0.7, 0.85, 1.0, 1.2}) {
    const double rate = std::max(100.0, frac * capacity);
    const uint64_t count = std::max<uint64_t>(
        args.fast ? 300 : 1000, static_cast<uint64_t>(rate * 1.0));
    const RatePoint p = RunPoint(&engine, *w, k, rate, count, deadline_us);
    bench::PrintRow(
        {bench::Fmt(p.offered_qps, 0), bench::Fmt(p.snap.overall_qps, 0),
         bench::Fmt(p.snap.sustained_qps, 0),
         bench::Fmt(static_cast<double>(p.snap.p50_ns) / 1e3, 1),
         bench::Fmt(static_cast<double>(p.snap.p95_ns) / 1e3, 1),
         bench::Fmt(static_cast<double>(p.snap.p99_ns) / 1e3, 1),
         bench::Fmt(static_cast<double>(p.snap.max_ns) / 1e3, 1),
         bench::Fmt(p.snap.mean_batch_size, 1),
         std::to_string(p.snap.rejected)});
    if (json != nullptr) {
      util::JsonRow row;
      row.Set("bench", "streaming_serving")
          .Set("dataset", spec->name)
          .Set("shards", engine.num_shards())
          .Set("k", static_cast<uint64_t>(k))
          .Set("offered_qps", p.offered_qps)
          .Set("achieved_qps", p.snap.overall_qps)
          .Set("sustained_qps", p.snap.sustained_qps)
          .Set("completed", p.snap.completed)
          .Set("p50_ns", p.snap.p50_ns)
          .Set("p95_ns", p.snap.p95_ns)
          .Set("p99_ns", p.snap.p99_ns)
          .Set("max_ns", p.snap.max_ns)
          .Set("mean_batch_size", p.snap.mean_batch_size)
          .Set("rejected", p.snap.rejected)
          .Set("deadline_us", deadline_us);
      json->Write(row);
    }
  }
  std::printf(
      "\nExpected shape: flat p50/p99 below capacity, then queueing delay "
      "dominates\nand p99 diverges as the offered rate crosses the engine's "
      "batch capacity.\n");
  return 0;
}
