// Continuous query serving over a ShardedQueryEngine.
//
// The batch API materializes a whole Dataset before any I/O is issued,
// so the device queue depth collapses between batches — exactly the
// regime the paper's Fig. 1(B) asynchronous pipeline is built to avoid.
// StreamingServer keeps the queue deep under a live arrival process: one
// worker per engine shard runs that shard's QueryEngine::Run loop over a
// shared SubmissionQueue. Between device polls the loop pulls a query into
// every free engine context, so a query starts the moment a context is
// free — it never waits for company, and never waits behind a batch
// that is already running (iteration-level scheduling, as in Orca,
// applied to the paper's interleaved query contexts). A worker idles
// only when its shard has no read in flight and the stream is empty.
//
// Results are delivered per query through one completion callback
// (ServerOptions::on_result, invoked from shard worker threads) as soon
// as the poll round that finished them ends. Each result carries the tag
// its query was submitted with, so a caller routes it home without a
// lookup, as a device completion carries IoRequest::user_data. Per-query
// enqueue→completion latency and sustained QPS are recorded in
// per-shard util::LatencyRecorders, merged on stats().
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/query_stream.h"
#include "core/sharded_engine.h"
#include "util/stats.h"

namespace e2lshos::core {

/// \brief One delivered completion. `status` is ResourceExhausted for a
/// query shed past ServerOptions::deadline_us, else OK: I/O failures
/// the engine absorbed best-effort surface in `stats.io_errors` and
/// `stats.partial` (same contract as the batch API).
struct QueryResult {
  uint64_t id = 0;
  uint64_t tag = 0;  ///< StreamQuery::tag, served or shed.
  Status status = Status::OK();
  std::vector<util::Neighbor> neighbors;
  QueryStats stats;
  uint64_t latency_ns = 0;  ///< Enqueue-to-completion, queueing included.
};

struct ServerOptions {
  uint32_t k = 10;
  /// Ignored: a query enters a free engine context as soon as it is
  /// pulled, so there is no batch to size or wait for. Kept only because
  /// perfbench's traced run still sets them.
  uint32_t max_batch_size = 64;
  uint64_t max_wait_us = 200;
  /// Load shedding: a pulled query that already waited longer than this
  /// in the stream is dropped — delivered with ResourceExhausted and
  /// counted in stats().rejected — instead of being admitted. Past
  /// saturation the submission queue's wait grows without bound;
  /// shedding keeps the p99 of *served* queries bounded and turns
  /// overload into an explicit, countable signal. 0 = off.
  uint64_t deadline_us = 0;
  /// Invoked once per pulled query, served or shed, from shard worker
  /// threads; must be thread-safe. The one way a result comes back:
  /// route it by QueryResult::tag. May be empty for a stats-only run.
  std::function<void(QueryResult&&)> on_result;
};

/// \brief Aggregate serving metrics, merged across shard workers.
struct StreamingSnapshot {
  uint64_t completed = 0;  ///< Answers delivered.
  uint64_t rejected = 0;   ///< Shed before admission (deadline_us exceeded).
  uint64_t batches = 0;    ///< Engine polls that admitted at least one query.
  double mean_batch_size = 0.0;  ///< Queries admitted per such poll.
  double mean_latency_ns = 0.0;
  uint64_t p50_ns = 0;
  uint64_t p95_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t max_ns = 0;
  double sustained_qps = 0.0;  ///< Completions/sec over a sliding window.
  double overall_qps = 0.0;    ///< Completions / time since Start.
  /// QueryStats::ios, empty_reads, late_reads, ahead_reads and
  /// ahead_unused, summed over the answers (ForEachReadCounter).
  uint64_t reads = 0;
  uint64_t empty_reads = 0;
  uint64_t late_reads = 0;
  uint64_t ahead_reads = 0;
  uint64_t ahead_unused = 0;

  /// The serving-figure list: calls fn(name, member) once per field
  /// above, in this order. The Stats RPC (net/wire.h) and the CLI
  /// reports iterate it.
  template <class Fn>
  static constexpr void ForEachField(Fn&& fn) {
    fn("completed", &StreamingSnapshot::completed);
    fn("rejected", &StreamingSnapshot::rejected);
    fn("batches", &StreamingSnapshot::batches);
    fn("mean_batch_size", &StreamingSnapshot::mean_batch_size);
    fn("mean_latency_ns", &StreamingSnapshot::mean_latency_ns);
    fn("p50_ns", &StreamingSnapshot::p50_ns);
    fn("p95_ns", &StreamingSnapshot::p95_ns);
    fn("p99_ns", &StreamingSnapshot::p99_ns);
    fn("max_ns", &StreamingSnapshot::max_ns);
    fn("sustained_qps", &StreamingSnapshot::sustained_qps);
    fn("overall_qps", &StreamingSnapshot::overall_qps);
    fn("reads", &StreamingSnapshot::reads);
    fn("empty_reads", &StreamingSnapshot::empty_reads);
    fn("late_reads", &StreamingSnapshot::late_reads);
    fn("ahead_reads", &StreamingSnapshot::ahead_reads);
    fn("ahead_unused", &StreamingSnapshot::ahead_unused);
  }

  /// The read counters summed over answers: calls fn(member, source)
  /// once per snapshot member and the QueryStats member it sums.
  template <class Fn>
  static constexpr void ForEachReadCounter(Fn&& fn) {
    fn(&StreamingSnapshot::reads, &QueryStats::ios);
    fn(&StreamingSnapshot::empty_reads, &QueryStats::empty_reads);
    fn(&StreamingSnapshot::late_reads, &QueryStats::late_reads);
    fn(&StreamingSnapshot::ahead_reads, &QueryStats::ahead_reads);
    fn(&StreamingSnapshot::ahead_unused, &QueryStats::ahead_unused);
  }
};

/// A member left out of the serving-figure list fails this.
static_assert(sizeof(StreamingSnapshot) ==
              util::CountFields<StreamingSnapshot>() * sizeof(uint64_t));

class StreamingServer {
 public:
  /// The engine must outlive the server. While the server is running it
  /// owns the engine's shard engines exclusively; do not call
  /// ShardedQueryEngine::SearchBatch concurrently.
  StreamingServer(ShardedQueryEngine* engine, const ServerOptions& options);
  ~StreamingServer();

  StreamingServer(const StreamingServer&) = delete;
  StreamingServer& operator=(const StreamingServer&) = delete;

  /// Spawn one worker per shard pulling from `queue` (which must
  /// outlive the serving run). Fails if already running, if k == 0, on
  /// a queue/engine dimension mismatch, or with the engine's status()
  /// when its shard queues could not be created.
  Status Start(SubmissionQueue* queue);

  /// Block until every worker exits: the queue reported kClosed and all
  /// pulled queries were delivered, or Stop() was called.
  void Wait();

  /// Request early shutdown: workers stop pulling new queries, finish
  /// the queries already admitted, and deliver their completions exactly
  /// once. Queries still inside the queue are never pulled and never
  /// delivered. Returns immediately; pair with Wait().
  void Stop();

  /// Convenience: Start + Wait.
  Status Serve(SubmissionQueue* queue);

  bool running() const;

  /// Merged metrics; callable at any time, including mid-run.
  StreamingSnapshot stats() const;

 private:
  struct ShardState {
    mutable std::mutex mu;
    util::LatencyRecorder recorder;  ///< One sample per answer delivered.
    uint64_t rejected = 0;
    uint64_t admitting_polls = 0;
    uint64_t admitted = 0;
    /// The read counters of its answers, in the ForEachReadCounter members.
    StreamingSnapshot sums;
  };
  /// A shard's view of the queue as a QuerySource (defined in the .cc).
  class ShardSource;

  void WorkerLoop(uint32_t shard);

  ShardedQueryEngine* engine_;
  ServerOptions options_;
  SubmissionQueue* queue_ = nullptr;
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::vector<std::thread> workers_;
  /// Workers still inside WorkerLoop; the last one out notifies the
  /// queue (SubmissionQueue::ConsumerStopped) so producers blocked on
  /// it while full wake with an error instead of waiting for a drain
  /// that will never come.
  std::atomic<uint32_t> live_workers_{0};
  std::atomic<bool> stop_{false};
  bool running_ = false;
  uint64_t start_ns_ = 0;
  mutable std::mutex mu_;  ///< Guards running_ / workers_ lifecycle.
};

}  // namespace e2lshos::core
