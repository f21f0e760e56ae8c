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
// only when its shard has no query in flight and the stream is empty.
//
// Results are delivered per query through a completion callback (invoked
// from shard worker threads) and/or pollable future handles (FutureSink),
// as soon as the poll round that finished them ends. Per-query
// enqueue→completion latency and sustained QPS are recorded in
// per-shard util::LatencyRecorders, merged on stats().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
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
  /// Invoked once per query from shard worker threads; must be
  /// thread-safe. May be empty when a FutureSink (or stats-only soak)
  /// is the consumer.
  std::function<void(QueryResult&&)> on_result;
};

/// \brief Aggregate serving metrics, merged across shard workers.
struct StreamingSnapshot {
  uint64_t completed = 0;  ///< Answers delivered.
  uint64_t failed = 0;     ///< Always 0: every admitted query is answered.
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
};

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

/// \brief Turns per-query callbacks into pollable handles.
///
/// Typical flow with a SubmissionQueue:
///   FutureSink sink;
///   ServerOptions opts; opts.on_result = sink.Callback();
///   ... server.Start(&queue) ...
///   auto id = queue.Submit(vec);
///   QueryFuture fut = sink.Register(*id);
///   ... fut.Ready() / fut.Take() ...
/// Registration and delivery may race in either order; a result that
/// arrives before Register is held until claimed.
class QueryFuture {
 public:
  QueryFuture() = default;

  /// Non-blocking readiness poll.
  bool Ready() const;

  /// Block until delivered, then move the result out. Call at most once.
  /// A default-constructed (unbound) future returns FailedPrecondition.
  QueryResult Take();

 private:
  friend class FutureSink;
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool ready = false;
    QueryResult result;
  };
  std::shared_ptr<State> state_;
};

class FutureSink {
 public:
  /// `max_unclaimed` bounds the stash of results delivered before their
  /// Register() call. The stash only needs to cover the race window
  /// between Submit() returning an id and Register(id); results beyond
  /// the cap are dropped (counted in dropped()) rather than accumulated
  /// forever — a fire-and-forget producer would otherwise leak one
  /// QueryResult per unregistered query.
  explicit FutureSink(size_t max_unclaimed = 65536)
      : max_unclaimed_(max_unclaimed) {}

  QueryFuture Register(uint64_t id);
  void Deliver(QueryResult&& result);
  std::function<void(QueryResult&&)> Callback() {
    return [this](QueryResult&& r) { Deliver(std::move(r)); };
  }

  /// Fail every future still waiting with `status` (each becomes ready;
  /// Take() returns the error). Call after StreamingServer::Stop()+Wait()
  /// — queries the server never pulled are never delivered, so their
  /// futures would otherwise block forever.
  void FailPending(const Status& status);

  /// Results delivered but never Register()ed and still stashed.
  size_t unclaimed() const;
  /// Unregistered results dropped because the stash was at capacity.
  uint64_t dropped() const;

 private:
  const size_t max_unclaimed_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<QueryFuture::State>> waiting_;
  std::unordered_map<uint64_t, QueryResult> unclaimed_;
  uint64_t dropped_ = 0;
};

}  // namespace e2lshos::core
