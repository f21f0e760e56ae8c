// Continuous query serving over a ShardedQueryEngine.
//
// The batch API materializes a whole Dataset before any I/O is issued,
// so the device queue depth collapses between batches — exactly the
// regime the paper's Fig. 1(B) asynchronous pipeline is built to avoid.
// StreamingServer keeps the queue deep under a live arrival process: one
// worker per engine shard pulls from a shared QueryStream, forms
// micro-batches under a (max_batch_size, max_wait_us) policy, and runs
// them on its own per-core QueryEngine. There is no global batch
// barrier: a shard that finishes its micro-batch immediately pulls the
// next one while other shards are still in flight.
//
// Results are delivered per query through a completion callback (invoked
// from shard worker threads) and/or pollable future handles (FutureSink).
// Per-query enqueue→completion latency and sustained QPS are recorded in
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

/// \brief One delivered completion. `status` is per query: an engine
/// failure on a micro-batch fails each of its queries individually
/// rather than tearing down the pipeline. Partial I/O failures that the
/// engine absorbed best-effort surface in `stats.io_errors` with an OK
/// status (same contract as the batch API).
struct QueryResult {
  uint64_t id = 0;
  Status status = Status::OK();
  std::vector<util::Neighbor> neighbors;
  QueryStats stats;
  uint64_t latency_ns = 0;  ///< Enqueue-to-completion, queueing included.
};

struct ServerOptions {
  uint32_t k = 10;
  /// Micro-batch policy: a shard worker dispatches as soon as it has
  /// `max_batch_size` queries, or `max_wait_us` after the first pulled
  /// query of the forming batch — whichever comes first. Size 1 is
  /// pure per-query dispatch (lowest latency, most per-batch overhead).
  uint32_t max_batch_size = 64;
  uint64_t max_wait_us = 200;
  /// Load shedding: a pulled query that already waited longer than this
  /// in the stream is dropped — delivered immediately with
  /// ResourceExhausted and counted in stats().rejected — instead of
  /// being dispatched. Past saturation the submission queue's wait grows
  /// without bound; shedding keeps the p99 of *served* queries bounded
  /// and turns overload into an explicit, countable signal. 0 = off.
  uint64_t deadline_us = 0;
  /// Invoked once per query from shard worker threads; must be
  /// thread-safe. May be empty when a FutureSink (or stats-only soak)
  /// is the consumer.
  std::function<void(QueryResult&&)> on_result;
};

/// \brief Aggregate serving metrics, merged across shard workers.
struct StreamingSnapshot {
  uint64_t completed = 0;  ///< Results delivered (OK or failed).
  uint64_t failed = 0;     ///< Delivered with !status.ok().
  uint64_t rejected = 0;   ///< Shed before dispatch (deadline_us exceeded).
  uint64_t batches = 0;    ///< Micro-batches dispatched.
  double mean_batch_size = 0.0;
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

  /// Spawn one worker per shard pulling from `stream` (which must
  /// outlive the serving run). Fails if already running, if k == 0, on
  /// a stream/engine dimension mismatch, or with the engine's status()
  /// when its shard queues could not be created.
  Status Start(QueryStream* stream);

  /// Block until every worker exits: the stream reported kClosed and all
  /// pulled queries were delivered, or Stop() was called.
  void Wait();

  /// Request early shutdown: workers stop pulling new queries, finish
  /// the micro-batches already formed or in flight, and deliver their
  /// completions exactly once. Queries still inside the stream are never
  /// pulled and never delivered. Returns immediately; pair with Wait().
  void Stop();

  /// Convenience: Start + Wait.
  Status Serve(QueryStream* stream);

  bool running() const;

  /// Merged metrics; callable at any time, including mid-run.
  StreamingSnapshot stats() const;

 private:
  struct ShardState {
    mutable std::mutex mu;
    util::LatencyRecorder recorder;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t rejected = 0;
    uint64_t batches = 0;
    uint64_t batched_queries = 0;
  };

  void WorkerLoop(uint32_t shard);
  /// Pull up to max_batch_size queries; returns true when the stream is
  /// closed (terminal for the worker once the batch is flushed). Pulled
  /// queries already past deadline_us land in `shed` instead.
  bool FormBatch(std::vector<StreamQuery>* batch,
                 std::vector<StreamQuery>* shed);
  void RunBatch(uint32_t shard, std::vector<StreamQuery>* batch);
  /// Deliver shed queries as rejected results (no engine dispatch).
  void ShedQueries(uint32_t shard, std::vector<StreamQuery>* shed);

  ShardedQueryEngine* engine_;
  ServerOptions options_;
  QueryStream* stream_ = nullptr;
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::vector<std::thread> workers_;
  /// Workers still inside WorkerLoop; the last one out notifies the
  /// stream (QueryStream::ConsumerStopped) so producers blocked on a
  /// full SubmissionQueue wake with an error instead of waiting for a
  /// drain that will never come.
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
