#include "core/streaming_server.h"

#include <algorithm>
#include <chrono>
#include <map>

#include "util/clock.h"

namespace e2lshos::core {

StreamingServer::StreamingServer(ShardedQueryEngine* engine,
                                 const ServerOptions& options)
    : engine_(engine), options_(options) {
  if (options_.max_batch_size == 0) options_.max_batch_size = 1;
  shards_.reserve(engine_->num_shards());
  for (uint32_t s = 0; s < engine_->num_shards(); ++s) {
    shards_.push_back(std::make_unique<ShardState>());
  }
}

StreamingServer::~StreamingServer() {
  Stop();
  Wait();
}

Status StreamingServer::Start(QueryStream* stream) {
  E2_RETURN_NOT_OK(engine_->status());
  if (options_.k == 0) return Status::InvalidArgument("k must be > 0");
  if (stream->dim() != engine_->dim()) {
    return Status::InvalidArgument("stream dimension mismatch");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return Status::FailedPrecondition("server already running");
  running_ = true;
  stop_.store(false, std::memory_order_relaxed);
  stream_ = stream;
  // Each serving run reports its own metrics: a restart must not blend
  // the previous run's latencies/counts into a fresh start_ns_ window.
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    shard->recorder.Reset();
    shard->completed = 0;
    shard->failed = 0;
    shard->rejected = 0;
    shard->batches = 0;
    shard->batched_queries = 0;
  }
  start_ns_ = util::NowNs();
  live_workers_.store(engine_->num_shards(), std::memory_order_relaxed);
  workers_.reserve(engine_->num_shards());
  for (uint32_t s = 0; s < engine_->num_shards(); ++s) {
    workers_.emplace_back([this, s] { WorkerLoop(s); });
  }
  return Status::OK();
}

void StreamingServer::Wait() {
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    workers.swap(workers_);
  }
  for (auto& w : workers) {
    if (w.joinable()) w.join();
  }
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

void StreamingServer::Stop() { stop_.store(true, std::memory_order_relaxed); }

Status StreamingServer::Serve(QueryStream* stream) {
  E2_RETURN_NOT_OK(Start(stream));
  Wait();
  return Status::OK();
}

bool StreamingServer::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

void StreamingServer::WorkerLoop(uint32_t shard) {
  std::vector<StreamQuery> batch;
  std::vector<StreamQuery> shed;
  for (;;) {
    batch.clear();
    shed.clear();
    const bool closed = FormBatch(&batch, &shed);
    if (!shed.empty()) ShedQueries(shard, &shed);
    if (!batch.empty()) RunBatch(shard, &batch);
    if (closed || stop_.load(std::memory_order_relaxed)) break;
  }
  // Last worker out tells the stream its consumer is gone. On a normal
  // drain (stream closed) this is a no-op; after Stop() it is the only
  // thing standing between a producer blocked in Submit on a full
  // SubmissionQueue and a deadlock — nobody will ever pull again.
  if (live_workers_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    stream_->ConsumerStopped();
  }
}

bool StreamingServer::FormBatch(std::vector<StreamQuery>* batch,
                                std::vector<StreamQuery>* shed) {
  const uint64_t max_wait_ns = options_.max_wait_us * 1000;
  const uint64_t deadline_ns = options_.deadline_us * 1000;
  uint64_t first_pull_ns = 0;
  StreamQuery q;
  // The shed bound keeps rejection delivery prompt under sustained
  // overload: a worker drowning in expired queries still returns to
  // deliver them instead of pulling the stream dry first.
  while (batch->size() < options_.max_batch_size &&
         shed->size() < options_.max_batch_size) {
    // Once a stop is requested no new query is pulled — queries already
    // in the forming batch are in flight and still get flushed.
    if (stop_.load(std::memory_order_relaxed)) return false;
    switch (stream_->TryPull(&q)) {
      case StreamPull::kReady:
        // A query that aged past the deadline while queued is shed, not
        // dispatched: serving it would burn I/O on an answer the client
        // has already given up on, while stretching the p99 of the rest.
        if (deadline_ns > 0 && util::NowNs() - q.enqueue_ns > deadline_ns) {
          shed->push_back(std::move(q));
          break;
        }
        if (batch->empty()) first_pull_ns = util::NowNs();
        batch->push_back(std::move(q));
        break;
      case StreamPull::kClosed:
        return true;
      case StreamPull::kPending:
        if (!batch->empty()) {
          if (util::NowNs() - first_pull_ns >= max_wait_ns) return false;
          std::this_thread::yield();
        } else if (!shed->empty()) {
          // Nothing to serve: deliver the rejections now rather than
          // holding them until more traffic fills the shed list.
          return false;
        } else {
          // Idle: nothing pulled yet, nothing to flush. Sleep briefly so
          // an idle server doesn't spin a core per shard.
          std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
        break;
    }
  }
  return false;
}

void StreamingServer::ShedQueries(uint32_t shard,
                                  std::vector<StreamQuery>* shed) {
  const uint64_t now = util::NowNs();
  std::vector<QueryResult> outs;
  outs.reserve(shed->size());
  for (StreamQuery& sq : *shed) {
    QueryResult out;
    out.id = sq.id;
    out.status = Status::ResourceExhausted(
        "deadline exceeded in submission queue (load shed)");
    out.latency_ns = now > sq.enqueue_ns ? now - sq.enqueue_ns : 0;
    outs.push_back(std::move(out));
  }
  {
    // Rejected queries are counted but not recorded in the latency
    // histogram: the percentiles describe served traffic.
    ShardState& state = *shards_[shard];
    std::lock_guard<std::mutex> lock(state.mu);
    state.rejected += outs.size();
  }
  if (options_.on_result) {
    for (QueryResult& out : outs) options_.on_result(std::move(out));
  }
}

void StreamingServer::RunBatch(uint32_t shard, std::vector<StreamQuery>* batch) {
  // A micro-batch is usually homogeneous in k (options_.k, or one
  // remote client's k), but the per-query override means it need not
  // be: group by effective k and run one engine batch per group, so
  // every query is answered by the exact same engine call an
  // in-process SearchBatch(queries, k) would make — truncating a
  // wider top-k instead would not be bit-identical under distance
  // ties.
  std::map<uint32_t, std::vector<size_t>> by_k;
  for (size_t i = 0; i < batch->size(); ++i) {
    const StreamQuery& sq = (*batch)[i];
    by_k[sq.k == 0 ? options_.k : sq.k].push_back(i);
  }

  std::vector<QueryResult> outs(batch->size());
  for (auto& [k, idxs] : by_k) {
    data::Dataset micro("stream", engine_->dim());
    micro.Reserve(idxs.size());
    for (size_t i : idxs) micro.Append((*batch)[i].vec.data());

    Result<BatchResult> result =
        engine_->shard_engine(shard)->SearchBatch(micro, k);
    const uint64_t now = util::NowNs();

    for (size_t j = 0; j < idxs.size(); ++j) {
      StreamQuery& sq = (*batch)[idxs[j]];
      QueryResult out;
      out.id = sq.id;
      out.latency_ns = now > sq.enqueue_ns ? now - sq.enqueue_ns : 0;
      if (result.ok()) {
        out.neighbors = std::move(result->results[j]);
        if (j < result->stats.size()) out.stats = result->stats[j];
      } else {
        out.status = result.status();
      }
      outs[idxs[j]] = std::move(out);
    }
  }

  // One lock per micro-batch on the delivery path, not one per query;
  // the callback runs outside the lock so a slow consumer can't stall a
  // concurrent stats() reader.
  const uint64_t done_ns = util::NowNs();
  ShardState& state = *shards_[shard];
  {
    std::lock_guard<std::mutex> lock(state.mu);
    ++state.batches;
    state.batched_queries += batch->size();
    for (const QueryResult& out : outs) {
      state.recorder.Record(out.latency_ns, done_ns);
      ++state.completed;
      if (!out.status.ok()) ++state.failed;
    }
  }
  if (options_.on_result) {
    for (QueryResult& out : outs) options_.on_result(std::move(out));
  }
}

StreamingSnapshot StreamingServer::stats() const {
  StreamingSnapshot snap;
  util::LatencyRecorder merged;
  uint64_t batched_queries = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    merged.Merge(shard->recorder);
    snap.completed += shard->completed;
    snap.failed += shard->failed;
    snap.rejected += shard->rejected;
    snap.batches += shard->batches;
    batched_queries += shard->batched_queries;
  }
  if (snap.batches > 0) {
    snap.mean_batch_size = static_cast<double>(batched_queries) /
                           static_cast<double>(snap.batches);
  }
  snap.mean_latency_ns = merged.mean_ns();
  snap.p50_ns = merged.p50_ns();
  snap.p95_ns = merged.p95_ns();
  snap.p99_ns = merged.p99_ns();
  snap.max_ns = merged.max_ns();
  const uint64_t now = util::NowNs();
  snap.sustained_qps = merged.SustainedQps(now);
  uint64_t start;
  {
    std::lock_guard<std::mutex> lock(mu_);
    start = start_ns_;
  }
  if (start != 0 && now > start && snap.completed > 0) {
    snap.overall_qps = static_cast<double>(snap.completed) * 1e9 /
                       static_cast<double>(now - start);
  }
  return snap;
}

bool QueryFuture::Ready() const {
  if (!state_) return false;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->ready;
}

QueryResult QueryFuture::Take() {
  if (!state_) {
    QueryResult unbound;
    unbound.status = Status::FailedPrecondition("future not bound to a query");
    return unbound;
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] { return state_->ready; });
  return std::move(state_->result);
}

QueryFuture FutureSink::Register(uint64_t id) {
  QueryFuture fut;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = unclaimed_.find(id);
  if (it != unclaimed_.end()) {
    fut.state_ = std::make_shared<QueryFuture::State>();
    fut.state_->result = std::move(it->second);
    fut.state_->ready = true;
    unclaimed_.erase(it);
    return fut;
  }
  // Registering the same pending id twice hands out futures sharing one
  // state (overwriting the first entry would orphan its future: Take()
  // would block forever with no delivery or FailPending able to reach
  // it). Note Take() moves the result out — one taker per id.
  auto entry =
      waiting_.try_emplace(id, std::make_shared<QueryFuture::State>()).first;
  fut.state_ = entry->second;
  return fut;
}

void FutureSink::Deliver(QueryResult&& result) {
  std::shared_ptr<QueryFuture::State> state;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = waiting_.find(result.id);
    if (it == waiting_.end()) {
      if (unclaimed_.size() >= max_unclaimed_) {
        ++dropped_;
      } else {
        unclaimed_.emplace(result.id, std::move(result));
      }
      return;
    }
    state = std::move(it->second);
    waiting_.erase(it);
  }
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->result = std::move(result);
    state->ready = true;
  }
  state->cv.notify_all();
}

void FutureSink::FailPending(const Status& status) {
  std::unordered_map<uint64_t, std::shared_ptr<QueryFuture::State>> waiting;
  {
    std::lock_guard<std::mutex> lock(mu_);
    waiting.swap(waiting_);
  }
  for (auto& [id, state] : waiting) {
    {
      std::lock_guard<std::mutex> lock(state->mu);
      state->result.id = id;
      state->result.status = status;
      state->ready = true;
    }
    state->cv.notify_all();
  }
}

size_t FutureSink::unclaimed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return unclaimed_.size();
}

uint64_t FutureSink::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

}  // namespace e2lshos::core
