#include "core/streaming_server.h"

#include "util/clock.h"

namespace e2lshos::core {

/// One shard's view of the shared stream: the deadline shed at pull
/// time, Stop, and delivery and recording once per engine poll.
class StreamingServer::ShardSource : public QuerySource {
 public:
  ShardSource(StreamingServer* server, ShardState* state)
      : server_(server), state_(state) {}

  StreamPull Pull(StreamQuery* q, const float** vec) override {
    const uint64_t deadline_ns = server_->options_.deadline_us * 1000;
    for (;;) {
      // Once a stop is requested no new query is pulled; the admitted
      // ones still finish and are delivered.
      if (server_->stop_.load(std::memory_order_relaxed)) {
        return StreamPull::kClosed;
      }
      // Under sustained overload the stream may hold nothing but expired
      // queries: deliver a poll's worth of rejections (and keep polling
      // the device) before pulling more.
      if (shed_ >= kShedPerPoll) return StreamPull::kPending;
      const StreamPull pull = server_->queue_->TryPull(q);
      if (pull != StreamPull::kReady) return pull;
      // A query that aged past the deadline while queued is shed, not
      // admitted: serving it would burn I/O on an answer the client has
      // already given up on, while stretching the p99 of the rest.
      const uint64_t now = deadline_ns > 0 ? util::NowNs() : 0;
      if (deadline_ns == 0 || now - q->enqueue_ns <= deadline_ns) break;
      QueryResult out;
      out.id = q->id;
      out.status = Status::ResourceExhausted(
          "deadline exceeded in submission queue (load shed)");
      out.latency_ns = now - q->enqueue_ns;
      done_.push_back(std::move(out));
      ++shed_;
    }
    if (q->k == 0) q->k = server_->options_.k;
    *vec = q->vec.data();
    ++admitted_;
    return StreamPull::kReady;
  }

  void Finish(const StreamQuery& q, std::vector<util::Neighbor>&& neighbors,
              const QueryStats& stats) override {
    const uint64_t now = util::NowNs();
    QueryResult out;
    out.id = q.id;
    out.neighbors = std::move(neighbors);
    out.stats = stats;
    out.latency_ns = now > q.enqueue_ns ? now - q.enqueue_ns : 0;
    done_.push_back(std::move(out));
  }

  // One shard-lock acquisition per poll, not per query; the callback
  // runs outside the lock so a slow consumer can't stall a concurrent
  // stats() reader.
  void EndPoll() override {
    if (admitted_ == 0 && done_.empty()) return;
    const uint64_t now = util::NowNs();
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      if (admitted_ > 0) {
        ++state_->admitting_polls;
        state_->admitted += admitted_;
      }
      for (const QueryResult& out : done_) {
        // Rejected queries are counted but not recorded in the latency
        // histogram: the percentiles describe served traffic.
        if (out.status.ok()) {
          state_->recorder.Record(out.latency_ns, now);
        } else {
          ++state_->rejected;
        }
      }
    }
    admitted_ = 0;
    shed_ = 0;
    if (server_->options_.on_result) {
      for (QueryResult& out : done_) server_->options_.on_result(std::move(out));
    }
    done_.clear();
  }

 private:
  static constexpr uint32_t kShedPerPoll = 64;

  StreamingServer* server_;
  ShardState* state_;
  uint32_t admitted_ = 0;           ///< Admitted in this poll.
  uint32_t shed_ = 0;               ///< Shed in this poll.
  std::vector<QueryResult> done_;   ///< Finished or shed in this poll.
};

StreamingServer::StreamingServer(ShardedQueryEngine* engine,
                                 const ServerOptions& options)
    : engine_(engine), options_(options) {
  shards_.reserve(engine_->num_shards());
  for (uint32_t s = 0; s < engine_->num_shards(); ++s) {
    shards_.push_back(std::make_unique<ShardState>());
  }
}

StreamingServer::~StreamingServer() {
  Stop();
  Wait();
}

Status StreamingServer::Start(SubmissionQueue* queue) {
  E2_RETURN_NOT_OK(engine_->status());
  if (options_.k == 0) return Status::InvalidArgument("k must be > 0");
  if (queue->dim() != engine_->dim()) {
    return Status::InvalidArgument("stream dimension mismatch");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return Status::FailedPrecondition("server already running");
  running_ = true;
  stop_.store(false, std::memory_order_relaxed);
  queue_ = queue;
  // Each serving run reports its own metrics: a restart must not blend
  // the previous run's latencies/counts into a fresh start_ns_ window.
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> shard_lock(shard->mu);
    shard->recorder.Reset();
    shard->rejected = 0;
    shard->admitting_polls = 0;
    shard->admitted = 0;
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

Status StreamingServer::Serve(SubmissionQueue* queue) {
  E2_RETURN_NOT_OK(Start(queue));
  Wait();
  return Status::OK();
}

bool StreamingServer::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

void StreamingServer::WorkerLoop(uint32_t shard) {
  ShardSource source(this, shards_[shard].get());
  engine_->shard_engine(shard)->Run(&source);
  // Last worker out tells the queue its consumer is gone. On a normal
  // drain (queue closed) this is a no-op; after Stop() it is the only
  // thing standing between a producer blocked in Submit on a full queue
  // and a deadlock — nobody will ever pull again.
  if (live_workers_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    queue_->ConsumerStopped();
  }
}

StreamingSnapshot StreamingServer::stats() const {
  StreamingSnapshot snap;
  util::LatencyRecorder merged;
  uint64_t admitted = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    merged.Merge(shard->recorder);
    snap.rejected += shard->rejected;
    snap.batches += shard->admitting_polls;
    admitted += shard->admitted;
  }
  if (snap.batches > 0) {
    snap.mean_batch_size =
        static_cast<double>(admitted) / static_cast<double>(snap.batches);
  }
  snap.completed = merged.count();
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
