#include "core/sharded_engine.h"

#include <algorithm>
#include <future>
#include <thread>

#include "util/clock.h"

namespace e2lshos::core {

uint32_t ResolveShardCount(uint32_t requested) {
  if (requested == 0) {
    requested = std::max(1u, std::thread::hardware_concurrency());
  }
  return std::min(requested, kMaxShards);
}

ShardedQueryEngine::ShardedQueryEngine(const StorageIndex* index,
                                       const data::Dataset* base,
                                       const ShardOptions& options)
    : index_(index), base_(base) {
  uint32_t shards = ResolveShardCount(options.num_shards);
  // Never more shards than the global budgets: each engine needs at
  // least one context and one in-flight I/O to make progress, and the
  // per-shard floor of one would otherwise let the total outstanding
  // I/O exceed the configured queue-depth cap.
  shards = std::min(shards, std::max(1u, options.total_contexts));
  shards = std::min(shards, std::max(1u, options.total_inflight_ios));

  shard_opts_.num_contexts = std::max(1u, options.total_contexts / shards);
  shard_opts_.max_inflight_ios = std::max(1u, options.total_inflight_ios / shards);
  shard_opts_.register_fixed_buffers = options.register_fixed_buffers;

  storage::QueueOptions queue_options;
  queue_options.queue_capacity = shard_opts_.max_inflight_ios;
  shard_devices_.reserve(shards);
  views_.reserve(shards);
  engines_.reserve(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    auto queue = index_->device()->CreateQueue(queue_options);
    if (!queue.ok()) {
      status_ = queue.status();
      engines_.clear();
      views_.clear();
      shard_devices_.clear();
      return;
    }
    std::unique_ptr<storage::BlockDevice> device = std::move(queue).value();
    if (options.wrap_shard_device) {
      device = options.wrap_shard_device(std::move(device));
    }
    shard_devices_.push_back(std::move(device));
    views_.push_back(index_->WithDevice(shard_devices_.back().get()));
    engines_.push_back(std::make_unique<QueryEngine>(
        views_.back().get(), base_, shard_opts_, &latency_floor_));
  }
  if (shards > 1) pool_ = std::make_unique<util::ThreadPool>(shards - 1);
}

Result<BatchResult> ShardedQueryEngine::SearchBatch(const data::Dataset& queries,
                                                    uint32_t k) {
  if (queries.dim() != base_->dim()) {
    return Status::InvalidArgument("query dimension mismatch");
  }
  if (k == 0) return Status::InvalidArgument("k must be > 0");
  E2_RETURN_NOT_OK(status_);

  BatchResult out;
  out.results.resize(queries.n());
  out.stats.resize(queries.n());
  RowSource rows(queries, k, &out);
  std::vector<uint64_t> compute_before(engines_.size());
  for (size_t s = 0; s < engines_.size(); ++s) {
    compute_before[s] = engines_[s]->compute_ns();
  }
  const uint64_t start = util::NowNs();
  std::vector<std::future<void>> others;
  others.reserve(engines_.size() - 1);
  for (size_t s = 1; s < engines_.size(); ++s) {
    QueryEngine* engine = engines_[s].get();
    others.push_back(
        pool_->SubmitWithResult([engine, &rows] { engine->Run(&rows); }));
  }
  engines_[0]->Run(&rows);
  for (auto& shard : others) shard.get();
  out.wall_ns = util::NowNs() - start;
  for (size_t s = 0; s < engines_.size(); ++s) {
    out.compute_ns += engines_[s]->compute_ns() - compute_before[s];
  }
  return out;
}

}  // namespace e2lshos::core
