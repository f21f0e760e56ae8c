#include "core/sharded_engine.h"

#include <algorithm>
#include <future>
#include <thread>

#include "util/clock.h"

namespace e2lshos::core {

std::vector<ShardRange> PartitionBatch(uint64_t n, uint32_t num_shards) {
  if (num_shards == 0) num_shards = 1;
  std::vector<ShardRange> ranges(num_shards);
  const uint64_t base = n / num_shards;
  const uint64_t extra = n % num_shards;
  uint64_t cursor = 0;
  for (uint32_t s = 0; s < num_shards; ++s) {
    ranges[s].begin = cursor;
    cursor += base + (s < extra ? 1 : 0);
    ranges[s].end = cursor;
  }
  return ranges;
}

BatchResult MergeShardResults(std::vector<BatchResult>&& shard_results,
                              const std::vector<ShardRange>& ranges,
                              uint64_t batch_wall_ns) {
  BatchResult out;
  uint64_t total = 0;
  for (const auto& r : ranges) total = std::max(total, r.end);
  out.results.resize(total);
  out.stats.resize(total);
  for (size_t s = 0; s < ranges.size() && s < shard_results.size(); ++s) {
    BatchResult& shard = shard_results[s];
    // Results and stats are bounded independently: a caller-built shard
    // result may carry fewer (or no) stats entries.
    const uint64_t nr = std::min<uint64_t>(ranges[s].size(), shard.results.size());
    for (uint64_t i = 0; i < nr; ++i) {
      out.results[ranges[s].begin + i] = std::move(shard.results[i]);
    }
    const uint64_t ns = std::min<uint64_t>(ranges[s].size(), shard.stats.size());
    for (uint64_t i = 0; i < ns; ++i) {
      out.stats[ranges[s].begin + i] = shard.stats[i];
    }
    out.compute_ns += shard.compute_ns;
  }
  // Whole-batch wall time from one clock, NOT the sum of per-shard wall
  // times: shards run in parallel, so the sum can exceed the true batch
  // latency by up to the shard count.
  out.wall_ns = batch_wall_ns;
  return out;
}

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

  if (shards == 1 && !options.wrap_shard_device) {
    // Degenerate case: one engine straight on the index's device — no
    // queue indirection, no worker thread.
    engines_.push_back(std::make_unique<QueryEngine>(index_, base_, shard_opts_));
    return;
  }

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
    engines_.push_back(std::make_unique<QueryEngine>(views_.back().get(), base_,
                                                     shard_opts_));
  }
  pool_ = std::make_unique<util::ThreadPool>(shards);
}

Result<BatchResult> ShardedQueryEngine::SearchBatch(const data::Dataset& queries,
                                                    uint32_t k) {
  if (queries.dim() != base_->dim()) {
    return Status::InvalidArgument("query dimension mismatch");
  }
  if (k == 0) return Status::InvalidArgument("k must be > 0");
  E2_RETURN_NOT_OK(status_);

  if (pool_ == nullptr) {
    // Single-shard fast path: run inline on the caller's thread.
    return engines_[0]->SearchBatch(queries, k);
  }

  const std::vector<ShardRange> ranges = PartitionBatch(queries.n(), num_shards());

  // Each shard reads its range of the caller's rows in place.
  std::vector<std::future<Result<BatchResult>>> futures(ranges.size());
  const uint64_t batch_start = util::NowNs();
  for (size_t s = 0; s < ranges.size(); ++s) {
    if (ranges[s].size() == 0) continue;
    QueryEngine* engine = engines_[s].get();
    const ShardRange range = ranges[s];
    futures[s] = pool_->SubmitWithResult([engine, &queries, range, k] {
      return engine->SearchRows(queries, range.begin, range.end, k);
    });
  }

  // Collect every shard before acting on errors: outstanding futures
  // reference the caller's queries.
  std::vector<BatchResult> shard_results(ranges.size());
  Status first_error = Status::OK();
  for (size_t s = 0; s < ranges.size(); ++s) {
    if (!futures[s].valid()) continue;
    Result<BatchResult> r = futures[s].get();
    if (!r.ok()) {
      if (first_error.ok()) first_error = r.status();
      continue;
    }
    shard_results[s] = std::move(r).value();
  }
  const uint64_t batch_wall_ns = util::NowNs() - batch_start;
  if (!first_error.ok()) return first_error;

  return MergeShardResults(std::move(shard_results), ranges, batch_wall_ns);
}

}  // namespace e2lshos::core
