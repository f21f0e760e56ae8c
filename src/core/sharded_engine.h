// Multi-core E2LSHoS serving: N per-core QueryEngines over a single
// shared device.
//
// A QueryEngine is one thread interleaving contexts — it can keep a
// device queue deep (Fig. 1(B)) but it cannot use more than one core.
// The paper's Sec. 6.5 / Fig. 16 experiment scales QPS with cores by
// running one engine per thread; ShardedQueryEngine makes that a
// first-class API:
//
//   * every shard, a lone one included, owns an independent queue over
//     the shared device (NVMe multi-queue semantics: a shard never
//     consumes another shard's completions) — its own io_uring ring /
//     pread pool / completion inbox, made by BlockDevice::CreateQueue —
//     so the per-shard submit/poll hot path crosses no shared lock;
//   * per-shard context / inflight budgets are derived from global
//     budgets, so the device-visible queue depth stays at the configured
//     cap no matter how many shards poll it;
//   * the shards learn one latency floor for their one device, each
//     shard's in-flight cap reading it (query_engine.h): a shard whose
//     first reads queued behind another's burst would otherwise take
//     that queueing for the device's service time and never hold back;
//   * SearchBatch runs every shard's QueryEngine::Run loop over one
//     shared RowSource, as StreamingServer runs them over its
//     SubmissionQueue: a shard pulls the next row whenever it has a free
//     context, so a slow shard never holds rows a fast one could answer.
//     Each answer lands at its row's index, compute_ns sums the shards'
//     compute time, and wall_ns is one clock around all of them.
#pragma once

#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "core/query_engine.h"
#include "core/storage_index.h"
#include "util/thread_pool.h"

namespace e2lshos::core {

struct ShardOptions {
  /// Number of per-core engines; 0 = one per hardware thread.
  uint32_t num_shards = 1;
  /// Global budgets, split evenly across shards. The defaults match a
  /// single QueryEngine's defaults, so a 1-shard engine behaves exactly
  /// like the unsharded one and an N-shard engine presents the same
  /// total queue depth to the device. The shard count is reduced when
  /// it exceeds a budget (see ResolveShardCount).
  uint32_t total_contexts = 32;
  uint32_t total_inflight_ios = 256;
  /// Register every shard engine's I/O arena with its device at startup
  /// (UringDevice: READ_FIXED, no per-I/O page pinning). Best-effort —
  /// devices without fixed-buffer support simply run unregistered.
  bool register_fixed_buffers = false;
  /// Optional decorator applied to each shard's device queue before the
  /// shard engine sees it — e.g. wrap it in a storage::ChargedDevice so
  /// every shard pays its own per-core interface submission cost.
  std::function<std::unique_ptr<storage::BlockDevice>(
      std::unique_ptr<storage::BlockDevice>)>
      wrap_shard_device;
};

/// Hard cap on shards (each takes one device queue).
inline constexpr uint32_t kMaxShards = 255;

/// Resolve a requested shard count (0 = one per hardware thread) to the
/// count the engine will use, bounded by kMaxShards. Callers deriving
/// global budgets from a shard count (e.g. "32 contexts per shard")
/// must use this instead of re-implementing the rule. The engine
/// additionally never runs more shards than the global context/inflight
/// budgets allow — a shard cannot run on a zero budget, and a floor of
/// one would overshoot the device-visible queue-depth cap.
uint32_t ResolveShardCount(uint32_t requested);

class ShardedQueryEngine {
 public:
  /// The index and base dataset must outlive the engine; the shared
  /// device is the one the index was built on. Every shard takes a queue
  /// from BlockDevice::CreateQueue and its own StorageIndex view over it
  /// (DRAM metadata is duplicated per shard, as in the Fig. 16
  /// per-thread setup). When a queue cannot be created, the engine has
  /// no shards and status() (returned by SearchBatch and
  /// StreamingServer::Start) carries the device's error.
  ShardedQueryEngine(const StorageIndex* index, const data::Dataset* base,
                     const ShardOptions& options = {});

  /// OK, or why the per-shard device queues could not be created.
  const Status& status() const { return status_; }

  /// Run top-k ANNS for every query in `queries` across all shards:
  /// shard 0 on the calling thread, the others on the pool, all pulling
  /// rows from one RowSource. Results are in query order. As long as
  /// the per-radius candidate cap S never triggers draining, results are
  /// bit-identical to a single QueryEngine run over the same index; once
  /// S binds, the examined candidate subset depends on I/O completion
  /// order, so results may vary across shard counts (and across runs of
  /// a single engine).
  Result<BatchResult> SearchBatch(const data::Dataset& queries, uint32_t k);

  uint32_t num_shards() const { return static_cast<uint32_t>(engines_.size()); }
  /// The derived per-shard engine configuration.
  const EngineOptions& shard_engine_options() const { return shard_opts_; }
  /// Dimension of the base dataset (and of every accepted query).
  uint32_t dim() const { return base_->dim(); }

  /// Barrier-free dispatch for streaming serving: direct access to shard
  /// `s`'s engine so a front-end (core::StreamingServer) can run one
  /// persistent QueryEngine::Run loop per shard with no whole-batch
  /// join. A shard engine is single-threaded — exactly one caller may
  /// drive a given shard at a time, and SearchBatch (which uses every
  /// shard) must not run concurrently with per-shard dispatch.
  QueryEngine* shard_engine(uint32_t s) { return engines_[s].get(); }

  /// The device shard `s` actually submits to (its queue, after any
  /// wrap_shard_device decoration) — per-shard stats come from here.
  storage::BlockDevice* shard_device(uint32_t s) {
    return shard_devices_[s].get();
  }

 private:
  const StorageIndex* index_;
  const data::Dataset* base_;
  EngineOptions shard_opts_;
  Status status_;
  std::vector<std::unique_ptr<storage::BlockDevice>> shard_devices_;
  std::vector<std::unique_ptr<StorageIndex>> views_;
  /// The lowest nonzero read latency any shard has seen; declared before
  /// engines_, which point at it.
  std::atomic<uint64_t> latency_floor_{std::numeric_limits<uint64_t>::max()};
  std::vector<std::unique_ptr<QueryEngine>> engines_;
  /// Runs shards 1..N-1 during SearchBatch; null with one shard.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace e2lshos::core
