// The public facade of E2LSHoS: one object that builds, persists,
// reopens, queries, and serves an on-storage LSH index.
//
// The lower layers (core::IndexBuilder, core::QueryEngine,
// core::ShardedQueryEngine, core::StreamingServer, the storage devices)
// stay public for benches and tests, but every entry point — the CLI,
// the examples, a downstream embedder — goes through e2lshos::Index:
//
//   e2lshos::IndexSpec spec;
//   spec.lsh.rho = 0.25;
//   spec.device_uri = "sim:cssd";               // or "file:/data/img.bin"
//   auto index = e2lshos::Index::Build(spec, std::move(base));
//   (*index)->Save("/data/idx.meta");
//   auto results = (*index)->SearchBatch(queries, /*k=*/10);
//
//   auto reopened = e2lshos::Index::Open(
//       "/data/idx.meta", e2lshos::OpenSpec{"file:/data/img.bin?direct=1"},
//       std::move(base2));
//
// The facade owns the device, the base dataset, the StorageIndex, and
// the query engine, in that destruction-safe order — the lifetime
// footgun of the layered API (index and dataset must outlive the
// engine, device must outlive the index) cannot be reassembled through
// this door. Devices are selected by URI (storage::ParseDeviceUri):
// mem:, sim:cssd|essd|xlfdd|hdd[*N][?iface=...], file:PATH?direct=1&
// threads=N, uring:PATH?direct=1&sqpoll=1. Every engine shard, a lone
// one included, reads through its own device queue (file: gives each
// queue `threads` pread workers); `fixed=1` (uring:) registers engine
// arenas for READ_FIXED I/O.
// `cache=SIZE` (any scheme) layers a transparent DRAM read cache over
// the device so hot buckets serve at memory speed (storage/cache_device.h).
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "core/builder.h"
#include "core/live_updater.h"
#include "core/query_engine.h"
#include "core/query_stream.h"
#include "core/sharded_engine.h"
#include "core/storage_index.h"
#include "core/streaming_server.h"
#include "data/dataset.h"
#include "storage/device_registry.h"

namespace e2lshos {

/// \brief Everything Index::Build needs beyond the dataset.
struct IndexSpec {
  /// E2LSH tuning knobs (rho, c, w, gamma, s_factor, seed).
  lsh::E2lshConfig lsh;
  /// On-storage layout (block size, table index bits).
  core::BuildOptions layout;
  /// Where the index lives: a storage device URI (see
  /// storage::ParseDeviceUri). Defaults to DRAM.
  std::string device_uri = "mem:";
  /// Device size when the URI does not carry `capacity=`. 0 = 32 GiB
  /// (sparse/demand-paged on every backend, so unused capacity is free).
  uint64_t device_capacity = 0;
  /// Fill `lsh.x_max` from the dataset (its largest absolute
  /// coordinate, defining the radius ladder) instead of trusting the
  /// config value. Leave on unless you know your x_max.
  bool auto_x_max = true;
};

/// \brief How Index::Open materializes the device serving the image.
struct OpenSpec {
  /// Device URI. For file:/uring: the backing file must hold the image
  /// the index was built into; for mem:/sim: the image is restored from
  /// the `<path>.image` sidecar written by Save().
  std::string device_uri;
};

/// \brief Query-engine shape: `shards` engines, each on its own device
/// queue, with these per-shard budgets.
struct SearchSpec {
  uint32_t shards = 1;              ///< Engine shards; 0 = one per hw thread.
  uint32_t contexts_per_shard = 32; ///< Interleaved query contexts per shard.
  uint32_t inflight_per_shard = 256;  ///< Outstanding-I/O budget per shard.
};

/// \brief Streaming-serving configuration for Index::Serve.
struct ServeSpec {
  uint32_t k = 10;                ///< Neighbors returned per query.
  /// Ignored; read by perfbench until the next benchmark change. Each
  /// query enters a free engine context as soon as it arrives.
  uint32_t max_batch_size = 64;
  uint64_t max_wait_us = 200;     ///< Ignored, as max_batch_size.
  uint64_t deadline_us = 0;       ///< Load shedding; 0 = off.
  /// Per-query completion callback (worker threads; must be
  /// thread-safe), the one way a result comes back: each carries the
  /// tag its query was submitted with. Optional — poll Server::stats()
  /// for a stats-only run.
  std::function<void(core::QueryResult&&)> on_result;
  SearchSpec search;              ///< Engine shape behind the server.
  size_t queue_capacity = 1024;   ///< Submission-queue bound (backpressure).
};

class Index;

/// \brief A live serving session: a bounded submission queue feeding a
/// core::StreamingServer over the owning Index's engine.
///
/// Obtained from Index::Serve. Destroy the Server before its Index;
/// while a Server exists its Index rejects Search/SearchBatch/Configure
/// (FailedPrecondition) — the shard engines are single-owner. Destroying
/// the Server stops serving and joins the workers. Destroying the Index
/// first is a misuse but a safe one: serving is stopped there and the
/// orphaned Server goes inert (Submit fails on the closed queue).
class Server {
 public:
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Enqueue one query of Index::dim() floats; blocks while the queue is
  /// full (backpressure). Returns the id echoed in its QueryResult. `k`
  /// overrides ServeSpec::k for this query (0 = that default); `tag` is
  /// returned untouched in its QueryResult, whether served or shed.
  Result<uint64_t> Submit(const float* query, uint32_t k = 0,
                          uint64_t tag = 0);
  /// Non-blocking variant; ResourceExhausted when full.
  Result<uint64_t> TrySubmit(const float* query, uint32_t k = 0,
                             uint64_t tag = 0);

  /// Close the queue: queued queries drain, further submissions fail.
  void Close();
  /// Block until all pulled queries are delivered (pair with Close) or
  /// Stop() takes effect.
  void Wait();
  /// Early shutdown: the queue closes (producers blocked in Submit wake
  /// with an error), in-flight queries are delivered exactly once,
  /// queries still queued are never pulled.
  void Stop();

  bool running() const { return server_->running(); }
  /// Merged serving metrics (latency percentiles, QPS, shed count).
  core::StreamingSnapshot stats() const { return server_->stats(); }
  /// Queries admitted but not yet pulled by a shard worker — the
  /// backpressure gauge a remote /stats endpoint reports.
  size_t queue_depth() const { return queue_->depth(); }
  uint32_t dim() const { return queue_->dim(); }

 private:
  friend class Index;
  Server(Index* owner, std::unique_ptr<core::SubmissionQueue> queue,
         std::unique_ptr<core::StreamingServer> server);

  Index* owner_;
  std::unique_ptr<core::SubmissionQueue> queue_;
  std::unique_ptr<core::StreamingServer> server_;
};

/// \brief A built (or reopened) E2LSHoS index with single-call access to
/// every serving mode. See the file comment for the canonical flows.
class Index {
 public:
  /// Build an index over `dataset` on the device `spec.device_uri`
  /// names, taking ownership of the dataset (std::move it in, or pass a
  /// copy to keep the original). Building needs a buffered device —
  /// a `direct=1` URI is rejected here with the pointer to the
  /// build-buffered / serve-direct workflow.
  static Result<std::unique_ptr<Index>> Build(const IndexSpec& spec,
                                              data::Dataset dataset);

  /// Reopen an index persisted with Save(): metadata from `path`, image
  /// from the URI's backing file (file:/uring:) or the `<path>.image`
  /// sidecar (mem:/sim:). `dataset` must be the base set the index was
  /// built over (shape-checked; ownership taken). Metadata saved before
  /// on-storage format v4 is refused with FailedPrecondition: rebuild.
  static Result<std::unique_ptr<Index>> Open(const std::string& path,
                                             const OpenSpec& spec,
                                             data::Dataset dataset);

  /// Persist the metadata to `path`; on a volatile (mem:/sim:) device
  /// also dumps the byte image to `<path>.image` so Open() can restore
  /// it. File-backed indexes persist their image in the backing file.
  /// Fails (FailedPrecondition) while a Server is live — the image dump
  /// polls the device the serving shards own.
  Status Save(const std::string& path) const;

  /// Top-k ANNS for a single query of dim() floats.
  Result<std::vector<util::Neighbor>> Search(const float* query, uint32_t k,
                                             core::QueryStats* stats = nullptr);

  /// Top-k ANNS for every query in `queries`, through the configured
  /// engine (sharded across cores when SearchSpec::shards > 1).
  Result<core::BatchResult> SearchBatch(const data::Dataset& queries,
                                        uint32_t k);

  /// Reshape the query engine (shard count, context/inflight budgets).
  /// Cheap when nothing changed; rebuilds the engine otherwise.
  Status Configure(const SearchSpec& spec);

  /// Live mutations — legal while a Server is serving (unlike the query
  /// entry points): staged through core::LiveUpdater and published as
  /// epochs. A query pins the current epoch when an engine context
  /// admits it, so queries already running keep their snapshot.
  /// Thread-safe against each other and against serving.
  ///
  /// Insert one row of dim() floats; returns the assigned id (== n()
  /// before the call). The row becomes searchable exactly when the
  /// epoch publishes — every query admitted after Insert returns, served
  /// or from a SearchBatch, is guaranteed to see it.
  Result<uint32_t> Insert(const float* row);
  /// Insert `count` contiguous rows; ids are consecutive from the
  /// returned first id, and all become visible together (one epoch).
  Result<uint32_t> InsertBatch(const float* rows, uint32_t count);
  /// Tombstone an id (idempotent; unknown ids accepted as no-ops).
  Status Remove(uint32_t id);
  Status RemoveBatch(const uint32_t* ids, uint32_t count);
  /// Erase an id's tombstone; a no-op when none exists.
  Status Restore(uint32_t id);
  Status RestoreBatch(const uint32_t* ids, uint32_t count);

  /// Start continuous serving: returns a Server handle accepting
  /// Submit() from any thread. One Server at a time; the Index must
  /// outlive it.
  Result<std::unique_ptr<Server>> Serve(const ServeSpec& spec);

  ~Index();
  Index(const Index&) = delete;
  Index& operator=(const Index&) = delete;

  /// Effective object count: includes live inserts as soon as they are
  /// staged.
  uint64_t n() const;
  uint32_t dim() const { return index_->dim(); }
  /// Device counters plus the live-update counters (updates applied,
  /// epochs published, staged bytes, reader-visible lag) — what the
  /// Stats RPC reports. Prefer this over device()->stats().
  storage::DeviceStats device_stats() const;
  /// Sequence of the newest published live-update epoch (0 = none yet):
  /// device_stats().epochs_published, without a snapshot of the device
  /// stack.
  uint64_t epoch_seq() const;
  /// On-storage / DRAM footprint breakdown (the paper's Table 6 story).
  core::IndexSizes sizes() const { return index_->sizes(); }
  /// The derived E2LSH parameter set (m, L, S, and the radius ladder the
  /// index was built with: fitted to the data, see lsh::FitLadderBottom).
  const lsh::E2lshParams& params() const { return index_->params(); }
  /// Resolved engine shard count under the current SearchSpec.
  uint32_t num_shards() const;
  /// The base dataset the index answers from (owned by this Index).
  const data::Dataset& base() const { return base_; }
  /// The device URI this index runs on (canonical form).
  std::string device_uri() const { return uri_.ToString(); }

  /// Re-tune the per-radius candidate cap S = s * L without rebuilding
  /// (the paper's query-time accuracy knob). Drops the current engine;
  /// fails while serving.
  Status SetCandidateCapFactor(double s_factor);

  /// Escape hatches for benches/tests that need the layers underneath.
  /// The returned pointers stay owned by this Index.
  storage::BlockDevice* device() { return device_.get(); }
  const core::StorageIndex* storage_index() const { return index_.get(); }

 private:
  friend class Server;
  Index() = default;

  /// Lazily (re)build the engine for the current SearchSpec.
  Status EnsureEngine();
  Status FailIfServing(const char* op) const;
  /// Lazily create the live updater (first mutation).
  core::LiveUpdater* EnsureLiveUpdater();

  storage::DeviceUri uri_;
  data::Dataset base_;
  std::unique_ptr<storage::BlockDevice> device_;
  std::unique_ptr<core::StorageIndex> index_;
  SearchSpec search_;
  std::unique_ptr<core::ShardedQueryEngine> engine_;
  /// Set while a Server owns the engine; cleared by its destructor.
  Server* serving_ = nullptr;
  /// Guards live_'s creation; LiveUpdater serializes mutations itself.
  /// Declared last: the updater (and its private device queue) must be
  /// torn down before the index and the device it points into.
  mutable std::mutex live_mu_;
  std::unique_ptr<core::LiveUpdater> live_;
};

}  // namespace e2lshos
