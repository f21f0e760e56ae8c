#include "api/index.h"

#include <sys/stat.h>

#include <algorithm>
#include <utility>

#include "core/persistence.h"
#include "lsh/params.h"

namespace e2lshos {

namespace {

/// Default device size when neither the URI nor the spec names one.
/// Every backend is sparse/demand-paged, so this costs nothing unused.
constexpr uint64_t kDefaultCapacity = 32ULL << 30;

std::string ImageSidecarPath(const std::string& meta_path) {
  return meta_path + ".image";
}

bool IsVolatile(const storage::DeviceUri& uri) {
  return uri.scheme == storage::DeviceUri::Scheme::kMem ||
         uri.scheme == storage::DeviceUri::Scheme::kSim;
}

Result<uint64_t> FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::NotFound("cannot stat " + path);
  }
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

Server::Server(Index* owner, std::unique_ptr<core::SubmissionQueue> queue,
               std::unique_ptr<core::StreamingServer> server)
    : owner_(owner), queue_(std::move(queue)), server_(std::move(server)) {}

Server::~Server() {
  queue_->Close();
  server_->Stop();
  server_->Wait();
  // owner_ is null when the Index was destroyed first (it detached us).
  if (owner_ != nullptr) owner_->serving_ = nullptr;
}

Result<uint64_t> Server::Submit(const float* query, uint32_t k) {
  return queue_->Submit(query, k);
}

Result<uint64_t> Server::TrySubmit(const float* query, uint32_t k) {
  return queue_->TrySubmit(query, k);
}

void Server::Close() { queue_->Close(); }

void Server::Wait() { server_->Wait(); }

void Server::Stop() {
  // Close the queue first: workers stop pulling on Stop(), so a
  // producer blocked in Submit() on a full queue would otherwise wait
  // on a drain that never comes.
  queue_->Close();
  server_->Stop();
  server_->Wait();
}

// ---------------------------------------------------------------------------
// Index
// ---------------------------------------------------------------------------

Index::~Index() {
  // A Server outliving its Index is a documented misuse, but it must
  // not be a use-after-free: stop the serving pipeline while the engine
  // is still alive and detach the Server so its destructor (and any
  // later Submit, which now hits a closed queue) stays safe.
  if (serving_ != nullptr) {
    serving_->queue_->Close();
    serving_->server_->Stop();
    serving_->server_->Wait();
    serving_->owner_ = nullptr;
  }
}

Result<std::unique_ptr<Index>> Index::Build(const IndexSpec& spec,
                                            data::Dataset dataset) {
  if (dataset.empty()) {
    return Status::InvalidArgument("cannot build an index over an empty dataset");
  }
  E2_ASSIGN_OR_RETURN(storage::DeviceUri uri,
                      storage::ParseDeviceUri(spec.device_uri));
  if (uri.direct_io) {
    return Status::InvalidArgument(
        "building needs a buffered device: the index builder writes "
        "512-byte blocks, smaller than a 4Kn drive's direct-I/O unit. Build "
        "without direct=1, then Open() the image with a direct=1 URI to "
        "serve.");
  }

  lsh::E2lshConfig cfg = spec.lsh;
  if (spec.auto_x_max) cfg.x_max = dataset.XMax();
  E2_ASSIGN_OR_RETURN(const lsh::E2lshParams params,
                      lsh::ComputeParams(dataset.n(), dataset.dim(), cfg));

  storage::DeviceUriOpenOptions open;
  open.create = true;
  open.capacity =
      spec.device_capacity != 0 ? spec.device_capacity : kDefaultCapacity;
  E2_ASSIGN_OR_RETURN(auto device, storage::OpenDeviceUri(uri, open));

  std::unique_ptr<Index> out(new Index());
  out->uri_ = std::move(uri);
  out->base_ = std::move(dataset);
  out->device_ = std::move(device);
  E2_ASSIGN_OR_RETURN(
      out->index_, core::IndexBuilder::Build(out->base_, params,
                                             out->device_.get(), spec.layout));
  return out;
}

Result<std::unique_ptr<Index>> Index::Open(const std::string& path,
                                           const OpenSpec& spec,
                                           data::Dataset dataset) {
  E2_ASSIGN_OR_RETURN(storage::DeviceUri uri,
                      storage::ParseDeviceUri(spec.device_uri));

  std::unique_ptr<Index> out(new Index());
  if (IsVolatile(uri)) {
    // Nothing durable lives behind mem:/sim: — restore the byte image
    // Save() dumped next to the metadata.
    const std::string sidecar = ImageSidecarPath(path);
    auto image_bytes = FileSize(sidecar);
    if (!image_bytes.ok()) {
      return Status::NotFound(
          "no image sidecar " + sidecar + " — a " +
          std::string(uri.scheme_name()) +
          ": index must be Save()d (which writes it) before Open()");
    }
    storage::DeviceUriOpenOptions open;
    open.capacity = std::max(kDefaultCapacity, *image_bytes);
    E2_ASSIGN_OR_RETURN(out->device_, storage::OpenDeviceUri(uri, open));
    E2_RETURN_NOT_OK(
        core::LoadIndexImage(sidecar, out->device_.get()).status());
  } else {
    storage::DeviceUriOpenOptions open;
    open.create = false;  // capacity comes from the backing file
    E2_ASSIGN_OR_RETURN(out->device_, storage::OpenDeviceUri(uri, open));
  }

  E2_ASSIGN_OR_RETURN(out->index_,
                      core::LoadIndexMeta(path, out->device_.get()));
  if (out->index_->n() != dataset.n() || out->index_->dim() != dataset.dim()) {
    return Status::InvalidArgument(
        "index was built over a different dataset shape (index " +
        std::to_string(out->index_->n()) + " x " +
        std::to_string(out->index_->dim()) + ", dataset " +
        std::to_string(dataset.n()) + " x " + std::to_string(dataset.dim()) +
        ")");
  }
  out->uri_ = std::move(uri);
  out->base_ = std::move(dataset);
  return out;
}

Status Index::Save(const std::string& path) const {
  // The volatile-device branch reads the image through the device-level
  // path, which a 1-shard serving run polls directly and would lose
  // completions to — same single-owner rule as the query entry points.
  E2_RETURN_NOT_OK(FailIfServing("Save"));
  {
    // Sync staged live mutations into the index and the device (the
    // quiescence Flush requires is exactly what FailIfServing plus the
    // facade's single-caller contract provide). Note the saved metadata
    // then records the grown n: reopening needs the base dataset
    // augmented with the inserted rows in insertion order.
    std::lock_guard<std::mutex> lock(live_mu_);
    if (live_ != nullptr) E2_RETURN_NOT_OK(live_->Flush());
  }
  E2_RETURN_NOT_OK(core::SaveIndexMeta(*index_, path));
  if (IsVolatile(uri_)) {
    E2_RETURN_NOT_OK(core::SaveIndexImage(*index_, ImageSidecarPath(path)));
  }
  return Status::OK();
}

Status Index::FailIfServing(const char* op) const {
  if (serving_ != nullptr) {
    return Status::FailedPrecondition(
        std::string(op) +
        " while a Server is live: the engine is single-owner; destroy the "
        "Server first");
  }
  return Status::OK();
}

Status Index::EnsureEngine() {
  if (engine_ != nullptr) return Status::OK();
  core::ShardOptions opts;
  opts.num_shards = search_.shards;
  const uint32_t resolved = core::ResolveShardCount(search_.shards);
  opts.total_contexts = search_.contexts_per_shard * resolved;
  opts.total_inflight_ios = search_.inflight_per_shard * resolved;
  opts.synchronous = search_.synchronous;
  // fixed=1 registers each shard engine's I/O arena at startup.
  opts.register_fixed_buffers = uri_.fixed_buffers;
  auto engine =
      std::make_unique<core::ShardedQueryEngine>(index_.get(), &base_, opts);
  E2_RETURN_NOT_OK(engine->status());
  engine_ = std::move(engine);
  return Status::OK();
}

Status Index::Configure(const SearchSpec& spec) {
  E2_RETURN_NOT_OK(FailIfServing("Configure"));
  if (engine_ != nullptr &&
      spec.shards == search_.shards &&
      spec.contexts_per_shard == search_.contexts_per_shard &&
      spec.inflight_per_shard == search_.inflight_per_shard &&
      spec.synchronous == search_.synchronous) {
    return Status::OK();
  }
  search_ = spec;
  engine_.reset();
  return Status::OK();
}

uint32_t Index::num_shards() const {
  return engine_ != nullptr ? engine_->num_shards()
                            : core::ResolveShardCount(search_.shards);
}

Status Index::SetCandidateCapFactor(double s_factor) {
  E2_RETURN_NOT_OK(FailIfServing("SetCandidateCapFactor"));
  if (s_factor <= 0) {
    return Status::InvalidArgument("s_factor must be positive");
  }
  index_->SetCandidateCapFactor(s_factor);
  engine_.reset();  // shard views copy the params; rebuild on next query
  return Status::OK();
}

Result<std::vector<util::Neighbor>> Index::Search(const float* query,
                                                  uint32_t k,
                                                  core::QueryStats* stats) {
  E2_RETURN_NOT_OK(FailIfServing("Search"));
  E2_RETURN_NOT_OK(EnsureEngine());
  // A single query runs on shard 0's engine; with one shard that is the
  // degenerate (plain QueryEngine) path.
  return engine_->shard_engine(0)->Search(query, k, stats);
}

Result<core::BatchResult> Index::SearchBatch(const data::Dataset& queries,
                                             uint32_t k) {
  E2_RETURN_NOT_OK(FailIfServing("SearchBatch"));
  E2_RETURN_NOT_OK(EnsureEngine());
  return engine_->SearchBatch(queries, k);
}

core::LiveUpdater* Index::EnsureLiveUpdater() {
  std::lock_guard<std::mutex> lock(live_mu_);
  if (live_ == nullptr) {
    live_ = std::make_unique<core::LiveUpdater>(index_.get());
  }
  return live_.get();
}

Result<uint32_t> Index::Insert(const float* row) {
  return EnsureLiveUpdater()->Insert(row);
}

Result<uint32_t> Index::InsertBatch(const float* rows, uint32_t count) {
  return EnsureLiveUpdater()->InsertBatch(rows, count);
}

Status Index::Remove(uint32_t id) { return EnsureLiveUpdater()->Remove(id); }

Status Index::RemoveBatch(const uint32_t* ids, uint32_t count) {
  return EnsureLiveUpdater()->RemoveBatch(ids, count);
}

Status Index::Restore(uint32_t id) { return EnsureLiveUpdater()->Restore(id); }

Status Index::RestoreBatch(const uint32_t* ids, uint32_t count) {
  return EnsureLiveUpdater()->RestoreBatch(ids, count);
}

uint64_t Index::n() const {
  std::lock_guard<std::mutex> lock(live_mu_);
  return live_ != nullptr ? live_->n() : index_->n();
}

storage::DeviceStats Index::device_stats() const {
  storage::DeviceStats stats = device_->stats();
  std::lock_guard<std::mutex> lock(live_mu_);
  if (live_ != nullptr) {
    const core::LiveUpdater::Counters c = live_->counters();
    stats.updates_applied = c.inserts + c.removes + c.restores;
    stats.epochs_published = c.epochs_published;
    stats.update_staged_bytes = c.staged_bytes;
    stats.update_lag = c.pending_ops;
  }
  return stats;
}

Result<std::unique_ptr<Server>> Index::Serve(const ServeSpec& spec) {
  E2_RETURN_NOT_OK(Configure(spec.search));  // also fails while serving
  E2_RETURN_NOT_OK(EnsureEngine());

  core::ServerOptions opts;
  opts.k = spec.k;
  opts.deadline_us = spec.deadline_us;
  opts.on_result = spec.on_result;

  auto queue =
      std::make_unique<core::SubmissionQueue>(dim(), spec.queue_capacity);
  auto streaming =
      std::make_unique<core::StreamingServer>(engine_.get(), opts);
  E2_RETURN_NOT_OK(streaming->Start(queue.get()));

  std::unique_ptr<Server> server(
      new Server(this, std::move(queue), std::move(streaming)));
  serving_ = server.get();
  return server;
}

}  // namespace e2lshos
