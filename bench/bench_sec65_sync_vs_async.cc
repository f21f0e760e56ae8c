// Reproduces the Sec. 6.5 "comparison with synchronous I/Os" experiment:
// the same E2LSHoS index driven (a) by the asynchronous engine with
// interleaved query contexts and (b) by a synchronous engine issuing one
// blocking I/O at a time through a heavyweight (page-cache-like)
// interface. The paper measures a 19.7x slowdown for the synchronous
// mmap-based execution on cSSD x 4.
//
// With --device file:/uring: (a URI, e.g. uring:?direct=1) the index is
// served from a real
// backing file on this host instead of the simulated cSSD x 4 stack: the
// async run's submission cost is then the genuine backend cost (thread
// hop vs. io_uring SQE) and the sync run is the same device at queue
// depth 1, no interface model applied.
#include "common.h"

#include <memory>

using namespace e2lshos;

int main(int argc, char** argv) {
  const auto args = bench::Args::Parse(argc, argv);
  auto spec = data::GetDatasetSpec(args.dataset.empty() ? "BIGANN"
                                                        : args.dataset);
  if (!spec.ok()) return 1;
  // Modest n and few queries: the synchronous run pays full device
  // latency on every I/O.
  const uint64_t n = args.n ? args.n : (args.fast ? 10000 : 30000);
  auto w = bench::MakeWorkload(*spec, n, args.queries ? args.queries : 20, 1);
  if (!w.ok()) return 1;

  // Build once on a DRAM master, then rehost the image on the measured
  // configuration (the simulated cSSD x 4, or the --device backend).
  auto master_dev = storage::SimulatedDevice::Create(storage::MemoryModel(8ULL << 30));
  if (!master_dev.ok()) return 1;
  auto idx =
      core::IndexBuilder::Build(w->gen.base, w->params, master_dev->get());
  if (!idx.ok()) return 1;
  const uint64_t image_bytes = (*idx)->sizes().storage_bytes;

  auto stack = bench::MakeStack(storage::DeviceKind::kCssd, 4,
                                storage::InterfaceKind::kIoUring);
  if (!stack.ok()) return 1;

  std::unique_ptr<storage::BlockDevice> real;
  std::string config_name = "cSSD x 4";
  std::string real_path;
  if (!args.device.empty()) {
    real_path = args.EffectiveDevicePath("sec65");
    auto made = bench::MakeRealDevice(args, real_path, image_bytes,
                                      /*queue_capacity=*/1024,
                                      /*fill_noise=*/false);
    if (made.ok()) {
      real = std::move(*made);
      config_name = real->name();
    } else {
      std::fprintf(stderr, "real-device mode skipped: %s\n",
                   made.status().ToString().c_str());
    }
  }
  storage::BlockDevice* serving_dev = real ? real.get() : stack->device();
  if (!bench::CopyIndexImage(master_dev->get(),
                             real ? real.get() : stack->raw.get(), image_bytes)
           .ok()) {
    std::fprintf(stderr, "image copy failed\n");
    return 1;
  }
  auto serving_view = (*idx)->WithDevice(serving_dev);
  core::StorageIndex* serving = serving_view.get();

  core::EngineOptions async_opts;
  async_opts.num_contexts = 64;
  async_opts.max_inflight_ios = 512;
  core::QueryEngine async_engine(serving, &w->gen.base, async_opts);
  auto async_res = async_engine.SearchBatch(w->gen.queries, 1);
  if (!async_res.ok()) return 1;

  // Synchronous run at queue depth 1. The simulated configuration adds
  // the mmap-like page-fault cost per I/O; the real device is simply
  // driven one blocking read at a time.
  std::unique_ptr<core::StorageIndex> sync_view;
  std::unique_ptr<storage::ChargedDevice> mmap_like;
  if (real) {
    sync_view = (*idx)->WithDevice(real.get());
  } else {
    mmap_like = std::make_unique<storage::ChargedDevice>(
        stack->raw.get(),
        storage::GetInterfaceSpec(storage::InterfaceKind::kMmapSync));
    sync_view = (*idx)->WithDevice(mmap_like.get());
  }
  core::EngineOptions sync_opts;
  sync_opts.num_contexts = 1;  // Fig. 1(A): one blocking I/O at a time
  sync_opts.max_inflight_ios = 1;
  core::QueryEngine sync_engine(sync_view.get(), &w->gen.base, sync_opts);
  auto sync_res = sync_engine.SearchBatch(w->gen.queries, 1);
  if (!sync_res.ok()) return 1;

  bench::PrintHeader("Sec. 6.5: synchronous vs asynchronous I/O (" +
                         spec->name + " n=" + std::to_string(n) + ", " +
                         config_name + ")",
                     {"Mode", "query us", "mean I/Os", "QPS"});
  const double t_async = static_cast<double>(async_res->wall_ns) /
                         static_cast<double>(w->gen.queries.n());
  const double t_sync = static_cast<double>(sync_res->wall_ns) /
                        static_cast<double>(w->gen.queries.n());
  bench::PrintRow({"async (interleaved contexts)", bench::Fmt(t_async / 1e3, 1),
                   bench::Fmt(async_res->MeanIos(), 1),
                   bench::Fmt(async_res->QueriesPerSecond(), 0)});
  bench::PrintRow({real ? "sync (QD=1)" : "sync (mmap-like, QD=1)",
                   bench::Fmt(t_sync / 1e3, 1),
                   bench::Fmt(sync_res->MeanIos(), 1),
                   bench::Fmt(sync_res->QueriesPerSecond(), 0)});
  std::printf("\nSlowdown of synchronous execution: %.1fx (paper: 19.7x)\n",
              t_sync / t_async);
  std::printf(
      "The synchronous path pays the full device latency on every I/O "
      "(Fig. 1(A));\nthe asynchronous engine overlaps many queries' I/Os "
      "(Fig. 1(B)).\n");
  if (!real_path.empty()) std::remove(real_path.c_str());
  return 0;
}
