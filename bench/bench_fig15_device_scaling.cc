// Reproduces Figure 15: query speed, total observed IOPS, mean latency,
// and device usage for a varying number of cSSDs (1..6) on SIFT. The
// paper's finding: query speed is proportional to delivered IOPS until
// the devices can sustain more than the workload needs; per-I/O latency
// is high while devices are saturated but does not by itself determine
// application performance.
#include "common.h"

#include "storage/simulated_device.h"
#include "util/clock.h"

using namespace e2lshos;

int main(int argc, char** argv) {
  const auto args = bench::Args::Parse(argc, argv);
  const std::string name = args.dataset.empty() ? "SIFT" : args.dataset;
  auto spec = data::GetDatasetSpec(name);
  if (!spec.ok()) return 1;
  auto w = bench::MakeWorkload(*spec, args.EffectiveN(*spec),
                               args.queries ? args.queries : 400, 1);
  if (!w.ok()) return 1;

  auto master_dev = storage::SimulatedDevice::Create(storage::MemoryModel(8ULL << 30));
  if (!master_dev.ok()) return 1;
  auto master = core::IndexBuilder::Build(w->gen.base, w->params,
                                          master_dev->get());
  if (!master.ok()) return 1;
  const uint64_t image_bytes = (*master)->sizes().storage_bytes;

  bench::PrintHeader(
      "Figure 15: query speed and device statistics vs number of cSSDs (" +
          name + ", io_uring)",
      {"devices", "QPS", "observed kIOPS", "mean latency us", "p99 us",
       "device usage %"});

  core::EngineOptions opts;
  opts.num_contexts = 64;
  opts.max_inflight_ios = 512;

  for (uint32_t count = 1; count <= 6; ++count) {
    auto stack = bench::MakeStack(storage::DeviceKind::kCssd, count,
                                  storage::InterfaceKind::kIoUring);
    if (!stack.ok()) continue;
    if (!bench::CopyIndexImage(master_dev->get(), stack->device(), image_bytes)
             .ok()) {
      continue;
    }
    auto view = (*master)->WithDevice(stack->device());
    view->SetCandidateCapFactor(4.0);
    stack->charged->ResetStats();
    const uint64_t t0 = util::NowNs();
    core::QueryEngine engine(view.get(), &w->gen.base, opts);
    auto batch = engine.SearchBatch(w->gen.queries, 1);
    const uint64_t elapsed = util::NowNs() - t0;
    if (!batch.ok()) continue;

    const auto& stats = stack->device()->stats();
    const double iops = static_cast<double>(stats.reads_completed) * 1e9 /
                        static_cast<double>(elapsed);
    // Device usage: busy unit-time over elapsed wall time across units.
    const auto model = storage::GetDeviceModel(storage::DeviceKind::kCssd);
    const double usage =
        100.0 * static_cast<double>(stats.busy_ns) /
        (static_cast<double>(elapsed) * model.parallel_units * count);
    bench::PrintRow({std::to_string(count),
                     bench::Fmt(batch->QueriesPerSecond(), 0),
                     bench::Fmt(iops / 1e3, 1),
                     bench::Fmt(stats.read_latency.mean() / 1e3, 0),
                     bench::Fmt(stats.read_latency.Quantile(0.99) / 1e3, 0),
                     bench::Fmt(std::min(usage, 100.0), 0)});
  }
  std::printf(
      "\nExpected shape (paper): QPS tracks delivered IOPS and saturates "
      "once total\ndevice IOPS exceeds what the workload demands; latency "
      "is longest when few\ndevices run at high usage, and falls as "
      "devices are added.\n");
  return 0;
}
