// Reproduces Figure 12: decomposition of the E2LSHoS query time into I/O
// cost (CPU time spent in I/O submission) and computation, per storage
// interface, on eSSD x 8 so that device IOPS is never the limiting
// factor. In-memory E2LSH is the reference bar.
#include "common.h"

using namespace e2lshos;

int main(int argc, char** argv) {
  const auto args = bench::Args::Parse(argc, argv);
  const std::string name = args.dataset.empty() ? "SIFT" : args.dataset;
  auto spec = data::GetDatasetSpec(name);
  if (!spec.ok()) return 1;
  auto w = bench::MakeWorkload(*spec, args.EffectiveN(*spec),
                               args.queries ? args.queries : 200, 1);
  if (!w.ok()) return 1;

  auto master_dev = storage::SimulatedDevice::Create(storage::MemoryModel(8ULL << 30));
  if (!master_dev.ok()) return 1;
  auto master = core::IndexBuilder::Build(w->gen.base, w->params,
                                          master_dev->get());
  if (!master.ok()) return 1;
  const uint64_t image_bytes = (*master)->sizes().storage_bytes;

  bench::PrintHeader("Figure 12: I/O cost of different storage interfaces (" +
                         name + ", eSSD x 8)",
                     {"Interface", "query us", "I/O cost us", "computation us",
                      "I/O share"});

  core::EngineOptions opts;
  opts.num_contexts = 64;
  opts.max_inflight_ios = 512;

  for (const auto iface :
       {storage::InterfaceKind::kIoUring, storage::InterfaceKind::kSpdk,
        storage::InterfaceKind::kXlfdd}) {
    auto stack = bench::MakeStack(storage::DeviceKind::kEssd, 8, iface);
    if (!stack.ok()) continue;
    if (!bench::CopyIndexImage(master_dev->get(), stack->device(), image_bytes)
             .ok()) {
      continue;
    }
    auto view = (*master)->WithDevice(stack->device());
    const auto sweep =
        bench::SweepOs(view.get(), *w, 1, opts, {4.0}, stack->charged.get());
    if (sweep.empty()) continue;
    const auto& p = sweep[0];
    bench::PrintRow({storage::GetInterfaceSpec(iface).name,
                     bench::Fmt(p.query_ns / 1e3, 1),
                     bench::Fmt(p.io_cpu_ns / 1e3, 2),
                     bench::Fmt(p.compute_ns / 1e3, 2),
                     bench::Fmt(100.0 * p.io_cpu_ns /
                                    std::max(1.0, p.io_cpu_ns + p.compute_ns),
                                0) +
                         "%"});
  }

  // In-memory reference: no I/O cost at all.
  auto mem = e2lsh::InMemoryE2lsh::Build(w->gen.base, w->params);
  if (mem.ok()) {
    const auto sweep = bench::SweepInMemory(mem->get(), *w, 1, {4.0});
    if (!sweep.empty()) {
      bench::PrintRow({"In-memory", bench::Fmt(sweep[0].query_ns / 1e3, 1), "0",
                       bench::Fmt(sweep[0].query_ns / 1e3, 1), "0%"});
    }
  }

  std::printf(
      "\nExpected shape (paper Fig. 12): I/O cost shrinks io_uring -> SPDK "
      "-> XLFDD\n(1000 -> 350 -> 50 ns per request); computation stays "
      "roughly constant.\n");
  return 0;
}
