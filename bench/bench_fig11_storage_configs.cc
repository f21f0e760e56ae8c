// Reproduces Figure 11: E2LSHoS speedup over in-memory SRS on SIFT for
// the six storage configuration groups:
//   Group 1: cSSD x 1 (io_uring / SPDK)        — device IOPS limited
//   Group 2: {cSSD x 4, eSSD x 1, eSSD x 8} with io_uring — interface CPU
//            limited (~1 MIOPS/core)
//   Group 3: cSSD x 4 with SPDK
//   Group 4: {eSSD x 1, eSSD x 8} with SPDK
//   Group 5: in-memory E2LSH
//   Group 6: XLFDD x 12 with the XLFDD interface
//
// One index image is built once and copied onto every storage stack, so
// all configurations answer from byte-identical indexes.
#include "common.h"

using namespace e2lshos;

int main(int argc, char** argv) {
  const auto args = bench::Args::Parse(argc, argv);
  auto json = args.OpenJson();
  constexpr double kTargetRatio = 1.05;
  const std::string name = args.dataset.empty() ? "SIFT" : args.dataset;
  auto spec = data::GetDatasetSpec(name);
  if (!spec.ok()) return 1;
  // SRS query time is linear in n while E2LSHoS pays per-I/O costs that
  // barely grow, so the paper's Fig. 11 separation needs a larger n than
  // the registry's quick default.
  const uint64_t n = args.n ? args.n : (args.fast ? 50000 : 200000);
  auto w = bench::MakeWorkload(*spec, n, args.queries ? args.queries : 200, 1);
  if (!w.ok()) return 1;

  // Build once on an instant device; copy the image to every config.
  auto master_dev = storage::SimulatedDevice::Create(storage::MemoryModel(8ULL << 30));
  if (!master_dev.ok()) return 1;
  auto master = core::IndexBuilder::Build(w->gen.base, w->params,
                                          master_dev->get());
  if (!master.ok()) {
    std::fprintf(stderr, "build: %s\n", master.status().ToString().c_str());
    return 1;
  }
  const uint64_t image_bytes = (*master)->sizes().storage_bytes;

  // SRS reference sweep.
  const auto srs = bench::SweepSrs(*w, 1, bench::DefaultSrsFractions());
  const double t_srs = bench::QueryNsAtRatio(srs, kTargetRatio);

  struct Config {
    const char* group;
    storage::DeviceKind kind;
    uint32_t count;
    storage::InterfaceKind iface;
  };
  const Config configs[] = {
      {"1", storage::DeviceKind::kCssd, 1, storage::InterfaceKind::kIoUring},
      {"1", storage::DeviceKind::kCssd, 1, storage::InterfaceKind::kSpdk},
      {"2", storage::DeviceKind::kCssd, 4, storage::InterfaceKind::kIoUring},
      {"2", storage::DeviceKind::kEssd, 1, storage::InterfaceKind::kIoUring},
      {"2", storage::DeviceKind::kEssd, 8, storage::InterfaceKind::kIoUring},
      {"3", storage::DeviceKind::kCssd, 4, storage::InterfaceKind::kSpdk},
      {"4", storage::DeviceKind::kEssd, 1, storage::InterfaceKind::kSpdk},
      {"4", storage::DeviceKind::kEssd, 8, storage::InterfaceKind::kSpdk},
      {"6", storage::DeviceKind::kXlfdd, 12, storage::InterfaceKind::kXlfdd},
  };

  bench::PrintHeader(
      "Figure 11: speedup over SRS per storage configuration (" + name +
          ", ratio 1.05; T_SRS = " + bench::Fmt(t_srs / 1e3, 1) + " us)",
      {"Group", "Configuration", "query us", "speedup over SRS"});

  core::EngineOptions opts;
  opts.num_contexts = 64;
  opts.max_inflight_ios = 512;

  auto emit_row = [&](const std::string& group, const std::string& config,
                      double t) {
    bench::PrintRow({group, config, bench::Fmt(t / 1e3, 1),
                     bench::Fmt(t_srs / t, 1)});
    if (json != nullptr) {
      json->Write(util::JsonRow()
                      .Set("bench", "fig11")
                      .Set("dataset", name)
                      .Set("n", w->n())
                      .Set("group", group)
                      .Set("config", config)
                      .Set("srs_query_ns", t_srs)
                      .Set("query_ns", t)
                      .Set("speedup_over_srs", t > 0 ? t_srs / t : 0.0));
    }
  };

  for (const auto& cfg : configs) {
    auto stack = bench::MakeStack(cfg.kind, cfg.count, cfg.iface);
    if (!stack.ok()) continue;
    if (!bench::CopyIndexImage(master_dev->get(), stack->device(), image_bytes)
             .ok()) {
      continue;
    }
    auto view = (*master)->WithDevice(stack->device());
    const auto sweep = bench::SweepOs(view.get(), *w, 1, opts,
                                      bench::DefaultSFactors(),
                                      stack->charged.get());
    const double t = bench::QueryNsAtRatio(sweep, kTargetRatio);
    emit_row(cfg.group, stack->name, t);
  }

  // Group 5: in-memory E2LSH.
  auto mem = e2lsh::InMemoryE2lsh::Build(w->gen.base, w->params);
  if (mem.ok()) {
    const auto sweep =
        bench::SweepInMemory(mem->get(), *w, 1, bench::DefaultSFactors());
    const double t = bench::QueryNsAtRatio(sweep, kTargetRatio);
    emit_row("5", "In-memory E2LSH", t);
  }

  std::printf(
      "\nExpected shape (paper): all speedups > 1; groups ordered "
      "1 < 2 < 3 < 4 <= 5;\nGroup 6 (XLFDD) reaches or exceeds the "
      "in-memory speed. Group 2 shows the\nio_uring CPU ceiling: adding "
      "devices beyond ~1 MIOPS/core does not help.\n");
  return 0;
}
