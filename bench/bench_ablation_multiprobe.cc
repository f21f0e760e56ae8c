// Ablation (paper Sec. 2.4 / conclusion): Multi-Probe LSH on top of the
// E2LSH bucket structure. Probing T perturbed buckets per compound hash
// trades extra bucket reads for a smaller required L (index size). This
// sweep compares a full-size index (registry rho) with a half-exponent
// index driven at increasing probe counts.
#include "common.h"

#include "util/clock.h"

using namespace e2lshos;

int main(int argc, char** argv) {
  const auto args = bench::Args::Parse(argc, argv);
  const std::string name = args.dataset.empty() ? "SIFT" : args.dataset;
  auto spec = data::GetDatasetSpec(name);
  if (!spec.ok()) return 1;
  auto w = bench::MakeWorkload(*spec, args.EffectiveN(*spec), args.queries, 1);
  if (!w.ok()) return 1;

  // Small-index variant: roughly half the L of the registry tuning.
  lsh::E2lshConfig small_cfg = spec->lsh;
  small_cfg.rho = spec->lsh.rho * 0.6;
  small_cfg.x_max = w->gen.base.XMax();
  auto small_params =
      lsh::ComputeParams(w->gen.base.n(), w->gen.base.dim(), small_cfg);
  if (!small_params.ok()) return 1;

  auto full = e2lsh::InMemoryE2lsh::Build(w->gen.base, w->params);
  auto small = e2lsh::InMemoryE2lsh::Build(w->gen.base, *small_params);
  if (!full.ok() || !small.ok()) return 1;

  const lsh::E2lshParams& full_params = (*full)->params();
  const lsh::E2lshParams& fitted_small = (*small)->params();
  bench::PrintHeader(
      "Ablation: Multi-Probe LSH (" + name + "), full L=" +
          std::to_string(full_params.L) + " vs small L=" +
          std::to_string(fitted_small.L),
      {"config", "probes T", "ratio", "us/query", "index entries"});

  auto run = [&](e2lsh::InMemoryE2lsh* index, const char* label, uint32_t probes,
                 uint64_t entries) {
    std::vector<std::vector<util::Neighbor>> results(w->gen.queries.n());
    const uint64_t t0 = util::NowNs();
    for (uint64_t q = 0; q < w->gen.queries.n(); ++q) {
      results[q] = probes == 0
                       ? index->Search(w->gen.queries.Row(q), 1)
                       : index->SearchMultiProbe(w->gen.queries.Row(q), 1, probes);
    }
    const double us = static_cast<double>(util::NowNs() - t0) /
                      static_cast<double>(w->gen.queries.n()) / 1e3;
    bench::PrintRow({label, std::to_string(probes),
                     bench::Fmt(data::MeanOverallRatio(w->gt, results, 1), 3),
                     bench::Fmt(us, 1), std::to_string(entries)});
  };

  // Each index fits its own ladder: count the rungs it built.
  const uint64_t full_entries =
      w->n() * full_params.L * full_params.num_radii();
  const uint64_t small_entries =
      w->n() * fitted_small.L * fitted_small.num_radii();
  run(full->get(), "full-L plain", 0, full_entries);
  for (const uint32_t probes : {0u, 2u, 4u, 8u, 16u, 32u}) {
    run(small->get(), "small-L multiprobe", probes, small_entries);
  }
  std::printf(
      "\nExpected shape: the small index with enough probes approaches the "
      "full\nindex's accuracy at a fraction of the index entries — the "
      "near-linear-index\nregime the paper's conclusion expects to also "
      "benefit from fast storage.\n");
  return 0;
}
