// Billion-scale projection: the paper's Sec. 6.3 story in miniature.
// Measures E2LSHoS (through e2lshos::Index on a simulated XL-Flash DD,
// device URI "sim:xlfdd?iface=xlfdd") and SRS query times over a
// geometric ladder of database sizes, fits power laws, and extrapolates
// both to 10^9 objects — showing why sublinear query time wins at scale
// and what index size the billion-object run would need (the paper:
// 6.1 TB on storage, ~139 GB DRAM for the database).
//
//   ./examples/billion_scale [--max-n N]
#include <cstdio>
#include <cstring>

#include "api/index.h"
#include "baselines/srs.h"
#include "data/registry.h"
#include "util/stats.h"

using namespace e2lshos;

int main(int argc, char** argv) {
  uint64_t max_n = 160000;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--max-n") == 0) max_n = std::stoull(argv[i + 1]);
  }
  auto spec = data::GetDatasetSpec("BIGANN");
  if (!spec.ok()) return 1;

  std::vector<double> xs, os_ts, srs_ts;
  std::vector<uint64_t> index_bytes;
  std::printf("%10s %14s %14s %16s\n", "n", "E2LSHoS us/q", "SRS us/q",
              "index on storage");
  for (uint64_t n = max_n / 8; n <= max_n; n *= 2) {
    auto gen = data::MakeDataset(*spec, n, 50);

    IndexSpec index_spec;
    index_spec.lsh = spec->lsh;
    index_spec.device_uri = "sim:xlfdd?iface=xlfdd";
    auto index = Index::Build(index_spec, gen.base);  // copy: SRS reuses gen
    if (!index.ok()) continue;
    SearchSpec search;
    search.contexts_per_shard = 64;
    if (!(*index)->Configure(search).ok()) continue;
    auto batch = (*index)->SearchBatch(gen.queries, 1);
    if (!batch.ok()) continue;
    const double t_os = static_cast<double>(batch->wall_ns) / gen.queries.n();

    baselines::SrsConfig srs_cfg;
    srs_cfg.max_verify = n / 20;
    auto srs = baselines::Srs::Build(gen.base, srs_cfg);
    if (!srs.ok()) continue;
    const auto sb = (*srs)->SearchBatch(gen.queries, 1);
    const double t_srs = static_cast<double>(sb.wall_ns) / gen.queries.n();

    xs.push_back(static_cast<double>(n));
    os_ts.push_back(t_os);
    srs_ts.push_back(t_srs);
    index_bytes.push_back((*index)->sizes().storage_bytes);
    std::printf("%10llu %14.1f %14.1f %15.1fM\n",
                static_cast<unsigned long long>(n), t_os / 1e3, t_srs / 1e3,
                static_cast<double>(index_bytes.back()) / (1 << 20));
  }
  if (xs.size() < 2) return 1;

  const auto os_fit = util::FitPowerLaw(xs, os_ts);
  const auto srs_fit = util::FitPowerLaw(xs, srs_ts);
  std::printf("\npower-law fits: E2LSHoS t ~ n^%.2f, SRS t ~ n^%.2f\n",
              os_fit.exponent, srs_fit.exponent);

  const double billion = 1e9;
  const double os_1b = os_fit.prefactor * std::pow(billion, os_fit.exponent);
  const double srs_1b = srs_fit.prefactor * std::pow(billion, srs_fit.exponent);
  // Index bytes scale ~ n^(1+rho) with the same rho as L.
  const auto idx_fit = util::FitPowerLaw(
      xs, std::vector<double>(index_bytes.begin(), index_bytes.end()));
  const double idx_1b = idx_fit.prefactor * std::pow(billion, idx_fit.exponent);

  std::printf(
      "\nextrapolation to n = 1e9:\n"
      "  E2LSHoS : %8.2f ms/query   (paper measures ~tens of ms-class at "
      "1B)\n"
      "  SRS     : %8.2f ms/query   (linear growth)\n"
      "  speedup : %8.1fx           (paper reports ~100x at 1B)\n"
      "  index   : %8.1f TB on storage (paper: 6.1 TB)\n",
      os_1b / 1e6, srs_1b / 1e6, srs_1b / os_1b, idx_1b / 1e12);
  std::printf(
      "\nDRAM stays at the database size plus megabytes of bitmap and "
      "head addresses —\nthe index size limit of in-memory E2LSH no "
      "longer applies.\n");
  return 0;
}
