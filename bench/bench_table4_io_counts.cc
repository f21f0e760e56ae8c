// Reproduces Table 4: per-dataset E2LSH hash/radius statistics and the
// average number of I/Os per query N_IO,inf (block size unlimited):
// L compound hashes, total radii r, average searched radii r-bar, and
// 2 I/Os per non-empty probed bucket. This is the paper's I/O model (a
// hash-table read, then the bucket); the engine's format v4 computes
// chain heads in DRAM and issues 1 I/O per probed bucket plus overflow
// blocks. r and r-bar count the ladder the index built, whose bottom is
// fitted to the data (README, "Deviations from the paper").
#include "common.h"

using namespace e2lshos;

int main(int argc, char** argv) {
  const auto args = bench::Args::Parse(argc, argv);

  bench::PrintHeader("Table 4: Average number of hash bucket reads per query",
                     {"Dataset", "L", "total radii r", "avg radii r-bar",
                      "N_IO,inf", "candidates/query", "ratio"});

  for (const auto& spec : data::PaperDatasets()) {
    if (!args.dataset.empty() && spec.name != args.dataset) continue;
    auto w = bench::MakeWorkload(spec, args.EffectiveN(spec), args.queries, 1);
    if (!w.ok()) {
      std::fprintf(stderr, "%s: %s\n", spec.name.c_str(),
                   w.status().ToString().c_str());
      continue;
    }
    auto index = e2lsh::InMemoryE2lsh::Build(w->gen.base, w->params);
    if (!index.ok()) continue;
    const auto batch = (*index)->SearchBatch(w->gen.queries, 1);
    const lsh::E2lshParams& params = (*index)->params();

    uint64_t cands = 0;
    for (const auto& s : batch.stats) cands += s.candidates;
    bench::PrintRow(
        {spec.name, std::to_string(params.L),
         std::to_string(params.num_radii()), bench::Fmt(batch.MeanRadii()),
         bench::Fmt(batch.MeanIosInfiniteBlock(), 1),
         bench::Fmt(static_cast<double>(cands) / batch.stats.size(), 1),
         bench::Fmt(data::MeanOverallRatio(w->gt, batch.results, 1), 3)});
  }
  std::printf(
      "\nPaper reference (n up to 1e9): L 16-51, r 4-13, r-bar 1.7-11.6,\n"
      "N_IO,inf 48.7-791. Our scaled n trims L = n^rho and r-bar "
      "proportionally;\nthe shape (hundreds of I/Os at full scale) is what "
      "matters.\n");
  return 0;
}
