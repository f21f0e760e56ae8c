// Ablation (DESIGN.md): the table-index width u vs fingerprint width
// (32 - u) trade-off of Sec. 5.2. Smaller u shrinks the DRAM index (the
// non-empty-slot bitmap and its rank directory, which locate every chain
// head in format v4) and densifies bucket chains, but merges more
// distinct compound values per slot; the fingerprints must then reject
// the extra entries. We sweep u and report DRAM index size, chain
// occupancy, fingerprint rejections, I/Os, query time, and accuracy —
// all on the same dataset and hash family.
#include "common.h"

using namespace e2lshos;

int main(int argc, char** argv) {
  const auto args = bench::Args::Parse(argc, argv);
  const std::string name = args.dataset.empty() ? "SIFT" : args.dataset;
  auto spec = data::GetDatasetSpec(name);
  if (!spec.ok()) return 1;
  auto w = bench::MakeWorkload(*spec, args.EffectiveN(*spec), args.queries, 1);
  if (!w.ok()) return 1;

  bench::PrintHeader(
      "Ablation: table bits u vs fingerprint (n=" + std::to_string(w->n()) +
          ", " + name + ")",
      {"u", "DRAM index", "buckets", "fp rejects/query", "I/Os/query",
       "query us", "ratio"});

  for (uint32_t u = 10; u <= 18; u += 2) {
    auto dev = storage::SimulatedDevice::Create(storage::MemoryModel(8ULL << 30));
    if (!dev.ok()) continue;
    core::BuildOptions opt;
    opt.table_bits = u;
    auto idx = core::IndexBuilder::Build(w->gen.base, w->params, dev->get(), opt);
    if (!idx.ok()) continue;
    core::QueryEngine engine(idx->get(), &w->gen.base);
    auto batch = engine.SearchBatch(w->gen.queries, 1);
    if (!batch.ok()) continue;

    uint64_t rejects = 0;
    for (const auto& s : batch->stats) rejects += s.fp_rejects;
    const auto sizes = (*idx)->sizes();
    bench::PrintRow(
        {std::to_string(u), bench::FmtBytes(sizes.dram_index_bytes),
         bench::FmtBytes(sizes.bucket_bytes),
         bench::Fmt(static_cast<double>(rejects) / w->gen.queries.n(), 1),
         bench::Fmt(batch->MeanIos(), 1),
         bench::Fmt(static_cast<double>(batch->wall_ns) / w->gen.queries.n() / 1e3,
                    1),
         bench::Fmt(data::MeanOverallRatio(w->gt, batch->results, 1), 3)});
  }
  std::printf(
      "\nExpected shape: accuracy is u-invariant (fingerprints restore "
      "32-bit\nprecision); small u inflates rejects and per-bucket scan "
      "cost, large u\ninflates the DRAM bitmap and rank directory (2^u bits "
      "per table). The\npaper picks u slightly below log2(n).\n");
  return 0;
}
