// Reproduces Table 6: index size and runtime memory usage of E2LSHoS vs
// SRS. E2LSHoS places the large index on storage and keeps only the
// non-empty-slot bitmap with its rank directory, one head address per
// hash table (+ hash functions) in DRAM — where the paper keeps the hash
// table addresses — so its runtime memory usage, database + small index
// remainder, is comparable to SRS.
#include "common.h"

using namespace e2lshos;

int main(int argc, char** argv) {
  const auto args = bench::Args::Parse(argc, argv);

  bench::PrintHeader(
      "Table 6: index size and runtime memory usage",
      {"Dataset", "E2LSHoS index (storage)", "E2LSHoS mem usage",
       "(index mem)", "SRS mem usage", "(index mem)", "in-mem E2LSH index"});

  for (const auto& spec : data::PaperDatasets()) {
    if (!args.dataset.empty() && spec.name != args.dataset) continue;
    auto w = bench::MakeWorkload(spec, args.EffectiveN(spec), args.queries, 1);
    if (!w.ok()) continue;

    auto dev = storage::SimulatedDevice::Create(storage::MemoryModel(8ULL << 30));
    if (!dev.ok()) continue;
    auto idx = core::IndexBuilder::Build(w->gen.base, w->params, dev->get());
    if (!idx.ok()) {
      std::fprintf(stderr, "%s: %s\n", spec.name.c_str(),
                   idx.status().ToString().c_str());
      continue;
    }
    auto srs = baselines::Srs::Build(w->gen.base, {});
    if (!srs.ok()) continue;
    auto mem = e2lsh::InMemoryE2lsh::Build(w->gen.base, w->params);
    if (!mem.ok()) continue;

    const auto sizes = (*idx)->sizes();
    const uint64_t db = w->gen.base.SizeBytes();
    bench::PrintRow({spec.name, bench::FmtBytes(sizes.storage_bytes),
                     bench::FmtBytes(db + sizes.dram_index_bytes),
                     "(" + bench::FmtBytes(sizes.dram_index_bytes) + ")",
                     bench::FmtBytes(db + (*srs)->IndexMemoryBytes()),
                     "(" + bench::FmtBytes((*srs)->IndexMemoryBytes()) + ")",
                     bench::FmtBytes((*mem)->IndexMemoryBytes())});
  }
  std::printf(
      "\nExpected shape (paper): the on-storage index dwarfs both methods' "
      "DRAM\nfootprints; E2LSHoS memory usage is close to SRS (database "
      "dominates); the\nlast column is what in-memory E2LSH would have to "
      "hold in DRAM instead.\n");
  return 0;
}
