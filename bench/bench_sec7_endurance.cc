// Reproduces the paper's Sec. 7 endurance discussion in numbers: bytes
// written to storage for (a) a full index build, (b) one online insert
// and (c) the save that folds inserted rows into the chain heads,
// translated into drive-life consumption for a typical consumer SSD
// endurance rating (~1.2 PB TBW for a 2 TB class drive). Exits non-zero
// when an insert or the save fails.
#include <cstdio>

#include "common.h"
#include "core/live_updater.h"

using namespace e2lshos;

int main(int argc, char** argv) {
  const auto args = bench::Args::Parse(argc, argv);
  const std::string name = args.dataset.empty() ? "SIFT" : args.dataset;
  auto spec = data::GetDatasetSpec(name);
  if (!spec.ok()) return 1;
  auto w = bench::MakeWorkload(*spec, args.EffectiveN(*spec), args.queries, 1);
  if (!w.ok()) return 1;

  auto dev = storage::SimulatedDevice::Create(storage::MemoryModel(8ULL << 30));
  if (!dev.ok()) return 1;
  auto idx = core::IndexBuilder::Build(w->gen.base, w->params, dev->get());
  if (!idx.ok()) return 1;
  const uint64_t build_bytes = dev->get()->stats().bytes_written;

  // Online inserts of 200 fresh objects, then one save: Flush is the
  // device half of Index::Save (the meta file is not device bytes).
  constexpr uint32_t kInserts = 200;
  core::LiveUpdater live(idx->get());
  const data::Dataset& base = w->gen.base;
  util::Rng rng(4242);
  std::vector<float> p(base.dim());
  for (uint32_t i = 0; i < kInserts; ++i) {
    const float* src = base.Row(rng.NextU64Below(base.n()));
    for (uint32_t j = 0; j < base.dim(); ++j) {
      p[j] = src[j] + static_cast<float>(rng.Gaussian(0.0, 0.01));
    }
    const auto id = live.Insert(p.data());
    if (!id.ok()) {
      std::fprintf(stderr, "insert %u failed: %s\n", i,
                   id.status().ToString().c_str());
      return 1;
    }
  }
  const uint64_t insert_bytes = live.counters().staged_bytes;
  if (const Status st = live.Flush(); !st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const uint64_t save_bytes = live.counters().staged_bytes - insert_bytes;
  const double per_insert = static_cast<double>(insert_bytes) / kInserts;
  const double save_per_row = static_cast<double>(save_bytes) / kInserts;

  constexpr double kTbwBytes = 1.2e15;  // typical 2 TB-class cSSD warranty
  bench::PrintHeader("Sec. 7: storage endurance accounting (" + name + ")",
                     {"operation", "bytes written", "ops per drive life"});
  bench::PrintRow({"full index build (n=" + std::to_string(w->n()) + ")",
                   bench::FmtBytes(build_bytes),
                   bench::Fmt(kTbwBytes / static_cast<double>(build_bytes), 0)});
  bench::PrintRow({"single object insert",
                   bench::FmtBytes(static_cast<uint64_t>(per_insert)),
                   bench::Fmt(kTbwBytes / std::max(1.0, per_insert), 0)});
  bench::PrintRow({"save after " + std::to_string(kInserts) +
                       " inserts, per row",
                   bench::FmtBytes(static_cast<uint64_t>(save_per_row)),
                   bench::Fmt(kTbwBytes / std::max(1.0, save_per_row), 0)});
  std::printf(
      "\nExpected shape (paper Sec. 7): \"the impact of object insertion "
      "and deletion\nis small\" — an insert writes ~L*r blocks (each head "
      "copied on write, plus a\ncopy of each full head it moves off its "
      "rank address); a save writes each\nredirected head back at its rank "
      "address once, however many rows it took.\nCopied-on-write blocks "
      "stay allocated until compaction. Full rebuilds are the\nexpensive "
      "operation to do sparingly. Deletions are DRAM tombstones: zero "
      "storage\nwrites.\n");
  return 0;
}
