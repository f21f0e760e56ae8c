// Reproduces the paper's Sec. 7 endurance discussion in numbers: bytes
// written to storage for (a) a full index build and (b) per-object online
// insertion, translated into drive-life consumption for a typical
// consumer SSD endurance rating (~1.2 PB TBW for a 2 TB class drive).
#include "common.h"

#include "core/updater.h"

using namespace e2lshos;

int main(int argc, char** argv) {
  const auto args = bench::Args::Parse(argc, argv);
  const std::string name = args.dataset.empty() ? "SIFT" : args.dataset;
  auto spec = data::GetDatasetSpec(name);
  if (!spec.ok()) return 1;
  auto w = bench::MakeWorkload(*spec, args.EffectiveN(*spec), args.queries, 1);
  if (!w.ok()) return 1;

  auto dev = storage::MemoryDevice::Create(8ULL << 30);
  if (!dev.ok()) return 1;
  auto idx = core::IndexBuilder::Build(w->gen.base, w->params, dev->get());
  if (!idx.ok()) return 1;
  const uint64_t build_bytes = dev->get()->stats().bytes_written;

  // Online inserts: append 200 fresh objects.
  core::IndexUpdater updater(idx->get());
  data::Dataset& base = w->gen.base;
  const uint32_t start = static_cast<uint32_t>(base.n());
  util::Rng rng(4242);
  std::vector<float> p(base.dim());
  uint32_t inserted = 0;
  for (uint32_t i = 0; i < 200; ++i) {
    const float* src = base.Row(rng.NextU64Below(start));
    for (uint32_t j = 0; j < base.dim(); ++j) {
      p[j] = src[j] + static_cast<float>(rng.Gaussian(0.0, 0.01));
    }
    base.Append(p.data());
    if (!updater.Insert(base, start + i).ok()) break;
    ++inserted;
  }
  const double per_insert =
      inserted ? static_cast<double>(updater.bytes_written()) / inserted : 0;

  constexpr double kTbwBytes = 1.2e15;  // typical 2 TB-class cSSD warranty
  bench::PrintHeader("Sec. 7: storage endurance accounting (" + name + ")",
                     {"operation", "bytes written", "ops per drive life"});
  bench::PrintRow({"full index build (n=" + std::to_string(w->n()) + ")",
                   bench::FmtBytes(build_bytes),
                   bench::Fmt(kTbwBytes / static_cast<double>(build_bytes), 0)});
  bench::PrintRow({"single object insert",
                   bench::FmtBytes(static_cast<uint64_t>(per_insert)),
                   bench::Fmt(kTbwBytes / std::max(1.0, per_insert), 0)});
  std::printf(
      "\nExpected shape (paper Sec. 7): \"the impact of object insertion "
      "and deletion\nis small\" — single inserts cost ~L*r blocks, plus "
      "one for each full head that\nmoves off its rank address (format "
      "v4); full rebuilds are the expensive operation\nto do sparingly. "
      "Deletions are DRAM tombstones: zero storage writes.\n");
  return 0;
}
