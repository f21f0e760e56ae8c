// Microbenchmarks (google-benchmark) for the hot kernels: distance,
// dot product, LSH hashing, compound-hash folding, CRC32C, RNG, and the
// simulated-device submit/poll path. The context block names the hash and
// CRC32C kernels this CPU dispatched to, so each number can be tied to the
// path that produced it.
#include <benchmark/benchmark.h>

#include <vector>

#include "lsh/hash_family.h"
#include "lsh/hash_function.h"
#include "lsh/params.h"
#include "storage/memory_device.h"
#include "util/aligned_buffer.h"
#include "util/crc32c.h"
#include "util/distance.h"
#include "util/rng.h"

namespace e2lshos {
namespace {

void BM_SquaredL2(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<float> a(d), b(d);
  for (size_t i = 0; i < d; ++i) {
    a[i] = rng.NextFloat();
    b[i] = rng.NextFloat();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::SquaredL2(a.data(), b.data(), d));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * d * 2 * sizeof(float));
}
BENCHMARK(BM_SquaredL2)->Arg(100)->Arg(128)->Arg(420)->Arg(784)->Arg(960);

void BM_Dot(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  util::Rng rng(2);
  std::vector<float> a(d), b(d);
  for (size_t i = 0; i < d; ++i) {
    a[i] = rng.NextFloat();
    b[i] = rng.NextFloat();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Dot(a.data(), b.data(), d));
  }
  state.SetBytesProcessed(state.iterations() * d * 2 * sizeof(float));
}
BENCHMARK(BM_Dot)->Arg(128)->Arg(960);

void BM_CompoundHash32(benchmark::State& state) {
  const uint32_t d = 128;
  const uint32_t m = static_cast<uint32_t>(state.range(0));
  util::Rng rng(3);
  lsh::CompoundHash g(d, m, 4.0, rng);
  std::vector<float> p(d);
  for (auto& v : p) v = rng.NextFloat();
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.Hash32(p.data()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompoundHash32)->Arg(8)->Arg(16)->Arg(28);

// One radius of the SIFT family (d = 128, m = 20, L = 11), as the engine
// hashes a query: items are compound hashes.
void BM_HashAll(benchmark::State& state) {
  lsh::E2lshConfig cfg;
  cfg.rho = 0.233;
  auto params = lsh::ComputeParams(20000, 128, cfg);
  if (!params.ok() || params->m != 20 || params->L != 11) {
    state.SkipWithError("SIFT parameters no longer derive m = 20, L = 11");
    return;
  }
  const lsh::HashFamily family(128, *params);
  util::Rng rng(5);
  std::vector<float> p(128);
  for (auto& v : p) v = static_cast<float>(rng.Uniform(0.0, 5.66));
  std::vector<uint32_t> out(family.L());
  for (auto _ : state) {
    family.HashAll(0, p.data(), out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * family.L());
}
BENCHMARK(BM_HashAll);

void BM_Crc32c(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  util::Rng rng(6);
  std::vector<uint8_t> buf(len);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.NextU64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Crc32c(buf.data(), len));
  }
  state.SetBytesProcessed(state.iterations() * len);
}
BENCHMARK(BM_Crc32c)->Arg(512)->Arg(4096);

void BM_Fold(benchmark::State& state) {
  std::vector<int32_t> vals(28);
  for (int i = 0; i < 28; ++i) vals[i] = i * 2654435761;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lsh::CompoundHash::Fold(vals.data(), 28));
  }
}
BENCHMARK(BM_Fold);

void BM_RngGaussian(benchmark::State& state) {
  util::Rng rng(4);
  for (auto _ : state) benchmark::DoNotOptimize(rng.Gaussian());
}
BENCHMARK(BM_RngGaussian);

void BM_MemoryDeviceSubmitPoll(benchmark::State& state) {
  auto dev = storage::MemoryDevice::Create(16 << 20);
  if (!dev.ok()) {
    state.SkipWithError("device create failed");
    return;
  }
  util::AlignedBuffer buf(512);
  storage::IoCompletion comp;
  uint64_t i = 0;
  for (auto _ : state) {
    storage::IoRequest req{(i++ % 1024) * 512, 512, buf.data(), i};
    benchmark::DoNotOptimize((*dev)->SubmitRead(req));
    benchmark::DoNotOptimize((*dev)->PollCompletions(&comp, 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemoryDeviceSubmitPoll);

}  // namespace
}  // namespace e2lshos

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  using namespace e2lshos;
  benchmark::AddCustomContext("hash_kernel",
                              lsh::HashKernelName(lsh::ActiveHashKernel()));
  benchmark::AddCustomContext(
      "crc32c_kernel", util::Crc32cKernelName(util::ActiveCrc32cKernel()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
