// Reproduces Table 3: storage access interfaces and their CPU overhead —
// the CPU time one core spends issuing a single I/O request and the
// reciprocal max IOPS/core. Measured by driving an instant (in-memory)
// device through each interface model, so all time is interface cost.
#include "common.h"

#include "util/aligned_buffer.h"
#include "util/clock.h"

using namespace e2lshos;

int main(int argc, char** argv) {
  const auto args = bench::Args::Parse(argc, argv);
  const uint64_t reads = args.fast ? 20000 : 100000;

  bench::PrintHeader("Table 3: storage interfaces and their CPU overhead",
                     {"Interface", "CPU time per I/O (paper)",
                      "Max IOPS/core (paper)"});

  struct Ref {
    storage::InterfaceKind kind;
    const char* paper_time;
    const char* paper_iops;
  };
  const Ref refs[] = {
      {storage::InterfaceKind::kIoUring, "1.0 usec", "1.0 MIOPS"},
      {storage::InterfaceKind::kSpdk, "350 nsec", "2.9 MIOPS"},
      {storage::InterfaceKind::kXlfdd, "50 nsec", "20 MIOPS"},
  };

  auto dev = storage::SimulatedDevice::Create(
      storage::MemoryModel(16 << 20, /*queue_capacity=*/8192));
  if (!dev.ok()) return 1;
  util::AlignedBuffer buf(512);
  std::vector<storage::IoCompletion> comps(256);

  // Baseline: raw device submit+poll cost without any interface model.
  uint64_t t0 = util::NowNs();
  for (uint64_t i = 0; i < reads; ++i) {
    storage::IoRequest req{(i % 1024) * 512, 512, buf.data(), i};
    (void)(*dev)->SubmitRead(req);
    (void)(*dev)->PollCompletions(comps.data(), comps.size());
  }
  const double base_ns = static_cast<double>(util::NowNs() - t0) /
                         static_cast<double>(reads);

  for (const auto& ref : refs) {
    storage::ChargedDevice charged(dev->get(),
                                   storage::GetInterfaceSpec(ref.kind));
    t0 = util::NowNs();
    for (uint64_t i = 0; i < reads; ++i) {
      storage::IoRequest req{(i % 1024) * 512, 512, buf.data(), i};
      (void)charged.SubmitRead(req);
      (void)charged.PollCompletions(comps.data(), comps.size());
    }
    const double per_io =
        static_cast<double>(util::NowNs() - t0) / static_cast<double>(reads) -
        base_ns;
    const double max_iops = 1e9 / std::max(per_io, 1.0);
    bench::PrintRow(
        {charged.spec().name,
         bench::Fmt(per_io, 0) + " nsec (" + ref.paper_time + ")",
         bench::Fmt(max_iops / 1e6, 1) + " MIOPS (" + ref.paper_iops + ")"});
  }
  std::printf(
      "\nThe mmap-sync model (Sec. 6.5 page-cache path) charges %u ns per "
      "4 kB miss.\n",
      static_cast<unsigned>(
          storage::GetInterfaceSpec(storage::InterfaceKind::kMmapSync)
              .submit_overhead_ns));
  return 0;
}
