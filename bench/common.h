// Shared harness for the per-table / per-figure benchmark binaries.
//
// Every bench binary regenerates one table or figure of the paper: it
// sets up the scaled workloads from the dataset registry, runs the
// relevant methods across their accuracy knobs, and prints the same rows
// or series the paper reports (TSV-style, one block per table/figure).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/qalsh.h"
#include "baselines/srs.h"
#include "core/builder.h"
#include "core/query_engine.h"
#include "data/ground_truth.h"
#include "data/registry.h"
#include "e2lsh/in_memory.h"
#include "storage/device_registry.h"
#include "storage/interface_model.h"
#include "storage/simulated_device.h"
#include "storage/striped_device.h"
#include "util/jsonl.h"

namespace e2lshos::bench {

/// \brief Common command-line flags: --dataset NAME, --n N, --queries Q,
/// --shards S (multi-core sharded mode where supported), --json PATH
/// (machine-readable JSONL rows alongside the TSV tables), --device URI
/// (run the bench's real-SSD mode on a file:/uring: backend — e.g.
/// `--device uring:?direct=1&sqpoll=1`; the path may be omitted, each
/// bench then supplies its default under /tmp), --fast (quarter-scale),
/// --help. The URI vocabulary is storage::ParseDeviceUri — the same
/// string the CLI's --device takes.
struct Args {
  std::string dataset;
  std::string json;         // empty = no JSONL output
  std::string device;       // device URI; empty = simulated stacks only
  uint64_t n = 0;           // 0 = registry default
  uint64_t queries = 0;     // 0 = registry default
  uint32_t shards = 0;      // 0 = sharded mode off
  uint64_t deadline_us = 0; // 0 = no load shedding (serving benches)
  bool fast = false;

  static Args Parse(int argc, char** argv);
  /// Effective n for a spec: explicit --n, else default (quartered by --fast).
  uint64_t EffectiveN(const data::DatasetSpec& spec) const;
  /// Open the --json sink; nullptr when the flag is absent (a failed
  /// open warns and also returns nullptr, so benches never abort on it).
  std::unique_ptr<util::JsonlWriter> OpenJson() const;
  /// The backing-file path of the --device URI, defaulting to a
  /// per-bench file under /tmp when the URI carries none (so
  /// `--device file:` and `--device uring:?direct=1` just work).
  std::string EffectiveDevicePath(const std::string& bench_name) const;
};

/// \brief One measured point of a real-device random-read sweep.
struct MeasuredIops {
  uint32_t block_bytes = 0;
  uint32_t queue_depth = 0;
  uint64_t reads = 0;
  double kiops = 0;
  double mbps = 0;
  double mean_lat_us = 0;
  double p99_lat_us = 0;
};

struct IopsBenchOptions {
  uint32_t block_bytes = 512;
  uint32_t queue_depth = 32;
  uint64_t duration_ms = 400;
  /// Read offsets are drawn from [0, span_bytes); 0 = whole device.
  uint64_t span_bytes = 0;
  /// Optional caller-owned destination arena (>= queue_depth *
  /// block_bytes). Pass the region you registered with
  /// UringDevice::RegisterBuffers to measure the fixed-buffer path; when
  /// null an internal arena is used.
  uint8_t* arena = nullptr;
  size_t arena_bytes = 0;
  uint64_t seed = 42;
};

/// Saturating random-read benchmark: keeps `queue_depth` reads in flight
/// on `dev` for `duration_ms`, then drains. Resets device stats.
Result<MeasuredIops> MeasureRandomReadIops(storage::BlockDevice* dev,
                                           const IopsBenchOptions& options);

/// Write `bytes` of deterministic noise to [0, bytes) of `dev` (1 MiB
/// aligned chunks, safe for direct-mode targets).
Status FillDeviceWithNoise(storage::BlockDevice* dev, uint64_t bytes);

/// Create the --device URI's backing file (at `path` when the URI names
/// none) sized for `bytes`. The URI must be file: or uring:. With
/// `fill_noise` (the raw-IOPS benches) the file is filled with noise so
/// random reads hit real extents; callers that immediately
/// CopyIndexImage over it pass false and skip the redundant write pass.
/// Returns InvalidArgument for a malformed or non-file URI,
/// Unimplemented when the backend cannot run here.
Result<std::unique_ptr<storage::BlockDevice>> MakeRealDevice(
    const Args& args, const std::string& path, uint64_t bytes,
    uint32_t queue_capacity = 1024, bool fill_noise = true);

/// \brief A fully prepared workload: data, queries, ground truth, params.
struct Workload {
  data::DatasetSpec spec;
  data::GeneratedData gen;
  data::GroundTruth gt;
  lsh::E2lshParams params;

  uint64_t n() const { return gen.base.n(); }
  uint32_t dim() const { return gen.base.dim(); }
};

/// Prepare one dataset: generate, compute exact top-gt_k, derive params.
Result<Workload> MakeWorkload(const data::DatasetSpec& spec, uint64_t n_override,
                              uint64_t nq_override, uint32_t gt_k);

/// \brief One point of an accuracy/performance sweep.
struct SweepPoint {
  double knob = 0;          ///< The knob value that produced this point.
  double ratio = 0;         ///< Mean overall ratio (accuracy).
  double query_ns = 0;      ///< Mean wall time per query.
  double qps = 0;
  double mean_ios = 0;      ///< E2LSH(oS) only: I/Os per query.
  double mean_radii = 0;    ///< E2LSH(oS) only.
  double compute_ns = 0;    ///< E2LSH(oS) only: CPU in hash+distance.
  double io_cpu_ns = 0;     ///< E2LSHoS only: CPU in I/O submission.
};

/// Default knob grids.
std::vector<double> DefaultSFactors();       // E2LSH(oS): S = f * L
std::vector<double> DefaultSrsFractions();   // SRS: T' = f * n
std::vector<double> DefaultQalshCs();        // QALSH: approximation ratio

/// Sweep in-memory E2LSH over candidate-cap factors.
std::vector<SweepPoint> SweepInMemory(e2lsh::InMemoryE2lsh* index,
                                      const Workload& w, uint32_t k,
                                      const std::vector<double>& s_factors);

/// Sweep E2LSHoS over candidate-cap factors (engine options fixed).
std::vector<SweepPoint> SweepOs(core::StorageIndex* index, const Workload& w,
                                uint32_t k, const core::EngineOptions& opts,
                                const std::vector<double>& s_factors,
                                storage::ChargedDevice* charged = nullptr);

/// Sweep SRS over verification budgets (fractions of n).
std::vector<SweepPoint> SweepSrs(const Workload& w, uint32_t k,
                                 const std::vector<double>& fractions);

/// Sweep QALSH over approximation ratios.
std::vector<SweepPoint> SweepQalsh(const Workload& w, uint32_t k,
                                   const std::vector<double>& cs);

/// \brief One accuracy point with the full I/O profile needed by the
/// Sec. 4.3/4.4 analysis (Figs. 3-8): per-bucket read sizes let us price
/// any block size B after the fact.
struct IoProfilePoint {
  double s_factor = 0;
  double ratio = 0;
  double e2lsh_query_ns = 0;       ///< In-memory E2LSH query time (T_E2LSH).
  uint64_t num_queries = 0;
  uint64_t buckets_probed = 0;     ///< Across all queries.
  std::vector<uint32_t> bucket_read_sizes;

  /// N_IO with unlimited block size.
  double IoInf() const;
  /// N_IO with objects_per_io entries per bucket read (paper Fig. 3 uses
  /// 4-byte entries: objects_per_io = B / 4).
  double IoAt(uint32_t objects_per_io) const;
};

/// Profile in-memory E2LSH across candidate-cap factors.
std::vector<IoProfilePoint> ProfileInMemoryIo(e2lsh::InMemoryE2lsh* index,
                                              const Workload& w, uint32_t k,
                                              const std::vector<double>& s_factors);

/// Interpolate the query time (ns) a sweep achieves at a target overall
/// ratio; falls back to the most accurate point when the target is out of
/// reach (the paper reports at ratio 1.05).
double QueryNsAtRatio(const std::vector<SweepPoint>& sweep, double target);

/// Same for an arbitrary field extracted by `get`.
double FieldAtRatio(const std::vector<SweepPoint>& sweep, double target,
                    double SweepPoint::*field);

/// \brief A storage stack: devices (optionally striped), wrapped in an
/// interface cost model.
struct StorageStack {
  std::unique_ptr<storage::BlockDevice> raw;  // device or stripe set
  std::unique_ptr<storage::ChargedDevice> charged;
  std::string name;
  storage::BlockDevice* device() { return charged.get(); }
};

/// Build a stack of `count` devices of `kind` behind `iface`.
Result<StorageStack> MakeStack(storage::DeviceKind kind, uint32_t count,
                               storage::InterfaceKind iface,
                               uint32_t queue_capacity = 1024);

/// A core::ShardOptions::wrap_shard_device hook that wraps each shard's
/// queue pair in a ChargedDevice, so every shard pays `iface`'s per-core
/// submission cost on its own core.
std::function<std::unique_ptr<storage::BlockDevice>(
    std::unique_ptr<storage::BlockDevice>)>
ChargeWrapper(storage::InterfaceKind iface);

/// Copy a built index byte image from one device to another (so one build
/// can be benchmarked on many storage configurations).
Status CopyIndexImage(storage::BlockDevice* src, storage::BlockDevice* dst,
                      uint64_t bytes);

/// Pretty printing: pipe-separated header + rows with fixed precision.
void PrintHeader(const std::string& title, const std::vector<std::string>& cols);
void PrintRow(const std::vector<std::string>& cells);
std::string Fmt(double v, int precision = 2);
std::string FmtBytes(uint64_t bytes);

}  // namespace e2lshos::bench
