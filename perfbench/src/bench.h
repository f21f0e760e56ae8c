// Shared pieces of the steady benchmark: workload settings, seeded
// inputs, answer checks, latency summaries, the span recorder of the
// traced run, and the result line.
//
// The benchmark drives the system only through its public classes
// (e2lshos::Index, net::Daemon/net::Client, core::ShardedQueryEngine/
// StreamingServer, storage::OpenDeviceUri, lsh::HashFamily and the util
// kernels); every span is recorded from this directory's code around a
// call into one of them.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/index.h"
#include "data/dataset.h"
#include "data/ground_truth.h"
#include "util/topk.h"

namespace perfbench {

using e2lshos::util::Neighbor;

// ---------------------------------------------------------------------------
// Fixed settings. The same values are listed in BENCHMARK.json's "why"
// lines and in perfbench/README.md.
// ---------------------------------------------------------------------------

inline constexpr uint64_t kN = 20000;          ///< Base rows (SIFT-like).
inline constexpr uint32_t kDim = 128;
inline constexpr uint32_t kK = 10;
inline constexpr uint32_t kShards = 2;
inline constexpr uint32_t kTemplates = 1024;   ///< Query templates.
inline constexpr double kZipfTheta = 1.0;
inline constexpr double kLoQps = 1000.0;       ///< Open-loop rates.
inline constexpr double kHiQps = 2000.0;
inline constexpr uint32_t kFrameCap = 64;      ///< Queries per frame.
inline constexpr uint32_t kQueryConns = 3;     ///< Load connections.
inline constexpr double kWriteOpsPerSec = 8.0; ///< Writer pace.
inline constexpr uint32_t kInsertRows = 2;     ///< Rows per write op.
inline constexpr uint32_t kRemoveIds = 1;      ///< Ids removed per op.
inline constexpr uint32_t kSetupReps = 3;      ///< Set-ups per run.
inline constexpr const char* kIndexName = "bench";  ///< Served index name.
/// Open-loop latency percentiles are taken over this many windows of a
/// leg, closed-loop rates over this many windows of each segment;
/// write-op percentiles over kUpdateWindows
/// windows of each leg that times write ops (a leg holds 48-64 of them).
/// Host stalls on a shared VM come in bursts lasting seconds (README.md).
inline constexpr uint32_t kWindows = 10;
inline constexpr uint32_t kUpdateWindows = 8;
/// Which quantile across the windows' latency percentiles is reported.
inline constexpr double kAcrossWindows = 0.25;
/// The timed read legs (closed, lo, hi) run as this many rounds of one
/// segment each, so a phase of the host lasting seconds falls on every
/// leg and on a minority of each leg's windows instead of on one whole
/// leg.
inline constexpr uint32_t kRounds = 4;
/// A generator whose median send lateness over the last tenth of an
/// open-loop segment exceeds this fell behind (its backlog did not drain):
/// the run is invalid, its latencies would measure the generator.
inline constexpr double kMaxBacklogLateUs = 50000.0;

struct Workload {
  std::string name;
  std::string uri;           ///< Device URI the index is built on.
  bool zipf = false;         ///< Zipf over the templates, else uniform.
  bool writes_beside = false;  ///< Writer runs during the read legs.
  /// Shares of --seconds per timed leg; writes_share is the write-alone
  /// leg (0 when the writer runs beside the reads).
  double closed_share = 0, lo_share = 0, hi_share = 0, write_share = 0;
};

const Workload* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// ---------------------------------------------------------------------------
// Seeded inputs.
// ---------------------------------------------------------------------------

uint64_t MixSeed(uint64_t seed, uint64_t stream);

struct Inputs {
  e2lshos::data::Dataset base;       ///< kN rows.
  e2lshos::data::Dataset templates;  ///< kTemplates query points.
  e2lshos::data::Dataset insert_pool;  ///< Fresh rows for write ops.
  std::vector<uint32_t> remove_pool;   ///< Distinct base ids to remove.
  e2lshos::data::GroundTruth gt;       ///< Exact top-k of templates.
  e2lshos::lsh::E2lshConfig lsh;
  std::vector<double> zipf_cdf;
  uint64_t seed = 0;

  /// Template index for draw `i` of stream `stream` (uniform or Zipf).
  uint32_t Draw(bool zipf, uint64_t stream, uint64_t i) const;
};

Inputs MakeInputs(uint64_t seed, uint32_t write_ops);

// ---------------------------------------------------------------------------
// Answer checks and accounting (shared by every leg; thread-safe).
// ---------------------------------------------------------------------------

struct Tally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> failed{0};      ///< Failed/shed/partial + mismatches.
  std::atomic<uint64_t> mismatches{0};  ///< Answer-check failures.
  std::mutex mu;
  std::vector<std::string> errors;      ///< First few, for the report.
  void Fail(const std::string& what, bool mismatch);
};

/// Check one answer: at most k ids, each below `n_bound`, sorted by
/// distance. Returns false (and records a mismatch) when it is not.
bool CheckAnswer(const std::vector<Neighbor>& ans, uint64_t n_bound, Tally* t);

/// Recall@k and the paper's overall ratio, accumulated per answer.
struct Accuracy {
  std::mutex mu;
  double recall_sum = 0, ratio_sum = 0;
  uint64_t count = 0;
  /// `id_map` (optional) maps the ground truth's row ids to index ids.
  void Add(const e2lshos::data::GroundTruth& gt, uint32_t q,
           const std::vector<Neighbor>& ans,
           const std::vector<uint32_t>* id_map = nullptr);
  double recall() const { return count ? recall_sum / count : 0; }
  double ratio() const { return count ? ratio_sum / count : 0; }
};

// ---------------------------------------------------------------------------
// Latency summaries.
// ---------------------------------------------------------------------------

/// Nearest-rank quantile of `v` (sorted in place); 0 when empty.
double Quantile(std::vector<double>* v, double q);
double Median(std::vector<double> v);
/// Lower quartile (kAcrossWindows) over consecutive windows of `window`
/// samples (in arrival order) of each window's q-quantile: host stalls
/// that hit up to three quarters of the windows do not move it, a
/// slowdown of every window does.
double WindowedQuantile(const std::vector<double>& in_order, size_t window,
                        double q);

struct LegResult {
  std::string name;
  uint64_t t_start = 0, t_end = 0;  ///< Steady-clock span of the leg (ns).
  double seconds = 0;            ///< Measured wall time of the leg.
  uint64_t answered = 0;
  std::vector<double> lat_ms;    ///< Per query; failures = +inf.
  std::vector<double> late_us;   ///< Open loop: send - due.
  std::vector<double> update_ms; ///< Write ops: due -> remove ack.
  /// Closed loop: answered queries per second in each of kWindows equal
  /// time windows of each segment.
  std::vector<double> window_qps;
  double qps() const { return seconds > 0 ? answered / seconds : 0; }
  /// Open loop: median lateness over the last tenth of the schedule (of
  /// each segment; the largest one for a merged leg).
  double backlog_late_us = 0;
};

/// Print p50/p90/p99/p99.9 with sample counts for one leg.
void PrintLeg(const LegResult& leg);

// ---------------------------------------------------------------------------
// Spans (traced run only). Each thread appends to its own buffer; the
// buffers are merged, written out and folded into per-layer self time
// when the run ends.
// ---------------------------------------------------------------------------

struct Span {
  const char* leg = "";   ///< Load leg the span was recorded in.
  const char* name = "";
  uint64_t start = 0, end = 0;
  uint64_t parent = 0;  ///< Span id of the parent; 0 = root.
  uint64_t req = 0;     ///< Request id (frame, op, query or shard).
};

class Tracer {
 public:
  bool on() const { return on_; }
  void Enable() { on_ = true; }
  /// Label recorded into every following span (a string literal).
  void SetLeg(const char* leg) { leg_.store(leg); }
  /// Record a span; returns its id (never 0), or 0 when tracing is off.
  uint64_t Add(const char* name, uint64_t start, uint64_t end,
               uint64_t parent, uint64_t req);
  /// Write every span as TSV and fold them into totals keyed by
  /// "leg/name".
  struct Layer {
    uint64_t count = 0, children = 0;
    double self_ns = 0;
    std::vector<double> self_us, dur_us;  ///< Per span, for percentiles.
  };
  std::map<std::string, Layer> Fold(const std::string& tsv_path);
  uint64_t size() const;

 private:
  struct Buffer {
    uint64_t no = 0;
    std::vector<Span> spans;
  };
  Buffer* Local();
  bool on_ = false;
  std::atomic<const char*> leg_{""};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

Tracer& GlobalTracer();

// ---------------------------------------------------------------------------
// Result line.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value = 0;
};

class Report {
 public:
  void Set(const std::string& name, const std::string& unit, double value);
  const std::vector<Metric>& metrics() const { return metrics_; }
  /// Human-readable lines, then the one-line JSON result.
  void Print(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

/// One yield-loop thread per online CPU for the object's lifetime. On a
/// VM, a halted vCPU can take milliseconds to resume when the host is
/// busy, so every sleep/wake hop of the program (socket reads, future
/// waits, the micro-batcher's idle sleeps) would otherwise carry the
/// hypervisor's wake-up latency instead of the program's own. A thread
/// that only calls sched_yield() keeps its vCPU resident and hands the
/// CPU to any runnable thread at once.
class KeepWarm {
 public:
  KeepWarm();
  ~KeepWarm();
  KeepWarm(const KeepWarm&) = delete;
  KeepWarm& operator=(const KeepWarm&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Keep a computed value alive so a timed loop is not optimized away.
inline void KeepAlive(uint64_t v) { asm volatile("" : : "g"(v) : "memory"); }

/// Fixed CPU loop; returns its wall time in ms (host-speed probe).
double HostProbeMs();
/// Peak resident set of this process, in MB.
double PeakRssMb();
double NowS();

}  // namespace perfbench
