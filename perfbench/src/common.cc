#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "data/registry.h"
#include "util/clock.h"
#include "util/rng.h"

namespace perfbench {

namespace {

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const std::vector<Workload>& Table() {
  static const std::vector<Workload> table = [] {
    std::vector<Workload> t;
    Workload cssd;
    cssd.name = "cssd_uniform";
    cssd.uri = "sim:cssd?iface=io_uring";
    cssd.closed_share = 0.2;
    cssd.lo_share = 0.25;
    cssd.hi_share = 0.25;
    cssd.write_share = 0.3;
    t.push_back(cssd);

    Workload skew;
    skew.name = "skew_cache_writes";
    skew.uri = "sim:cssd?iface=io_uring&retry=3&cache=8m";
    skew.zipf = true;
    skew.writes_beside = true;
    skew.closed_share = 0.2;
    skew.lo_share = 0.4;
    skew.hi_share = 0.4;
    t.push_back(skew);

    return t;
  }();
  return table;
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Table()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const Workload& w : Table()) names.push_back(w.name);
  return names;
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t s = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  return e2lshos::util::SplitMix64(s);
}

uint32_t Inputs::Draw(bool zipf, uint64_t stream, uint64_t i) const {
  // Counter-based: draw i of a stream is a pure function of (seed,
  // stream, i), so threads need no shared generator state.
  uint64_t s = MixSeed(seed ^ (stream << 32), i + 1);
  const uint64_t x = e2lshos::util::SplitMix64(s);
  if (!zipf) return static_cast<uint32_t>(x % templates.n());
  const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
  const auto it = std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u);
  return static_cast<uint32_t>(
      std::min<size_t>(it - zipf_cdf.begin(), zipf_cdf.size() - 1));
}

Inputs MakeInputs(uint64_t seed, uint32_t write_ops) {
  namespace data = e2lshos::data;
  Inputs in;
  in.seed = seed;
  data::DatasetSpec spec = *data::GetDatasetSpec("SIFT");
  spec.gen.seed = MixSeed(seed, 1);
  in.lsh = spec.lsh;
  // x_max is the generator's value range rather than the sample's largest
  // coordinate, so the radius ladder (and the DRAM bitmap) is the same
  // for every seed.
  in.lsh.x_max = spec.gen.center_spread + 4.0 * spec.gen.cluster_std;
  const uint64_t extra = static_cast<uint64_t>(write_ops) * kInsertRows;
  data::GeneratedData gen = data::MakeDataset(spec, kN + extra, kTemplates);
  in.insert_pool = *gen.base.SplitTail(extra);
  in.base = std::move(gen.base);
  in.templates = std::move(gen.queries);
  in.gt = data::GroundTruth::Compute(in.base, in.templates, kK, 4);

  // Distinct base ids to remove, in a seeded order.
  std::vector<uint32_t> ids(kN);
  for (uint32_t i = 0; i < kN; ++i) ids[i] = i;
  e2lshos::util::Rng rng(MixSeed(seed, 2));
  const size_t want = std::min<size_t>(kN, size_t{write_ops} * kRemoveIds);
  for (size_t i = 0; i < want; ++i) {
    std::swap(ids[i], ids[i + rng.NextU64Below(kN - i)]);
  }
  in.remove_pool.assign(ids.begin(), ids.begin() + static_cast<long>(want));

  double sum = 0;
  in.zipf_cdf.resize(kTemplates);
  for (uint32_t r = 0; r < kTemplates; ++r) {
    sum += 1.0 / std::pow(r + 1.0, kZipfTheta);
    in.zipf_cdf[r] = sum;
  }
  for (double& c : in.zipf_cdf) c /= sum;
  return in;
}

void Tally::Fail(const std::string& what, bool mismatch) {
  failed.fetch_add(1, std::memory_order_relaxed);
  if (mismatch) mismatches.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu);
  if (errors.size() < 8) errors.push_back(what);
}

bool CheckAnswer(const std::vector<Neighbor>& ans, uint64_t n_bound,
                 Tally* t) {
  if (ans.size() > kK) {
    t->Fail("answer has " + std::to_string(ans.size()) + " ids", true);
    return false;
  }
  for (size_t i = 0; i < ans.size(); ++i) {
    if (ans[i].id >= n_bound) {
      t->Fail("id " + std::to_string(ans[i].id) + " >= n " +
                  std::to_string(n_bound), true);
      return false;
    }
    if (i > 0 && ans[i].dist < ans[i - 1].dist) {
      t->Fail("answer not sorted by distance", true);
      return false;
    }
  }
  return true;
}

void Accuracy::Add(const e2lshos::data::GroundTruth& gt, uint32_t q,
                   const std::vector<Neighbor>& ans,
                   const std::vector<uint32_t>* id_map) {
  const auto& exact = gt.ForQuery(q);
  uint32_t hits = 0;
  for (const Neighbor& a : ans) {
    for (const Neighbor& e : exact) {
      if (a.id == (id_map != nullptr ? (*id_map)[e.id] : e.id)) {
        ++hits;
        break;
      }
    }
  }
  const double ratio = gt.OverallRatio(q, ans, kK);
  std::lock_guard<std::mutex> lock(mu);
  recall_sum += static_cast<double>(hits) / kK;
  ratio_sum += ratio;
  ++count;
}

double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v->size())));
  return (*v)[std::min(v->size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

double WindowedQuantile(const std::vector<double>& in_order, size_t window,
                        double q) {
  if (window == 0 || in_order.size() < 2 * window) {
    std::vector<double> all = in_order;
    return Quantile(&all, q);
  }
  std::vector<double> per_window;
  for (size_t b = 0; b + window <= in_order.size(); b += window) {
    std::vector<double> part(in_order.begin() + static_cast<long>(b),
                             in_order.begin() + static_cast<long>(b + window));
    per_window.push_back(Quantile(&part, q));
  }
  return Quantile(&per_window, kAcrossWindows);
}

void PrintLeg(const LegResult& leg) {
  if (!leg.lat_ms.empty()) {
    std::vector<double> lat = leg.lat_ms;
    const size_t n = lat.size();
    std::printf("  %-10s %7zu queries %8.1f qps  p50 %.3f  p90 %.3f  "
                "p99 %.3f (%zu beyond)  p99.9 %.3f (%zu beyond) ms\n",
                leg.name.c_str(), n, leg.qps(), Quantile(&lat, 0.5),
                Quantile(&lat, 0.9), Quantile(&lat, 0.99), n / 100,
                Quantile(&lat, 0.999), n / 1000);
    if (!leg.window_qps.empty()) {
      std::printf("  %-10s windowed (median of %zu windows) %.1f qps\n", "",
                  leg.window_qps.size(), Median(leg.window_qps));
    }
  }
  if (!leg.late_us.empty()) {
    std::vector<double> late = leg.late_us;
    std::printf("  %-10s generator late p50 %.1f  p99 %.1f  max %.1f  "
                "last tenth %.1f us\n",
                "", Quantile(&late, 0.5), Quantile(&late, 0.99),
                Quantile(&late, 1.0), leg.backlog_late_us);
    const size_t w = leg.lat_ms.size() / kWindows;
    std::printf("  %-10s windowed (lower quartile of %u windows) p50 %.3f  "
                "p90 %.3f ms\n",
                "", kWindows, WindowedQuantile(leg.lat_ms, w, 0.5),
                WindowedQuantile(leg.lat_ms, w, 0.9));
  }
  if (!leg.update_ms.empty()) {
    std::vector<double> upd = leg.update_ms;
    std::printf("  %-10s %7zu write ops  p50 %.2f  p90 %.2f  max %.2f ms\n",
                leg.name.c_str(), upd.size(), Quantile(&upd, 0.5),
                Quantile(&upd, 0.9), Quantile(&upd, 1.0));
    const size_t w = leg.update_ms.size() / kUpdateWindows;
    std::printf("  %-10s windowed (lower quartile of %u windows) write ops "
                "p50 %.2f  p90 %.2f ms\n",
                "", kUpdateWindows, WindowedQuantile(leg.update_ms, w, 0.5),
                WindowedQuantile(leg.update_ms, w, 0.9));
  }
}

// ---------------------------------------------------------------------------
// Tracer.
// ---------------------------------------------------------------------------

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer* Tracer::Local() {
  thread_local Buffer* local = nullptr;
  thread_local const Tracer* owner = nullptr;
  if (local == nullptr || owner != this) {
    auto buf = std::make_unique<Buffer>();
    buf->spans.reserve(1 << 14);
    std::lock_guard<std::mutex> lock(mu_);
    buf->no = buffers_.size() + 1;
    buffers_.push_back(std::move(buf));
    local = buffers_.back().get();
    owner = this;
  }
  return local;
}

uint64_t Tracer::Add(const char* name, uint64_t start, uint64_t end,
                     uint64_t parent, uint64_t req) {
  if (!on_) return 0;
  Buffer* b = Local();
  b->spans.push_back({leg_.load(std::memory_order_relaxed), name, start, end,
                      parent, req});
  // Ids pack (buffer number, index): unique without a shared counter.
  return (b->no << 40) | b->spans.size();
}

uint64_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& b : buffers_) n += b->spans.size();
  return n;
}

std::map<std::string, Tracer::Layer> Tracer::Fold(const std::string& tsv) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      if (s.parent != 0) children[s.parent].push_back(&s);
    }
  }
  std::ofstream out;
  if (!tsv.empty()) {
    out.open(tsv);
    out << "id\tparent\tleg\tname\treq\tstart_ns\tend_ns\n";
  }
  std::map<std::string, Layer> layers;
  std::vector<std::pair<uint64_t, uint64_t>> iv;
  for (const auto& b : buffers_) {
    for (size_t i = 0; i < b->spans.size(); ++i) {
      const Span& s = b->spans[i];
      const uint64_t id = (b->no << 40) | (i + 1);
      if (out) {
        out << id << '\t' << s.parent << '\t' << s.leg << '\t' << s.name
            << '\t' << s.req << '\t' << s.start << '\t' << s.end << '\n';
      }
      // Self time: duration minus the union of child intervals inside it.
      double covered = 0;
      size_t nchildren = 0;
      auto it = children.find(id);
      if (it != children.end()) {
        nchildren = it->second.size();
        iv.clear();
        for (const Span* c : it->second) {
          iv.emplace_back(std::max(c->start, s.start), std::min(c->end, s.end));
        }
        std::sort(iv.begin(), iv.end());
        uint64_t cur_s = 0, cur_e = 0;
        for (const auto& [lo, hi] : iv) {
          if (hi <= lo) continue;
          if (lo > cur_e) {
            covered += static_cast<double>(cur_e - cur_s);
            cur_s = lo;
            cur_e = hi;
          } else {
            cur_e = std::max(cur_e, hi);
          }
        }
        covered += static_cast<double>(cur_e - cur_s);
      }
      const double dur = static_cast<double>(s.end - s.start);
      Layer& l = layers[std::string(s.leg) + "/" + s.name];
      ++l.count;
      l.children += nchildren;
      l.self_ns += dur - covered;
      l.self_us.push_back((dur - covered) / 1e3);
      l.dur_us.push_back(dur / 1e3);
    }
  }
  return layers;
}

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

void Report::Set(const std::string& name, const std::string& unit,
                 double value) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  metrics_.push_back({name, unit, value});
}

void Report::Print(bool correct, uint64_t attempted, uint64_t failed) const {
  for (const Metric& m : metrics_) {
    std::printf("metric %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : -1;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

KeepWarm::KeepWarm() {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned i = 0; i < n; ++i) {
    threads_.emplace_back([this] {
      while (!stop_.load(std::memory_order_relaxed)) sched_yield();
    });
  }
}

KeepWarm::~KeepWarm() {
  stop_ = true;
  for (auto& t : threads_) t.join();
}

double HostProbeMs() {
  // A fixed dependent integer chain: its wall time tracks host speed.
  const uint64_t t0 = e2lshos::util::NowNs();
  uint64_t x = 0x243f6a8885a308d3ULL;
  for (uint32_t i = 0; i < 40000000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  const uint64_t t1 = e2lshos::util::NowNs();
  KeepAlive(x);
  return static_cast<double>(t1 - t0) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double NowS() { return static_cast<double>(e2lshos::util::NowNs()) / 1e9; }

}  // namespace perfbench
