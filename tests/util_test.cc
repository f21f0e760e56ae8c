// Unit tests for src/util: RNG determinism, stats, histograms, math
// helpers, aligned buffers, thread pool, top-k, distances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "util/aligned_buffer.h"
#include "util/clock.h"
#include "util/distance.h"
#include "util/jsonl.h"
#include "util/mathutil.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/thread_pool.h"
#include "util/topk.h"

namespace e2lshos {
namespace {

TEST(Status, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status st = Status::IoError("disk on fire");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  EXPECT_NE(st.ToString().find("disk on fire"), std::string::npos);
}

TEST(Result, HoldsValueOrStatus) {
  Result<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);

  Result<int> bad(Status::NotFound("nope"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

TEST(Rng, DeterministicForSameSeed) {
  util::Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  util::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.NextU64() == b.NextU64();
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformBoundsRespected) {
  util::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.Uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, NextU64BelowInRangeAndCoversValues) {
  util::Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 3000; ++i) {
    const uint64_t v = rng.NextU64Below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, GaussianMomentsAreStandardNormal) {
  util::Rng rng(11);
  util::RunningStats st;
  for (int i = 0; i < 200000; ++i) st.Add(rng.Gaussian());
  EXPECT_NEAR(st.mean(), 0.0, 0.02);
  EXPECT_NEAR(st.stddev(), 1.0, 0.02);
}

TEST(Rng, ForkProducesIndependentStream) {
  util::Rng a(42);
  util::Rng child = a.Fork();
  EXPECT_NE(a.NextU64(), child.NextU64());
}

TEST(RunningStats, BasicMoments) {
  util::RunningStats st;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) st.Add(v);
  EXPECT_EQ(st.count(), 4u);
  EXPECT_DOUBLE_EQ(st.mean(), 2.5);
  EXPECT_DOUBLE_EQ(st.min(), 1.0);
  EXPECT_DOUBLE_EQ(st.max(), 4.0);
  EXPECT_NEAR(st.variance(), 5.0 / 3.0, 1e-12);
}

TEST(RunningStats, MergeMatchesCombined) {
  util::Rng rng(5);
  util::RunningStats a, b, all;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Gaussian();
    (i % 2 ? a : b).Add(v);
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(LatencyHistogram, QuantilesBracketInsertedValues) {
  util::LatencyHistogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Add(v * 1000);  // 1us..1ms
  EXPECT_EQ(h.count(), 1000u);
  const uint64_t p50 = h.Quantile(0.5);
  EXPECT_GT(p50, 400000u);
  EXPECT_LT(p50, 620000u);
  EXPECT_GE(h.Quantile(0.99), 950000u);
  EXPECT_LE(h.min(), 1000u);
  EXPECT_GE(h.max(), 1000000u);
}

TEST(LatencyHistogram, MergeAddsCounts) {
  util::LatencyHistogram a, b;
  a.Add(100);
  b.Add(200);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
}

TEST(LatencyHistogram, QuantilesMatchSortedVectorOracle) {
  // Random samples over five decades; every reported quantile must land
  // within the histogram's relative-error budget of the exact
  // (nearest-rank) answer computed from the sorted sample.
  util::Rng rng(77);
  util::LatencyHistogram h;
  std::vector<uint64_t> oracle;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform in [1us, 100ms): stresses many power-of-two ranges.
    const double exponent = rng.Uniform(3.0, 8.0);
    const uint64_t v = static_cast<uint64_t>(std::pow(10.0, exponent));
    h.Add(v);
    oracle.push_back(v);
  }
  std::sort(oracle.begin(), oracle.end());
  for (const double q : {0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}) {
    const uint64_t exact =
        oracle[static_cast<size_t>(q * static_cast<double>(oracle.size() - 1))];
    const uint64_t got = h.Quantile(q);
    // Bucket upper-bound semantics: got >= the exact value's bucket
    // lower bound, and within ~2 sub-bucket widths (~3.2%) above it.
    EXPECT_GE(got, exact - exact / 32) << "q=" << q;
    EXPECT_LE(got, exact + exact / 16 + 1) << "q=" << q;
  }
  // The extreme quantile brackets the recorded maximum from above,
  // within one sub-bucket width (upper-bound bucket semantics).
  EXPECT_GE(h.Quantile(1.0), h.max());
  EXPECT_LE(h.Quantile(1.0), h.max() + h.max() / 32 + 1);
}

TEST(LatencyHistogram, BucketBoundaryValues) {
  // Values at and around power-of-two range boundaries must round-trip
  // through Index/UpperBound without under-reporting: the quantile of a
  // single-value histogram is an upper bound of the value within one
  // sub-bucket width.
  for (const uint64_t v :
       {1ULL, 63ULL, 64ULL, 65ULL, 127ULL, 128ULL, 129ULL, 4095ULL, 4096ULL,
        4097ULL, (1ULL << 20) - 1, 1ULL << 20, (1ULL << 20) + 1,
        (1ULL << 40) - 1, 1ULL << 40}) {
    util::LatencyHistogram h;
    h.Add(v);
    const uint64_t got = h.Quantile(0.5);
    EXPECT_GE(got, v) << "v=" << v;
    EXPECT_LE(got, v + v / 32 + 1) << "v=" << v;
  }
}

TEST(LatencyHistogram, OverflowBucketHoldsHugeValues) {
  // Values near UINT64_MAX land in the histogram's topmost bucket
  // without indexing out of bounds, and keep quantile monotonicity.
  util::LatencyHistogram h;
  h.Add(1000);
  h.Add(std::numeric_limits<uint64_t>::max());
  h.Add(std::numeric_limits<uint64_t>::max() - 1);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.max(), std::numeric_limits<uint64_t>::max());
  EXPECT_LE(h.Quantile(0.0), h.Quantile(0.9));
  EXPECT_GT(h.Quantile(0.9), 1ULL << 62);
}

TEST(LatencyRecorder, MergeOfPerShardRecordersMatchesCombined) {
  // Per-shard recorders merged must report the same quantiles and count
  // as one recorder fed every sample (shards share wall-clock epochs).
  util::Rng rng(99);
  util::LatencyRecorder shard0, shard1, combined;
  const uint64_t base_now = 1000000000ULL;
  for (int i = 0; i < 5000; ++i) {
    const uint64_t lat = 1000 + rng.NextU64Below(1000000);
    const uint64_t now = base_now + static_cast<uint64_t>(i) * 100000;
    (i % 2 ? shard0 : shard1).Record(lat, now);
    combined.Record(lat, now);
  }
  shard0.Merge(shard1);
  EXPECT_EQ(shard0.count(), combined.count());
  EXPECT_EQ(shard0.p50_ns(), combined.p50_ns());
  EXPECT_EQ(shard0.p95_ns(), combined.p95_ns());
  EXPECT_EQ(shard0.p99_ns(), combined.p99_ns());
  EXPECT_EQ(shard0.max_ns(), combined.max_ns());
  EXPECT_DOUBLE_EQ(shard0.mean_ns(), combined.mean_ns());
  const uint64_t now = base_now + 5000ULL * 100000;
  EXPECT_NEAR(shard0.SustainedQps(now), combined.SustainedQps(now), 1e-9);
}

TEST(SlidingWindowRate, ReportsRateOverWindowAndForgetsOldTraffic) {
  util::SlidingWindowRate rate(/*window_ns=*/1000000000ULL, /*slots=*/10);
  const uint64_t t0 = 5000000000ULL;
  // 1000 events over one second -> ~1000/s.
  for (int i = 0; i < 1000; ++i) {
    rate.Record(t0 + static_cast<uint64_t>(i) * 1000000);
  }
  const double qps = rate.RatePerSec(t0 + 1000000000ULL);
  EXPECT_GT(qps, 800.0);
  EXPECT_LT(qps, 1250.0);
  // Ten seconds later the window has aged out entirely.
  EXPECT_EQ(rate.RatePerSec(t0 + 11000000000ULL), 0.0);
}

TEST(SlidingWindowRate, FreshRecorderUsesElapsedTimeNotFullWindow) {
  util::SlidingWindowRate rate(1000000000ULL, 10);
  const uint64_t t0 = 7000000000ULL;
  // 100 events in 100 ms: a full-window denominator would report 100/s;
  // the elapsed-time clamp reports ~1000/s.
  for (int i = 0; i < 100; ++i) {
    rate.Record(t0 + static_cast<uint64_t>(i) * 1000000);
  }
  const double qps = rate.RatePerSec(t0 + 100000000ULL);
  EXPECT_GT(qps, 700.0);
  EXPECT_LT(qps, 1300.0);
}

TEST(Jsonl, RowRoundTripsThroughWriterAndParser) {
  const std::string path = ::testing::TempDir() + "/e2_jsonl_roundtrip.jsonl";
  {
    auto writer = util::JsonlWriter::Open(path);
    ASSERT_TRUE(writer.ok());
    util::JsonRow row;
    row.Set("bench", "streaming_serving")
        .Set("dataset", std::string("weird \"name\"\twith\\escapes"))
        .Set("offered_qps", 12345.678)
        .Set("p99_ns", static_cast<uint64_t>(987654321ULL))
        .Set("shards", static_cast<uint32_t>(4));
    (*writer)->Write(row);
  }
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[512];
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  std::fclose(f);
  std::remove(path.c_str());

  auto parsed = util::ParseJsonRow(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->at("bench"), "streaming_serving");
  EXPECT_EQ(parsed->at("dataset"), "weird \"name\"\twith\\escapes");
  EXPECT_NEAR(std::stod(parsed->at("offered_qps")), 12345.678, 1e-6);
  EXPECT_EQ(parsed->at("p99_ns"), "987654321");
  EXPECT_EQ(parsed->at("shards"), "4");
}

TEST(Jsonl, ParserRejectsMalformedRows) {
  EXPECT_FALSE(util::ParseJsonRow("not json").ok());
  EXPECT_FALSE(util::ParseJsonRow("{\"a\":1").ok());
  EXPECT_FALSE(util::ParseJsonRow("{\"a\":{\"nested\":1}}").ok());
  // Malformed \u escapes are a Status, not an uncaught throw.
  EXPECT_FALSE(util::ParseJsonRow("{\"a\":\"\\uZZZZ\"}").ok());
  EXPECT_FALSE(util::ParseJsonRow("{\"a\":\"\\u12\"}").ok());
  auto unicode = util::ParseJsonRow("{\"a\":\"\\u0041\"}");
  ASSERT_TRUE(unicode.ok());
  EXPECT_EQ(unicode->at("a"), "A");
  // Code points above 0xFF decode to UTF-8, not a truncated byte.
  auto delta = util::ParseJsonRow("{\"a\":\"\\u0394\"}");
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->at("a"), "\xCE\x94");  // U+0394 GREEK CAPITAL DELTA
  // Surrogate pairs combine into one 4-byte code point; lone halves fail.
  auto emoji = util::ParseJsonRow("{\"a\":\"\\ud83d\\ude00\"}");
  ASSERT_TRUE(emoji.ok());
  EXPECT_EQ(emoji->at("a"), "\xF0\x9F\x98\x80");  // U+1F600
  EXPECT_FALSE(util::ParseJsonRow("{\"a\":\"\\ud83d\"}").ok());
  EXPECT_FALSE(util::ParseJsonRow("{\"a\":\"\\ude00\"}").ok());
  // Truncated values and trailing garbage are corrupt rows, not data.
  EXPECT_FALSE(util::ParseJsonRow("{\"a\":}").ok());
  EXPECT_FALSE(util::ParseJsonRow("{\"a\":1}garbage").ok());
  EXPECT_TRUE(util::ParseJsonRow("{\"a\":1}\n").ok());
  auto empty = util::ParseJsonRow("{}");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(PowerLawFit, RecoversExponent) {
  std::vector<double> xs, ys;
  for (double x = 1e3; x <= 1e7; x *= 10) {
    xs.push_back(x);
    ys.push_back(3.0 * std::pow(x, 0.42));
  }
  const auto fit = util::FitPowerLaw(xs, ys);
  EXPECT_NEAR(fit.exponent, 0.42, 1e-9);
  EXPECT_NEAR(fit.prefactor, 3.0, 1e-6);
  EXPECT_GT(fit.r2, 0.999);
}

TEST(MathUtil, NormalCdfKnownValues) {
  EXPECT_NEAR(util::NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(util::NormalCdf(1.0), 0.8413447, 1e-6);
  EXPECT_NEAR(util::NormalCdf(-2.0), 0.0227501, 1e-6);
}

TEST(MathUtil, QuantileInvertsCdf) {
  for (const double p : {0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    EXPECT_NEAR(util::NormalCdf(util::NormalQuantile(p)), p, 1e-8);
  }
}

TEST(MathUtil, ChiSquaredCdfKnownValues) {
  // chi^2 with 2 dof is Exp(1/2): CDF(x) = 1 - exp(-x/2).
  for (const double x : {0.5, 1.0, 2.0, 5.0}) {
    EXPECT_NEAR(util::ChiSquaredCdf(x, 2), 1.0 - std::exp(-x / 2.0), 1e-10);
  }
  // Median of chi^2_k is ~ k(1-2/(9k))^3.
  const double med8 = 8.0 * std::pow(1.0 - 2.0 / 72.0, 3);
  EXPECT_NEAR(util::ChiSquaredCdf(med8, 8), 0.5, 0.01);
}

TEST(MathUtil, Pow2Helpers) {
  EXPECT_EQ(util::NextPow2(1), 1u);
  EXPECT_EQ(util::NextPow2(3), 4u);
  EXPECT_EQ(util::NextPow2(1024), 1024u);
  EXPECT_EQ(util::FloorLog2(1), 0u);
  EXPECT_EQ(util::FloorLog2(1023), 9u);
  EXPECT_EQ(util::FloorLog2(1024), 10u);
}

TEST(AlignedBuffer, AlignmentAndZeroing) {
  util::AlignedBuffer buf(1000, 512);
  ASSERT_NE(buf.data(), nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(buf.data()) % 512, 0u);
  EXPECT_EQ(buf.size(), 1000u);
  for (size_t i = 0; i < buf.size(); ++i) EXPECT_EQ(buf.data()[i], 0);
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  util::AlignedBuffer a(512);
  uint8_t* p = a.data();
  util::AlignedBuffer b(std::move(a));
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(a.data(), nullptr);
}

TEST(Clock, BusySpinWaitsAtLeastRequested) {
  const uint64_t t0 = util::NowNs();
  util::BusySpinNs(200000);  // 200 us
  EXPECT_GE(util::NowNs() - t0, 200000u);
}

TEST(ThreadPool, RunsAllTasks) {
  util::ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.Submit([&] { ++count; });
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, FuturesReturnValues) {
  util::ThreadPool pool(2);
  auto f = pool.SubmitWithResult([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(TopK, KeepsSmallest) {
  util::TopK topk(3);
  for (uint32_t i = 0; i < 10; ++i) topk.Push(i, static_cast<float>(10 - i));
  const auto res = topk.SortedResults();
  ASSERT_EQ(res.size(), 3u);
  EXPECT_EQ(res[0].dist, 1.f);
  EXPECT_EQ(res[1].dist, 2.f);
  EXPECT_EQ(res[2].dist, 3.f);
}

TEST(TopK, WorstDistInfiniteUntilFull) {
  util::TopK topk(2);
  EXPECT_TRUE(std::isinf(topk.WorstDist()));
  topk.Push(0, 1.f);
  EXPECT_TRUE(std::isinf(topk.WorstDist()));
  topk.Push(1, 5.f);
  EXPECT_EQ(topk.WorstDist(), 5.f);
}

TEST(Distance, MatchesNaive) {
  util::Rng rng(3);
  for (const size_t d : {1u, 3u, 8u, 100u, 128u, 963u}) {
    std::vector<float> a(d), b(d);
    for (size_t i = 0; i < d; ++i) {
      a[i] = rng.NextFloat();
      b[i] = rng.NextFloat();
    }
    float naive = 0.f, dot = 0.f;
    for (size_t i = 0; i < d; ++i) {
      naive += (a[i] - b[i]) * (a[i] - b[i]);
      dot += a[i] * b[i];
    }
    EXPECT_NEAR(util::SquaredL2(a.data(), b.data(), d), naive, 1e-3);
    EXPECT_NEAR(util::Dot(a.data(), b.data(), d), dot, 1e-3);
  }
}

// The summation order util::Dot and util::SquaredL2 must keep in every
// build: the hash projections of a saved index are recomputed when it is
// loaded, possibly by a different build, so their bits cannot change.
float FourAccumulatorSum(const float* a, const float* b, size_t d, bool diff) {
  float s[4] = {0.f, 0.f, 0.f, 0.f};
  const auto term = [&](size_t i) {
    if (!diff) return a[i] * b[i];
    const float t = a[i] - b[i];
    return t * t;
  };
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    for (size_t k = 0; k < 4; ++k) s[k] = s[k] + term(i + k);
  }
  float acc = ((s[0] + s[1]) + s[2]) + s[3];
  for (; i < d; ++i) acc = acc + term(i);
  return acc;
}

TEST(Distance, MatchesFourAccumulatorOrderBitForBit) {
  util::Rng rng(4);
  for (size_t d = 0; d <= 160; ++d) {
    std::vector<float> a(d), b(d);
    for (int rep = 0; rep < 50; ++rep) {
      for (size_t i = 0; i < d; ++i) {
        a[i] = static_cast<float>(rng.Gaussian(0.0, rep % 5 == 0 ? 1e6 : 10.0));
        b[i] = static_cast<float>(rng.Gaussian(0.0, 10.0));
      }
      const float dot = util::Dot(a.data(), b.data(), d);
      const float l2 = util::SquaredL2(a.data(), b.data(), d);
      const float want_dot = FourAccumulatorSum(a.data(), b.data(), d, false);
      const float want_l2 = FourAccumulatorSum(a.data(), b.data(), d, true);
      ASSERT_EQ(0, std::memcmp(&dot, &want_dot, sizeof(float))) << "d = " << d;
      ASSERT_EQ(0, std::memcmp(&l2, &want_l2, sizeof(float))) << "d = " << d;
    }
  }
}

}  // namespace
}  // namespace e2lshos
