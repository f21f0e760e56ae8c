// Tests for the in-memory E2LSH baseline: recall on planted neighbors,
// ladder behavior, the S cap, accuracy against ground truth, and the
// instrumentation driving the paper's Sec. 4 analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "data/generators.h"
#include "data/ground_truth.h"
#include "e2lsh/in_memory.h"
#include "lsh/params.h"

namespace e2lshos::e2lsh {
namespace {

struct Fixture {
  data::GeneratedData gen;
  lsh::E2lshParams params;
  std::unique_ptr<InMemoryE2lsh> index;
};

Fixture MakeFixture(uint64_t n = 5000, uint32_t dim = 32, double rho = 0.25,
                    double s_factor = 4.0, uint64_t seed = 1) {
  Fixture f;
  data::GeneratorSpec spec;
  spec.kind = data::GeneratorKind::kClustered;
  spec.dim = dim;
  spec.num_clusters = 20;
  spec.cluster_std = 3.0 / std::sqrt(2.0 * dim);
  spec.center_spread = 10.0 * std::sqrt(6.0 / dim);
  spec.seed = seed;
  f.gen = data::Generate("fixture", n, 50, spec);

  lsh::E2lshConfig cfg;
  cfg.rho = rho;
  cfg.s_factor = s_factor;
  cfg.x_max = f.gen.base.XMax();
  auto params = lsh::ComputeParams(n, dim, cfg);
  EXPECT_TRUE(params.ok());
  f.params = *params;
  auto idx = InMemoryE2lsh::Build(f.gen.base, f.params);
  EXPECT_TRUE(idx.ok());
  f.index = std::move(idx.value());
  return f;
}

TEST(InMemoryE2lsh, RejectsEmptyDataset) {
  data::Dataset empty("e", 4);
  lsh::E2lshConfig cfg;
  auto params = lsh::ComputeParams(100, 4, cfg);
  ASSERT_TRUE(params.ok());
  EXPECT_FALSE(InMemoryE2lsh::Build(empty, *params).ok());
}

TEST(InMemoryE2lsh, FindsExactDuplicate) {
  // A query identical to a database point must return it at distance 0:
  // identical points collide under every hash at every radius.
  auto f = MakeFixture();
  for (uint64_t i = 0; i < 10; ++i) {
    const auto res = f.index->Search(f.gen.base.Row(i * 37), 1);
    ASSERT_FALSE(res.empty());
    EXPECT_EQ(res[0].dist, 0.f);
    EXPECT_EQ(res[0].id, static_cast<uint32_t>(i * 37));
  }
}

TEST(InMemoryE2lsh, AccuracyWellWithinGuarantee) {
  // The ladder guarantees c^2-approximation; empirically E2LSH lands far
  // closer. Require mean overall ratio < 1.5 (paper targets 1.05).
  auto f = MakeFixture(8000);
  const auto gt = data::GroundTruth::Compute(f.gen.base, f.gen.queries, 1, 1);
  const auto batch = f.index->SearchBatch(f.gen.queries, 1);
  const double ratio = data::MeanOverallRatio(gt, batch.results, 1);
  EXPECT_GE(ratio, 1.0);
  EXPECT_LT(ratio, 1.5);
}

TEST(InMemoryE2lsh, TopKReturnsSortedDistinct) {
  auto f = MakeFixture();
  for (uint64_t q = 0; q < 10; ++q) {
    const auto res = f.index->Search(f.gen.queries.Row(q), 10);
    for (size_t i = 1; i < res.size(); ++i) {
      EXPECT_GE(res[i].dist, res[i - 1].dist);
      EXPECT_NE(res[i].id, res[i - 1].id);
    }
  }
}

TEST(InMemoryE2lsh, StatsAreConsistent) {
  auto f = MakeFixture();
  SearchStats stats;
  f.index->Search(f.gen.queries.Row(0), 1, &stats);
  EXPECT_GE(stats.radii_searched, 1u);
  EXPECT_LE(stats.radii_searched, f.index->params().num_radii());
  EXPECT_GE(stats.entries_scanned, stats.candidates);
  EXPECT_EQ(stats.IoCountInfiniteBlock(), 2 * stats.buckets_probed);
}

TEST(InMemoryE2lsh, CandidateCapRespectedPerRadius) {
  // With a tiny S, candidates per query cannot exceed S * radii searched.
  auto f = MakeFixture(5000, 32, 0.25, /*s_factor=*/0.5);
  for (uint64_t q = 0; q < 20; ++q) {
    SearchStats stats;
    f.index->Search(f.gen.queries.Row(q), 1, &stats);
    EXPECT_LE(stats.candidates,
              f.params.S * static_cast<uint64_t>(stats.radii_searched));
  }
}

TEST(InMemoryE2lsh, LargerGammaReducesCandidates) {
  // Scaling m up makes compound hashes more selective: fewer candidates
  // per bucket (the paper's accuracy knob, Sec. 3.3).
  auto lo = MakeFixture(5000, 32, 0.25, 4.0, 3);
  data::GeneratorSpec spec;  // same data, higher gamma
  lsh::E2lshConfig cfg;
  cfg.rho = 0.25;
  cfg.s_factor = 4.0;
  cfg.gamma = 1.6;
  cfg.x_max = lo.gen.base.XMax();
  auto params_hi = lsh::ComputeParams(5000, 32, cfg);
  ASSERT_TRUE(params_hi.ok());
  auto hi = InMemoryE2lsh::Build(lo.gen.base, *params_hi);
  ASSERT_TRUE(hi.ok());

  // A more selective compound hash (larger m) thins the buckets at every
  // fixed rung of the radius ladder: the query's total bucket occupancy
  // at a mid/deep radius must shrink. Each index fits the bottom of its
  // own ladder, so the rung is found by its radius in each.
  const std::vector<double>& lo_radii = lo.index->params().radii;
  const double radius = lo_radii[lo_radii.size() - 2];
  const auto rung = [radius](const InMemoryE2lsh& index) {
    const std::vector<double>& radii = index.params().radii;
    return static_cast<uint32_t>(
        std::find(radii.begin(), radii.end(), radius) - radii.begin());
  };
  const uint32_t r_lo = rung(*lo.index);
  const uint32_t r_hi = rung(**hi);
  ASSERT_LT(r_hi, (*hi)->params().num_radii());
  uint64_t occ_lo = 0, occ_hi = 0;
  for (uint64_t q = 0; q < 30; ++q) {
    const float* query = lo.gen.queries.Row(q);
    for (uint32_t l = 0; l < lo.params.L; ++l) {
      occ_lo += lo.index->BucketSize(r_lo, l,
                                     lo.index->family().Get(r_lo, l).Hash32(query));
      occ_hi += (*hi)->BucketSize(r_hi, l,
                                  (*hi)->family().Get(r_hi, l).Hash32(query));
    }
  }
  EXPECT_LT(occ_hi, occ_lo);
}

TEST(InMemoryE2lsh, BucketReadSizesSumToEntriesScanned) {
  auto f = MakeFixture();
  SearchStats stats;
  std::vector<uint32_t> sizes;
  f.index->Search(f.gen.queries.Row(1), 1, &stats, &sizes);
  EXPECT_EQ(sizes.size(), stats.buckets_probed);
  uint64_t sum = 0;
  for (const uint32_t s : sizes) sum += s;
  EXPECT_EQ(sum, stats.entries_scanned);
}

TEST(InMemoryE2lsh, IndexMemoryGrowsWithL) {
  auto small = MakeFixture(4000, 16, 0.15);
  auto large = MakeFixture(4000, 16, 0.35);
  EXPECT_GT(large.index->IndexMemoryBytes(), small.index->IndexMemoryBytes());
}

TEST(InMemoryE2lsh, BatchMatchesIndividualSearches) {
  auto f = MakeFixture();
  const auto batch = f.index->SearchBatch(f.gen.queries, 3);
  for (uint64_t q = 0; q < f.gen.queries.n(); ++q) {
    const auto single = f.index->Search(f.gen.queries.Row(q), 3);
    ASSERT_EQ(batch.results[q].size(), single.size());
    for (size_t i = 0; i < single.size(); ++i) {
      EXPECT_EQ(batch.results[q][i].id, single[i].id);
    }
  }
}

TEST(InMemoryE2lsh, SublinearCandidateGrowth) {
  // Candidates checked grow sublinearly in n (the core E2LSH property):
  // quadrupling n should far less than quadruple the mean candidates.
  auto small = MakeFixture(3000, 24, 0.25, 4.0, 11);
  auto large = MakeFixture(12000, 24, 0.25, 4.0, 11);
  auto count = [](Fixture& f) {
    const auto batch = f.index->SearchBatch(f.gen.queries, 1);
    uint64_t total = 0;
    for (const auto& s : batch.stats) total += s.candidates;
    return static_cast<double>(total) / static_cast<double>(batch.stats.size());
  };
  const double c_small = count(small);
  const double c_large = count(large);
  EXPECT_LT(c_large, c_small * 4.0);
}

// Property sweep over k: results are exact-duplicates-first and stats sane.
class TopKSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(TopKSweep, ReturnsAtMostKSorted) {
  static Fixture f = MakeFixture(6000);
  const uint32_t k = GetParam();
  const auto res = f.index->Search(f.gen.queries.Row(2), k);
  EXPECT_LE(res.size(), static_cast<size_t>(k));
  for (size_t i = 1; i < res.size(); ++i) EXPECT_GE(res[i].dist, res[i - 1].dist);
}

INSTANTIATE_TEST_SUITE_P(Ks, TopKSweep, ::testing::Values(1, 5, 10, 50, 100));

}  // namespace
}  // namespace e2lshos::e2lsh
