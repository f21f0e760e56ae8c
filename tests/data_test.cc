// Tests for dataset generation, ground truth, accuracy metrics, and
// hardness estimation.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "data/dataset.h"
#include "data/generators.h"
#include "data/ground_truth.h"
#include "data/metrics.h"
#include "data/registry.h"
#include "util/distance.h"

namespace e2lshos::data {
namespace {

TEST(Dataset, AppendAndRowAccess) {
  Dataset ds("t", 3);
  const float a[] = {1, 2, 3};
  const float b[] = {4, 5, 6};
  ds.Append(a);
  ds.Append(b);
  EXPECT_EQ(ds.n(), 2u);
  EXPECT_EQ(ds.Row(1)[2], 6.f);
  EXPECT_EQ(ds.SizeBytes(), 6 * sizeof(float));
}

TEST(Dataset, XMaxIsLargestAbsoluteCoordinate) {
  Dataset ds("t", 2);
  const float a[] = {1.5f, -7.25f};
  ds.Append(a);
  EXPECT_FLOAT_EQ(ds.XMax(), 7.25f);
}

TEST(Dataset, SplitTailMovesRows) {
  Dataset ds("t", 2);
  for (int i = 0; i < 10; ++i) {
    const float p[] = {static_cast<float>(i), 0.f};
    ds.Append(p);
  }
  auto tail = ds.SplitTail(3);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(ds.n(), 7u);
  EXPECT_EQ(tail->n(), 3u);
  EXPECT_EQ(tail->Row(0)[0], 7.f);
  EXPECT_FALSE(ds.SplitTail(100).ok());
}

TEST(Generators, ProducesRequestedShape) {
  GeneratorSpec spec;
  spec.kind = GeneratorKind::kClustered;
  spec.dim = 16;
  spec.num_clusters = 4;
  auto gen = Generate("shape", 500, 50, spec);
  EXPECT_EQ(gen.base.n(), 500u);
  EXPECT_EQ(gen.queries.n(), 50u);
  EXPECT_EQ(gen.base.dim(), 16u);
}

TEST(Generators, DeterministicForSeed) {
  GeneratorSpec spec;
  spec.dim = 8;
  spec.seed = 42;
  auto a = Generate("a", 100, 10, spec);
  auto b = Generate("b", 100, 10, spec);
  for (uint64_t i = 0; i < 100; ++i) {
    for (uint32_t j = 0; j < 8; ++j) {
      EXPECT_EQ(a.base.Row(i)[j], b.base.Row(i)[j]);
    }
  }
}

TEST(Generators, ByteQuantizeSnapsToGrid) {
  GeneratorSpec spec;
  spec.kind = GeneratorKind::kUniform;
  spec.dim = 4;
  spec.scale = 10.0;
  spec.byte_quantize = true;
  auto gen = Generate("q", 200, 10, spec);
  const double step = 10.0 / 255.0;
  std::set<int> levels;
  for (uint64_t i = 0; i < gen.base.n(); ++i) {
    for (uint32_t j = 0; j < 4; ++j) {
      const double v = gen.base.Row(i)[j];
      const double q = v / step;
      EXPECT_NEAR(q, std::round(q), 1e-3);
      levels.insert(static_cast<int>(std::round(q)));
    }
  }
  EXPECT_GT(levels.size(), 50u);  // uses a good chunk of the 256-level grid
  // Queries come from PointSampler::NextQuery and sit on the same grid.
  for (uint64_t i = 0; i < gen.queries.n(); ++i) {
    for (uint32_t j = 0; j < 4; ++j) {
      const double q = gen.queries.Row(i)[j] / step;
      EXPECT_NEAR(q, std::round(q), 1e-3);
    }
  }
}

TEST(Generators, UniformStaysInRange) {
  GeneratorSpec spec;
  spec.kind = GeneratorKind::kUniform;
  spec.dim = 8;
  spec.scale = 3.0;
  auto gen = Generate("u", 500, 10, spec);
  for (uint64_t i = 0; i < gen.base.n(); ++i) {
    for (uint32_t j = 0; j < 8; ++j) {
      EXPECT_GE(gen.base.Row(i)[j], 0.f);
      EXPECT_LT(gen.base.Row(i)[j], 3.f);
    }
  }
}

TEST(GroundTruth, MatchesNaiveScan) {
  GeneratorSpec spec;
  spec.dim = 12;
  spec.seed = 5;
  auto gen = Generate("gt", 800, 20, spec);
  const auto gt = GroundTruth::Compute(gen.base, gen.queries, 5, 2);
  ASSERT_EQ(gt.num_queries(), 20u);

  for (uint64_t q = 0; q < 20; ++q) {
    // Naive: full sort.
    std::vector<util::Neighbor> all;
    for (uint64_t i = 0; i < gen.base.n(); ++i) {
      all.push_back({static_cast<uint32_t>(i),
                     std::sqrt(util::SquaredL2(gen.base.Row(i),
                                               gen.queries.Row(q), 12))});
    }
    std::sort(all.begin(), all.end());
    const auto& got = gt.ForQuery(q);
    ASSERT_EQ(got.size(), 5u);
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(got[i].id, all[i].id);
      EXPECT_FLOAT_EQ(got[i].dist, all[i].dist);
    }
  }
}

TEST(GroundTruth, ResultsSortedAscending) {
  GeneratorSpec spec;
  spec.dim = 6;
  auto gen = Generate("s", 300, 10, spec);
  const auto gt = GroundTruth::Compute(gen.base, gen.queries, 10, 1);
  for (uint64_t q = 0; q < 10; ++q) {
    const auto& ex = gt.ForQuery(q);
    for (size_t i = 1; i < ex.size(); ++i) EXPECT_GE(ex[i].dist, ex[i - 1].dist);
  }
}

TEST(OverallRatio, ExactAnswerIsOne) {
  GeneratorSpec spec;
  spec.dim = 6;
  auto gen = Generate("r", 300, 10, spec);
  const auto gt = GroundTruth::Compute(gen.base, gen.queries, 3, 1);
  for (uint64_t q = 0; q < 10; ++q) {
    EXPECT_DOUBLE_EQ(gt.OverallRatio(q, gt.ForQuery(q), 3), 1.0);
  }
}

TEST(OverallRatio, WorseAnswersScoreHigher) {
  GeneratorSpec spec;
  spec.dim = 6;
  auto gen = Generate("r2", 300, 5, spec);
  const auto gt = GroundTruth::Compute(gen.base, gen.queries, 10, 1);
  for (uint64_t q = 0; q < 5; ++q) {
    // Report neighbors 5..7 as if they were the top-3.
    const auto& ex = gt.ForQuery(q);
    std::vector<util::Neighbor> shifted(ex.begin() + 5, ex.begin() + 8);
    EXPECT_GT(gt.OverallRatio(q, shifted, 3), 1.0);
  }
}

TEST(OverallRatio, MissingResultsPenalized) {
  GeneratorSpec spec;
  spec.dim = 6;
  auto gen = Generate("r3", 200, 3, spec);
  const auto gt = GroundTruth::Compute(gen.base, gen.queries, 3, 1);
  const double r = gt.OverallRatio(0, {}, 3);
  EXPECT_GT(r, 5.0);
}

TEST(Metrics, GaussHarderThanClustered) {
  // Single Gaussian blob (GAUSS-like) must show smaller RC and larger LID
  // than a tightly clustered set, reproducing the Table 1 hardness order.
  GeneratorSpec hard;
  hard.kind = GeneratorKind::kGaussian;
  hard.dim = 64;
  hard.scale = 0.3;
  hard.seed = 1;
  auto hard_data = Generate("hard", 3000, 50, hard);

  GeneratorSpec easy;
  easy.kind = GeneratorKind::kClustered;
  easy.dim = 64;
  easy.num_clusters = 50;
  easy.cluster_std = 0.05;
  easy.center_spread = 3.0;
  easy.seed = 2;
  auto easy_data = Generate("easy", 3000, 50, easy);

  const auto gt_hard = GroundTruth::Compute(hard_data.base, hard_data.queries, 20, 1);
  const auto gt_easy = GroundTruth::Compute(easy_data.base, easy_data.queries, 20, 1);
  const auto m_hard = EstimateHardness(hard_data.base, hard_data.queries, gt_hard);
  const auto m_easy = EstimateHardness(easy_data.base, easy_data.queries, gt_easy);

  EXPECT_LT(m_hard.rc, m_easy.rc);
  EXPECT_GT(m_hard.lid, m_easy.lid);
  EXPECT_GT(m_easy.rc, 1.5);
  EXPECT_GT(m_hard.rc, 0.9);  // RC is >= ~1 by construction
}

TEST(Registry, HasAllEightPaperDatasets) {
  const auto all = PaperDatasets();
  ASSERT_EQ(all.size(), 8u);
  const char* names[] = {"MSONG", "SIFT", "GIST", "RAND",
                         "GLOVE", "GAUSS", "MNIST", "BIGANN"};
  for (int i = 0; i < 8; ++i) EXPECT_EQ(all[i].name, names[i]);
  // Dimensions straight from Table 1.
  EXPECT_EQ(all[0].gen.dim, 420u);
  EXPECT_EQ(all[1].gen.dim, 128u);
  EXPECT_EQ(all[2].gen.dim, 960u);
  EXPECT_EQ(all[3].gen.dim, 100u);
  EXPECT_EQ(all[4].gen.dim, 100u);
  EXPECT_EQ(all[5].gen.dim, 512u);
  EXPECT_EQ(all[6].gen.dim, 784u);
  EXPECT_EQ(all[7].gen.dim, 128u);
}

TEST(Registry, LookupByName) {
  auto sift = GetDatasetSpec("SIFT");
  ASSERT_TRUE(sift.ok());
  EXPECT_EQ(sift->gen.dim, 128u);
  EXPECT_TRUE(sift->gen.byte_quantize);
  EXPECT_FALSE(GetDatasetSpec("NOPE").ok());
}

TEST(Registry, MakeDatasetHonorsOverrides) {
  auto spec = GetDatasetSpec("RAND");
  ASSERT_TRUE(spec.ok());
  auto gen = MakeDataset(*spec, 1234, 17);
  EXPECT_EQ(gen.base.n(), 1234u);
  EXPECT_EQ(gen.queries.n(), 17u);
}

TEST(Registry, NnDistancesLandInRadiusLadder) {
  // The generators must place mean NN distances within the searchable
  // ladder (between 1 and ~16), else every query degenerates to the
  // first or last rung.
  for (const char* name : {"SIFT", "RAND", "GLOVE"}) {
    auto spec = GetDatasetSpec(name);
    ASSERT_TRUE(spec.ok());
    auto gen = MakeDataset(*spec, 4000, 30);
    const auto gt = GroundTruth::Compute(gen.base, gen.queries, 1, 1);
    double mean_nn = 0;
    for (uint64_t q = 0; q < 30; ++q) mean_nn += gt.ForQuery(q)[0].dist;
    mean_nn /= 30;
    EXPECT_GT(mean_nn, 0.5) << name;
    EXPECT_LT(mean_nn, 16.0) << name;
  }
}

}  // namespace
}  // namespace e2lshos::data
