// Tests for the LSH primitives: hash functions, collision probabilities,
// parameter derivation, fingerprint splitting, hash family determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "data/registry.h"
#include "lsh/fingerprint.h"
#include "lsh/hash_family.h"
#include "lsh/hash_function.h"
#include "lsh/params.h"
#include "util/rng.h"

namespace e2lshos::lsh {
namespace {

std::vector<float> RandomPoint(uint32_t d, util::Rng& rng, double scale = 1.0) {
  std::vector<float> p(d);
  for (auto& v : p) v = static_cast<float>(rng.Gaussian(0.0, scale));
  return p;
}

// A point at exact distance `dist` from `base` in a random direction.
std::vector<float> PointAtDistance(const std::vector<float>& base, double dist,
                                   util::Rng& rng) {
  std::vector<float> dir(base.size());
  double norm = 0.0;
  for (auto& v : dir) {
    v = static_cast<float>(rng.Gaussian());
    norm += static_cast<double>(v) * v;
  }
  norm = std::sqrt(norm);
  std::vector<float> out(base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    out[i] = base[i] + static_cast<float>(dist * dir[i] / norm);
  }
  return out;
}

TEST(CompoundHash, SingleFunctionHashIsFloorOfProjection) {
  util::Rng rng(1);
  CompoundHash h(16, 1, 4.0, rng);
  util::Rng rng2(2);
  const auto p = RandomPoint(16, rng2);
  int32_t hash = 0, fl = 0;
  float residual = -1.0f;
  h.HashVector(p.data(), &hash);
  h.HashWithResiduals(p.data(), &fl, &residual);
  EXPECT_EQ(hash, fl);
  EXPECT_GE(residual, 0.0f);
  EXPECT_LT(residual, 1.0f);
  EXPECT_EQ(h.Hash32(p.data()), CompoundHash::Fold(&hash, 1));
}

TEST(CompoundHash, OffsetWithinBucketWidth) {
  // At the origin a . o = 0, so the projection is b / w: floor 0 and a
  // residual in [0, 1) exactly when b lies in [0, w).
  util::Rng rng(3);
  const std::vector<float> origin(8, 0.0f);
  for (int i = 0; i < 50; ++i) {
    CompoundHash h(8, 1, 2.5, rng);
    int32_t fl = -1;
    float residual = -1.0f;
    h.HashWithResiduals(origin.data(), &fl, &residual);
    EXPECT_EQ(fl, 0);
    EXPECT_GE(residual, 0.0f);
    EXPECT_LT(residual, 1.0f);
  }
}

TEST(CompoundHash, IdenticalPointsAlwaysCollide) {
  util::Rng rng(4);
  CompoundHash h(32, 1, 4.0, rng);
  util::Rng rng2(5);
  const auto p = RandomPoint(32, rng2);
  const auto q = p;
  EXPECT_EQ(h.Hash32(p.data()), h.Hash32(q.data()));
}

TEST(CollisionProbability, AnalyticPropertiesHold) {
  // Monotonically increasing in x = w/s; limits 0 and 1.
  EXPECT_DOUBLE_EQ(CollisionProbability(0.0), 0.0);
  double prev = 0.0;
  for (double x = 0.1; x < 50.0; x *= 1.5) {
    const double p = CollisionProbability(x);
    EXPECT_GT(p, prev);
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1.0);
    prev = p;
  }
  EXPECT_GT(CollisionProbability(100.0), 0.98);
}

TEST(CollisionProbability, MatchesEmpiricalRate) {
  // Empirical collision frequency of h at distance s must match p_w(w/s).
  const uint32_t d = 64;
  const double w = 4.0;
  util::Rng rng(6);
  for (const double dist : {1.0, 2.0, 4.0}) {
    int collisions = 0;
    const int trials = 4000;
    for (int t = 0; t < trials; ++t) {
      CompoundHash h(d, 1, w, rng);
      const auto p = RandomPoint(d, rng);
      const auto q = PointAtDistance(p, dist, rng);
      int32_t hp = 0, hq = 0;
      h.HashVector(p.data(), &hp);
      h.HashVector(q.data(), &hq);
      collisions += hp == hq;
    }
    const double expected = CollisionProbability(w / dist);
    EXPECT_NEAR(static_cast<double>(collisions) / trials, expected, 0.035)
        << "at distance " << dist;
  }
}

TEST(CompoundHash, EqualIffAllComponentsEqual) {
  util::Rng rng(7);
  CompoundHash g(16, 8, 4.0, rng);
  util::Rng rng2(8);
  const auto p = RandomPoint(16, rng2);
  std::vector<int32_t> vp(8), vq(8);
  g.HashVector(p.data(), vp.data());
  // Identical point: identical fold.
  EXPECT_EQ(g.Hash32(p.data()), g.Hash32(p.data()));
  // A nearby point colliding on all m components folds equal.
  const auto q = PointAtDistance(p, 0.001, rng2);
  g.HashVector(q.data(), vq.data());
  if (vp == vq) EXPECT_EQ(g.Hash32(p.data()), g.Hash32(q.data()));
}

TEST(CompoundHash, FoldIsDeterministicAndSensitive) {
  std::vector<int32_t> a{1, 2, 3, 4};
  std::vector<int32_t> b{1, 2, 3, 5};
  EXPECT_EQ(CompoundHash::Fold(a.data(), 4), CompoundHash::Fold(a.data(), 4));
  EXPECT_NE(CompoundHash::Fold(a.data(), 4), CompoundHash::Fold(b.data(), 4));
}

TEST(CompoundHash, FarPointsRarelyCollide) {
  // With m=12 components, p2^m is tiny: far pairs should essentially
  // never fold equal.
  util::Rng rng(9);
  int collisions = 0;
  for (int t = 0; t < 500; ++t) {
    CompoundHash g(32, 12, 4.0, rng);
    const auto p = RandomPoint(32, rng);
    const auto q = PointAtDistance(p, 8.0, rng);  // far: w/s = 0.5
    collisions += g.Hash32(p.data()) == g.Hash32(q.data());
  }
  EXPECT_LE(collisions, 2);
}

TEST(Params, Equation5Derivation) {
  E2lshConfig cfg;
  cfg.c = 2.0;
  cfg.w = 4.0;
  cfg.x_max = 1.0;
  auto params = ComputeParams(1000000, 128, cfg);
  ASSERT_TRUE(params.ok());
  // p1 = p(4) ~ 0.8005, p2 = p(2) ~ 0.6095 (Datar et al. values).
  EXPECT_NEAR(params->p1, 0.8005, 0.001);
  EXPECT_NEAR(params->p2, 0.6095, 0.001);
  // rho = ln(1/p1)/ln(1/p2) ~ 0.449.
  EXPECT_NEAR(params->rho, 0.449, 0.005);
  // m = ln(n)/ln(1/p2) ~ 27.9 -> 28.
  EXPECT_EQ(params->m, 28u);
  // S = 2L by default.
  EXPECT_EQ(params->S, 2ULL * params->L);
}

TEST(Params, RhoOverrideControlsL) {
  E2lshConfig cfg;
  cfg.rho = 0.25;
  auto params = ComputeParams(100000, 64, cfg);
  ASSERT_TRUE(params.ok());
  EXPECT_EQ(params->L, static_cast<uint32_t>(std::ceil(std::pow(100000, 0.25))));
  EXPECT_NEAR(params->rho, 0.25, 1e-12);
}

TEST(Params, GammaScalesMNotL) {
  E2lshConfig a, b;
  a.rho = b.rho = 0.25;
  a.gamma = 1.0;
  b.gamma = 1.5;
  auto pa = ComputeParams(100000, 64, a);
  auto pb = ComputeParams(100000, 64, b);
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(pb.ok());
  EXPECT_EQ(pa->L, pb->L);  // index size unchanged (paper Sec. 3.3)
  EXPECT_GT(pb->m, pa->m);
  EXPECT_NEAR(static_cast<double>(pb->m) / pa->m, 1.5, 0.1);
}

TEST(Params, RadiusLadderCoversRmax) {
  E2lshConfig cfg;
  cfg.c = 2.0;
  cfg.x_max = 1.0;
  auto params = ComputeParams(10000, 100, cfg);
  ASSERT_TRUE(params.ok());
  const double r_max = 2.0 * std::sqrt(100.0);
  EXPECT_GE(params->radii.back(), r_max);
  EXPECT_EQ(params->radii.front(), 1.0);
  for (size_t i = 1; i < params->radii.size(); ++i) {
    EXPECT_DOUBLE_EQ(params->radii[i], params->radii[i - 1] * 2.0);
  }
  // Ladder shorter than the conservative bound + 1 extra rung.
  EXPECT_LE(params->radii.size(),
            static_cast<size_t>(std::ceil(std::log2(r_max))) + 2);
}

TEST(Params, InvalidInputsRejected) {
  E2lshConfig cfg;
  EXPECT_FALSE(ComputeParams(1, 64, cfg).ok());   // n too small
  EXPECT_FALSE(ComputeParams(1000, 0, cfg).ok()); // d = 0
  cfg.c = 1.0;
  EXPECT_FALSE(ComputeParams(1000, 64, cfg).ok());
  cfg.c = 2.0;
  cfg.w = 0.0;
  EXPECT_FALSE(ComputeParams(1000, 64, cfg).ok());
  cfg.w = 4.0;
  cfg.gamma = 0.0;
  EXPECT_FALSE(ComputeParams(1000, 64, cfg).ok());
}

TEST(Params, RhoForWidthMatchesTheory) {
  // rho approaches 1/c for large w and stays below 1.
  EXPECT_LT(RhoForWidth(4.0, 2.0), 0.5);
  EXPECT_GT(RhoForWidth(4.0, 2.0), 0.4);
  EXPECT_LT(RhoForWidth(16.0, 2.0), RhoForWidth(1.0, 2.0));
}

// The registry's SIFT at perfbench's scale: n = 20000, x_max fixed to
// the generator's value range (R = 1 .. 128, 8 rungs).
struct SiftLadder {
  data::Dataset base;
  E2lshConfig cfg;
};

SiftLadder SiftAtPerfbenchScale() {
  const data::DatasetSpec spec = *data::GetDatasetSpec("SIFT");
  SiftLadder s;
  s.base = data::MakeDataset(spec, 20000, 1).base;
  s.cfg = spec.lsh;
  s.cfg.x_max = spec.gen.center_spread + 4.0 * spec.gen.cluster_std;
  return s;
}

// Rows of `base` whose compound value under `g` equals another row's.
uint64_t CollidingRows(const CompoundHash& g, const data::Dataset& base) {
  std::vector<uint32_t> v(base.n());
  for (uint64_t i = 0; i < base.n(); ++i) v[i] = g.Hash32(base.Row(i));
  std::sort(v.begin(), v.end());
  uint64_t colliding = 0;
  for (uint64_t i = 0; i < v.size(); ++i) {
    colliding += (i > 0 && v[i] == v[i - 1]) ||
                 (i + 1 < v.size() && v[i] == v[i + 1]);
  }
  return colliding;
}

TEST(LadderFit, SiftAtPerfbenchScaleDropsRadiusOne) {
  const SiftLadder s = SiftAtPerfbenchScale();
  auto params = ComputeParams(s.base.n(), s.base.dim(), s.cfg);
  ASSERT_TRUE(params.ok());
  ASSERT_EQ(params->num_radii(), 8u);
  const E2lshParams full = *params;
  FitLadderBottom(s.base.Row(0), s.base.n(), s.base.dim(), &*params);
  ASSERT_EQ(params->num_radii(), 7u);
  EXPECT_EQ(params->radii.front(), 2.0);
  EXPECT_EQ(params->radii.back(), full.radii.back());

  // The rule reads the bottom rung's l = 0 table, Get(0, 0) of each
  // ladder's family: under 3 % of rows collide there on the full ladder,
  // 3 % or more on the fitted one.
  const uint64_t n = s.base.n();
  EXPECT_LT(CollidingRows(HashFamily(128, full).Get(0, 0), s.base) * 100, 3 * n);
  EXPECT_GE(CollidingRows(HashFamily(128, *params).Get(0, 0), s.base) * 100,
            3 * n);

  // Fitting the fitted ladder over the same rows keeps it.
  const std::vector<double> fitted = params->radii;
  FitLadderBottom(s.base.Row(0), s.base.n(), s.base.dim(), &*params);
  EXPECT_EQ(params->radii, fitted);
}

TEST(LadderFit, ExactDuplicatesKeepRungZero) {
  // The same rows with every 10th one doubled: about 18 % of rows share
  // their value at R = 1.
  const SiftLadder s = SiftAtPerfbenchScale();
  data::Dataset doubled("doubled", s.base.dim());
  for (uint64_t i = 0; i < s.base.n(); ++i) {
    doubled.Append(s.base.Row(i));
    if (i % 10 == 0) doubled.Append(s.base.Row(i));
  }
  auto params = ComputeParams(doubled.n(), doubled.dim(), s.cfg);
  ASSERT_TRUE(params.ok());
  const std::vector<double> full = params->radii;
  FitLadderBottom(doubled.Row(0), doubled.n(), doubled.dim(), &*params);
  EXPECT_EQ(params->radii, full);
  EXPECT_EQ(params->radii.front(), 1.0);
}

TEST(LadderFit, KeepsTheTopRungWhenNoRungCollides) {
  // Rows thousands apart under buckets at most w * R_max = 16 wide.
  E2lshConfig cfg;
  cfg.x_max = 1.0;  // R_max = 2 sqrt(4) = 4
  auto params = ComputeParams(500, 4, cfg);
  ASSERT_TRUE(params.ok());
  ASSERT_EQ(params->radii, (std::vector<double>{1.0, 2.0, 4.0}));
  util::Rng rng(5);
  std::vector<float> rows(500 * 4);
  for (float& v : rows) v = static_cast<float>(rng.Gaussian(0.0, 1000.0));
  FitLadderBottom(rows.data(), 500, 4, &*params);
  EXPECT_EQ(params->radii, std::vector<double>{4.0});
}

TEST(Fingerprint, SplitRoundTrips) {
  const FingerprintScheme fp{12};
  const uint32_t h = 0xdeadbeef;
  EXPECT_EQ(fp.TableIndex(h), h & 0xfff);
  EXPECT_EQ(fp.Fingerprint(h), h >> 12);
  EXPECT_EQ((fp.Fingerprint(h) << 12) | fp.TableIndex(h), h);
  EXPECT_EQ(fp.fingerprint_bits(), 20u);
  EXPECT_EQ(fp.table_slots(), 4096u);
}

TEST(Fingerprint, DefaultSlightlyBelowLog2N) {
  EXPECT_EQ(FingerprintScheme::ForDatabaseSize(1 << 16).u, 14u);
  EXPECT_EQ(FingerprintScheme::ForDatabaseSize(1000000).u, 17u);  // log2 ~ 19.9
  EXPECT_EQ(FingerprintScheme::ForDatabaseSize(100).u, 8u);       // clamped low
  EXPECT_EQ(FingerprintScheme::ForDatabaseSize(1ULL << 40).u, 28u);  // clamped
}

TEST(HashFamily, DeterministicForSameSeed) {
  E2lshConfig cfg;
  cfg.rho = 0.25;
  cfg.seed = 777;
  auto params = ComputeParams(5000, 16, cfg);
  ASSERT_TRUE(params.ok());
  HashFamily fam1(16, *params), fam2(16, *params);
  util::Rng rng(10);
  const auto p = RandomPoint(16, rng);
  for (uint32_t r = 0; r < params->num_radii(); ++r) {
    for (uint32_t l = 0; l < params->L; ++l) {
      EXPECT_EQ(fam1.Get(r, l).Hash32(p.data()), fam2.Get(r, l).Hash32(p.data()));
    }
  }
}

TEST(HashFamily, FittedLadderKeepsEachRungsHashes) {
  // A ladder fitted to start at R = c^2 draws, for each of its rungs,
  // the hashes that rung has on the full ladder from R = 1.
  E2lshConfig cfg;
  cfg.rho = 0.25;
  cfg.seed = 777;
  auto full = ComputeParams(5000, 16, cfg);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->num_radii(), 3u);
  E2lshParams fitted = *full;
  fitted.radii.erase(fitted.radii.begin(), fitted.radii.begin() + 2);
  const HashFamily full_fam(16, *full), fitted_fam(16, fitted);
  util::Rng rng(11);
  const auto p = RandomPoint(16, rng);
  for (uint32_t r = 0; r < fitted.num_radii(); ++r) {
    for (uint32_t l = 0; l < fitted.L; ++l) {
      EXPECT_EQ(fitted_fam.Get(r, l).Hash32(p.data()),
                full_fam.Get(r + 2, l).Hash32(p.data()));
    }
  }
  for (const E2lshParams* params : {&*full, &fitted}) {
    const HashFamily fam(16, *params);
    EXPECT_EQ(HashFamily::DrawFirst(16, *params).Hash32(p.data()),
              fam.Get(0, 0).Hash32(p.data()));
  }
}

TEST(HashFamily, BucketWidthScalesWithRadius) {
  E2lshConfig cfg;
  cfg.rho = 0.2;
  auto params = ComputeParams(5000, 16, cfg);
  ASSERT_TRUE(params.ok());
  HashFamily fam(16, *params);
  // Component width at radius index r is w * c^r.
  for (uint32_t r = 0; r < params->num_radii(); ++r) {
    EXPECT_NEAR(fam.Get(r, 0).w(), params->w * params->radii[r], 1e-9);
  }
}

TEST(HashFamily, WiderBucketsCatchFartherNeighbors) {
  // At a large radius, two points at distance ~4 should nearly always
  // fold equal; at radius 1 they almost never should.
  E2lshConfig cfg;
  cfg.rho = 0.2;
  cfg.x_max = 4.0;
  auto params = ComputeParams(5000, 32, cfg);
  ASSERT_TRUE(params.ok());
  HashFamily fam(32, *params);
  util::Rng rng(11);
  int near_radius_collisions = 0, far_radius_collisions = 0;
  const uint32_t last = params->num_radii() - 1;
  for (int t = 0; t < 200; ++t) {
    const auto p = RandomPoint(32, rng, 2.0);
    const auto q = PointAtDistance(p, 4.0, rng);
    const uint32_t l = static_cast<uint32_t>(t) % params->L;
    near_radius_collisions += fam.Get(0, l).Hash32(p.data()) ==
                              fam.Get(0, l).Hash32(q.data());
    far_radius_collisions += fam.Get(last, l).Hash32(p.data()) ==
                             fam.Get(last, l).Hash32(q.data());
  }
  EXPECT_LT(near_radius_collisions, 20);
  EXPECT_GT(far_radius_collisions, 120);
}

// Property sweep: the empirical compound collision probability at the
// design distances brackets (p2^m, p1^m) as the theory requires.
struct CollisionCase {
  double w;
  double dist;
};

class CompoundCollisionTest : public ::testing::TestWithParam<CollisionCase> {};

TEST_P(CompoundCollisionTest, EmpiricalRateNearTheory) {
  const auto [w, dist] = GetParam();
  const uint32_t d = 48;
  const uint32_t m = 4;
  util::Rng rng(12);
  int collisions = 0;
  const int trials = 3000;
  for (int t = 0; t < trials; ++t) {
    CompoundHash g(d, m, w, rng);
    const auto p = RandomPoint(d, rng);
    const auto q = PointAtDistance(p, dist, rng);
    collisions += g.Hash32(p.data()) == g.Hash32(q.data());
  }
  const double single = CollisionProbability(w / dist);
  const double expected = std::pow(single, m);
  EXPECT_NEAR(static_cast<double>(collisions) / trials, expected,
              0.03 + 3.0 * std::sqrt(expected * (1 - expected) / trials));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CompoundCollisionTest,
    ::testing::Values(CollisionCase{2.0, 1.0}, CollisionCase{4.0, 1.0},
                      CollisionCase{4.0, 2.0}, CollisionCase{8.0, 1.0},
                      CollisionCase{8.0, 4.0}, CollisionCase{16.0, 2.0}));

// ---------------------------------------------------------------------------
// Kernel bit identity. A saved index regenerates its hash family at load,
// so every kernel, in every build, must reproduce the hashes existing
// images were built with. The golden digests below were computed by the
// per-function scalar code that built them.
// ---------------------------------------------------------------------------

// Golden inputs: the origin, then in turn non-negative SIFT-like
// coordinates, Gaussians with negatives, vectors one third zeros, and
// coordinates up to +-1e6.
std::vector<float> GoldenPoint(uint32_t d, uint32_t i) {
  util::Rng rng(0x601dULL + i);
  std::vector<float> p(d, 0.0f);
  if (i == 0) return p;
  for (uint32_t k = 0; k < d; ++k) {
    switch (i % 4) {
      case 0: p[k] = static_cast<float>(rng.Uniform(0.0, 5.66)); break;
      case 1: p[k] = static_cast<float>(rng.Gaussian(0.0, 3.0)); break;
      case 2: p[k] = k % 3 == 0 ? 0.0f : static_cast<float>(rng.Gaussian()); break;
      default:
        p[k] = (k % 2 ? 1e6f : -1e6f) * static_cast<float>(rng.Uniform(0.0, 1.0));
    }
  }
  return p;
}

uint64_t Mix(uint64_t h, uint32_t v) {
  h ^= v;
  return h * 0x100000001b3ULL;
}

constexpr uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

class HashKernelTest : public ::testing::TestWithParam<HashKernel> {
 protected:
  void SetUp() override {
    if (!HashKernelSupported(GetParam())) {
      GTEST_SKIP() << "this CPU cannot run the " << HashKernelName(GetParam())
                   << " kernel";
    }
  }
};

TEST_P(HashKernelTest, SiftFamilyMatchesGoldenValues) {
  // The registry's SIFT parameters at perfbench's scale: n = 20000,
  // d = 128 -> m = 20, L = 11, 8 radii.
  E2lshConfig cfg;
  cfg.rho = 0.233;
  cfg.x_max = 2.83;
  auto params = ComputeParams(20000, 128, cfg);
  ASSERT_TRUE(params.ok());
  ASSERT_EQ(params->m, 20u);
  ASSERT_EQ(params->L, 11u);
  ASSERT_EQ(params->num_radii(), 8u);
  HashFamily fam(128, *params);
  const auto p1 = GoldenPoint(128, 1);
  EXPECT_EQ(fam.Get(0, 0).Hash32(p1.data(), GetParam()), 1706097578u);
  EXPECT_EQ(fam.Get(3, 5).Hash32(p1.data(), GetParam()), 1128347655u);
  EXPECT_EQ(fam.Get(7, 10).Hash32(p1.data(), GetParam()), 2042814354u);
  uint64_t digest = kDigestSeed;
  for (uint32_t i = 0; i < 32; ++i) {
    const auto p = GoldenPoint(128, i);
    for (uint32_t r = 0; r < fam.num_radii(); ++r) {
      for (uint32_t l = 0; l < fam.L(); ++l) {
        digest = Mix(digest, fam.Get(r, l).Hash32(p.data(), GetParam()));
      }
    }
  }
  EXPECT_EQ(digest, 0x9d94a034ef12d2c0ULL);
}

TEST_P(HashKernelTest, OddShapesMatchGoldenValues) {
  // m = 1, 3 and 21 reach a lone leftover row, a narrow pass, and full
  // eight-row passes plus leftovers; d = 1, 3, 5 and 131 reach inputs
  // shorter than four and d mod 4 tails of 1 and 3.
  struct Golden {
    uint32_t d, m;
    uint64_t digest;
  };
  const Golden golden[] = {
      {1, 1, 0x911384dbd4014288ULL},   {1, 3, 0x78c5dc529bfe0566ULL},
      {1, 21, 0xbed7928fd0513badULL},  {3, 1, 0xd64a7b441644c88dULL},
      {3, 3, 0x4f3049bf26a80019ULL},   {3, 21, 0x3f77bb8cb719c811ULL},
      {5, 1, 0xd89722cb6befcfc9ULL},   {5, 3, 0xa02b6dfbd1586247ULL},
      {5, 21, 0x6ddd81c42124ef01ULL},  {131, 1, 0xdbce2586664fe8abULL},
      {131, 3, 0xf1d76b75950735f5ULL}, {131, 21, 0xb38e075591991462ULL},
  };
  for (const Golden& g : golden) {
    util::Rng rng(g.d * 1000ULL + g.m);
    const CompoundHash hash(g.d, g.m, 2.5, rng);
    uint64_t digest = kDigestSeed;
    for (uint32_t i = 0; i < 16; ++i) {
      digest = Mix(digest, hash.Hash32(GoldenPoint(g.d, i).data(), GetParam()));
    }
    EXPECT_EQ(digest, g.digest) << "d = " << g.d << ", m = " << g.m;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, HashKernelTest,
    ::testing::Values(HashKernel::kScalar, HashKernel::kAvx2),
    [](const ::testing::TestParamInfo<HashKernel>& info) {
      return std::string(HashKernelName(info.param));
    });

TEST(HashKernel, Avx2ProjectionsMatchScalarBitForBit) {
  if (!HashKernelSupported(HashKernel::kAvx2)) {
    GTEST_SKIP() << "this CPU cannot run the avx2 kernel";
  }
  // The float dot products themselves, not only the floors: a fused
  // multiply-add changes the last bit of a dot long before it moves a
  // floor. 20000 inputs x 67 rows = 1.34M dot products, with zeros,
  // negatives, tiny values and +-1e6 mixed into every input; the shapes
  // reach every d mod 4 tail and passes of one to four row pairs.
  struct Shape {
    uint32_t d, m;
  };
  const Shape shapes[] = {{128, 20}, {131, 21}, {5, 3}, {1, 1},
                          {3, 7},    {64, 9},   {18, 6}};
  util::Rng rng(99);
  for (const Shape& s : shapes) {
    const CompoundHash hash(s.d, s.m, 3.0, rng);
    std::vector<float> o(s.d), dots(s.m), ref_dots(s.m);
    std::vector<float> res(s.m), ref_res(s.m);
    std::vector<int32_t> floors(s.m), ref_floors(s.m);
    for (int n = 0; n < 20000; ++n) {
      for (auto& v : o) {
        switch (rng.NextU64Below(8)) {
          case 0: v = 0.0f; break;
          case 1: v = static_cast<float>(rng.Uniform(-1e6, 1e6)); break;
          case 2: v = static_cast<float>(rng.Uniform(-1e-3, 1e-3)); break;
          default: v = static_cast<float>(rng.Gaussian(0.0, 10.0));
        }
      }
      hash.Project(HashKernel::kAvx2, o.data(), dots.data(), floors.data(), res.data());
      hash.Project(HashKernel::kScalar, o.data(), ref_dots.data(),
                   ref_floors.data(), ref_res.data());
      ASSERT_EQ(0, std::memcmp(dots.data(), ref_dots.data(), s.m * sizeof(float)))
          << "d = " << s.d << ", m = " << s.m << ", input " << n;
      ASSERT_EQ(floors, ref_floors) << "d = " << s.d << ", m = " << s.m;
      ASSERT_EQ(0, std::memcmp(res.data(), ref_res.data(), s.m * sizeof(float)))
          << "d = " << s.d << ", m = " << s.m << ", input " << n;
    }
  }
}

}  // namespace
}  // namespace e2lshos::lsh
