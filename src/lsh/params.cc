#include "lsh/params.h"

#include <algorithm>
#include <cmath>

#include "lsh/hash_family.h"
#include "lsh/hash_function.h"

namespace e2lshos::lsh {

namespace {

/// Below this share of colliding rows, the bottom rung is dropped. At
/// R = 1 the repo's generators and test fixtures read 0-1.2 %, at R = 2
/// 10.9-55.1 %; data with exact duplicates keeps R = 1 (every 10th row
/// doubled reads about 18 %).
constexpr double kMinCollidingShare = 0.03;

/// Rows whose compound value under the (0, 0) hash of `params`'s family
/// equals another row's.
uint64_t CollidingRows(const float* rows, uint64_t n, uint32_t dim,
                       const E2lshParams& params) {
  const CompoundHash g = HashFamily::DrawFirst(dim, params);
  std::vector<uint32_t> values(n);
  for (uint64_t i = 0; i < n; ++i) values[i] = g.Hash32(rows + i * dim);
  std::sort(values.begin(), values.end());
  uint64_t colliding = 0;
  for (uint64_t i = 0, j = 0; i < n; i = j) {
    while (j < n && values[j] == values[i]) ++j;
    if (j - i > 1) colliding += j - i;
  }
  return colliding;
}

}  // namespace

double RhoForWidth(double w, double c) {
  const double p1 = CollisionProbability(w);
  const double p2 = CollisionProbability(w / c);
  if (p1 <= 0.0 || p1 >= 1.0 || p2 <= 0.0 || p2 >= 1.0) return 1.0;
  return std::log(1.0 / p1) / std::log(1.0 / p2);
}

Result<E2lshParams> ComputeParams(uint64_t n, uint32_t d, const E2lshConfig& config) {
  if (n < 2) return Status::InvalidArgument("need at least 2 points");
  if (d == 0) return Status::InvalidArgument("dimension must be > 0");
  if (config.c <= 1.0) return Status::InvalidArgument("approximation ratio c must be > 1");
  if (config.w <= 0.0) return Status::InvalidArgument("bucket width w must be > 0");
  if (config.gamma <= 0.0) return Status::InvalidArgument("gamma must be > 0");
  if (config.s_factor <= 0.0) return Status::InvalidArgument("s_factor must be > 0");
  if (config.x_max <= 0.0) return Status::InvalidArgument("x_max must be > 0");

  E2lshParams p;
  p.c = config.c;
  p.w = config.w;
  p.gamma = config.gamma;
  p.s_factor = config.s_factor;
  p.seed = config.seed;

  p.p1 = CollisionProbability(config.w);
  p.p2 = CollisionProbability(config.w / config.c);
  if (p.p2 <= 0.0 || p.p2 >= 1.0) {
    return Status::InvalidArgument("bucket width w yields degenerate p2");
  }

  p.rho = config.rho > 0.0 ? config.rho : RhoForWidth(config.w, config.c);
  if (p.rho <= 0.0 || p.rho > 1.0) {
    return Status::InvalidArgument("derived rho out of (0, 1]");
  }

  const double ln_n = std::log(static_cast<double>(n));
  const double ln_inv_p2 = std::log(1.0 / p.p2);
  p.m = static_cast<uint32_t>(std::max(1.0, std::round(config.gamma * ln_n / ln_inv_p2)));
  p.L = static_cast<uint32_t>(
      std::max(1.0, std::ceil(std::pow(static_cast<double>(n), p.rho))));
  p.S = static_cast<uint64_t>(
      std::max(1.0, std::ceil(config.s_factor * static_cast<double>(p.L))));

  // Radius ladder R = 1, c, c^2, ... covering R_max = 2 x_max sqrt(d).
  const double r_max = 2.0 * config.x_max * std::sqrt(static_cast<double>(d));
  double radius = 1.0;
  p.radii.push_back(radius);
  while (radius < r_max) {
    radius *= config.c;
    p.radii.push_back(radius);
    if (p.radii.size() > 64) {
      return Status::InvalidArgument("radius schedule too long; rescale data");
    }
  }
  return p;
}

void FitLadderBottom(const float* rows, uint64_t n, uint32_t dim,
                     E2lshParams* params) {
  std::vector<double>& radii = params->radii;
  while (radii.size() > 1 &&
         static_cast<double>(CollidingRows(rows, n, dim, *params)) <
             kMinCollidingShare * static_cast<double>(n)) {
    radii.erase(radii.begin());
  }
}

}  // namespace e2lshos::lsh
