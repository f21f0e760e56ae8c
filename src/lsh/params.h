// E2LSH parameter selection (paper Secs. 2.3 and 3.3).
//
// Theoretical setting (Eq. 5):
//   m = log_{1/p2} n,  L = n^rho,  S = 2 L,
//   rho = log(1/p1) / log(1/p2),  p1 = p_w(R), p2 = p_w(cR).
//
// Practical setting (Sec. 3.3): rho (hence L) is fixed per dataset large
// enough for the target accuracy range, and the accuracy is fine-tuned by
// a scaling parameter gamma applied to m (m = gamma * log_{1/p2} n), which
// leaves the index size unchanged. The candidate cap S = s_factor * L is
// the compensating knob for the modified success probability.
//
// The radius schedule (Sec. 2.3): R = 1, c, c^2, ..., up to
// R_max = 2 * x_max * sqrt(d), giving r = ceil(log_c R_max) + 1 radii.
// x_max fits the top of that ladder to the data; FitLadderBottom fits the
// bottom, at build time, by dropping the low rungs in which rows do not
// collide (README, "Deviations from the paper").
#pragma once

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace e2lshos::lsh {

/// \brief User-facing tuning knobs.
struct E2lshConfig {
  double c = 2.0;        ///< Approximation ratio of the (R,c)-NN ladder.
  double w = 4.0;        ///< Bucket width at radius R=1 (scaled by R).
  double gamma = 1.0;    ///< m scaling (accuracy knob; index size unchanged).
  double s_factor = 2.0; ///< Candidate cap S = s_factor * L per radius.
  /// If > 0, L = ceil(n^rho) with this exponent (the paper's practical
  /// mode). If 0, rho is derived from w via p1/p2 (theoretical mode).
  double rho = 0.0;
  /// Largest absolute coordinate value in the dataset (x_max); defines
  /// R_max = 2 * x_max * sqrt(d).
  double x_max = 1.0;
  uint64_t seed = 20230328;  ///< EDBT'23 start date; master RNG seed.
};

/// \brief Fully derived parameter set driving index build and search.
struct E2lshParams {
  // Echo of the config.
  double c = 2.0;
  double w = 4.0;
  double gamma = 1.0;
  double s_factor = 2.0;
  uint64_t seed = 0;

  // Derived quantities.
  double p1 = 0.0;   ///< Collision prob. at distance R.
  double p2 = 0.0;   ///< Collision prob. at distance cR.
  double rho = 0.0;  ///< log(1/p1)/log(1/p2) or the user override.
  uint32_t m = 0;    ///< Hash functions per compound hash.
  uint32_t L = 0;    ///< Compound hashes per radius.
  uint64_t S = 0;    ///< Candidate cap per radius.
  /// R = 1, c, c^2, ..., >= R_max from ComputeParams; a built index
  /// holds the fitted ladder R = c^k, ..., >= R_max (FitLadderBottom).
  std::vector<double> radii;

  uint32_t num_radii() const { return static_cast<uint32_t>(radii.size()); }
};

/// \brief Derive the full parameter set for a database of n points in
/// dimension d.
Result<E2lshParams> ComputeParams(uint64_t n, uint32_t d, const E2lshConfig& config);

/// \brief Fit the bottom of the radius ladder to `n` rows of `dim` floats
/// (row-major). Drops the lowest rung while fewer than 3 % of the rows share
/// their 32-bit compound value with another row under one compound hash of
/// that rung, its l = 0 hash (HashFamily::DrawFirst). Such a rung finds
/// next to nothing, yet a query reads one bucket block per table there. The
/// last rung is never dropped. Costs n compound hashes per tested rung, and
/// fitting a fitted ladder over the same rows changes nothing. Both index
/// builders call it before they draw the family; each kept rung keeps the
/// hashes it has on the full ladder.
void FitLadderBottom(const float* rows, uint64_t n, uint32_t dim,
                     E2lshParams* params);

/// \brief The index-size exponent rho implied by bucket width w and
/// approximation ratio c (theoretical mode).
double RhoForWidth(double w, double c);

}  // namespace e2lshos::lsh
