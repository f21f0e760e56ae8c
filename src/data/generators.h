// Synthetic dataset generators approximating the paper's Table 1 corpus.
//
// E2LSH behaviour is governed by the dimension d and by dataset hardness
// (Relative Contrast / Local Intrinsic Dimensionality), not by the
// semantic content of the vectors. Three generator families cover the
// whole hardness range:
//
//   * Clustered: Gaussian mixture with tunable cluster count and spread —
//     models real corpora (SIFT, MSONG, GIST, GLOVE, MNIST, BIGANN);
//     fewer/larger clusters -> smaller RC -> harder.
//   * Uniform: i.i.d. U[0, scale]^d — the paper's RAND.
//   * Gaussian: single isotropic blob — the paper's GAUSS (hardest,
//     RC 1.14 / LID 147).
//
// Coordinates are scaled so that nearest-neighbor distances land inside
// the radius ladder R = 1, c, c^2, ... (see DatasetSpec::distance_scale).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "util/rng.h"

namespace e2lshos::data {

enum class GeneratorKind { kClustered, kUniform, kGaussian };

/// \brief How query points are drawn relative to each other. Production
/// traffic is not i.i.d.: a few hot queries dominate (Zipf), or a hot
/// working set absorbs most of the load (hotspot). Skewed modes draw
/// from a fixed population of template points so repeats actually
/// repeat — the access pattern a DRAM cache layer exists to exploit.
enum class QueryDistribution {
  kIndependent,  ///< Every query is a fresh draw (the historical default).
  kZipf,         ///< Population ranks weighted 1/(rank+1)^theta.
  kHotspot,      ///< hotspot_weight of traffic on hotspot_fraction of points.
};

struct GeneratorSpec {
  GeneratorKind kind = GeneratorKind::kClustered;
  uint32_t dim = 128;
  uint32_t num_clusters = 200;   ///< Clustered only.
  double cluster_std = 1.0;      ///< Clustered: per-coordinate sigma.
  double center_spread = 10.0;   ///< Clustered: centers ~ U[0, spread]^d.
  double scale = 10.0;           ///< Uniform: U[0, scale); Gaussian: sigma.
  bool byte_quantize = false;    ///< Round to the 0..255 grid (re-scaled).
  uint64_t seed = 7;

  /// Query-side skew (base points are always independent draws).
  QueryDistribution query_dist = QueryDistribution::kIndependent;
  uint64_t query_population = 1024;  ///< Distinct points behind a skewed mode.
  double zipf_theta = 0.99;          ///< kZipf: 0 = uniform, 1 = classic Zipf.
  double hotspot_fraction = 0.1;     ///< kHotspot: hot share of the population.
  double hotspot_weight = 0.9;       ///< kHotspot: probability mass on it.
};

/// \brief Stateful one-point-at-a-time sampler: the single source of
/// truth for every generator family's per-point logic.
///
/// Generate() below draws every base and query point through it, so
/// each family's value distribution — including the byte-quantization
/// grid — is defined in one place. Not thread-safe; callers serialize.
class PointSampler {
 public:
  explicit PointSampler(const GeneratorSpec& spec);

  /// Fill one point (spec.dim floats), advancing the random stream.
  void Next(float* out);

  /// Fill one *query* point. kIndependent is exactly Next(); the skewed
  /// modes draw a rank from the query distribution and return the
  /// corresponding template point (materialized from the same family on
  /// first use, so repeated ranks repeat bit-exactly).
  void NextQuery(float* out);

  uint32_t dim() const { return spec_.dim; }

 private:
  void EnsurePopulation();
  uint64_t NextRank();

  const GeneratorSpec spec_;
  util::Rng rng_;
  std::vector<float> centers_;   ///< Clustered only.
  double quantize_range_ = 0.0;  ///< 0 = byte quantization off.
  std::vector<float> population_;  ///< Skewed modes: templates, rank-major.
  std::vector<double> zipf_cdf_;   ///< kZipf: cumulative rank weights.
};

/// Generate `n` database points plus `num_queries` query points drawn from
/// the same distribution.
struct GeneratedData {
  Dataset base;
  Dataset queries;
};

GeneratedData Generate(const std::string& name, uint64_t n, uint64_t num_queries,
                       const GeneratorSpec& spec);

}  // namespace e2lshos::data
