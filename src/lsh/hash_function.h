// p-stable LSH hash functions for the Euclidean distance (Datar et al.).
//
//   h(o) = floor((a . o + b) / w)            (paper Eq. 1)
//   g_i(o) = (h_i1(o), ..., h_im(o))         (paper Eq. 4)
//
// A compound hash g_i is folded into a single 32-bit value v (paper
// Sec. 5.2): the low u bits index the hash table, the remaining v-u bits
// become the fingerprint stored next to the object id in the bucket.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace e2lshos::lsh {

/// \brief The implementations of CompoundHash's projection routine. Each
/// sums every dot product in util::Dot's order, so all of them return the
/// same bits; a process runs the fastest one its CPU supports.
enum class HashKernel { kScalar, kAvx2 };

/// Whether this CPU can run `kernel` (kScalar always can).
bool HashKernelSupported(HashKernel kernel);

/// The kernel every CompoundHash in this process runs, picked once.
HashKernel ActiveHashKernel();

/// "scalar" or "avx2".
const char* HashKernelName(HashKernel kernel);

/// \brief A compound hash g(o) of m p-stable functions folded to a 32-bit
/// value. The functions' projection vectors a_j are the rows of one
/// contiguous m x d matrix.
class CompoundHash {
 public:
  CompoundHash() = default;

  /// Draw m functions over dimension `dim` with bucket width `w`: for each
  /// in turn, a ~ N(0, I_d), then b ~ U[0, w). A saved index regenerates
  /// its functions from the seed, so this draw order is part of the format.
  CompoundHash(uint32_t dim, uint32_t m, double w, util::Rng& rng);

  /// The projection routine behind every method below, on `kernel` (which
  /// must be supported). For each function j: dots[j] = a_j . o in float,
  /// floors[j] = floor((dots[j] + b_j) / w) in double, and, when
  /// `residuals` is not null, residuals[j] = the fractional part in [0, 1).
  /// Every array holds m() values.
  void Project(HashKernel kernel, const float* o, float* dots, int32_t* floors,
               float* residuals) const;

  /// 32-bit folded hash of a point: FNV-1a over the m floor values with a
  /// final avalanche. Two points receive equal values iff all m component
  /// hashes collide (modulo a 2^-32 false-collision rate).
  uint32_t Hash32(const float* o) const { return Hash32(o, ActiveHashKernel()); }

  /// Hash32 on a given kernel (tests pin every kernel to the same bits).
  uint32_t Hash32(const float* o, HashKernel kernel) const;

  /// The raw m-dimensional hash vector (diagnostics / tests).
  void HashVector(const float* o, int32_t* out) const;

  /// Floor values plus fractional in-bucket positions (residuals in
  /// [0, 1)), the inputs to Multi-Probe perturbation scoring.
  void HashWithResiduals(const float* o, int32_t* floors, float* residuals) const;

  uint32_t m() const { return m_; }
  double w() const { return w_; }

  /// Fold an m-vector of floor values to the 32-bit compound value.
  static uint32_t Fold(const int32_t* values, uint32_t m);

 private:
  uint32_t dim_ = 0;
  uint32_t m_ = 0;
  double w_ = 1.0;
  std::vector<float> a_;   // m x dim_, row j is function j's projection
  std::vector<double> b_;  // m offsets in [0, w_)
};

/// \brief Collision probability p_w(s) of h for two points at distance s,
/// parameterized by x = w / s:
///
///   p(x) = 1 - 2 Phi(-x) - (2 / (sqrt(2 pi) x)) (1 - exp(-x^2 / 2)).
///
/// Monotonically increasing in x (so decreasing in the distance s).
double CollisionProbability(double w_over_s);

}  // namespace e2lshos::lsh
