// Multi-Probe LSH probing sequences (Lv et al., VLDB 2007).
//
// The paper's Sec. 2.4 and conclusion single out Multi-Probe LSH as the
// kind of near-linear-index method that "is likely to benefit from modern
// storage devices" because it shares E2LSH's bucket structure. This
// module implements the query-directed probing sequence: given the
// residual positions of a query inside its m component buckets, generate
// the T perturbation vectors delta in {-1, 0, +1}^m with the smallest
// score
//
//     score(delta) = sum_j x_j(delta_j)^2,
//
// where x_j(-1) is the distance from the query's projection to the lower
// bucket boundary and x_j(+1) to the upper one. The classic min-heap
// subset expansion ("shift" and "expand" moves over atoms sorted by
// score) enumerates perturbations in exactly increasing score order.
#pragma once

#include <cstdint>
#include <vector>

#include "lsh/hash_function.h"

namespace e2lshos::lsh {

/// \brief Generates probing sequences for one compound hash evaluation.
class MultiProbeSequence {
 public:
  /// `residuals[j]` in [0, 1): fractional position of the query within
  /// component bucket j (CompoundHash::HashWithResiduals).
  explicit MultiProbeSequence(const std::vector<float>& residuals);

  /// The `t`-th best perturbation (0-based; t = -1 conceptually is the
  /// unperturbed bucket, not produced here). Returns false when the
  /// sequence is exhausted. Each call emits deltas[m] in {-1, 0, +1}.
  bool Next(std::vector<int8_t>* deltas);

  /// Convenience: the full top-T list of perturbations.
  std::vector<std::vector<int8_t>> FirstT(uint32_t t);

 private:
  struct Atom {
    float score2;   // squared boundary distance
    uint32_t func;  // component index j
    int8_t delta;   // -1 or +1
  };
  struct Subset {
    float score;
    std::vector<uint32_t> atoms;  // indices into sorted_atoms_, ascending
    bool operator>(const Subset& o) const { return score > o.score; }
  };

  bool Valid(const Subset& s) const;

  uint32_t m_ = 0;
  std::vector<Atom> sorted_atoms_;  // 2m atoms by ascending score
  std::vector<Subset> heap_;
};

/// \brief Apply a perturbation to the m floor values and fold to the
/// 32-bit compound value (the perturbed bucket key).
uint32_t PerturbedHash32(const int32_t* floors, const int8_t* deltas, uint32_t m);

}  // namespace e2lshos::lsh
