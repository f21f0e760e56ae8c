// The full set of compound hashes used by one E2LSH index: L compound
// hashes for each search radius, generated deterministically from the
// master seed (paper Sec. 5.3).
//
// For radius R the component bucket width is w * R: the geometry of
// Eq. 2/3 is scale-free, so scaling w by R makes the same (p1, p2) pair
// apply at every rung of the radius ladder.
//
// The seed draws L hashes per rung of the ladder R = 1, c, c^2, ... in
// that order. A ladder whose bottom was fitted to R = c^k (FitLadderBottom)
// skips the draws of the k rungs below it, so each rung keeps the hashes it
// has on the full ladder.
#pragma once

#include <cstdint>
#include <vector>

#include "lsh/hash_function.h"
#include "lsh/params.h"

namespace e2lshos::lsh {

class HashFamily {
 public:
  HashFamily() = default;

  /// Generate all num_radii x L compound hashes for dimension `dim`.
  HashFamily(uint32_t dim, const E2lshParams& params);

  /// Get(0, 0) of HashFamily(dim, params), drawn alone.
  static CompoundHash DrawFirst(uint32_t dim, const E2lshParams& params);

  /// The compound hash for (radius index, table index l).
  const CompoundHash& Get(uint32_t radius_idx, uint32_t l) const {
    return hashes_[radius_idx * L_ + l];
  }

  /// Hash a point under all L compound hashes of one radius.
  void HashAll(uint32_t radius_idx, const float* o, uint32_t* out) const {
    for (uint32_t l = 0; l < L_; ++l) out[l] = Get(radius_idx, l).Hash32(o);
  }

  uint32_t num_radii() const { return num_radii_; }
  uint32_t L() const { return L_; }
  uint32_t dim() const { return dim_; }

  /// Approximate heap footprint (the DRAM cost of keeping the hash
  /// functions resident; part of Table 6 accounting).
  uint64_t MemoryBytes() const;

 private:
  uint32_t dim_ = 0;
  uint32_t num_radii_ = 0;
  uint32_t L_ = 0;
  std::vector<CompoundHash> hashes_;
};

}  // namespace e2lshos::lsh
