#include "lsh/hash_family.h"

namespace e2lshos::lsh {

namespace {

/// The seed's stream, past the L forks of every rung of R = 1, c, c^2, ...
/// below the ladder's bottom radii[0].
util::Rng MasterAtBottom(const E2lshParams& params) {
  util::Rng master(params.seed);
  if (params.c > 1.0 && !params.radii.empty()) {
    for (double radius = 1.0; radius < params.radii[0]; radius *= params.c) {
      for (uint32_t l = 0; l < params.L; ++l) master.Fork();
    }
  }
  return master;
}

}  // namespace

HashFamily::HashFamily(uint32_t dim, const E2lshParams& params)
    : dim_(dim), num_radii_(params.num_radii()), L_(params.L) {
  hashes_.reserve(static_cast<size_t>(num_radii_) * L_);
  util::Rng master = MasterAtBottom(params);
  for (uint32_t r = 0; r < num_radii_; ++r) {
    const double w_r = params.w * params.radii[r];
    for (uint32_t l = 0; l < L_; ++l) {
      util::Rng child = master.Fork();
      hashes_.emplace_back(dim, params.m, w_r, child);
    }
  }
}

CompoundHash HashFamily::DrawFirst(uint32_t dim, const E2lshParams& params) {
  util::Rng child = MasterAtBottom(params).Fork();
  return CompoundHash(dim, params.m, params.w * params.radii[0], child);
}

uint64_t HashFamily::MemoryBytes() const {
  uint64_t bytes = 0;
  for (const auto& g : hashes_) {
    // m projection rows and offsets, plus the one bucket width.
    bytes += static_cast<uint64_t>(g.m()) * (dim_ * sizeof(float) + sizeof(double)) +
             sizeof(double);
  }
  return bytes;
}

}  // namespace e2lshos::lsh
