// Distance and dot-product kernels.
//
// Each sums in four running float accumulators (lane i mod 4), adds them
// as ((s0 + s1) + s2) + s3, then adds the d mod 4 tail. That order is
// fixed: the hash family is regenerated when an index is loaded, so the
// projections that built an image must come out bit for bit the same in
// every later build. The root CMakeLists compiles with -ffp-contract=off
// so no build fuses the multiply and the add. The hash projections run
// the same sums through the run-time-dispatched kernels of
// lsh/hash_function.cc.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

namespace e2lshos::util {

/// \brief Squared Euclidean distance between two d-dimensional vectors.
inline float SquaredL2(const float* a, const float* b, size_t d) {
  size_t i = 0;
  float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
  for (; i + 4 <= d; i += 4) {
    const float d0 = a[i] - b[i];
    const float d1 = a[i + 1] - b[i + 1];
    const float d2 = a[i + 2] - b[i + 2];
    const float d3 = a[i + 3] - b[i + 3];
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
  }
  float acc = acc0 + acc1 + acc2 + acc3;
  for (; i < d; ++i) {
    const float diff = a[i] - b[i];
    acc += diff * diff;
  }
  return acc;
}

/// \brief Euclidean distance.
inline float L2(const float* a, const float* b, size_t d) {
  return std::sqrt(SquaredL2(a, b, d));
}

/// \brief Dot product a . b over d dimensions.
inline float Dot(const float* a, const float* b, size_t d) {
  size_t i = 0;
  float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
  for (; i + 4 <= d; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  float acc = acc0 + acc1 + acc2 + acc3;
  for (; i < d; ++i) acc += a[i] * b[i];
  return acc;
}

/// \brief Squared L2 norm of a vector.
inline float SquaredNorm(const float* a, size_t d) { return Dot(a, a, d); }

}  // namespace e2lshos::util
