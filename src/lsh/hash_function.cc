#include "lsh/hash_function.h"

#include <cmath>
#include <memory>

#include "util/distance.h"
#include "util/mathutil.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace e2lshos::lsh {

namespace {

// floors[j] = floor((dots[j] + b[j]) / w) and its fractional part, all in
// double (Eq. 1); every saved image was hashed in this order. Inlined into
// each kernel, so floor compiles to that kernel's instructions.
__attribute__((always_inline)) inline void Quantize(const float* dots,
                                                    const double* b, double w,
                                                    uint32_t m, int32_t* floors,
                                                    float* residuals) {
  for (uint32_t j = 0; j < m; ++j) {
    const double proj = (static_cast<double>(dots[j]) + b[j]) / w;
    const double fl = std::floor(proj);
    floors[j] = static_cast<int32_t>(fl);
    if (residuals != nullptr) residuals[j] = static_cast<float>(proj - fl);
  }
}

void ProjectScalar(const float* a, const double* b, double w, const float* o,
                   uint32_t m, uint32_t d, float* dots, int32_t* floors,
                   float* residuals) {
  for (uint32_t j = 0; j < m; ++j) dots[j] = util::Dot(a + size_t{j} * d, o, d);
  Quantize(dots, b, w, m, floors, residuals);
}

#if defined(__x86_64__)

// Rows r0 and r1 share one register: lanes 0-3 hold r0's four running
// sums of util::Dot and lanes 4-7 r1's. Each lane multiplies, then adds,
// exactly as the scalar loop does (-ffp-contract=off keeps the two
// instructions apart), and each row is reduced in the scalar order.
// `rows` (1 to 2 * kPairs) rows start at `a`; a missing last row repeats
// the row before it and is not written.
template <int kPairs>
__attribute__((target("avx2"))) void DotPairsAvx2(const float* a,
                                                  uint32_t rows,
                                                  const float* o, uint32_t d,
                                                  float* dots) {
  constexpr uint32_t kRows = 2 * kPairs;
  const float* r[kRows];
  for (uint32_t k = 0; k < kRows; ++k) {
    r[k] = a + size_t{k < rows ? k : rows - 1} * d;
  }
  __m256 acc[kPairs];
  for (int p = 0; p < kPairs; ++p) acc[p] = _mm256_setzero_ps();
  const uint32_t d4 = d & ~3u;
  for (uint32_t i = 0; i < d4; i += 4) {
    const __m128 x4 = _mm_loadu_ps(o + i);
    const __m256 x = _mm256_insertf128_ps(_mm256_castps128_ps256(x4), x4, 1);
    for (int p = 0; p < kPairs; ++p) {
      const __m256 rows2 = _mm256_insertf128_ps(
          _mm256_castps128_ps256(_mm_loadu_ps(r[2 * p] + i)),
          _mm_loadu_ps(r[2 * p + 1] + i), 1);
      acc[p] = _mm256_add_ps(acc[p], _mm256_mul_ps(rows2, x));
    }
  }
  float sums[8 * kPairs];
  for (int p = 0; p < kPairs; ++p) _mm256_storeu_ps(sums + 8 * p, acc[p]);
  for (uint32_t k = 0; k < rows; ++k) {
    const float* s = sums + 4 * k;
    float dot = s[0] + s[1] + s[2] + s[3];
    for (uint32_t i = d4; i < d; ++i) dot += r[k][i] * o[i];
    dots[k] = dot;
  }
}

__attribute__((target("avx2"))) void ProjectAvx2(
    const float* a, const double* b, double w, const float* o, uint32_t m,
    uint32_t d, float* dots, int32_t* floors, float* residuals) {
  // Eight rows (four accumulators) per pass keep the adds' latency
  // hidden; the last 1-7 rows take one narrower pass.
  for (uint32_t j = 0; j < m; j += 8) {
    const uint32_t rows = m - j < 8 ? m - j : 8;
    const float* block = a + size_t{j} * d;
    switch ((rows + 1) / 2) {
      case 4: DotPairsAvx2<4>(block, rows, o, d, dots + j); break;
      case 3: DotPairsAvx2<3>(block, rows, o, d, dots + j); break;
      case 2: DotPairsAvx2<2>(block, rows, o, d, dots + j); break;
      default: DotPairsAvx2<1>(block, rows, o, d, dots + j); break;
    }
  }
  Quantize(dots, b, w, m, floors, residuals);
}

#endif  // __x86_64__

// Room for n values: on the stack for every shape the parameter
// derivation yields in practice, on the heap beyond that.
template <typename T>
class Scratch {
 public:
  explicit Scratch(uint32_t n) {
    if (n > kInline) heap_.reset(new T[n]);
  }
  T* get() { return heap_ ? heap_.get() : inline_; }

 private:
  static constexpr uint32_t kInline = 64;
  T inline_[kInline];
  std::unique_ptr<T[]> heap_;
};

}  // namespace

bool HashKernelSupported(HashKernel kernel) {
  if (kernel == HashKernel::kScalar) return true;
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

HashKernel ActiveHashKernel() {
  static const HashKernel active = HashKernelSupported(HashKernel::kAvx2)
                                       ? HashKernel::kAvx2
                                       : HashKernel::kScalar;
  return active;
}

const char* HashKernelName(HashKernel kernel) {
  return kernel == HashKernel::kAvx2 ? "avx2" : "scalar";
}

CompoundHash::CompoundHash(uint32_t dim, uint32_t m, double w, util::Rng& rng)
    : dim_(dim), m_(m), w_(w), a_(size_t{m} * dim), b_(m) {
  for (uint32_t j = 0; j < m; ++j) {
    float* row = a_.data() + size_t{j} * dim;
    for (uint32_t i = 0; i < dim; ++i) row[i] = static_cast<float>(rng.Gaussian());
    b_[j] = rng.Uniform(0.0, w);
  }
}

void CompoundHash::Project(HashKernel kernel, const float* o, float* dots,
                           int32_t* floors, float* residuals) const {
#if defined(__x86_64__)
  if (kernel == HashKernel::kAvx2) {
    ProjectAvx2(a_.data(), b_.data(), w_, o, m_, dim_, dots, floors, residuals);
    return;
  }
#else
  (void)kernel;
#endif
  ProjectScalar(a_.data(), b_.data(), w_, o, m_, dim_, dots, floors, residuals);
}

uint32_t CompoundHash::Fold(const int32_t* values, uint32_t m) {
  // FNV-1a over the component hashes, then a splitmix-style avalanche so
  // the low u bits used as the table index are well mixed.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint32_t j = 0; j < m; ++j) {
    h ^= static_cast<uint32_t>(values[j]);
    h *= 0x100000001b3ULL;
  }
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return static_cast<uint32_t>(h);
}

uint32_t CompoundHash::Hash32(const float* o, HashKernel kernel) const {
  Scratch<float> dots(m_);
  Scratch<int32_t> floors(m_);
  Project(kernel, o, dots.get(), floors.get(), nullptr);
  return Fold(floors.get(), m_);
}

void CompoundHash::HashVector(const float* o, int32_t* out) const {
  Scratch<float> dots(m_);
  Project(ActiveHashKernel(), o, dots.get(), out, nullptr);
}

void CompoundHash::HashWithResiduals(const float* o, int32_t* floors,
                                     float* residuals) const {
  Scratch<float> dots(m_);
  Project(ActiveHashKernel(), o, dots.get(), floors, residuals);
}

double CollisionProbability(double x) {
  if (x <= 0.0) return 0.0;
  const double kSqrt2Pi = 2.5066282746310002;
  return 1.0 - 2.0 * util::NormalCdf(-x) -
         (2.0 / (kSqrt2Pi * x)) * (1.0 - std::exp(-0.5 * x * x));
}

}  // namespace e2lshos::lsh
