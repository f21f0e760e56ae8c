#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace e2lshos::util {

namespace {

struct Crc32cTables {
  std::array<std::array<uint32_t, 256>, 4> t;

  constexpr Crc32cTables() : t{} {
    constexpr uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xFFu];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xFFu];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xFFu];
    }
  }
};

constexpr Crc32cTables kTables{};

uint32_t ExtendTable(uint32_t crc, const uint8_t* p, size_t len) {
  const auto& t = kTables.t;
  while (len >= 4) {
    crc ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
    crc = t[3][crc & 0xFFu] ^ t[2][(crc >> 8) & 0xFFu] ^
          t[1][(crc >> 16) & 0xFFu] ^ t[0][crc >> 24];
    p += 4;
    len -= 4;
  }
  while (len-- > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFFu];
  }
  return crc;
}

#if defined(__x86_64__)
// The crc32 instruction updates the same reflected internal state as the
// table loop, eight bytes (read little-endian, i.e. in byte order) at a
// time.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                       const uint8_t* p,
                                                       size_t len) {
  uint64_t state = crc;
  for (; len >= 8; p += 8, len -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    state = _mm_crc32_u64(state, word);
  }
  crc = static_cast<uint32_t>(state);
  for (; len > 0; ++p, --len) crc = _mm_crc32_u8(crc, *p);
  return crc;
}
#endif

}  // namespace

bool Crc32cKernelSupported(Crc32cKernel kernel) {
  if (kernel == Crc32cKernel::kTable) return true;
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

Crc32cKernel ActiveCrc32cKernel() {
  static const Crc32cKernel active = Crc32cKernelSupported(Crc32cKernel::kSse42)
                                         ? Crc32cKernel::kSse42
                                         : Crc32cKernel::kTable;
  return active;
}

const char* Crc32cKernelName(Crc32cKernel kernel) {
  return kernel == Crc32cKernel::kSse42 ? "sse4.2" : "table";
}

uint32_t Crc32cExtend(Crc32cKernel kernel, uint32_t crc, const void* data,
                      size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
#if defined(__x86_64__)
  if (kernel == Crc32cKernel::kSse42) return ExtendSse42(crc, p, len);
#else
  (void)kernel;
#endif
  return ExtendTable(crc, p, len);
}

}  // namespace e2lshos::util
