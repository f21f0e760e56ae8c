// Tests for util/crc32c.h (the checksum under the on-device formats) and
// the block CRC helpers in core/layout.h: known-answer vectors pin the
// polynomial and bit order on every kernel, the SSE4.2 kernel matches the
// table one, incremental extension must match one-shot hashing, and
// a stamped block must verify until any byte — header or payload —
// flips.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/layout.h"
#include "util/crc32c.h"

namespace e2lshos {
namespace {

class Crc32cKernelTest : public ::testing::TestWithParam<util::Crc32cKernel> {
 protected:
  void SetUp() override {
    if (!util::Crc32cKernelSupported(GetParam())) {
      GTEST_SKIP() << "this CPU cannot run the "
                   << util::Crc32cKernelName(GetParam()) << " kernel";
    }
  }
  uint32_t Crc(const void* data, size_t len) const {
    return util::Crc32cExtend(GetParam(), 0xFFFFFFFFu, data, len) ^ 0xFFFFFFFFu;
  }
};

TEST_P(Crc32cKernelTest, KnownAnswerVectors) {
  // The canonical CRC32C (Castagnoli) check value.
  const char* check = "123456789";
  EXPECT_EQ(Crc(check, 9), 0xE3069283u);
  // Empty input.
  EXPECT_EQ(Crc(nullptr, 0), 0x00000000u);
  // RFC 7143 (iSCSI) test patterns: 32 bytes of zeros / ones.
  std::vector<uint8_t> buf(32, 0x00);
  EXPECT_EQ(Crc(buf.data(), buf.size()), 0x8A9136AAu);
  std::fill(buf.begin(), buf.end(), 0xFF);
  EXPECT_EQ(Crc(buf.data(), buf.size()), 0x62A8AB43u);
}

TEST_P(Crc32cKernelTest, MatchesTableKernelAtEveryLengthAndOffset) {
  // Every length 0..4099 (both block sizes, and every remainder mod 8)
  // at every start offset mod 8, continuing a different state each time.
  std::vector<uint8_t> data(4099 + 8);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>((i * 2654435761u) >> 13);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 4099; ++len) {
      const uint32_t state = static_cast<uint32_t>(len * 0x9E3779B9u + offset);
      const uint8_t* p = data.data() + offset;
      ASSERT_EQ(util::Crc32cExtend(GetParam(), state, p, len),
                util::Crc32cExtend(util::Crc32cKernel::kTable, state, p, len))
          << "offset " << offset << ", length " << len;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Crc32cKernelTest,
    ::testing::Values(util::Crc32cKernel::kTable, util::Crc32cKernel::kSse42),
    [](const ::testing::TestParamInfo<util::Crc32cKernel>& info) {
      return info.param == util::Crc32cKernel::kSse42 ? std::string("sse42")
                                                      : std::string("table");
    });

TEST(Crc32c, IncrementalExtendMatchesOneShot) {
  std::vector<uint8_t> data(1023);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  const uint32_t oneshot = util::Crc32c(data.data(), data.size());
  // Split at every alignment-interesting boundary.
  for (const size_t split : {0ul, 1ul, 3ul, 4ul, 511ul, 512ul, 1022ul}) {
    uint32_t state = util::Crc32cExtend(0xFFFFFFFFu, data.data(), split);
    state = util::Crc32cExtend(state, data.data() + split,
                               data.size() - split);
    EXPECT_EQ(state ^ 0xFFFFFFFFu, oneshot) << "split at " << split;
  }
}

TEST(Crc32c, BlockStampAndVerify) {
  std::vector<uint8_t> block(core::kDefaultBlockBytes);
  for (size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<uint8_t>(i ^ (i >> 3));
  }
  core::StampBlockCrc(block.data(), block.size());
  EXPECT_TRUE(core::VerifyBlockCrc(block.data(), block.size()));

  // Any single flipped byte — header field, CRC field itself, payload,
  // last byte — must break verification.
  for (const size_t pos : {0ul, 5ul, static_cast<size_t>(core::kBlockCrcOffset),
                           64ul, block.size() - 1}) {
    block[pos] ^= 0x40;
    EXPECT_FALSE(core::VerifyBlockCrc(block.data(), block.size()))
        << "flip at byte " << pos;
    block[pos] ^= 0x40;
    EXPECT_TRUE(core::VerifyBlockCrc(block.data(), block.size()));
  }
}

TEST(Crc32c, StampIsIdempotent) {
  std::vector<uint8_t> block(1024, 0xA5);
  core::StampBlockCrc(block.data(), block.size());
  std::vector<uint8_t> again = block;
  core::StampBlockCrc(again.data(), again.size());
  EXPECT_EQ(block, again);
}

}  // namespace
}  // namespace e2lshos
