#include "util/crc32.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace picp {
namespace {

TEST(Crc32c, KnownAnswerVector) {
  // The canonical CRC32C check value (RFC 3720 / Castagnoli).
  const char* data = "123456789";
  EXPECT_EQ(crc32c(data, 9), 0xE3069283u);
}

TEST(Crc32c, EmptyInputIsZero) {
  EXPECT_EQ(crc32c("", 0), 0u);
  Crc32c crc;
  EXPECT_EQ(crc.value(), 0u);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  const std::string data =
      "the quick brown fox jumps over the lazy dog 0123456789";
  const std::uint32_t whole = crc32c(data.data(), data.size());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Crc32c crc;
    crc.update(data.data(), split);
    crc.update(data.data() + split, data.size() - split);
    EXPECT_EQ(crc.value(), whole) << "split at " << split;
  }
}

TEST(Crc32c, UpdatePodMatchesRawBytes) {
  const std::uint64_t v = 0x0123456789ABCDEFull;
  Crc32c a;
  a.update_pod(v);
  Crc32c b;
  b.update(&v, sizeof(v));
  EXPECT_EQ(a.value(), b.value());
}

TEST(Crc32c, ResetRestartsTheStream) {
  Crc32c crc;
  crc.update("garbage", 7);
  crc.reset();
  crc.update("123456789", 9);
  EXPECT_EQ(crc.value(), 0xE3069283u);
}

TEST(Crc32c, DetectsSingleBitFlips) {
  unsigned char buf[32];
  for (std::size_t i = 0; i < sizeof(buf); ++i)
    buf[i] = static_cast<unsigned char>(i * 37 + 11);
  const std::uint32_t clean = crc32c(buf, sizeof(buf));
  for (std::size_t byte = 0; byte < sizeof(buf); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      buf[byte] = static_cast<unsigned char>(buf[byte] ^ (1u << bit));
      EXPECT_NE(crc32c(buf, sizeof(buf)), clean)
          << "flip at byte " << byte << " bit " << bit;
      buf[byte] = static_cast<unsigned char>(buf[byte] ^ (1u << bit));
    }
  }
}

TEST(Crc32c, InstructionMatchesTheTable) {
  if (!detail::crc32c_instruction_available())
    GTEST_SKIP() << "this host's CPU has no CRC32C instruction (SSE4.2), so "
                    "every checksum runs the table loop";
  constexpr std::uint32_t kStart = 0xFFFFFFFFu;
  Xoshiro256 rng(20261020);
  std::vector<unsigned char> buffer(300 + 7);
  for (std::size_t size = 0; size <= 300; ++size) {
    for (unsigned char& byte : buffer)
      byte = static_cast<unsigned char>(rng.uniform_below(256));
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const unsigned char* data = buffer.data() + offset;
      const std::uint32_t table = detail::crc32c_table(kStart, data, size);
      EXPECT_EQ(detail::crc32c_instruction(kStart, data, size), table)
          << "whole, size " << size << " offset " << offset;
      // Uneven pieces, empty ones included, so the 8-byte steps of one
      // piece start at every alignment of the running checksum.
      std::uint32_t state = kStart;
      for (std::size_t at = 0; at < size;) {
        const std::size_t piece =
            std::min<std::size_t>(rng.uniform_below(20), size - at);
        state = detail::crc32c_instruction(state, data + at, piece);
        at += piece;
      }
      EXPECT_EQ(state, table) << "in pieces, size " << size << " offset "
                              << offset;
      EXPECT_EQ(crc32c(data, size), ~table)
          << "size " << size << " offset " << offset;
    }
  }
}

}  // namespace
}  // namespace picp
