#include "util/crc32.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace picp {

namespace detail {

namespace {
/// Reflected CRC32C (Castagnoli) polynomial — the variant with hardware
/// support on modern CPUs and strong burst-error detection, used by iSCSI,
/// ext4, and most storage formats.
constexpr std::uint32_t kCrc32cPoly = 0x82F63B78u;

constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ kCrc32cPoly : crc >> 1;
    table[i] = crc;
  }
  return table;
}

constexpr std::array<std::uint32_t, 256> kCrc32cTable = make_crc32c_table();
}  // namespace

std::uint32_t crc32c_table(std::uint32_t state, const unsigned char* data,
                           std::size_t size) {
  for (std::size_t i = 0; i < size; ++i)
    state = kCrc32cTable[(state ^ data[i]) & 0xFFu] ^ (state >> 8);
  return state;
}

#if defined(__x86_64__)
// The target attribute lets this one function use SSE4.2 without a build
// flag; it runs only after the run-time check below has seen the feature.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_instruction(
    std::uint32_t state, const unsigned char* data, std::size_t size) {
  std::uint64_t crc = state;
  for (; size >= 8; data += 8, size -= 8) {
    std::uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto tail = static_cast<std::uint32_t>(crc);
  for (; size > 0; ++data, --size) tail = _mm_crc32_u8(tail, *data);
  return tail;
}

bool crc32c_instruction_available() {
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return available;
}
#else
std::uint32_t crc32c_instruction(std::uint32_t state,
                                 const unsigned char* data, std::size_t size) {
  return crc32c_table(state, data, size);
}

bool crc32c_instruction_available() { return false; }
#endif

}  // namespace detail

void Crc32c::update(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  state_ = detail::crc32c_instruction_available()
               ? detail::crc32c_instruction(state_, bytes, size)
               : detail::crc32c_table(state_, bytes, size);
}

}  // namespace picp
