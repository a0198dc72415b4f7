#pragma once

#include <cstddef>
#include <cstdint>

namespace picp {

namespace detail {
/// Continue a running (uninverted) CRC32C `state` over `size` bytes, one
/// byte per step through a 256-entry table. Runs on every host, and is the
/// reference the instruction path is tested against.
std::uint32_t crc32c_table(std::uint32_t state, const unsigned char* data,
                           std::size_t size);

/// The same, eight bytes per step with the CPU's CRC32C instruction (SSE4.2
/// `crc32` on x86-64). Call it only where `crc32c_instruction_available()`;
/// elsewhere it falls back to the table.
std::uint32_t crc32c_instruction(std::uint32_t state,
                                 const unsigned char* data, std::size_t size);

/// True when this host has the instruction; asked once, on first use.
bool crc32c_instruction_available();
}  // namespace detail

/// Incremental CRC32C accumulator for streamed data (trace frames, file
/// digests). `value()` may be called at any point; `update` continues the
/// same running checksum.
class Crc32c {
 public:
  /// Runs the CPU's CRC32C instruction where the host has it, otherwise
  /// the table loop; both give the same checksum.
  void update(const void* data, std::size_t size);

  /// Checksum a trivially-copyable value by its object representation.
  template <typename T>
  void update_pod(const T& value) {
    update(&value, sizeof(T));
  }

  std::uint32_t value() const { return ~state_; }
  void reset() { state_ = 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot CRC32C of a buffer. crc32c("123456789") == 0xE3069283.
inline std::uint32_t crc32c(const void* data, std::size_t size) {
  Crc32c crc;
  crc.update(data, size);
  return crc.value();
}

}  // namespace picp
