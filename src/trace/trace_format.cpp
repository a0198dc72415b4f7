#include "trace/trace_format.hpp"

#include <cstring>
#include <limits>

#include "util/crc32.hpp"

namespace picp {

namespace {

template <typename T>
void append_pod(std::vector<char>& out, const T& value) {
  const auto* bytes = reinterpret_cast<const char*>(&value);
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

template <typename T>
T take_pod(const char*& cursor) {
  T value;
  std::memcpy(&value, cursor, sizeof(T));
  cursor += sizeof(T);
  return value;
}

}  // namespace

std::vector<char> encode_trace_header(const TraceHeader& header) {
  std::vector<char> out;
  out.reserve(header.header_bytes());
  const char* magic =
      header.version >= 2 ? TraceHeader::kMagicV2 : TraceHeader::kMagicV1;
  out.insert(out.end(), magic, magic + 8);
  append_pod(out, header.version);
  append_pod(out, static_cast<std::uint32_t>(header.coord_kind));
  append_pod(out, header.num_particles);
  append_pod(out, header.num_samples);
  append_pod(out, header.sample_stride);
  append_pod(out, header.domain.lo.x);
  append_pod(out, header.domain.lo.y);
  append_pod(out, header.domain.lo.z);
  append_pod(out, header.domain.hi.x);
  append_pod(out, header.domain.hi.y);
  append_pod(out, header.domain.hi.z);
  if (header.version >= 2) append_pod(out, crc32c(out.data(), out.size()));
  return out;
}

std::vector<char> encode_trace_footer(std::uint64_t num_samples,
                                      std::uint32_t digest) {
  std::vector<char> out;
  out.reserve(TraceHeader::kFooterBytes);
  append_pod(out, TraceHeader::kFooterMagic);
  append_pod(out, num_samples);
  append_pod(out, digest);
  append_pod(out, crc32c(out.data(), out.size()));
  return out;
}

TraceHeader decode_trace_header(const char* bytes, std::size_t size,
                                const std::string& path,
                                std::uint64_t file_bytes,
                                bool check_claimed_fits) {
  constexpr std::size_t kMagicBytes = sizeof(TraceHeader::kMagicV1);
  if (size < kMagicBytes)
    throw TraceCorruptError(path, "file shorter than the magic");
  std::uint32_t version = 0;
  if (std::memcmp(bytes, TraceHeader::kMagicV1, kMagicBytes) == 0)
    version = 1;
  else if (std::memcmp(bytes, TraceHeader::kMagicV2, kMagicBytes) == 0)
    version = 2;
  else
    throw Error("not a picpredict trace file: " + path);

  const std::size_t header_bytes = TraceHeader::header_bytes_for(version);
  if (size < header_bytes)
    throw TraceCorruptError(path, "truncated trace header");

  const char* cursor = bytes + kMagicBytes;
  TraceHeader header;
  header.version = take_pod<std::uint32_t>(cursor);
  if (header.version != version)
    throw TraceCorruptError(path, "header version field (" +
                                      std::to_string(header.version) +
                                      ") disagrees with the magic (v" +
                                      std::to_string(version) + ")");
  const auto kind = take_pod<std::uint32_t>(cursor);
  if (kind > 1)
    throw TraceCorruptError(path,
                            "bad coordinate kind " + std::to_string(kind));
  header.coord_kind = static_cast<CoordKind>(kind);
  header.num_particles = take_pod<std::uint64_t>(cursor);
  header.num_samples = take_pod<std::uint64_t>(cursor);
  header.sample_stride = take_pod<std::uint64_t>(cursor);
  header.domain.lo.x = take_pod<double>(cursor);
  header.domain.lo.y = take_pod<double>(cursor);
  header.domain.lo.z = take_pod<double>(cursor);
  header.domain.hi.x = take_pod<double>(cursor);
  header.domain.hi.y = take_pod<double>(cursor);
  header.domain.hi.z = take_pod<double>(cursor);

  if (version >= 2) {
    const std::uint32_t stored = take_pod<std::uint32_t>(cursor);
    const std::uint32_t computed =
        crc32c(bytes, header_bytes - sizeof(std::uint32_t));
    if (stored != computed)
      throw TraceCorruptError(path, "header checksum mismatch");
  }

  // Plausibility: reject field values whose implied byte counts overflow or
  // cannot fit in the actual file, so a malformed header fails here instead
  // of driving a multi-TB allocation or a bogus read loop downstream.
  if (header.num_particles == 0)
    throw TraceCorruptError(path, "trace has no particles");
  if (header.sample_stride == 0)
    throw TraceCorruptError(path, "sample stride is zero");
  const auto coord = static_cast<std::uint64_t>(header.coord_bytes());
  const std::uint64_t max_np =
      (std::numeric_limits<std::uint64_t>::max() - 64) / coord;
  if (header.num_particles > max_np)
    throw TraceCorruptError(
        path, "num_particles " + std::to_string(header.num_particles) +
                  " implies a sample size that overflows");
  if (check_claimed_fits && header.num_samples > 0) {
    const std::uint64_t frame = header.frame_bytes();
    const std::uint64_t fixed =
        header_bytes +
        (version >= 2 ? static_cast<std::uint64_t>(TraceHeader::kFooterBytes)
                      : 0);
    if (file_bytes < fixed || header.num_samples > (file_bytes - fixed) / frame)
      throw TraceCorruptError(
          path, "header claims " + std::to_string(header.num_samples) +
                    " samples x " + std::to_string(frame) +
                    " bytes but the file holds only " +
                    std::to_string(file_bytes) + " bytes");
  }
  return header;
}

}  // namespace picp
