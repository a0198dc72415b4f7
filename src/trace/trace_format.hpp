#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/vec3.hpp"
#include "util/error.hpp"

namespace picp {

/// The particle trace is the framework's primary input: particle positions
/// sampled every `sample_stride` solver iterations (the paper samples every
/// 100 iterations). Two on-disk versions exist (both little-endian):
///
/// v1 (legacy, read-only):
///   [ magic "PICPTRC1" | u32 version | u32 coord_kind | u64 num_particles
///     | u64 num_samples | u64 sample_stride | 6 × f64 domain ]
///   then per sample: [ u64 iteration | num_particles × 3 coords ]
///
/// v2 (current, crash-safe — see DESIGN.md "Trace format v2 & crash
/// safety"):
///   header = the v1 layout (magic "PICPTRC2") + u32 CRC32C of the
///   preceding 88 header bytes;
///   per sample, a framed record:
///     [ u32 frame_magic | u64 iteration | num_particles × 3 coords
///       | u32 CRC32C of the frame bytes before this field ]
///   sealed footer, appended at close:
///     [ u64 footer_magic | u64 num_samples
///       | u32 digest = CRC32C over the sequence of frame CRCs
///       | u32 CRC32C of the preceding 20 footer bytes ]
///
/// The writer streams frames into `<path>.part` and atomically renames the
/// sealed file over `<path>`, so the final name only ever holds a complete,
/// verified trace; an interrupted run leaves a salvageable `.part`.
///
/// coord_kind selects f32 (compact; default — matches the paper's concern
/// about hundreds-of-GB traces) or f64 storage.
enum class CoordKind : std::uint32_t { kFloat32 = 0, kFloat64 = 1 };

/// Corrupt or truncated trace bytes. Always carries a salvage hint: the
/// `picpredict trace verify` / `trace repair` subcommands recover the
/// longest valid sample prefix instead of losing the whole run.
class TraceCorruptError : public CorruptInputError {
 public:
  TraceCorruptError(const std::string& path, const std::string& detail)
      : CorruptInputError(
            path, detail,
            "inspect with `picpredict trace verify " + path +
                "`; recover the valid prefix with `picpredict trace repair " +
                path + " --out <fixed.trace>`") {}
};

struct TraceHeader {
  static constexpr char kMagicV1[8] = {'P', 'I', 'C', 'P', 'T', 'R', 'C', '1'};
  static constexpr char kMagicV2[8] = {'P', 'I', 'C', 'P', 'T', 'R', 'C', '2'};
  static constexpr std::uint32_t kVersionLatest = 2;
  /// Per-sample frame sync marker (v2). Arbitrary tag, never a legal
  /// iteration prefix in practice; the frame CRC is the real integrity
  /// check.
  static constexpr std::uint32_t kFrameMagic = 0x32435246u;  // "FRC2"
  static constexpr std::uint64_t kFooterMagic =
      0x444E455450434950ull;  // "PICPTEND"
  static constexpr std::size_t kFooterBytes = 24;

  std::uint32_t version = kVersionLatest;
  CoordKind coord_kind = CoordKind::kFloat32;
  std::uint64_t num_particles = 0;
  std::uint64_t num_samples = 0;
  std::uint64_t sample_stride = 1;
  Aabb domain;

  /// Bytes per particle position record.
  std::size_t coord_bytes() const {
    return coord_kind == CoordKind::kFloat32 ? 3 * sizeof(float)
                                             : 3 * sizeof(double);
  }
  /// Position payload bytes of one sample.
  std::uint64_t payload_bytes() const {
    return num_particles * static_cast<std::uint64_t>(coord_bytes());
  }
  /// On-disk size of one v1 sample (iteration stamp + positions).
  std::size_t sample_bytes() const {
    return sizeof(std::uint64_t) +
           static_cast<std::size_t>(payload_bytes());
  }
  /// On-disk size of one sample record for this header's version
  /// (v2 adds the frame magic and CRC).
  std::uint64_t frame_bytes() const {
    const std::uint64_t payload = payload_bytes();
    return version >= 2 ? sizeof(std::uint32_t) + sizeof(std::uint64_t) +
                              payload + sizeof(std::uint32_t)
                        : sizeof(std::uint64_t) + payload;
  }
  /// On-disk header size for a format version (v1: 88, v2: 92).
  static constexpr std::size_t header_bytes_for(std::uint32_t version) {
    const std::size_t v1 = sizeof(kMagicV1) + 2 * sizeof(std::uint32_t) +
                           3 * sizeof(std::uint64_t) + 6 * sizeof(double);
    return version >= 2 ? v1 + sizeof(std::uint32_t) : v1;
  }
  std::size_t header_bytes() const { return header_bytes_for(version); }
};

/// One decoded trace sample: all particle positions at one instant.
struct TraceSample {
  std::uint64_t iteration = 0;
  std::vector<Vec3> positions;
};

/// What a salvage scan found in a (possibly damaged) trace file.
struct SalvageReport {
  std::uint32_t version = 0;
  /// v2: a valid footer terminates the file; v1: the header's sample count
  /// exactly matches the file size (v1 has no footer).
  bool sealed = false;
  /// Sealed traces only: the footer's whole-file digest matches the frames
  /// actually present (always true for sealed v1, which has no digest).
  bool digest_ok = false;
  /// Sample count the header/footer claims (0 for an unsealed `.part`).
  std::uint64_t claimed_samples = 0;
  /// Complete, checksum-clean samples actually recoverable.
  std::uint64_t valid_samples = 0;
  /// Bytes covered by the header + valid frames (the salvageable prefix).
  std::uint64_t valid_bytes = 0;
  std::uint64_t file_bytes = 0;
  /// Human-readable description of the first fault ("ok" when clean).
  std::string detail = "ok";

  /// True iff the trace is complete and every integrity check passed.
  bool intact() const {
    return sealed && digest_ok && valid_samples == claimed_samples;
  }
};

/// Serialize a header (including its stored num_samples) to the exact
/// on-disk byte layout for `header.version`; v2 appends the header CRC.
std::vector<char> encode_trace_header(const TraceHeader& header);

/// Serialize the v2 sealed footer.
std::vector<char> encode_trace_footer(std::uint64_t num_samples,
                                      std::uint32_t digest);

/// Parse and validate a trace header from the first `size` bytes of a
/// file (`size` may be short of a full header; that is reported as
/// truncation). The first sample starts at `header.header_bytes()`.
/// `file_bytes` is the file's actual size, used to reject headers whose
/// claimed sample count cannot fit (a malformed header must fail with a
/// typed error, not attempt a multi-TB allocation); pass
/// `check_claimed_fits = false` when scanning unsealed/damaged files whose
/// header fields are allowed to disagree with the byte count.
/// Throws TraceCorruptError (or Error for a non-trace file).
TraceHeader decode_trace_header(const char* bytes, std::size_t size,
                                const std::string& path,
                                std::uint64_t file_bytes,
                                bool check_claimed_fits = true);

}  // namespace picp
