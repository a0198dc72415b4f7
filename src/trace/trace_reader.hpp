#pragma once

#include <memory>
#include <optional>
#include <string>

#include "trace/trace_format.hpp"
#include "util/crc32.hpp"

namespace picp {

/// How strictly a trace is opened.
enum class TraceReadMode {
  /// Default: the file must be complete (v2: sealed footer present and
  /// consistent); every frame checksum is verified on the fly and a
  /// whole-file digest check runs when the final sample is reached. Any
  /// fault throws TraceCorruptError with a salvage hint.
  kStrict,
  /// Recovery: pre-scan the file and expose the longest checksum-clean
  /// sample prefix of a truncated/corrupted/unsealed trace (including the
  /// `.part` file an interrupted run leaves). `salvage_report()` says
  /// exactly what was recovered and what was lost.
  kSalvage,
};

/// Streaming trace reader: decodes one sample at a time so workload
/// generation over a trace far larger than memory stays O(num_particles)
/// in space — the property the paper relies on for hundreds-of-GB traces.
/// Reads both v2 (checksummed frames, sealed footer) and legacy v1 traces.
///
/// A reader is an immutable opened file (descriptor, header, footer,
/// salvage report) shared by every copy, plus its own cursor. Copying a
/// reader yields an independent cursor at the same position; frames are
/// read with positional reads, so copies on different threads never
/// share a file offset and need no lock.
class TraceReader {
 public:
  explicit TraceReader(const std::string& path,
                       TraceReadMode mode = TraceReadMode::kStrict);

  const TraceHeader& header() const;
  std::uint64_t num_particles() const { return header().num_particles; }
  /// Samples this reader will yield: the header's count in strict mode,
  /// the recovered prefix length in salvage mode.
  std::uint64_t num_samples() const;

  /// The sealed footer's whole-file digest (v2 only; nullopt for v1 and
  /// for unsealed traces).
  std::optional<std::uint32_t> sealed_digest() const;

  /// Decode the next sample into `sample` (its buffer is reused). Returns
  /// false at end of trace. Verifies the frame checksum (v2).
  bool read_next(TraceSample& sample);

  /// Rewind to the first sample.
  void rewind();

  /// Index of the next sample to be read (0-based).
  std::uint64_t cursor() const { return cursor_; }

  /// File offset of the next frame — what a checkpoint records so a
  /// resumed writer knows where the verified prefix ends.
  std::uint64_t byte_offset() const;

  /// Stored CRC of the most recently read frame (v2; 0 for v1).
  std::uint32_t last_frame_crc() const { return last_frame_crc_; }

  /// Scan results (meaningful detail in salvage mode; strict mode fills
  /// the trivial "intact" report implied by its own checks passing).
  const SalvageReport& salvage_report() const;

 private:
  /// Everything fixed at open; closes the descriptor with the last copy.
  struct File;

  std::shared_ptr<const File> file_;
  std::uint64_t cursor_ = 0;
  std::uint32_t last_frame_crc_ = 0;
  Crc32c running_digest_;
  std::vector<char> frame_buffer_;
};

/// Read an entire trace into memory (tests / small runs only).
std::vector<TraceSample> read_full_trace(const std::string& path);

}  // namespace picp
