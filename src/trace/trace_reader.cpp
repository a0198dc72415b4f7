#include "trace/trace_reader.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace picp {

namespace {
template <typename T>
T pod_at(const char* bytes) {
  T value;
  std::memcpy(&value, bytes, sizeof(T));
  return value;
}

/// Trace-ingest observability: samples and payload bytes delivered to
/// callers, plus salvage-mode outcomes. Registered once per process.
void count_sample_read(std::uint64_t frame_bytes) {
  static telemetry::Counter& samples =
      telemetry::registry().counter("trace.read_samples");
  static telemetry::Counter& bytes =
      telemetry::registry().counter("trace.read_bytes");
  samples.add();
  bytes.add(frame_bytes);
}

/// Read up to `size` bytes at `offset` without touching any shared file
/// offset. Returns the count read: less than `size` only at end of file
/// or on an I/O error, which callers report as truncation.
std::uint64_t read_at(int fd, char* out, std::uint64_t size,
                      std::uint64_t offset) {
  std::uint64_t done = 0;
  while (done < size) {
    const ssize_t n = ::pread(fd, out + done, size - done,
                              static_cast<off_t>(offset + done));
    if (n > 0) {
      done += static_cast<std::uint64_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      break;
    }
  }
  return done;
}

/// The footer at `pos`, if a valid one is there.
bool read_footer_at(int fd, std::uint64_t pos, std::uint64_t& num_samples,
                    std::uint32_t& digest) {
  char raw[TraceHeader::kFooterBytes] = {};
  if (read_at(fd, raw, sizeof(raw), pos) != sizeof(raw)) return false;
  if (pod_at<std::uint64_t>(raw) != TraceHeader::kFooterMagic) return false;
  const auto stored_crc = pod_at<std::uint32_t>(raw + 20);
  if (stored_crc != crc32c(raw, 20)) return false;
  num_samples = pod_at<std::uint64_t>(raw + 8);
  digest = pod_at<std::uint32_t>(raw + 16);
  return true;
}

void count_salvage_scan(const SalvageReport& report) {
  auto& reg = telemetry::registry();
  reg.counter("trace.salvage_scans").add();
  reg.counter("trace.salvage_samples").add(report.valid_samples);
  if (!report.intact()) reg.counter("trace.salvage_damaged").add();
}

}  // namespace

struct TraceReader::File {
  /// Opens the descriptor; load() then reads and checks the header.
  File(const std::string& path, TraceReadMode mode);
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  ~File();

  void load();

  const int fd;
  const std::string path;
  const TraceReadMode mode;
  TraceHeader header;
  std::uint64_t data_offset = 0;
  std::uint64_t effective_samples = 0;
  bool sealed = false;
  std::uint32_t footer_digest = 0;
  SalvageReport report;

 private:
  void check_strict(std::uint64_t file_bytes);
  void prescan_salvage(std::uint64_t file_bytes);
};

TraceReader::File::File(const std::string& path_in, TraceReadMode mode_in)
    : fd(::open(path_in.c_str(), O_RDONLY | O_CLOEXEC)),
      path(path_in),
      mode(mode_in) {
  PICP_REQUIRE(fd >= 0, "cannot open trace file: " + path);
}

TraceReader::File::~File() { ::close(fd); }

void TraceReader::File::load() {
  struct stat st {};
  PICP_REQUIRE(::fstat(fd, &st) == 0, "cannot stat trace file: " + path);
  const auto file_bytes = static_cast<std::uint64_t>(st.st_size);
  char raw[TraceHeader::header_bytes_for(TraceHeader::kVersionLatest)] = {};
  const std::uint64_t got = read_at(fd, raw, sizeof(raw), 0);
  header = decode_trace_header(raw, static_cast<std::size_t>(got), path,
                               file_bytes, mode == TraceReadMode::kStrict);
  data_offset = header.header_bytes();
  report.version = header.version;
  report.file_bytes = file_bytes;
  if (mode == TraceReadMode::kStrict)
    check_strict(file_bytes);
  else
    prescan_salvage(file_bytes);
}

void TraceReader::File::check_strict(std::uint64_t file_bytes) {
  const std::uint64_t frame = header.frame_bytes();
  if (header.version >= 2) {
    const std::uint64_t expected = data_offset +
                                   header.num_samples * frame +
                                   TraceHeader::kFooterBytes;
    if (file_bytes != expected)
      throw TraceCorruptError(
          path, "unsealed or truncated trace: header claims " +
                    std::to_string(header.num_samples) + " samples (" +
                    std::to_string(expected) + " bytes) but the file holds " +
                    std::to_string(file_bytes) + " bytes");
    std::uint64_t footer_samples = 0;
    if (!read_footer_at(fd, file_bytes - TraceHeader::kFooterBytes,
                        footer_samples, footer_digest))
      throw TraceCorruptError(path, "missing or corrupt sealed footer");
    if (footer_samples != header.num_samples)
      throw TraceCorruptError(
          path, "footer sample count (" + std::to_string(footer_samples) +
                    ") disagrees with the header (" +
                    std::to_string(header.num_samples) + ")");
    sealed = true;
  } else if (file_bytes < data_offset + header.num_samples * frame) {
    throw TraceCorruptError(path, "trace shorter than its header claims");
  }
  effective_samples = header.num_samples;
  report.sealed = header.version < 2 || sealed;
  report.digest_ok = report.sealed;
  report.claimed_samples = header.num_samples;
  report.valid_samples = header.num_samples;
  report.valid_bytes = data_offset + header.num_samples * frame;
}

void TraceReader::File::prescan_salvage(std::uint64_t file_bytes) {
  const std::uint64_t frame = header.frame_bytes();
  report.claimed_samples = header.num_samples;

  if (header.version < 2) {
    // v1 has no framing: every fully-present sample is recoverable. This
    // also rescues crash files whose header count was never patched.
    const std::uint64_t data = file_bytes - data_offset;
    report.valid_samples = data / frame;
    report.valid_bytes = data_offset + report.valid_samples * frame;
    report.sealed =
        data % frame == 0 && report.valid_samples == header.num_samples;
    report.digest_ok = report.sealed;
    if (!report.sealed)
      report.detail =
          "v1 trace: header claims " + std::to_string(header.num_samples) +
          " samples, file holds " + std::to_string(report.valid_samples) +
          " complete samples (" + std::to_string(data % frame) +
          " trailing bytes)";
    effective_samples = report.valid_samples;
    count_salvage_scan(report);
    return;
  }

  std::vector<char> raw(static_cast<std::size_t>(frame));
  std::uint64_t pos = data_offset;
  Crc32c digest;
  std::uint64_t valid = 0;
  std::uint64_t footer_samples = 0;
  std::uint32_t found_digest = 0;
  bool found_footer = false;
  while (true) {
    const std::uint64_t remaining = file_bytes - pos;
    if (remaining == TraceHeader::kFooterBytes &&
        read_footer_at(fd, pos, footer_samples, found_digest)) {
      found_footer = true;
      break;
    }
    if (remaining == 0) {
      report.detail = "unsealed trace (no footer); ends on a frame boundary";
      break;
    }
    if (remaining < frame) {
      report.detail = "unsealed trace with a partial trailing frame (" +
                      std::to_string(remaining) + " bytes)";
      break;
    }
    if (read_at(fd, raw.data(), frame, pos) != frame) {
      report.detail = "read failed at byte " + std::to_string(pos);
      break;
    }
    if (pod_at<std::uint32_t>(raw.data()) != TraceHeader::kFrameMagic) {
      report.detail = "bad frame magic at byte " + std::to_string(pos) +
                      " (sample " + std::to_string(valid) + ")";
      break;
    }
    const auto stored =
        pod_at<std::uint32_t>(raw.data() + frame - sizeof(std::uint32_t));
    if (stored != crc32c(raw.data(), static_cast<std::size_t>(
                                         frame - sizeof(std::uint32_t)))) {
      report.detail = "frame checksum mismatch at byte " +
                      std::to_string(pos) + " (sample " +
                      std::to_string(valid) + ")";
      break;
    }
    digest.update_pod(stored);
    ++valid;
    pos += frame;
  }

  report.valid_samples = valid;
  report.valid_bytes = data_offset + valid * frame;
  report.sealed = found_footer;
  if (found_footer) {
    report.claimed_samples = footer_samples;
    sealed = true;
    footer_digest = found_digest;
    report.digest_ok = digest.value() == footer_digest &&
                       footer_samples == valid &&
                       header.num_samples == footer_samples;
    if (!report.digest_ok)
      report.detail = digest.value() != footer_digest
                          ? "whole-file digest mismatch"
                          : "footer/header sample counts disagree with the "
                            "frames present";
  }
  effective_samples = valid;
  count_salvage_scan(report);
}

TraceReader::TraceReader(const std::string& path, TraceReadMode mode) {
  auto file = std::make_shared<File>(path, mode);
  file->load();
  file_ = std::move(file);
}

const TraceHeader& TraceReader::header() const { return file_->header; }

std::uint64_t TraceReader::num_samples() const {
  return file_->effective_samples;
}

std::optional<std::uint32_t> TraceReader::sealed_digest() const {
  if (!file_->sealed) return std::nullopt;
  return file_->footer_digest;
}

std::uint64_t TraceReader::byte_offset() const {
  return file_->data_offset + cursor_ * file_->header.frame_bytes();
}

const SalvageReport& TraceReader::salvage_report() const {
  return file_->report;
}

bool TraceReader::read_next(TraceSample& sample) {
  const File& file = *file_;
  if (cursor_ >= file.effective_samples) return false;
  failpoint::inject("trace.read");
  const TraceHeader& header = file.header;
  const std::size_t np = static_cast<std::size_t>(header.num_particles);
  const auto frame = static_cast<std::size_t>(header.frame_bytes());
  frame_buffer_.resize(frame);
  if (read_at(file.fd, frame_buffer_.data(), frame, byte_offset()) != frame)
    throw TraceCorruptError(
        file.path, "truncated trace sample " + std::to_string(cursor_));

  const char* payload = frame_buffer_.data();
  if (header.version >= 2) {
    if (pod_at<std::uint32_t>(payload) != TraceHeader::kFrameMagic)
      throw TraceCorruptError(file.path, "bad frame magic at sample " +
                                             std::to_string(cursor_));
    const auto stored =
        pod_at<std::uint32_t>(payload + frame - sizeof(std::uint32_t));
    if (stored != crc32c(payload, frame - sizeof(std::uint32_t)))
      throw TraceCorruptError(file.path, "frame checksum mismatch at sample " +
                                             std::to_string(cursor_));
    last_frame_crc_ = stored;
    running_digest_.update_pod(stored);
    payload += sizeof(std::uint32_t);
  }
  sample.iteration = pod_at<std::uint64_t>(payload);
  payload += sizeof(std::uint64_t);
  sample.positions.resize(np);
  if (header.coord_kind == CoordKind::kFloat32) {
    for (std::size_t i = 0; i < np; ++i) {
      const char* c = payload + i * 3 * sizeof(float);
      sample.positions[i] =
          Vec3(pod_at<float>(c), pod_at<float>(c + sizeof(float)),
               pod_at<float>(c + 2 * sizeof(float)));
    }
  } else {
    std::memcpy(sample.positions.data(), payload, np * sizeof(Vec3));
  }
  ++cursor_;
  count_sample_read(frame);
  // End of a strict read: the frame CRCs must reproduce the sealed
  // footer's whole-file digest (catches e.g. reordered frames whose
  // individual checksums are clean). Every cursor starts at sample 0 and
  // only moves forward, so its running digest covers every frame.
  if (file.mode == TraceReadMode::kStrict && file.sealed &&
      cursor_ == file.effective_samples &&
      running_digest_.value() != file.footer_digest)
    throw TraceCorruptError(file.path, "whole-file digest mismatch");
  return true;
}

void TraceReader::rewind() {
  cursor_ = 0;
  running_digest_.reset();
}

std::vector<TraceSample> read_full_trace(const std::string& path) {
  TraceReader reader(path);
  std::vector<TraceSample> samples;
  samples.reserve(reader.num_samples());
  TraceSample sample;
  while (reader.read_next(sample)) samples.push_back(sample);
  return samples;
}

}  // namespace picp
