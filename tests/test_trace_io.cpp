#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <thread>

#include "trace/trace_reader.hpp"
#include "trace/trace_salvage.hpp"
#include "trace/trace_writer.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace picp {
namespace {

std::vector<Vec3> random_positions(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Vec3> out(n);
  for (auto& p : out)
    p = Vec3(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 2));
  return out;
}

class TraceRoundTrip : public testing::TestWithParam<CoordKind> {};

TEST_P(TraceRoundTrip, PreservesSamples) {
  // Param-unique name: ctest runs each instantiation as its own process.
  const std::string path = testing::TempDir() + "/picp_trace_rt_" +
                           std::to_string(static_cast<int>(GetParam())) +
                           ".bin";
  const Aabb domain(Vec3(0, 0, 0), Vec3(1, 1, 2));
  const std::size_t np = 100;
  std::vector<std::vector<Vec3>> samples;
  {
    TraceWriter writer(path, np, 50, domain, GetParam());
    for (std::uint64_t s = 0; s < 5; ++s) {
      samples.push_back(random_positions(np, s + 1));
      writer.append(s * 50, samples.back());
    }
    writer.close();
    EXPECT_EQ(writer.samples_written(), 5u);
  }
  TraceReader reader(path);
  EXPECT_EQ(reader.num_particles(), np);
  EXPECT_EQ(reader.num_samples(), 5u);
  EXPECT_EQ(reader.header().sample_stride, 50u);
  EXPECT_EQ(reader.header().coord_kind, GetParam());

  const double tol = GetParam() == CoordKind::kFloat64 ? 0.0 : 1e-6;
  TraceSample sample;
  std::size_t s = 0;
  while (reader.read_next(sample)) {
    EXPECT_EQ(sample.iteration, s * 50);
    ASSERT_EQ(sample.positions.size(), np);
    for (std::size_t i = 0; i < np; ++i) {
      EXPECT_NEAR(sample.positions[i].x, samples[s][i].x, tol);
      EXPECT_NEAR(sample.positions[i].y, samples[s][i].y, tol);
      EXPECT_NEAR(sample.positions[i].z, samples[s][i].z, tol);
    }
    ++s;
  }
  EXPECT_EQ(s, 5u);
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Kinds, TraceRoundTrip,
                         testing::Values(CoordKind::kFloat32,
                                         CoordKind::kFloat64));

TEST(TraceIo, RewindRestartsAtFirstSample) {
  const std::string path = testing::TempDir() + "/picp_trace_rw.bin";
  {
    TraceWriter writer(path, 10, 1, Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)));
    writer.append(0, random_positions(10, 1));
    writer.append(1, random_positions(10, 2));
  }
  TraceReader reader(path);
  TraceSample a, b;
  ASSERT_TRUE(reader.read_next(a));
  ASSERT_TRUE(reader.read_next(b));
  EXPECT_FALSE(reader.read_next(b));
  reader.rewind();
  EXPECT_EQ(reader.cursor(), 0u);
  TraceSample again;
  ASSERT_TRUE(reader.read_next(again));
  EXPECT_EQ(again.iteration, a.iteration);
  EXPECT_EQ(again.positions.size(), a.positions.size());
  std::remove(path.c_str());
}

TEST(TraceIo, DomainStoredInHeader) {
  const std::string path = testing::TempDir() + "/picp_trace_dom.bin";
  const Aabb domain(Vec3(-1, -2, -3), Vec3(4, 5, 6));
  {
    TraceWriter writer(path, 3, 7, domain);
    writer.append(0, random_positions(3, 1));
  }
  TraceReader reader(path);
  EXPECT_EQ(reader.header().domain.lo, domain.lo);
  EXPECT_EQ(reader.header().domain.hi, domain.hi);
  std::remove(path.c_str());
}

TEST(TraceIo, WrongParticleCountThrows) {
  const std::string path = testing::TempDir() + "/picp_trace_bad.bin";
  TraceWriter writer(path, 10, 1, Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)));
  EXPECT_THROW(writer.append(0, random_positions(9, 1)), Error);
  std::remove(path.c_str());
}

TEST(TraceIo, DestructorPatchesHeader) {
  const std::string path = testing::TempDir() + "/picp_trace_dtor.bin";
  {
    TraceWriter writer(path, 4, 1, Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)));
    writer.append(0, random_positions(4, 1));
    // no explicit close
  }
  TraceReader reader(path);
  EXPECT_EQ(reader.num_samples(), 1u);
  std::remove(path.c_str());
}

TEST(TraceIo, NotATraceFileThrows) {
  const std::string path = testing::TempDir() + "/picp_not_trace.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a trace file at all, definitely long enough";
  }
  EXPECT_THROW(TraceReader reader(path), Error);
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(TraceReader reader("/nonexistent/trace.bin"), Error);
}

TEST(TraceIo, V2IsTheDefaultAndLeavesNoPartial) {
  const std::string path = testing::TempDir() + "/picp_trace_v2.bin";
  {
    TraceWriter writer(path, 8, 1, Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)));
    writer.append(0, random_positions(8, 1));
    // While the writer is open, only the staging `.part` exists — the
    // final name never holds a torn file.
    EXPECT_FALSE(std::ifstream(path, std::ios::binary).is_open());
    EXPECT_TRUE(
        std::ifstream(writer.partial_path(), std::ios::binary).is_open());
    writer.close();
  }
  EXPECT_FALSE(
      std::ifstream(path + ".part", std::ios::binary).is_open());
  TraceReader reader(path);
  EXPECT_EQ(reader.header().version, 2u);
  EXPECT_EQ(reader.num_samples(), 1u);
  std::remove(path.c_str());
}

TEST(TraceIo, V1WriterRoundTripsForLegacyCompat) {
  const std::string path = testing::TempDir() + "/picp_trace_v1.bin";
  const auto positions = random_positions(6, 3);
  {
    TraceWriter writer(path, 6, 4, Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)),
                       CoordKind::kFloat64, 1);
    writer.append(8, positions);
    writer.close();
  }
  TraceReader reader(path);
  EXPECT_EQ(reader.header().version, 1u);
  EXPECT_EQ(reader.num_samples(), 1u);
  TraceSample sample;
  ASSERT_TRUE(reader.read_next(sample));
  EXPECT_EQ(sample.iteration, 8u);
  ASSERT_EQ(sample.positions.size(), 6u);
  EXPECT_EQ(sample.positions[5].z, positions[5].z);
  std::remove(path.c_str());
}

TEST(TraceIo, OverwriteKeepsOldTraceUntilSealed) {
  const std::string path = testing::TempDir() + "/picp_trace_ow.bin";
  {
    TraceWriter writer(path, 2, 1, Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)));
    writer.append(0, random_positions(2, 1));
    writer.close();
  }
  {
    TraceWriter writer(path, 2, 1, Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)));
    writer.append(0, random_positions(2, 2));
    writer.append(1, random_positions(2, 3));
    // The previous sealed trace is still what readers see mid-write.
    TraceReader old_reader(path);
    EXPECT_EQ(old_reader.num_samples(), 1u);
    writer.close();
  }
  TraceReader reader(path);
  EXPECT_EQ(reader.num_samples(), 2u);
  std::remove(path.c_str());
}

TEST(TraceIo, ReadFullTraceHelper) {
  const std::string path = testing::TempDir() + "/picp_trace_full.bin";
  {
    TraceWriter writer(path, 5, 2, Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)),
                       CoordKind::kFloat64);
    writer.append(0, random_positions(5, 1));
    writer.append(2, random_positions(5, 2));
    writer.append(4, random_positions(5, 3));
  }
  const auto samples = read_full_trace(path);
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[2].iteration, 4u);
  std::remove(path.c_str());
}

TEST(TraceIo, CopiesReadIndependentlyOnTheirOwnThreads) {
  const std::string path = testing::TempDir() + "/picp_trace_cursors.bin";
  constexpr std::size_t kSamples = 12;
  {
    TraceWriter writer(path, 40, 5, Aabb(Vec3(0, 0, 0), Vec3(1, 1, 2)));
    for (std::uint64_t s = 0; s < kSamples; ++s)
      writer.append(s * 5, random_positions(40, s + 11));
  }
  const std::vector<TraceSample> expected = read_full_trace(path);
  ASSERT_EQ(expected.size(), kSamples);

  // Copy k is taken after the original has read k samples, so the copies
  // start at k = 0..K-1 and share one opened file.
  constexpr std::size_t kCopies = 6;
  TraceReader original(path);
  std::vector<TraceReader> copies;
  TraceSample skipped;
  for (std::size_t k = 0; k < kCopies; ++k) {
    copies.push_back(original);
    ASSERT_TRUE(original.read_next(skipped));
  }

  std::vector<std::vector<TraceSample>> read(kCopies);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kCopies; ++k)
    threads.emplace_back([&copies, &read, k] {
      TraceSample sample;
      while (copies[k].read_next(sample)) read[k].push_back(sample);
    });
  for (std::thread& thread : threads) thread.join();

  for (std::size_t k = 0; k < kCopies; ++k) {
    ASSERT_EQ(read[k].size(), kSamples - k) << "copy " << k;
    for (std::size_t s = 0; s < read[k].size(); ++s) {
      EXPECT_EQ(read[k][s].iteration, expected[k + s].iteration);
      EXPECT_EQ(read[k][s].positions, expected[k + s].positions);
    }
  }
  // The original's cursor moved on without any copy's reads disturbing it.
  EXPECT_EQ(original.cursor(), kCopies);
  ASSERT_TRUE(original.read_next(skipped));
  EXPECT_EQ(skipped.iteration, expected[kCopies].iteration);
  std::remove(path.c_str());
}

TEST(TraceIo, SwappedFramesFailTheWholeFileDigest) {
  const std::string path = testing::TempDir() + "/picp_trace_swapped.bin";
  constexpr std::uint64_t kSamples = 4;
  std::uint64_t frame = 0;
  {
    TraceWriter writer(path, 16, 1, Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)));
    for (std::uint64_t s = 0; s < kSamples; ++s)
      writer.append(s, random_positions(16, s + 1));
    writer.close();
    frame = TraceReader(path).header().frame_bytes();
  }
  // Swap frames 1 and 2. Each frame keeps its own valid CRC, so only the
  // footer's digest over the sequence of frame CRCs can tell.
  std::vector<char> bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const std::size_t header = TraceHeader::header_bytes_for(2);
  std::swap_ranges(bytes.begin() + static_cast<std::ptrdiff_t>(header + frame),
                   bytes.begin() +
                       static_cast<std::ptrdiff_t>(header + 2 * frame),
                   bytes.begin() +
                       static_cast<std::ptrdiff_t>(header + 2 * frame));
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));

  const auto expect_digest_failure_at_last_sample = [](TraceReader& reader) {
    TraceSample sample;
    while (reader.cursor() + 1 < kSamples)
      ASSERT_TRUE(reader.read_next(sample));
    try {
      reader.read_next(sample);
      ADD_FAILURE() << "the last sample passed the whole-file digest";
    } catch (const TraceCorruptError& e) {
      EXPECT_NE(std::string(e.what()).find("whole-file digest mismatch"),
                std::string::npos)
          << e.what();
    }
  };
  TraceReader strict(path);
  TraceSample sample;
  ASSERT_TRUE(strict.read_next(sample));
  ASSERT_TRUE(strict.read_next(sample));
  TraceReader copy = strict;  // mid-read: carries the digest so far
  expect_digest_failure_at_last_sample(strict);
  expect_digest_failure_at_last_sample(copy);

  const SalvageReport report = scan_trace(path);
  EXPECT_TRUE(report.sealed);
  EXPECT_FALSE(report.digest_ok);
  EXPECT_FALSE(report.intact());
  EXPECT_EQ(report.detail, "whole-file digest mismatch");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace picp
