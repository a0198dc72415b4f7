// Exit-code and stdout contract of `picpredict trace verify|repair` — the
// operator-facing surface of the salvage machinery. Scripts branch on these
// exit codes (0 intact / usable, 1 damaged / unrecoverable, 2 usage), so
// they are API, not presentation. Also a kill-and-resume drill through
// `picpredict simulate --resume`. Drives the real binary (path injected at
// configure time via PICP_PICPREDICT_BINARY).

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "trace/trace_reader.hpp"
#include "trace/trace_writer.hpp"
#include "util/rng.hpp"

namespace picp {
namespace {

namespace fs = std::filesystem;

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

/// Runs the binary with `args`; `env` (e.g. "NAME='value'") prefixes the
/// command.
CliResult run_cli(const std::string& args, const std::string& env = "") {
  const std::string cmd = env + " '" + PICP_PICPREDICT_BINARY + "' " + args +
                          " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "popen failed for: " << cmd;
  CliResult result;
  if (pipe == nullptr) return result;
  std::array<char, 512> buf;
  while (std::fgets(buf.data(), static_cast<int>(buf.size()), pipe) !=
         nullptr)
    result.output += buf.data();
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string write_trace(const std::string& name, std::size_t samples = 3) {
  const std::string path = testing::TempDir() + "/" + name;
  TraceWriter writer(path, 5, 10, Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)),
                     CoordKind::kFloat64);
  Xoshiro256 rng(7);
  std::vector<Vec3> pos(5);
  for (std::size_t s = 0; s < samples; ++s) {
    for (auto& p : pos)
      p = Vec3(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1));
    writer.append(s * 10, pos);
  }
  writer.close();
  return path;
}

TEST(CliTrace, NoArgumentsPrintsUsageAndExits2) {
  const CliResult result = run_cli("");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("usage:"), std::string::npos);
}

TEST(CliTrace, UnknownTraceSubcommandExits2) {
  const std::string path = write_trace("cli_sub.bin");
  const CliResult result = run_cli("trace frobnicate '" + path + "'");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("unknown trace subcommand"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(CliTrace, VerifyIntactTraceExits0) {
  const std::string path = write_trace("cli_intact.bin");
  const CliResult result = run_cli("trace verify '" + path + "'");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("sealed"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("ok"), std::string::npos) << result.output;
  // Clean bill of health must not suggest a repair.
  EXPECT_EQ(result.output.find("recoverable:"), std::string::npos)
      << result.output;
  std::remove(path.c_str());
}

TEST(CliTrace, VerifyDamagedTraceExits1AndNamesTheRepairCommand) {
  const std::string path = write_trace("cli_damaged.bin");
  fs::resize_file(path, fs::file_size(path) - 30);  // into the last frame
  const CliResult result = run_cli("trace verify '" + path + "'");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("recoverable:"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("trace repair"), std::string::npos)
      << result.output;
  std::remove(path.c_str());
}

TEST(CliTrace, VerifyMissingFileExits1WithTypedError) {
  const CliResult result =
      run_cli("trace verify '" + testing::TempDir() + "/no_such.trace'");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("picpredict:"), std::string::npos)
      << result.output;
}

TEST(CliTrace, RepairDamagedTraceExits0AndProducesStrictReadableOutput) {
  const std::string path = write_trace("cli_repair_in.bin");
  fs::resize_file(path, fs::file_size(path) - 30);  // samples 0..1 survive
  const std::string fixed = testing::TempDir() + "/cli_repair_out.bin";

  const CliResult result =
      run_cli("trace repair '" + path + "' --out '" + fixed + "'");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("recovered 2 samples"), std::string::npos)
      << result.output;

  TraceReader reader(fixed);  // strict open: must be fully sealed
  EXPECT_EQ(reader.num_samples(), 2u);

  // verify on the repaired file closes the loop.
  const CliResult verify = run_cli("trace verify '" + fixed + "'");
  EXPECT_EQ(verify.exit_code, 0) << verify.output;

  std::remove(path.c_str());
  std::remove(fixed.c_str());
}

TEST(CliTrace, RepairWithNothingRecoverableExits1) {
  // Keep the header but decapitate every frame.
  const std::string path = write_trace("cli_repair_none.bin");
  fs::resize_file(path, 93);  // header (92 bytes) + 1 stray byte
  const std::string fixed = testing::TempDir() + "/cli_repair_none_out.bin";
  const CliResult result =
      run_cli("trace repair '" + path + "' --out '" + fixed + "'");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("recovered 0 samples"), std::string::npos)
      << result.output;
  std::remove(path.c_str());
  std::remove(fixed.c_str());
}

TEST(CliTrace, RepairWithoutOutFlagExits2) {
  const std::string path = write_trace("cli_repair_noout.bin");
  const CliResult result = run_cli("trace repair '" + path + "'");
  EXPECT_EQ(result.exit_code, 2);
  EXPECT_NE(result.output.find("missing --out"), std::string::npos)
      << result.output;
  std::remove(path.c_str());
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(CliTrace, SimulateResumeAfterACrashReproducesTheUninterruptedTrace) {
  // Kill-and-resume drill: a hard crash at the 7th trace append (iteration
  // 240, after the checkpoint at 200) exits 134; `--resume` then exits 0
  // with the uninterrupted run's trace, byte for byte. Measurement is on,
  // so the first resumed interval is measured without previous owners.
  const std::string dir = testing::TempDir() + "/cli_resume";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string config = dir + "/run.ini";
  std::ofstream(config) << "[mesh]\nnelx = 8\nnely = 8\nnelz = 16\n"
                           "[bed]\nnum_particles = 2000\n"
                           "[run]\nnum_iterations = 400\nsample_every = 40\n"
                           "checkpoint_every = 50\nthreads = 1\n"
                           "[mapping]\nnum_ranks = 16\n"
                           "[measure]\nenabled = true\nmin_seconds = 1e-6\n"
                           "max_reps = 2\n";
  const std::string full = dir + "/full.trace";
  const std::string resumed = dir + "/resumed.trace";

  const CliResult straight =
      run_cli("simulate '" + config + "' --trace '" + full + "'");
  ASSERT_EQ(straight.exit_code, 0) << straight.output;

  const std::string simulate =
      "simulate '" + config + "' --trace '" + resumed + "'";
  const CliResult crash =
      run_cli(simulate, "PICP_FAILPOINTS='trace.append=crash:after6'");
  ASSERT_EQ(crash.exit_code, 134) << crash.output;
  EXPECT_FALSE(fs::exists(resumed));
  EXPECT_TRUE(fs::exists(resumed + ".ckpt"));

  const CliResult resume = run_cli(simulate + " --resume");
  ASSERT_EQ(resume.exit_code, 0) << resume.output;
  EXPECT_NE(resume.output.find("(resumed)"), std::string::npos)
      << resume.output;
  EXPECT_EQ(file_bytes(resumed), file_bytes(full));
  EXPECT_FALSE(fs::exists(resumed + ".ckpt"));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace picp
