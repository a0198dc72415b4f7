// picbench — the end-to-end benchmark's driver binary; picbench/run.py
// builds it and calls it. Two commands:
//
//   picbench inputs --seed N --dir D --kind offline|serve
//       Generate the seed's trace and models into D.
//
//   picbench run --workload offline_sweep|serve_cold
//                --seed N --seconds S --trace 0|1 --inputs D --work W
//                --picpredict BIN [--spans-out F]
//                [--expect-digest HEX] [--print-digest]
//       Run one workload; the last stdout line is the JSON result.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "picbench.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "picbench: %s (see picbench/cpp/main.cpp)\n",
               why.c_str());
  std::exit(2);
}

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) usage("bad argument " + arg);
    if (arg == "--print-digest") {
      flags["print-digest"] = "1";
      continue;
    }
    if (i + 1 >= argc) usage(arg + " needs a value");
    flags[arg.substr(2)] = argv[++i];
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& flags,
                 const std::string& name) {
  const auto it = flags.find(name);
  if (it == flags.end()) usage("missing --" + name);
  return it->second;
}

std::string get(const std::map<std::string, std::string>& flags,
                const std::string& name) {
  const auto it = flags.find(name);
  return it == flags.end() ? "" : it->second;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("need a command: inputs | run");
  const std::string command = argv[1];
  const auto flags = parse_flags(argc, argv);
  try {
    if (command == "inputs") {
      picbench::generate_inputs(std::stoull(need(flags, "seed")),
                                need(flags, "dir"), need(flags, "kind"));
      return 0;
    }
    if (command != "run") usage("unknown command " + command);
    picbench::Options options;
    options.workload = need(flags, "workload");
    options.seed = std::stoull(need(flags, "seed"));
    options.seconds = std::stod(need(flags, "seconds"));
    options.traced = need(flags, "trace") == "1";
    options.inputs = need(flags, "inputs");
    options.work = need(flags, "work");
    options.picpredict = need(flags, "picpredict");
    options.spans_out = get(flags, "spans-out");
    options.expect_digest = get(flags, "expect-digest");
    options.print_digest = flags.count("print-digest") > 0;
    if (options.traced && options.spans_out.empty())
      usage("--trace 1 needs --spans-out");
    if (options.workload == "offline_sweep")
      return picbench::run_offline(options);
    if (options.workload == "serve_cold")
      return picbench::run_serve_cold(options);
    usage("unknown workload " + options.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "picbench: error: %s\n", e.what());
    return 1;
  }
}
