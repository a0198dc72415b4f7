#pragma once

// Shared declarations of the end-to-end benchmark driver (see
// picbench/README.md for the workloads and metrics).

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "model/model_set.hpp"
#include "util/rng.hpp"

namespace picbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Directory of the seed's generated inputs (see inputs.cpp).
  std::string inputs;
  /// Per-run scratch directory: daemon configs, ready files, logs, spans.
  std::string work;
  /// The `picpredict` binary daemons are spawned from.
  std::string picpredict;
  /// Hex digest every output must fold to; empty skips the check.
  std::string expect_digest;
  /// Print the output digest (used to record the default seed's digest).
  bool print_digest = false;
  /// Chrome trace-event file the traced run writes its spans to.
  std::string spans_out;
};

/// Paths of one seed's generated inputs.
struct Inputs {
  std::string trace;
  std::string models;
};
Inputs input_paths(const std::string& dir);

/// Generate the inputs of `seed` for one kind of workload ("offline" or
/// "serve") into `dir`: the trace and the models. Deterministic: the same
/// seed gives byte-identical files.
void generate_inputs(std::uint64_t seed, const std::string& dir,
                     const std::string& kind);

/// One prediction query as the benchmark sends it to the daemon or the
/// pipeline. Every other PredictionConfig field stays at its default.
struct Query {
  std::string mapper = "bin";
  picp::Rank ranks = 1;
  double filter = 0.024;

  picp::PredictionConfig config() const;
  /// Canonical JSON body: {"ranks":[R],"mapper":"...","filter":F}.
  std::string body() const;
  /// An equivalent body with reordered keys and the defaults spelled out;
  /// `variant` picks one of the encodings.
  std::string reencoded_body(unsigned variant) const;
  std::string label() const;
};

/// The daemon's /v1/predict body for `queries`, rendered from offline
/// pipeline outcomes exactly as src/serve/service.cpp renders it.
std::string render_predict_body(
    const std::vector<Query>& queries,
    const std::vector<picp::PredictionOutcome>& outcomes);

/// Output invariants of one prediction; empty when they all hold.
std::string check_invariants(const picp::PredictionOutcome& outcome,
                             std::uint64_t particles);

/// Bitwise digest of everything a prediction produces.
std::uint64_t outcome_digest(const picp::WorkloadResult& workload,
                             const picp::SimReport& sim);

/// FNV-1a accumulation over raw bytes (digests of outputs).
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  template <typename T>
  void pod(const T& value) {
    bytes(&value, sizeof(T));
  }
  void text(const std::string& s) { bytes(s.data(), s.size()); }
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Metrics and correctness of one run; print() writes the result line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Record a failed output check (the run is then not correct).
  void fail(const std::string& what);
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void failed_op(std::uint64_t n = 1) { failed_ += n; }
  /// Fold the run's outputs into the digest check (see Options).
  void check_digest(const Options& options, const Digest& digest);
  void print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Peak resident set of this process in MB.
double self_peak_rss_mb();

/// Usable cores (sched affinity), at least 1.
unsigned cores();

/// The mesh `picpredict predict` and `picpredict serve` build by default
/// for a trace (32×32×64 elements, 5 points per dimension).
picp::SpectralMesh default_mesh(const picp::TraceReader& trace);

/// Per-layer decomposition totals of one or more predictions.
struct Layers {
  double read_s = 0, partition_s = 0, map_s = 0, account_s = 0, ghost_s = 0,
         model_s = 0, des_s = 0;
  std::uint64_t frames = 0, particles = 0, ghost_queries = 0, ghosts = 0,
                cells = 0, events = 0;
  double generate_s = 0, simulate_s = 0;  // direct pipeline calls
  double traced_s = 0, untraced_s = 0;    // decomposition vs predict()
  bool bit_identical = true;
};

class SpanRecorder;

/// Re-run `queries` three ways on `trace_path` — predict(), the direct
/// generate_workload()/simulate_workload() pair, and the benchmark's own
/// layer-by-layer decomposition with spans — and check all three agree bit
/// for bit. Reference outcomes (from predict()) are returned in order.
Layers decompose(const picp::SpectralMesh& mesh, const picp::ModelSet& models,
                 const std::string& trace_path,
                 const std::vector<Query>& queries, SpanRecorder& spans,
                 std::vector<picp::PredictionOutcome>* reference);

/// Add the pipeline layer metrics of `layers` to `report`.
void report_layers(const Layers& layers, Report& report);

/// Offline reference outcomes for `queries` on `trace_path`, computed on
/// up to `threads` threads (each with its own trace reader).
std::vector<picp::PredictionOutcome> reference_outcomes(
    const picp::SpectralMesh& mesh, const picp::ModelSet& models,
    const std::string& trace_path, const std::vector<Query>& queries,
    unsigned threads);

/// The serving layers timed on `inputs` for a workload that sends no
/// request to a daemon: RequestParser and PredictionService::handle in
/// process (the hot set's first 8 configs as hits, `misses` as cold calls),
/// round trips to a spawned daemon, and the open-loop figures.
void report_serving_layers(const Options& options, const Inputs& inputs,
                           const std::vector<Query>& misses, Report& report);

int run_offline(const Options& options);
int run_serve_cold(const Options& options);

}  // namespace picbench
