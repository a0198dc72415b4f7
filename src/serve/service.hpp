#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "serve/artifact_cache.hpp"
#include "serve/http.hpp"
#include "telemetry/json.hpp"
#include "trace/trace_reader.hpp"
#include "util/config.hpp"
#include "util/deadline.hpp"

namespace picp::serve {

/// Everything `picpredict serve` loads once per process: the trace, the
/// trained models, the mesh, and the cache/backpressure knobs. Parsed from
/// the `[serve]` / `[mesh]` sections of an INI config (see
/// ServiceConfig::from_config for the key list).
struct ServiceConfig {
  std::string trace_path;
  std::string models_path;  // empty: /v1/predict disabled (workload-only)
  std::int64_t nelx = 32, nely = 32, nelz = 64;
  int points_per_dim = 5;

  /// Request defaults (overridable per query).
  std::string default_mapper = "bin";
  double default_filter = 0.024;
  NetworkParams network;

  /// Completed WorkloadResults kept in memory (the heavy artifacts).
  std::size_t workload_cache_capacity = 16;
  /// Rendered response bodies kept in memory (small, byte-stable).
  std::size_t response_cache_capacity = 256;
  /// Disk spill tier for evicted response bodies; empty = off.
  std::string cache_dir;

  /// Serve the last good cached artifact (flagged `X-Picp-Degraded:
  /// stale`) when regeneration fails transiently, instead of a 500.
  bool allow_stale = false;
  /// Expose the /v1/failpoints admin endpoint (loopback peers only).
  /// Off by default: fault injection is an operator tool, not an API.
  bool enable_failpoints = false;
  /// Failpoint specs armed at service startup (PICP_FAILPOINTS grammar).
  std::string failpoints;

  static ServiceConfig from_config(const Config& config);
};

/// The prediction service behind the daemon's HTTP endpoints:
///
///   GET  /healthz      — liveness + uptime
///   GET  /metricsz     — full telemetry metric snapshot as JSON
///   GET  /v1/models    — kernels, features, and formulas of the ModelSet
///   POST /v1/workload  — workload statistics for one (R, mapper, filter)
///   POST /v1/predict   — full prediction for one or more processor counts
///
/// The hot path is content-addressed: each query config is fingerprinted
/// (CRC of trace identity + mesh + request parameters) and resolved
/// through two LRU caches — WorkloadResults (expensive to generate, reused
/// across /v1/predict and /v1/workload) and rendered response bodies
/// (guarantees byte-identical replies for identical queries). The caches
/// hold no in-flight state: coalesce_key() lets the reactor join
/// equivalent in-flight requests before they reach the service. The trace
/// is opened once per process; each generation streams it through its own
/// copy of the reader (an independent cursor over the shared file), so
/// distinct configs generate concurrently and cached configs never touch
/// it.
class PredictionService {
 public:
  explicit PredictionService(const ServiceConfig& config);

  /// The HttpServer handler: routes, parses, caches, replies. Never
  /// throws — internal errors become structured 500s.
  HttpResponse handle(const HttpRequest& request);

  /// Fingerprint of one normalized prediction request — exposed so tests
  /// can assert cache keying (same config → same key, any field change →
  /// new key).
  std::uint64_t request_fingerprint(const PredictionConfig& config) const;

  /// The reactor's coalescing key (ReactorOptions::coalesce_key): the full
  /// target, the response-cache key of the parsed configs (so reordered
  /// keys, a scalar `ranks` and spelled-out defaults all match), and the
  /// X-Picp-Deadline-Ms value. "" for anything but a valid POST to
  /// /v1/predict or /v1/workload with a body of at most 4 KiB.
  std::string coalesce_key(const HttpRequest& request) const;

  const ServiceConfig& config() const { return config_; }
  bool models_loaded() const { return models_loaded_; }

  /// Answers "can this daemon take traffic right now?" for
  /// `GET /healthz?ready=1`; on false, fills `reason` and the endpoint
  /// returns 503. The server wires this to its drain flag and queue-depth
  /// SLO. Unset = always ready (plain liveness still works).
  using ReadinessProbe = std::function<bool(std::string* reason)>;
  void set_readiness_probe(ReadinessProbe probe) {
    readiness_probe_ = std::move(probe);
  }

 private:
  HttpResponse handle_routed(const HttpRequest& request,
                             const Deadline& deadline);
  Json handle_healthz();
  Json handle_metricsz();
  Json handle_models();
  HttpResponse handle_failpoints(const HttpRequest& request);
  /// A /v1/predict (`predict`) or /v1/workload body's reply, from the
  /// response tier or rendered one row per config.
  std::string handle_query(bool predict, const std::string& body,
                           const Deadline& deadline, bool* from_cache,
                           bool* degraded);

  /// Parse + validate the request body into per-rank-count configs.
  std::vector<PredictionConfig> parse_request(const std::string& body) const;
  /// Response-cache key of one request's configs, per endpoint.
  std::uint64_t response_key(bool predict,
                             const std::vector<PredictionConfig>& configs)
      const;
  std::shared_ptr<const WorkloadResult> workload_for(
      const PredictionConfig& config);
  std::uint64_t workload_fingerprint(const PredictionConfig& config) const;

  ServiceConfig config_;
  /// Opened once; every generation reads through its own copy.
  const TraceReader trace_;
  /// Content identities folded into every fingerprint, so a shared
  /// cache_dir never replays another trace's or model set's bodies.
  const std::uint64_t trace_identity_;
  std::uint64_t models_identity_ = 0;
  SpectralMesh mesh_;
  ModelSet models_;
  bool models_loaded_ = false;
  std::unique_ptr<PredictionPipeline> pipeline_;

  ReadinessProbe readiness_probe_;
  /// Only the response tier serves stale values (serve.allow_stale), so
  /// only it may keep a stale tier.
  ArtifactCache<WorkloadResult> workload_cache_;
  ArtifactCache<std::string> response_cache_;
  std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
};

}  // namespace picp::serve
