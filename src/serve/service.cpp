#include "serve/service.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <iterator>
#include <string_view>

#include "mapping/mapper.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/telemetry.hpp"
#include "util/crc32.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"
#include "workload/workload_stats.hpp"

namespace picp::serve {

namespace {

/// Wrong-type / missing-field JSON problems become 400s, not 500s.
class BadRequest : public Error {
 public:
  using Error::Error;
};

double number_field(const Json& body, const std::string& key,
                    double fallback) {
  const Json* field = body.find(key);
  if (field == nullptr) return fallback;
  if (!field->is_number())
    throw BadRequest("field \"" + key + "\" must be a number");
  return field->as_double();
}

std::string json_line(const Json& json) { return json.dump() + "\n"; }

/// Upper bound on "interval_stride" and "max_intervals": far beyond any
/// trace's sample count, and exactly representable as a double.
constexpr double kMaxIntervalCount = 1e9;

/// The fields a request body may set. Any other key is a 400: answered as
/// the defaults, a misspelled field would be cached and coalesced under
/// the defaults' key.
constexpr std::array<std::string_view, 5> kRequestFields = {
    "ranks", "mapper", "filter", "interval_stride", "max_intervals"};

/// Largest body coalesce_key() parses. The key is computed on the reactor
/// thread, where parsing a multi-megabyte body would stall every
/// connection (a 4 MiB array of numbers took ~0.3 s on a 4-core VM); a
/// real query, at most 64 rank counts, is well under 1 KiB. A larger body
/// runs alone and is parsed on a worker.
constexpr std::size_t kMaxKeyedBodyBytes = 4096;

/// The trace's content identity: its header fields plus, for a sealed v2
/// trace, the footer's whole-file digest, which tells apart traces whose
/// headers match. v1 traces carry no digest and keep the header identity.
std::uint64_t trace_identity(const TraceReader& trace) {
  const TraceHeader& header = trace.header();
  Crc32c identity;
  identity.update_pod(header.num_particles);
  identity.update_pod(header.num_samples);
  identity.update_pod(header.sample_stride);
  identity.update_pod(header.domain.lo);
  identity.update_pod(header.domain.hi);
  if (const auto digest = trace.sealed_digest()) identity.update_pod(*digest);
  return identity.value();
}

/// CRC32C of a file's bytes.
std::uint64_t file_identity(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  PICP_REQUIRE(in.is_open(), "cannot open file: " + path);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return crc32c(bytes.data(), bytes.size());
}

/// One /v1/predict row: the simulated prediction for one config.
Json predict_row(const PredictionPipeline& pipeline,
                 const PredictionConfig& config,
                 const WorkloadResult& workload) {
  SimReport sim;
  {
    const telemetry::ScopedSpan stage("simulate", "serve");
    sim = pipeline.simulate_workload(workload, config);
  }
  const telemetry::ScopedSpan stage("render", "serve");
  Json row = Json::object();
  row.set("ranks", Json(static_cast<std::int64_t>(config.num_ranks)));
  row.set("mapper", Json(config.mapper_kind));
  row.set("filter", Json(config.filter_size));
  row.set("predicted_seconds", Json(sim.total_seconds));
  row.set("critical_path_seconds", Json(sim.critical_path_seconds));
  row.set("des_events", Json(sim.events));
  row.set("intervals",
          Json(static_cast<std::uint64_t>(workload.num_intervals())));
  return row;
}

/// One /v1/workload row: the workload statistics of one config.
Json workload_row(const PredictionConfig& config,
                  const WorkloadResult& workload) {
  const telemetry::ScopedSpan stage("render", "serve");
  const UtilizationStats stats = utilization(workload.comp_real);
  Json row = Json::object();
  row.set("ranks", Json(static_cast<std::int64_t>(config.num_ranks)));
  row.set("mapper", Json(config.mapper_kind));
  row.set("filter", Json(config.filter_size));
  row.set("intervals",
          Json(static_cast<std::uint64_t>(workload.num_intervals())));
  row.set("peak_particles_per_rank", Json(stats.peak_load));
  row.set("mean_active_fraction", Json(stats.mean_active_fraction));
  row.set("ever_active_ranks",
          Json(static_cast<std::int64_t>(stats.ever_active)));
  row.set("migrated_particles", Json(workload.comm_real.total_volume()));
  row.set("ghost_transfers", Json(workload.comm_ghost.total_volume()));
  return row;
}

}  // namespace

ServiceConfig ServiceConfig::from_config(const Config& config) {
  ServiceConfig service;
  service.trace_path = config.get_string("serve.trace");
  service.models_path = config.get_string("serve.models", "");
  service.nelx = config.get_int("mesh.nelx", service.nelx);
  service.nely = config.get_int("mesh.nely", service.nely);
  service.nelz = config.get_int("mesh.nelz", service.nelz);
  service.points_per_dim = static_cast<int>(
      config.get_int("mesh.points_per_dim", service.points_per_dim));
  service.default_mapper =
      config.get_string("serve.mapper", service.default_mapper);
  service.default_filter =
      config.get_double("serve.filter", service.default_filter);
  service.network.alpha = config.get_double("network.alpha",
                                            service.network.alpha);
  service.network.beta = config.get_double("network.beta",
                                           service.network.beta);
  service.workload_cache_capacity = static_cast<std::size_t>(config.get_int(
      "serve.workload_cache", static_cast<long long>(
                                  service.workload_cache_capacity)));
  service.response_cache_capacity = static_cast<std::size_t>(config.get_int(
      "serve.response_cache", static_cast<long long>(
                                  service.response_cache_capacity)));
  service.cache_dir = config.get_string("serve.cache_dir", "");
  service.allow_stale = config.get_bool("serve.allow_stale", false);
  service.enable_failpoints =
      config.get_bool("serve.enable_failpoints", false);
  service.failpoints = config.get_string("serve.failpoints", "");
  return service;
}

PredictionService::PredictionService(const ServiceConfig& config)
    : config_(config),
      trace_(config.trace_path),
      trace_identity_(trace_identity(trace_)),
      mesh_(trace_.header().domain, config.nelx, config.nely, config.nelz,
            config.points_per_dim),
      workload_cache_(config.workload_cache_capacity, "serve.cache.workload"),
      response_cache_(
          config.response_cache_capacity, "serve.cache.response",
          config.cache_dir,
          {[](const std::string& body) { return body; },
           [](const std::string& bytes) {
             // A spilled response must still be the JSON we produced; a
             // truncated file would otherwise be replayed verbatim.
             Json::parse(bytes);
             return bytes;
           }},
          config.allow_stale) {
  if (!config_.failpoints.empty()) failpoint::arm_many(config_.failpoints);
  if (!config_.models_path.empty()) {
    models_ = ModelSet::load(config_.models_path);
    models_identity_ = file_identity(config_.models_path);
    // Resolve the models once at boot, so a set the predictor would misread
    // fails `serve` at start instead of every /v1/predict.
    const Predictor resolved(models_, config_.default_filter);
    models_loaded_ = true;
  }
  // Inline generations: the daemon already runs one cold generation per
  // handler worker, and no split of cores between generations and ghost
  // threads has been measured to beat that.
  pipeline_ = std::make_unique<PredictionPipeline>(mesh_, models_, 1);
  PICP_LOG_INFO << "service ready: trace " << config_.trace_path << " ("
                << trace_.num_particles() << " particles, "
                << trace_.num_samples() << " samples), models "
                << (models_loaded_ ? config_.models_path : "<none>");
}

std::uint64_t PredictionService::workload_fingerprint(
    const PredictionConfig& config) const {
  Crc32c crc;
  crc.update_pod(trace_identity_);
  crc.update_pod(config_.nelx);
  crc.update_pod(config_.nely);
  crc.update_pod(config_.nelz);
  crc.update_pod(config_.points_per_dim);
  crc.update(config.mapper_kind.data(), config.mapper_kind.size());
  crc.update_pod(config.num_ranks);
  crc.update_pod(config.filter_size);
  crc.update_pod(config.max_intervals);
  crc.update_pod(config.interval_stride);
  crc.update_pod(config.compute_ghosts ? 1 : 0);
  crc.update_pod(config.compute_comm ? 1 : 0);
  return crc.value();
}

std::uint64_t PredictionService::request_fingerprint(
    const PredictionConfig& config) const {
  Crc32c crc;
  crc.update_pod(workload_fingerprint(config));
  crc.update_pod(models_identity_);
  crc.update_pod(config.network.alpha);
  crc.update_pod(config.network.beta);
  crc.update_pod(config.network.bytes_per_particle);
  crc.update_pod(config.network.bytes_per_ghost);
  return crc.value();
}

std::uint64_t PredictionService::response_key(
    bool predict, const std::vector<PredictionConfig>& configs) const {
  // The key covers every config in the request, so a reordered ranks list
  // is a different artifact (its JSON differs too).
  Crc32c key;
  if (!predict)
    key.update_pod(std::uint64_t{0x574b4c44});  // namespace: "WKLD" responses
  for (const PredictionConfig& config : configs)
    key.update_pod(predict ? request_fingerprint(config)
                           : workload_fingerprint(config));
  return key.value();
}

std::string PredictionService::coalesce_key(
    const HttpRequest& request) const {
  if (request.method != "POST") return "";
  const std::string path = target_path(request.target);
  const bool predict = path == "/v1/predict";
  if (!predict && path != "/v1/workload") return "";
  if (request.body.size() > kMaxKeyedBodyBytes) return "";
  std::vector<PredictionConfig> configs;
  try {
    configs = parse_request(request.body);
  } catch (const Error&) {
    return "";  // a rejected body is answered alone
  }
  const std::string* deadline = request.header("x-picp-deadline-ms");
  return request.target + '\n' +
         std::to_string(response_key(predict, configs)) + '\n' +
         (deadline != nullptr ? "d" + *deadline : "-");
}

std::vector<PredictionConfig> PredictionService::parse_request(
    const std::string& body) const {
  Json request;
  try {
    request = body.empty() ? Json::object() : Json::parse(body);
  } catch (const Error& e) {
    throw BadRequest(std::string("malformed JSON body: ") + e.what());
  }
  if (!request.is_object())
    throw BadRequest("request body must be a JSON object");
  for (const auto& [key, value] : request.members())
    if (std::find(kRequestFields.begin(), kRequestFields.end(), key) ==
        kRequestFields.end())
      throw BadRequest("unknown field \"" + key +
                       "\"; a request may set ranks, mapper, filter, "
                       "interval_stride and max_intervals");

  PredictionConfig base;
  base.mapper_kind = config_.default_mapper;
  base.filter_size = config_.default_filter;
  base.network = config_.network;
  if (const Json* mapper = request.find("mapper"); mapper != nullptr) {
    if (!mapper->is_string())
      throw BadRequest("field \"mapper\" must be a string");
    base.mapper_kind = mapper->as_string();
  }
  if (!is_mapper_kind(base.mapper_kind))
    throw BadRequest("unknown mapper kind: \"" + base.mapper_kind + "\"");
  base.filter_size = number_field(request, "filter", base.filter_size);
  if (base.filter_size <= 0.0)
    throw BadRequest("field \"filter\" must be positive");
  // Range checks precede the size_t casts: a double at or above 2^64 has
  // no size_t value at all.
  const double stride = number_field(request, "interval_stride", 1.0);
  if (stride < 1.0 || stride > kMaxIntervalCount)
    throw BadRequest("\"interval_stride\" must be in [1, 1e9]");
  base.interval_stride = static_cast<std::size_t>(stride);
  const double max_intervals = number_field(request, "max_intervals", 0.0);
  if (max_intervals != 0.0 &&
      !(max_intervals >= 1.0 && max_intervals <= kMaxIntervalCount))
    throw BadRequest("\"max_intervals\" must be 0 (all) or in [1, 1e9]");
  if (max_intervals != 0.0)
    base.max_intervals = static_cast<std::size_t>(max_intervals);

  const Json* ranks = request.find("ranks");
  if (ranks == nullptr) throw BadRequest("missing required field \"ranks\"");
  std::vector<PredictionConfig> configs;
  const auto add = [&base, &configs](const Json& value) {
    if (!value.is_number())
      throw BadRequest("\"ranks\" entries must be numbers");
    const double r = value.as_double();
    if (r < 1.0 || r > 1e7)
      throw BadRequest("\"ranks\" must be in [1, 1e7], got " +
                       std::to_string(r));
    PredictionConfig config = base;
    config.num_ranks = static_cast<Rank>(r);
    configs.push_back(std::move(config));
  };
  if (ranks->is_array()) {
    if (ranks->size() == 0) throw BadRequest("\"ranks\" array is empty");
    if (ranks->size() > 64)
      throw BadRequest("at most 64 rank counts per request");
    for (std::size_t i = 0; i < ranks->size(); ++i) add(ranks->at(i));
  } else {
    add(*ranks);
  }
  return configs;
}

std::shared_ptr<const WorkloadResult> PredictionService::workload_for(
    const PredictionConfig& config) {
  return workload_cache_.get_or_compute(
      workload_fingerprint(config),
      [this, &config] {
        failpoint::inject("serve.generate");
        // The stage exists only on actual generation — its absence on a
        // repeat query is the observable proof of a cache hit.
        const telemetry::ScopedSpan stage("generate", "serve");
        telemetry::registry().counter("serve.workload.generations").add();
        TraceReader cursor = trace_;
        return pipeline_->generate_workload(cursor, config);
      });
}

Json PredictionService::handle_healthz() {
  const double uptime =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();
  Json body = Json::object();
  body.set("status", Json("ok"));
  body.set("uptime_seconds", Json(uptime));
  body.set("trace", Json(config_.trace_path));
  body.set("models_loaded", Json(models_loaded_));
  return body;
}

Json PredictionService::handle_metricsz() {
  Json body = Json::object();
  body.set("metrics",
           telemetry::metrics_to_json(telemetry::registry().snapshot()));
  return body;
}

Json PredictionService::handle_models() {
  Json kernels = Json::array();
  for (const std::string& kernel : models_.kernels()) {
    Json entry = Json::object();
    entry.set("kernel", Json(kernel));
    Json features = Json::array();
    for (const std::string& feature : models_.features_of(kernel))
      features.push_back(Json(feature));
    entry.set("features", std::move(features));
    entry.set("formula", Json(models_.model_of(kernel).describe()));
    kernels.push_back(std::move(entry));
  }
  Json body = Json::object();
  body.set("models_path", Json(config_.models_path));
  body.set("kernels", std::move(kernels));
  return body;
}

HttpResponse PredictionService::handle_failpoints(
    const HttpRequest& request) {
  HttpResponse response;
  if (!config_.enable_failpoints) {
    // Indistinguishable from a route that does not exist: a daemon
    // without --enable-failpoints has no fault-injection surface at all.
    response.status = 404;
    response.body = error_body(404, "no such endpoint: /v1/failpoints");
    return response;
  }
  if (!request.from_loopback) {
    response.status = 403;
    response.body = error_body(403, "/v1/failpoints is loopback-only");
    return response;
  }
  if (request.method != "GET" && request.method != "POST") {
    response.status = 405;
    response.set_header("Allow", "GET, POST");
    response.body = error_body(405, "use GET or POST for /v1/failpoints");
    return response;
  }

  if (request.method == "POST") {
    Json body;
    try {
      body = request.body.empty() ? Json::object()
                                  : Json::parse(request.body);
    } catch (const Error& e) {
      throw BadRequest(std::string("malformed JSON body: ") + e.what());
    }
    if (!body.is_object())
      throw BadRequest("request body must be a JSON object");
    if (const Json* seed = body.find("seed"); seed != nullptr) {
      if (!seed->is_number()) throw BadRequest("\"seed\" must be a number");
      failpoint::set_seed(seed->as_uint());
    }
    try {
      if (const Json* arm = body.find("arm"); arm != nullptr) {
        if (!arm->is_string())
          throw BadRequest("\"arm\" must be a spec string");
        failpoint::arm_many(arm->as_string());
      }
    } catch (const BadRequest&) {
      throw;
    } catch (const Error& e) {
      throw BadRequest(e.what());  // malformed spec is the client's fault
    }
    if (const Json* disarm = body.find("disarm"); disarm != nullptr) {
      if (!disarm->is_string())
        throw BadRequest("\"disarm\" must be a site name");
      failpoint::disarm(disarm->as_string());
    }
    if (const Json* all = body.find("disarm_all"); all != nullptr) {
      if (all->kind() != Json::Kind::kBool)
        throw BadRequest("\"disarm_all\" must be a boolean");
      if (all->as_bool()) failpoint::disarm_all();
    }
  }

  Json armed = Json::array();
  for (const failpoint::Info& info : failpoint::list()) {
    Json row = Json::object();
    row.set("site", Json(info.site));
    row.set("spec", Json(info.spec));
    row.set("hits", Json(info.hits));
    row.set("fires", Json(info.fires));
    armed.push_back(std::move(row));
  }
  Json body = Json::object();
  body.set("failpoints", std::move(armed));
  response.body = json_line(body);
  return response;
}

std::string PredictionService::handle_query(bool predict,
                                            const std::string& body,
                                            const Deadline& deadline,
                                            bool* from_cache,
                                            bool* degraded) {
  if (predict && !models_loaded_)
    throw BadRequest(
        "no models loaded (start the daemon with serve.models set) — "
        "/v1/workload is still available");
  std::vector<PredictionConfig> configs = parse_request(body);
  for (PredictionConfig& config : configs) config.deadline = deadline;

  // "cache" covers the lookup; the nested generate/simulate/render stages
  // subtract themselves out, so a hit shows pure cache time and a miss
  // shows only the cache machinery.
  const telemetry::ScopedSpan cache_stage("cache", "serve");
  return *response_cache_.get_or_compute(
      response_key(predict, configs),
      [this, predict, &configs] {
        Json results = Json::array();
        for (const PredictionConfig& config : configs) {
          const auto workload = workload_for(config);
          results.push_back(predict ? predict_row(*pipeline_, config, *workload)
                                    : workload_row(config, *workload));
        }
        const telemetry::ScopedSpan stage("render", "serve");
        Json reply = Json::object();
        reply.set("results", std::move(results));
        return json_line(reply);
      },
      from_cache, degraded);
}

HttpResponse PredictionService::handle(const HttpRequest& request) {
  HttpResponse response;
  try {
    Deadline deadline;
    if (const std::string* budget = request.header("x-picp-deadline-ms")) {
      long long ms = 0;
      try {
        ms = parse_int(*budget);
      } catch (const Error&) {
        throw BadRequest("malformed X-Picp-Deadline-Ms: " + *budget);
      }
      if (ms <= 0)
        throw BadRequest("X-Picp-Deadline-Ms must be a positive integer");
      deadline = Deadline::after_ms(ms);
    }
    response = handle_routed(request, deadline);
  } catch (const BadRequest& e) {
    response.status = 400;
    response.body = error_body(400, e.what());
  } catch (const DeadlineExceeded& e) {
    // The request ran out of budget mid-pipeline: tell the client which
    // stage the work died in (partial-progress telemetry), free the
    // worker, and count it — a 504 is load information, not an error.
    response.status = 504;
    response.set_header("X-Picp-Deadline-Stage", e.stage());
    response.body = error_body(504, e.what());
    auto& reg = telemetry::registry();
    reg.counter("serve.deadline_exceeded").add();
    reg.counter("serve.deadline.stage." + e.stage()).add();
  } catch (const std::exception& e) {
    PICP_LOG_WARN << "request " << request.method << " " << request.target
                  << " failed: " << e.what();
    response.status = 500;
    response.body = error_body(500, e.what());
  }
  // Set-if-absent: the Prometheus exposition branch picks its own type.
  if (response.header("content-type") == nullptr)
    response.set_header("Content-Type", "application/json");
  return response;
}

HttpResponse PredictionService::handle_routed(const HttpRequest& request,
                                              const Deadline& deadline) {
  HttpResponse response;
  // Route on the path alone; the query string selects representations
  // (?format=prometheus) and probes (?ready=1), never endpoints.
  const std::string path = target_path(request.target);
  const bool is_get = request.method == "GET";
  const bool is_post = request.method == "POST";

  if (path == "/v1/failpoints") return handle_failpoints(request);

  if (path == "/healthz" || path == "/metricsz" || path == "/v1/models") {
    if (!is_get) {
      response.status = 405;
      response.set_header("Allow", "GET");
      response.body = error_body(405, "use GET for " + path);
      return response;
    }
    if (path == "/healthz") {
      if (query_param(request.target, "ready") == "1") {
        std::string reason;
        if (readiness_probe_ && !readiness_probe_(&reason)) {
          // Load balancers read this: alive, but take me out of rotation.
          response.status = 503;
          response.set_header("Retry-After", "1");
          response.body = error_body(503, "not ready: " + reason);
          return response;
        }
      }
      response.body = json_line(handle_healthz());
    } else if (path == "/metricsz") {
      // The one value read at scrape time; every count is current in the
      // registry already.
      telemetry::registry().gauge("failpoint.armed")
          .set(static_cast<double>(failpoint::list().size()));
      if (query_param(request.target, "format") == "prometheus") {
        response.body = telemetry::to_prometheus_text(
            telemetry::registry().snapshot());
        response.set_header("Content-Type",
                            telemetry::prometheus_content_type());
      } else {
        response.body = json_line(handle_metricsz());
      }
    } else {
      response.body = json_line(handle_models());
    }
    return response;
  }

  if (path == "/v1/predict" || path == "/v1/workload") {
    if (!is_post) {
      response.status = 405;
      response.set_header("Allow", "POST");
      response.body = error_body(405, "use POST for " + path);
      return response;
    }
    bool from_cache = false;
    bool degraded = false;
    response.body = handle_query(path == "/v1/predict", request.body,
                                 deadline, &from_cache, &degraded);
    response.set_header("X-Picp-Cache", from_cache ? "hit" : "miss");
    if (degraded) response.set_header("X-Picp-Degraded", "stale");
    return response;
  }

  response.status = 404;
  response.body = error_body(
      404, "no such endpoint: " + path +
               " (have /healthz /metricsz /v1/models /v1/workload "
               "/v1/predict)");
  return response;
}

}  // namespace picp::serve
