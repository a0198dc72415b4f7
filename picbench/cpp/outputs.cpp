// Output rendering, checks and reporting shared by every workload.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "picbench.hpp"
#include "telemetry/json.hpp"

namespace picbench {

using picp::Json;

picp::PredictionConfig Query::config() const {
  picp::PredictionConfig config;
  config.mapper_kind = mapper;
  config.num_ranks = ranks;
  config.filter_size = filter;
  return config;
}

std::string Query::body() const {
  return "{\"ranks\":[" + std::to_string(ranks) + "],\"mapper\":\"" + mapper +
         "\",\"filter\":" + Json(filter).dump() + "}";
}

std::string Query::reencoded_body(unsigned variant) const {
  const std::string r = std::to_string(ranks);
  const std::string f = Json(filter).dump();
  // Every variant normalizes to the same PredictionConfig as body(): keys
  // reordered, a scalar rank count, or the request defaults written out.
  switch (variant % 3) {
    case 0:
      return "{\"filter\": " + f + ", \"mapper\": \"" + mapper +
             "\", \"ranks\": [" + r + "]}";
    case 1:
      return "{\"mapper\":\"" + mapper + "\",\"ranks\":" + r +
             ",\"filter\":" + f + "}";
    default:
      return "{\"ranks\":[" + r + "],\"interval_stride\":1," +
             "\"max_intervals\":0,\"filter\":" + f + ",\"mapper\":\"" +
             mapper + "\"}";
  }
}

std::string Query::label() const {
  return mapper + "/R=" + std::to_string(ranks) + "/f=" + Json(filter).dump();
}

std::string render_predict_body(
    const std::vector<Query>& queries,
    const std::vector<picp::PredictionOutcome>& outcomes) {
  // Field order and types follow PredictionService::handle_predict.
  Json results = Json::array();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const picp::PredictionOutcome& outcome = outcomes[i];
    Json row = Json::object();
    row.set("ranks", Json(static_cast<std::int64_t>(queries[i].ranks)));
    row.set("mapper", Json(queries[i].mapper));
    row.set("filter", Json(queries[i].filter));
    row.set("predicted_seconds", Json(outcome.sim.total_seconds));
    row.set("critical_path_seconds",
            Json(outcome.sim.critical_path_seconds));
    row.set("des_events", Json(outcome.sim.events));
    row.set("intervals", Json(static_cast<std::uint64_t>(
                             outcome.workload.num_intervals())));
    results.push_back(std::move(row));
  }
  Json reply = Json::object();
  reply.set("results", std::move(results));
  return reply.dump() + "\n";
}

std::string check_invariants(const picp::PredictionOutcome& outcome,
                             std::uint64_t particles) {
  const picp::WorkloadResult& w = outcome.workload;
  for (std::size_t t = 0; t < w.num_intervals(); ++t) {
    if (w.comp_real.interval_total(t) != static_cast<std::int64_t>(particles))
      return "interval " + std::to_string(t) + ": comp_real total " +
             std::to_string(w.comp_real.interval_total(t)) +
             " != particle count " + std::to_string(particles);
    if (w.comp_ghost.interval_total(t) != w.comm_ghost.interval_volume(t))
      return "interval " + std::to_string(t) + ": comp_ghost total " +
             std::to_string(w.comp_ghost.interval_total(t)) +
             " != comm_ghost volume " +
             std::to_string(w.comm_ghost.interval_volume(t));
  }
  if (!(outcome.sim.total_seconds >= outcome.sim.critical_path_seconds))
    return "predicted_seconds below critical_path_seconds";
  return "";
}

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

std::uint64_t outcome_digest(const picp::WorkloadResult& w,
                             const picp::SimReport& sim) {
  Digest d;
  d.pod(w.num_ranks);
  for (const std::uint64_t it : w.iterations) d.pod(it);
  for (const std::int64_t p : w.partitions_per_interval) d.pod(p);
  for (const std::int64_t e : w.elements_per_rank) d.pod(e);
  for (std::size_t t = 0; t < w.num_intervals(); ++t) {
    for (const std::int64_t v : w.comp_real.interval(t)) d.pod(v);
    for (const std::int64_t v : w.comp_ghost.interval(t)) d.pod(v);
    for (const auto* comm : {&w.comm_real, &w.comm_ghost})
      for (const auto& x : comm->interval_transfers(t)) {
        d.pod(x.from);
        d.pod(x.to);
        d.pod(x.count);
      }
  }
  d.pod(sim.total_seconds);
  d.pod(sim.critical_path_seconds);
  d.pod(sim.events);
  for (const double v : sim.interval_end) d.pod(v);
  for (const double v : sim.rank_busy_seconds) d.pod(v);
  return d.value();
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::fail(const std::string& what) {
  std::fprintf(stderr, "picbench: CHECK FAILED: %s\n", what.c_str());
  correct_ = false;
}

void Report::check_digest(const Options& options, const Digest& digest) {
  if (options.print_digest)
    std::fprintf(stderr, "picbench: output digest %s\n",
                 digest.hex().c_str());
  if (!options.expect_digest.empty() && digest.hex() != options.expect_digest)
    fail("output digest " + digest.hex() + " != recorded " +
         options.expect_digest + " for seed " + std::to_string(options.seed));
}

void Report::print() const {
  Json metrics = Json::object();
  for (const auto& [name, value_unit] : metrics_) {
    Json m = Json::object();
    m.set("value", Json(value_unit.first));
    m.set("unit", Json(value_unit.second));
    metrics.set(name, std::move(m));
  }
  Json line = Json::object();
  line.set("correct", Json(correct_ && failed_ == 0));
  line.set("attempted", Json(attempted_));
  line.set("failed", Json(failed_));
  line.set("metrics", std::move(metrics));
  std::printf("%s\n", line.dump().c_str());
  std::fflush(stdout);
}

double self_peak_rss_mb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

unsigned cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

}  // namespace picbench
