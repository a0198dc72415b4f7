// In-process tests of the service layer's robustness contract:
// per-request deadline propagation (504 + stage telemetry), degraded-mode
// stale serving (X-Picp-Degraded), the /v1/failpoints admin endpoint's
// gating (404 when disabled, loopback-only when enabled), concurrent cold
// generations, and content-keyed caching. Drives PredictionService::handle()
// directly — no sockets — against a miniature trace generated once per
// process.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <latch>
#include <memory>
#include <string>
#include <thread>

#include "picsim/sim_driver.hpp"
#include "serve/http.hpp"
#include "serve/service.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace_writer.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace picp::serve {
namespace {

/// One miniature trace for every test in this file (generation costs more
/// than every request below combined). Leaked on purpose: process-lifetime.
const std::string& shared_trace_path() {
  static const std::string* path = [] {
    SimConfig cfg;
    cfg.nelx = 8;
    cfg.nely = 8;
    cfg.nelz = 16;
    cfg.bed.num_particles = 1500;
    cfg.num_iterations = 100;
    cfg.sample_every = 50;
    cfg.num_ranks = 8;
    cfg.filter_size = 0.08;
    // PID-unique: ctest runs each TEST as its own process, and two
    // processes regenerating one shared path would race reader vs writer.
    const auto* p = new std::string(testing::TempDir() +
                                    "/picp_serve_degraded_" +
                                    std::to_string(::getpid()) + ".trace");
    SimDriver driver(cfg);
    driver.run(*p);
    return p;
  }();
  return *path;
}

ServiceConfig tiny_service_config() {
  ServiceConfig config;
  config.trace_path = shared_trace_path();
  config.nelx = 8;
  config.nely = 8;
  config.nelz = 16;
  // Capacity 1 on both tiers: the second distinct key evicts the first,
  // which is exactly the shape the degraded-mode tests need.
  config.workload_cache_capacity = 1;
  config.response_cache_capacity = 1;
  return config;
}

HttpRequest post(const std::string& target, const std::string& body) {
  HttpRequest request;
  request.method = "POST";
  request.target = target;
  request.body = body;
  return request;
}

/// Distinct cold configs: each needs its own workload generation.
std::vector<std::string> distinct_bodies() {
  return {"{\"ranks\": [2]}",
          "{\"ranks\": [3]}",
          "{\"ranks\": [5], \"mapper\": \"element\"}",
          "{\"ranks\": [6], \"mapper\": \"hilbert\"}",
          "{\"ranks\": [7], \"filter\": 0.05}",
          "{\"ranks\": [9], \"interval_stride\": 2}"};
}

/// Every body answered one at a time by a fresh service: the reference a
/// concurrent run must reproduce byte for byte.
std::vector<std::string> serial_reference(
    const std::vector<std::string>& bodies) {
  PredictionService service(tiny_service_config());
  std::vector<std::string> out;
  for (const std::string& body : bodies) {
    const HttpResponse response = service.handle(post("/v1/workload", body));
    EXPECT_EQ(response.status, 200) << body << " -> " << response.body;
    out.push_back(response.body);
  }
  return out;
}

/// Each body on its own thread against one service, released together.
std::vector<HttpResponse> handle_concurrently(
    PredictionService& service, const std::vector<std::string>& bodies) {
  std::vector<HttpResponse> responses(bodies.size());
  std::latch start(static_cast<std::ptrdiff_t>(bodies.size()));
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < bodies.size(); ++i)
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      responses[i] = service.handle(post("/v1/workload", bodies[i]));
    });
  for (std::thread& thread : threads) thread.join();
  return responses;
}

/// A sealed trace whose header matches every other trace written with the
/// same shape; only the positions, drawn from `seed`, differ.
std::string same_header_trace(const std::string& name, std::uint64_t seed) {
  const std::string path = testing::TempDir() + "/" + name + "_" +
                           std::to_string(::getpid()) + ".trace";
  TraceWriter writer(path, 600, 50, Aabb(Vec3(0, 0, 0), Vec3(1, 1, 2)));
  Xoshiro256 rng(seed);
  std::vector<Vec3> positions(600);
  for (std::uint64_t s = 0; s < 3; ++s) {
    for (Vec3& p : positions)
      p = Vec3(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 2));
    writer.append(s * 50, positions);
  }
  writer.close();
  return path;
}

class ServeDegradedTest : public testing::Test {
 protected:
  void TearDown() override { failpoint::disarm_all(); }
};

TEST_F(ServeDegradedTest, WorkloadServesAndReplaysByteIdentically) {
  PredictionService service(tiny_service_config());
  const HttpResponse miss =
      service.handle(post("/v1/workload", "{\"ranks\": [4]}"));
  ASSERT_EQ(miss.status, 200) << miss.body;
  ASSERT_NE(miss.header("x-picp-cache"), nullptr);
  EXPECT_EQ(*miss.header("x-picp-cache"), "miss");
  EXPECT_EQ(miss.header("x-picp-degraded"), nullptr);

  const HttpResponse hit =
      service.handle(post("/v1/workload", "{\"ranks\": [4]}"));
  ASSERT_EQ(hit.status, 200);
  EXPECT_EQ(*hit.header("x-picp-cache"), "hit");
  EXPECT_EQ(hit.body, miss.body) << "cached replay must be byte-identical";
}

TEST_F(ServeDegradedTest, ExpiredDeadlineReturns504WithStage) {
  PredictionService service(tiny_service_config());
  // The injected delay burns the whole budget before the first pipeline
  // stage boundary, so the 504 is deterministic, not a timing race.
  failpoint::arm("serve.generate=delay(80)");
  HttpRequest request = post("/v1/workload", "{\"ranks\": [4]}");
  request.headers.emplace_back("x-picp-deadline-ms", "20");
  const HttpResponse response = service.handle(request);
  EXPECT_EQ(response.status, 504) << response.body;
  ASSERT_NE(response.header("x-picp-deadline-stage"), nullptr);
  EXPECT_EQ(*response.header("x-picp-deadline-stage"), "generate.partition");
  EXPECT_NE(response.body.find("deadline exceeded"), std::string::npos);
}

TEST_F(ServeDegradedTest, InvalidBodiesAre400sWithNoCoalescingKey) {
  // "No 5xx unless a failpoint is armed": every body parse_request can
  // judge is a client error, caught before any work is scheduled — and a
  // rejected body never gets a key to join another request's execution.
  PredictionService service(tiny_service_config());
  for (const char* body : {
           "{\"ranks\": ",                         // malformed JSON
           "[4]",                                   // not an object
           "{\"ranks\": [0]}",                      // out-of-range rank
           "{\"ranks\": [8], \"mapper\": 7}",        // mapper not a string
           "{\"ranks\": [8], \"mapper\": \"nope\"}",  // unknown mapper
           "{\"ranks\": [8], \"interval_stride\": 0}",
           "{\"ranks\": [8], \"interval_stride\": 1e30}",
           "{\"ranks\": [8], \"max_intervals\": -1}",
           "{\"ranks\": [8], \"max_intervals\": 0.5}",
           "{\"ranks\": [8], \"max_intervals\": 1e300}",
       }) {
    const HttpRequest request = post("/v1/workload", body);
    const HttpResponse response = service.handle(request);
    EXPECT_EQ(response.status, 400) << body << " -> " << response.body;
    EXPECT_EQ(service.coalesce_key(request), "") << body;
  }
}

TEST_F(ServeDegradedTest, EquivalentBodiesShareOneCoalescingKey) {
  PredictionService service(tiny_service_config());
  const std::string key = service.coalesce_key(
      post("/v1/workload", "{\"ranks\": [6]}"));
  ASSERT_FALSE(key.empty());
  for (const char* same : {"{\"ranks\": 6}",
                           "{\"mapper\": \"bin\", \"ranks\": [6]}",
                           "{\"max_intervals\": 0, \"interval_stride\": 1, "
                           "\"ranks\": [6], \"filter\": 0.024}"})
    EXPECT_EQ(service.coalesce_key(post("/v1/workload", same)), key) << same;

  // Different config, endpoint, target, or deadline: a different key.
  EXPECT_NE(service.coalesce_key(post("/v1/workload", "{\"ranks\": [7]}")),
            key);
  EXPECT_NE(service.coalesce_key(post("/v1/predict", "{\"ranks\": [6]}")),
            key);
  EXPECT_NE(
      service.coalesce_key(post("/v1/workload?x=1", "{\"ranks\": [6]}")),
      key);
  HttpRequest timed = post("/v1/workload", "{\"ranks\": [6]}");
  timed.headers.emplace_back("x-picp-deadline-ms", "100");
  EXPECT_NE(service.coalesce_key(timed), key);

  // Only generation-backed POSTs have a key.
  HttpRequest get = post("/v1/workload", "{\"ranks\": [6]}");
  get.method = "GET";
  EXPECT_EQ(service.coalesce_key(get), "");
  EXPECT_EQ(service.coalesce_key(post("/healthz", "")), "");

  // A body too large to parse on the reactor thread runs alone, and is
  // still served.
  const HttpRequest padded = post(
      "/v1/workload", "{\"ranks\": [6]" + std::string(8192, ' ') + "}");
  EXPECT_EQ(service.coalesce_key(padded), "");
  EXPECT_EQ(service.handle(padded).status, 200);
}

TEST_F(ServeDegradedTest, GenerousDeadlineDoesNotDisturbTheRequest) {
  PredictionService service(tiny_service_config());
  HttpRequest request = post("/v1/workload", "{\"ranks\": [4]}");
  request.headers.emplace_back("x-picp-deadline-ms", "600000");
  EXPECT_EQ(service.handle(request).status, 200);
}

TEST_F(ServeDegradedTest, MalformedDeadlineHeaderIsA400) {
  PredictionService service(tiny_service_config());
  for (const char* bad : {"soon", "-5", "0"}) {
    HttpRequest request = post("/v1/workload", "{\"ranks\": [4]}");
    request.headers.emplace_back("x-picp-deadline-ms", bad);
    EXPECT_EQ(service.handle(request).status, 400) << bad;
  }
}

TEST_F(ServeDegradedTest, TransientFailureServesStaleWhenAllowed) {
  ServiceConfig config = tiny_service_config();
  config.allow_stale = true;
  PredictionService service(config);

  // Warm ranks=4, then evict it from both capacity-1 tiers with ranks=2.
  // The stale tier keeps the evicted response as the last good value.
  const HttpResponse good =
      service.handle(post("/v1/workload", "{\"ranks\": [4]}"));
  ASSERT_EQ(good.status, 200);
  ASSERT_EQ(service.handle(post("/v1/workload", "{\"ranks\": [2]}")).status,
            200);

  failpoint::arm("serve.generate=error");
  const HttpResponse degraded =
      service.handle(post("/v1/workload", "{\"ranks\": [4]}"));
  EXPECT_EQ(degraded.status, 200) << degraded.body;
  ASSERT_NE(degraded.header("x-picp-degraded"), nullptr);
  EXPECT_EQ(*degraded.header("x-picp-degraded"), "stale");
  EXPECT_EQ(degraded.body, good.body)
      << "degraded mode must replay the last good artifact byte-for-byte";

  // Disarmed, the next request regenerates fresh — no stale lock-in.
  failpoint::disarm_all();
  const HttpResponse healed =
      service.handle(post("/v1/workload", "{\"ranks\": [4]}"));
  EXPECT_EQ(healed.status, 200);
  EXPECT_EQ(healed.header("x-picp-degraded"), nullptr);
  EXPECT_EQ(healed.body, good.body);
}

TEST_F(ServeDegradedTest, TransientFailureWithoutStalePermissionIsA500) {
  PredictionService service(tiny_service_config());  // allow_stale = false
  ASSERT_EQ(service.handle(post("/v1/workload", "{\"ranks\": [4]}")).status,
            200);
  ASSERT_EQ(service.handle(post("/v1/workload", "{\"ranks\": [2]}")).status,
            200);
  failpoint::arm("serve.generate=error");
  const HttpResponse response =
      service.handle(post("/v1/workload", "{\"ranks\": [4]}"));
  EXPECT_EQ(response.status, 500);
  EXPECT_EQ(response.header("x-picp-degraded"), nullptr);
}

TEST_F(ServeDegradedTest, FailpointsEndpointIs404WhenDisabled) {
  PredictionService service(tiny_service_config());
  HttpRequest request;
  request.method = "GET";
  request.target = "/v1/failpoints";
  request.from_loopback = true;  // even loopback peers see nothing
  EXPECT_EQ(service.handle(request).status, 404);
}

TEST_F(ServeDegradedTest, FailpointsEndpointIsLoopbackOnly) {
  ServiceConfig config = tiny_service_config();
  config.enable_failpoints = true;
  PredictionService service(config);
  HttpRequest request;
  request.method = "GET";
  request.target = "/v1/failpoints";
  request.from_loopback = false;
  EXPECT_EQ(service.handle(request).status, 403);
}

TEST_F(ServeDegradedTest, FailpointsEndpointArmsListsAndDisarms) {
  ServiceConfig config = tiny_service_config();
  config.enable_failpoints = true;
  PredictionService service(config);

  HttpRequest arm = post("/v1/failpoints",
                         "{\"arm\": \"serve.generate=error:times1\"}");
  arm.from_loopback = true;
  const HttpResponse armed = service.handle(arm);
  ASSERT_EQ(armed.status, 200) << armed.body;
  EXPECT_NE(armed.body.find("serve.generate=error:times1"),
            std::string::npos);

  HttpRequest list;
  list.method = "GET";
  list.target = "/v1/failpoints";
  list.from_loopback = true;
  EXPECT_NE(service.handle(list).body.find("serve.generate"),
            std::string::npos);

  // The armed failpoint really bites the serving path once.
  EXPECT_EQ(service.handle(post("/v1/workload", "{\"ranks\": [4]}")).status,
            500);
  EXPECT_EQ(service.handle(post("/v1/workload", "{\"ranks\": [4]}")).status,
            200);

  HttpRequest disarm = post("/v1/failpoints", "{\"disarm_all\": true}");
  disarm.from_loopback = true;
  EXPECT_EQ(service.handle(disarm).status, 200);
  EXPECT_TRUE(failpoint::list().empty());

  HttpRequest bad = post("/v1/failpoints", "{\"arm\": \"not a spec\"}");
  bad.from_loopback = true;
  EXPECT_EQ(service.handle(bad).status, 400);
}

TEST_F(ServeDegradedTest, ModelsThePredictorWouldMisreadFailAtBoot) {
  const std::string path = testing::TempDir() + "/picp_serve_models_" +
                           std::to_string(::getpid()) + ".txt";
  ServiceConfig config = tiny_service_config();
  config.models_path = path;
  const auto write_models = [&path](const std::string& line) {
    std::ofstream(path) << line << '\n';
  };

  write_models("project | np,ngp,filter | linear 0 1e-8 2e-8 3e-8");
  {
    PredictionService service(config);
    EXPECT_EQ(service.handle(post("/v1/predict", "{\"ranks\": [4]}")).status,
              200);
  }
  // The same model with its features listed in another order would be fed
  // np as ngp; an unknown kernel name would be silently dropped.
  write_models("project | ngp,np,filter | linear 0 1e-8 2e-8 3e-8");
  EXPECT_THROW(PredictionService service(config), Error);
  write_models("interp | np | linear 0 1e-8");
  EXPECT_THROW(PredictionService service(config), Error);
  std::remove(path.c_str());
}

TEST_F(ServeDegradedTest, ConcurrentColdGenerationsMatchASerialRun) {
  const std::vector<std::string> bodies = distinct_bodies();
  const std::vector<std::string> reference = serial_reference(bodies);
  PredictionService service(tiny_service_config());
  const std::vector<HttpResponse> responses =
      handle_concurrently(service, bodies);
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    ASSERT_EQ(responses[i].status, 200) << bodies[i];
    EXPECT_EQ(*responses[i].header("x-picp-cache"), "miss") << bodies[i];
    EXPECT_EQ(responses[i].body, reference[i]) << bodies[i];
  }
}

TEST_F(ServeDegradedTest, TraceReadErrorFailsOnlyItsOwnGeneration) {
  const std::vector<std::string> bodies = distinct_bodies();
  const std::vector<std::string> reference = serial_reference(bodies);
  PredictionService service(tiny_service_config());  // allow_stale = false
  failpoint::arm("trace.read=error:after2:times1");
  const std::vector<HttpResponse> responses =
      handle_concurrently(service, bodies);
  failpoint::disarm_all();

  std::size_t failed = bodies.size();
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    if (responses[i].status == 500) {
      EXPECT_EQ(failed, bodies.size()) << "a second 500: " << bodies[i];
      failed = i;
      continue;
    }
    ASSERT_EQ(responses[i].status, 200) << bodies[i];
    EXPECT_EQ(responses[i].body, reference[i]) << bodies[i];
  }
  ASSERT_LT(failed, bodies.size()) << "the armed trace.read never fired";
  const HttpResponse healed =
      service.handle(post("/v1/workload", bodies[failed]));
  EXPECT_EQ(healed.status, 200);
  EXPECT_EQ(healed.body, reference[failed]);
}

TEST_F(ServeDegradedTest, SharedCacheDirNeverReplaysAnotherTracesBody) {
  // Two sealed traces with byte-identical headers: only their frames, and
  // so their footer digests, differ.
  const std::string trace_a = same_header_trace("picp_serve_same_a", 1);
  const std::string trace_b = same_header_trace("picp_serve_same_b", 2);
  const std::string spill = testing::TempDir() + "/picp_serve_shared_spill_" +
                            std::to_string(::getpid());
  std::filesystem::remove_all(spill);

  ServiceConfig config = tiny_service_config();
  config.cache_dir = spill;
  config.trace_path = trace_a;
  std::string body_a;
  {
    PredictionService a(config);
    const HttpResponse first = a.handle(post("/v1/workload", "{\"ranks\": 7}"));
    ASSERT_EQ(first.status, 200);
    body_a = first.body;
    // The capacity-1 response tier spills ranks=7 to the shared dir.
    ASSERT_EQ(a.handle(post("/v1/workload", "{\"ranks\": 3}")).status, 200);
  }

  ServiceConfig fresh = tiny_service_config();
  fresh.trace_path = trace_b;
  PredictionService reference(fresh);
  const std::string body_b =
      reference.handle(post("/v1/workload", "{\"ranks\": 7}")).body;
  ASSERT_NE(body_a, body_b) << "the two traces must give different answers";

  config.trace_path = trace_b;
  PredictionService b(config);
  const HttpResponse answer = b.handle(post("/v1/workload", "{\"ranks\": 7}"));
  ASSERT_EQ(answer.status, 200);
  EXPECT_EQ(*answer.header("x-picp-cache"), "miss");
  EXPECT_EQ(answer.body, body_b);
  std::filesystem::remove_all(spill);
  std::remove(trace_a.c_str());
  std::remove(trace_b.c_str());
}

TEST_F(ServeDegradedTest, SharedCacheDirNeverReplaysAnotherModelSetsBody) {
  // One models path, rewritten between two daemons: the key follows the
  // file's content, not its name.
  const std::string models = testing::TempDir() + "/picp_serve_rewritten_" +
                             std::to_string(::getpid()) + ".txt";
  const std::string spill = testing::TempDir() + "/picp_serve_models_spill_" +
                            std::to_string(::getpid());
  std::filesystem::remove_all(spill);
  ServiceConfig config = tiny_service_config();
  config.cache_dir = spill;
  config.models_path = models;

  std::ofstream(models) << "project | np,ngp,filter | linear 0 1e-8 0 0\n";
  std::string body_a;
  {
    PredictionService a(config);
    const HttpResponse first = a.handle(post("/v1/predict", "{\"ranks\": 7}"));
    ASSERT_EQ(first.status, 200) << first.body;
    body_a = first.body;
    ASSERT_EQ(a.handle(post("/v1/predict", "{\"ranks\": 3}")).status, 200);
  }

  std::ofstream(models) << "project | np,ngp,filter | linear 0 5e-8 0 0\n";
  PredictionService b(config);
  const HttpResponse answer = b.handle(post("/v1/predict", "{\"ranks\": 7}"));
  ASSERT_EQ(answer.status, 200) << answer.body;
  EXPECT_EQ(*answer.header("x-picp-cache"), "miss");
  EXPECT_NE(answer.body, body_a);
  std::filesystem::remove_all(spill);
  std::remove(models.c_str());
}

TEST_F(ServeDegradedTest, UnknownFieldsAre400sThatNameTheField) {
  // Answered as the defaults, either body would be cached and coalesced
  // under the defaults' key.
  PredictionService service(tiny_service_config());
  for (const auto& [body, field] :
       {std::pair{"{\"ranks\": [8], \"alpha\": 1.0, \"beta\": 1e-3}",
                  "\"alpha\""},
        std::pair{"{\"ranks\": [8], \"mapr\": \"element\"}", "\"mapr\""}}) {
    const HttpRequest request = post("/v1/workload", body);
    const HttpResponse response = service.handle(request);
    EXPECT_EQ(response.status, 400) << body << " -> " << response.body;
    const std::string message =
        Json::parse(response.body).at("error").at("message").as_string();
    EXPECT_NE(message.find(field), std::string::npos) << message;
    EXPECT_EQ(service.coalesce_key(request), "") << body;
  }
  // Keys reordered, a scalar rank count, the defaults spelled out: every
  // encoding of the known fields is still answered.
  for (const char* body :
       {"{\"filter\": 0.024, \"mapper\": \"bin\", \"ranks\": [8]}",
        "{\"mapper\":\"bin\",\"ranks\":8,\"filter\":0.024}",
        "{\"ranks\":[8],\"interval_stride\":1,\"max_intervals\":0,"
        "\"filter\":0.024,\"mapper\":\"bin\"}"})
    EXPECT_EQ(service.handle(post("/v1/workload", body)).status, 200) << body;
}

TEST_F(ServeDegradedTest, CacheCountsReachTheManifestWithoutAScrape) {
  // Three distinct predicts through a capacity-1 response tier with a disk
  // tier, then the first again, and no /metricsz call: a drain manifest
  // built now must already hold every count.
  telemetry::configure(telemetry::SessionOptions{});
  const std::string models = testing::TempDir() + "/picp_serve_counts_" +
                             std::to_string(::getpid()) + ".txt";
  const std::string spill = testing::TempDir() + "/picp_serve_counts_spill_" +
                            std::to_string(::getpid());
  std::filesystem::remove_all(spill);
  std::ofstream(models) << "project | np,ngp,filter | linear 0 1e-8 0 0\n";
  ServiceConfig config = tiny_service_config();
  config.models_path = models;
  config.cache_dir = spill;
  {
    PredictionService service(config);
    for (const char* body : {"{\"ranks\": [2]}", "{\"ranks\": [3]}",
                             "{\"ranks\": [5]}", "{\"ranks\": [2]}"}) {
      const HttpResponse response =
          service.handle(post("/v1/predict", body));
      ASSERT_EQ(response.status, 200) << body << " -> " << response.body;
    }
  }
  const telemetry::MetricsSnapshot metrics = telemetry::build_manifest().metrics;
  EXPECT_EQ(metrics.counter_value("serve.cache.response.evictions"), 3u);
  EXPECT_EQ(metrics.counter_value("serve.cache.response.disk_hits"), 1u);
  EXPECT_EQ(metrics.counter_value("serve.cache.response.misses"), 3u);
  EXPECT_EQ(metrics.counter_value("serve.cache.response.hits"), 0u);
  // The manifest carries only series a tier can move: the workload tier has
  // neither a disk tier nor a stale tier.
  const auto listed = [&metrics](const std::string& name) {
    return std::any_of(
        metrics.counters.begin(), metrics.counters.end(),
        [&name](const auto& counter) { return counter.name == name; });
  };
  EXPECT_TRUE(listed("serve.cache.response.spill_failures"));
  for (const char* series :
       {"disk_hits", "stale_served", "quarantined", "spill_failures"})
    EXPECT_FALSE(listed(std::string("serve.cache.workload.") + series))
        << series;
  std::filesystem::remove_all(spill);
  std::remove(models.c_str());
}

TEST_F(ServeDegradedTest, EachAnswerCountsOnceInItsOutcome) {
  // One run through every outcome of the response tier: a memory hit, a
  // stale answer, a miss, a disk hit, and a failing compute with nothing
  // stale to serve.
  telemetry::configure(telemetry::SessionOptions{});
  const std::string spill = testing::TempDir() + "/picp_serve_outcomes_" +
                            std::to_string(::getpid());
  std::filesystem::remove_all(spill);
  ServiceConfig config = tiny_service_config();
  config.allow_stale = true;
  config.cache_dir = spill;
  PredictionService service(config);

  std::uint64_t hit_200s = 0;
  std::uint64_t miss_200s = 0;
  const auto ask = [&](const char* ranks, const char* failpoints) {
    if (*failpoints != '\0') failpoint::arm_many(failpoints);
    const HttpResponse response = service.handle(post(
        "/v1/workload", std::string("{\"ranks\": [") + ranks + "]}"));
    failpoint::disarm_all();
    if (response.status == 200)
      ++(*response.header("x-picp-cache") == "hit" ? hit_200s : miss_200s);
    return response.status;
  };
  EXPECT_EQ(ask("4", ""), 200);  // miss
  EXPECT_EQ(ask("4", ""), 200);  // memory hit
  // Evicting ranks=4 fails to spill, so only the stale tier still has it.
  EXPECT_EQ(ask("2", "cache.spill=errno(28)"), 200);  // miss
  EXPECT_EQ(ask("4", "serve.generate=error"), 200);   // stale
  EXPECT_EQ(ask("3", ""), 200);  // miss; ranks=2 spills
  EXPECT_EQ(ask("2", ""), 200);  // disk hit
  EXPECT_EQ(ask("5", "serve.generate=error"), 500);   // nothing stale

  const telemetry::MetricsSnapshot metrics = telemetry::registry().snapshot();
  const auto counted = [&](const char* outcome) {
    return metrics.counter_value(std::string("serve.cache.response.") +
                                 outcome);
  };
  EXPECT_EQ(counted("hits"), 1u);
  EXPECT_EQ(counted("disk_hits"), 1u);
  EXPECT_EQ(counted("stale_served"), 1u);
  EXPECT_EQ(counted("hits") + counted("disk_hits") + counted("stale_served"),
            hit_200s);
  EXPECT_EQ(counted("misses"), miss_200s);
  EXPECT_EQ(miss_200s, 3u);
  std::filesystem::remove_all(spill);
}

}  // namespace
}  // namespace picp::serve
