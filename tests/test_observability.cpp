// Unit tests for the observability layer: histogram quantile estimation,
// Prometheus text exposition, trace-id hygiene, exclusive-time stage
// recording, and the NDJSON access log (line schema, rotation, and the
// counters that report a log that stopped). The
// reactor-integrated pieces (trace propagation over real sockets, the
// deterministic span-sum property) live in test_reactor.cpp.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "serve/access_log.hpp"
#include "serve/request_trace.hpp"
#include "telemetry/json.hpp"
#include "telemetry/prometheus.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/span_tracer.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace picp::serve {
namespace {

using picp::Json;
using picp::telemetry::HistogramSnapshot;
using picp::telemetry::MetricsSnapshot;

// --- HistogramSnapshot::quantile --------------------------------------------

HistogramSnapshot make_histogram(std::vector<double> bounds,
                                 std::vector<std::uint64_t> counts) {
  HistogramSnapshot h;
  h.name = "test";
  h.bounds = std::move(bounds);
  h.counts = std::move(counts);
  for (const std::uint64_t c : h.counts) h.count += c;
  return h;
}

TEST(HistogramQuantile, EmptyHistogramIsZero) {
  const HistogramSnapshot h = make_histogram({1.0, 2.0}, {0, 0, 0});
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.quantile(0.99), 0.0);
}

TEST(HistogramQuantile, InterpolatesWithinTheTargetBucket) {
  // 10 observations uniform over (0, 100]: the estimator treats the bucket
  // as uniformly filled, so q maps linearly onto the bucket span.
  const HistogramSnapshot h = make_histogram({100.0}, {10, 0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.1), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
}

TEST(HistogramQuantile, CrossesBucketsAtTheCumulativeRank) {
  // 4 in (0,10], 4 in (10,100]: p50 is the top of the first bucket, p75
  // is halfway through the second.
  const HistogramSnapshot h = make_histogram({10.0, 100.0}, {4, 4, 0});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 55.0);
}

TEST(HistogramQuantile, OverflowClampsToTheLargestFiniteBound) {
  // Everything in the overflow bucket: there is no upper edge to
  // interpolate toward, so every quantile clamps to the last bound.
  const HistogramSnapshot h = make_histogram({10.0, 100.0}, {0, 0, 7});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 100.0);
}

TEST(HistogramQuantile, OutOfRangeQClamps) {
  const HistogramSnapshot h = make_histogram({100.0}, {10, 0});
  EXPECT_DOUBLE_EQ(h.quantile(-0.5), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(1.5), h.quantile(1.0));
}

// --- Prometheus exposition --------------------------------------------------

TEST(Prometheus, NameSanitization) {
  using picp::telemetry::prometheus_name;
  EXPECT_EQ(prometheus_name("serve.queue_depth"), "picp_serve_queue_depth");
  EXPECT_EQ(prometheus_name("serve.red.total_us.predict.2xx"),
            "picp_serve_red_total_us_predict_2xx");
  EXPECT_EQ(prometheus_name("weird-name with spaces"),
            "picp_weird_name_with_spaces");
}

/// Count occurrences of `needle` in `haystack`.
std::size_t occurrences(const std::string& haystack,
                        const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size()))
    ++n;
  return n;
}

TEST(Prometheus, TextFormatCoversEveryFamilyExactlyOnce) {
  MetricsSnapshot snapshot;
  snapshot.counters.push_back({"serve.requests", 42});
  snapshot.gauges.push_back({"serve.inflight", 3.0});
  HistogramSnapshot h = make_histogram({100.0, 1000.0}, {5, 3, 2});
  h.name = "serve.red.total_us.predict.2xx";
  h.sum = 1234.5;
  snapshot.histograms.push_back(h);

  const std::string text = picp::telemetry::to_prometheus_text(snapshot);

  // Counter: HELP + TYPE + one sample.
  EXPECT_EQ(occurrences(text, "# HELP picp_serve_requests "), 1u);
  EXPECT_EQ(occurrences(text, "# TYPE picp_serve_requests counter"), 1u);
  EXPECT_NE(text.find("picp_serve_requests 42\n"), std::string::npos);

  // Gauge.
  EXPECT_EQ(occurrences(text, "# TYPE picp_serve_inflight gauge"), 1u);
  EXPECT_NE(text.find("picp_serve_inflight 3\n"), std::string::npos);

  // Histogram: cumulative buckets, +Inf equal to the total count, then
  // _sum and _count.
  const std::string family = "picp_serve_red_total_us_predict_2xx";
  EXPECT_EQ(occurrences(text, "# TYPE " + family + " histogram"), 1u);
  EXPECT_NE(text.find(family + "_bucket{le=\"100\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find(family + "_bucket{le=\"1000\"} 8\n"),
            std::string::npos);
  EXPECT_NE(text.find(family + "_bucket{le=\"+Inf\"} 10\n"),
            std::string::npos);
  EXPECT_NE(text.find(family + "_sum 1234.5\n"), std::string::npos);
  EXPECT_NE(text.find(family + "_count 10\n"), std::string::npos);

  EXPECT_STREQ(picp::telemetry::prometheus_content_type(),
               "text/plain; version=0.0.4");
}

TEST(Prometheus, DuplicateFamiliesEmitOneHelpTypePair) {
  // Two registry names that collide after sanitization (possible only
  // through punctuation-only differences) must not produce duplicate
  // HELP/TYPE lines — scrapers reject that.
  MetricsSnapshot snapshot;
  snapshot.counters.push_back({"serve.requests", 1});
  snapshot.counters.push_back({"serve_requests", 2});
  const std::string text = picp::telemetry::to_prometheus_text(snapshot);
  EXPECT_EQ(occurrences(text, "# TYPE picp_serve_requests counter"), 1u);
}

// --- trace ids ---------------------------------------------------------------

TEST(TraceId, GeneratedIdsAreWellFormedAndDistinct) {
  const std::string a = generate_trace_id();
  const std::string b = generate_trace_id();
  ASSERT_EQ(a.size(), 18u);  // "p-" + 16 hex digits
  EXPECT_EQ(a.substr(0, 2), "p-");
  for (std::size_t i = 2; i < a.size(); ++i)
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(a[i]))) << a;
  EXPECT_NE(a, b);
}

TEST(TraceId, SanitizeHonorsWellFormedInboundIds) {
  EXPECT_EQ(sanitize_trace_id("abc-123.DEF_x"), "abc-123.DEF_x");
  EXPECT_EQ(sanitize_trace_id("p-0123456789abcdef"), "p-0123456789abcdef");
}

TEST(TraceId, SanitizeRegeneratesHostileIds) {
  // Empty, oversized, and control/space bytes must all be replaced by a
  // generated id so the access log stays one-line-per-request parseable.
  EXPECT_EQ(sanitize_trace_id("").substr(0, 2), "p-");
  EXPECT_EQ(sanitize_trace_id(std::string(65, 'a')).substr(0, 2), "p-");
  EXPECT_EQ(sanitize_trace_id("has space").substr(0, 2), "p-");
  EXPECT_EQ(sanitize_trace_id("newline\ninjection").substr(0, 2), "p-");
  EXPECT_EQ(sanitize_trace_id("quote\"break").substr(0, 2), "p-");
}

// --- exclusive-time stages ---------------------------------------------------

/// Fixture owning a manually-advanced clock shared by every trace it makes.
class RequestTraceTest : public ::testing::Test {
 protected:
  RequestTrace make_trace() {
    RequestTrace trace([this] { return now_; });
    return trace;
  }
  void advance_us(std::int64_t us) { now_ += std::chrono::microseconds(us); }

  std::chrono::steady_clock::time_point now_{};
};

TEST_F(RequestTraceTest, NestedStagesRecordExclusiveTime) {
  RequestTrace trace = make_trace();
  {
    const telemetry::StageLog::Scope scope(&trace);
    const telemetry::ScopedSpan cache("cache");
    advance_us(5000);
    {
      const telemetry::ScopedSpan generate("generate");
      advance_us(20000);
    }
    advance_us(2000);
  }
  ASSERT_EQ(trace.stages().size(), 2u);
  // Inner stage closed first; order is completion order.
  EXPECT_STREQ(trace.stages()[0].name, "generate");
  EXPECT_DOUBLE_EQ(trace.stages()[0].dur_us, 20000.0);
  EXPECT_STREQ(trace.stages()[1].name, "cache");
  // "cache" excludes the nested 20 ms: 5 ms before + 2 ms after.
  EXPECT_DOUBLE_EQ(trace.stages()[1].dur_us, 7000.0);
}

TEST_F(RequestTraceTest, StagesLeaveEveryTraceAloneWithoutACurrentLog) {
  RequestTrace trace = make_trace();
  {
    const telemetry::StageLog::Scope scope(&trace);
  }
  EXPECT_EQ(telemetry::StageLog::current(), nullptr);
  {
    // No scope at all: the stage must not touch the trace.
    const telemetry::ScopedSpan stage("generate");
    advance_us(5000);
  }
  EXPECT_TRUE(trace.stages().empty());
}

TEST_F(RequestTraceTest, EmitSpansCoversRequestWaitsAndStages) {
  RequestTrace trace = make_trace();
  trace.arrived_us = trace.now_us();
  trace.dispatch_us = trace.arrived_us;
  {
    const telemetry::StageLog::Scope scope(&trace);
    const telemetry::ScopedSpan stage("simulate");
    advance_us(4000);
  }
  trace.batch_wait_us = 0.0;
  trace.queue_wait_us = 1000.0;
  trace.handler_us = 4000.0;
  trace.total_us = 5000.0;

  picp::telemetry::SpanTracer tracer;
  trace.emit_spans(tracer);
  const auto spans = tracer.collect();
  bool saw_request = false, saw_queue = false, saw_stage = false;
  for (const auto& tagged : spans) {
    const std::string name = tagged.span.name;
    EXPECT_STREQ(tagged.span.category, "request");
    if (name == "request") {
      saw_request = true;
      EXPECT_DOUBLE_EQ(tagged.span.dur_us, 5000.0);
    }
    if (name == "queue") saw_queue = true;
    if (name == "simulate") saw_stage = true;
  }
  EXPECT_TRUE(saw_request);
  EXPECT_TRUE(saw_queue);
  EXPECT_TRUE(saw_stage);
}

// --- access log --------------------------------------------------------------

RequestTrace traced_request(std::chrono::steady_clock::time_point* now) {
  RequestTrace trace([now] { return *now; });
  trace.id = "p-feedfacefeedface";
  trace.method = "POST";
  trace.path = "/v1/predict";
  trace.peer = "127.0.0.1:5555";
  trace.status = 200;
  trace.role = "leader";
  trace.batch_size = 3;
  trace.cache_tier = "miss";
  trace.batch_wait_us = 100.0;
  trace.queue_wait_us = 200.0;
  trace.handler_us = 3000.0;
  trace.total_us = 3300.0;
  return trace;
}

TEST(AccessLog, LineCarriesTheFullSchema) {
  std::chrono::steady_clock::time_point now{};
  RequestTrace trace = traced_request(&now);
  {
    const telemetry::StageLog::Scope scope(&trace);
    {
      const telemetry::ScopedSpan stage("generate");
      now += std::chrono::microseconds(1000);
    }
    {
      // A repeated stage accumulates into one key instead of clobbering.
      const telemetry::ScopedSpan stage("generate");
      now += std::chrono::microseconds(500);
    }
  }

  const Json line = Json::parse(access_log_line(trace));
  ASSERT_TRUE(line.is_object());
  EXPECT_EQ(line.find("trace_id")->as_string(), "p-feedfacefeedface");
  EXPECT_EQ(line.find("peer")->as_string(), "127.0.0.1:5555");
  EXPECT_EQ(line.find("method")->as_string(), "POST");
  EXPECT_EQ(line.find("path")->as_string(), "/v1/predict");
  EXPECT_EQ(line.find("status")->as_int(), 200);
  EXPECT_EQ(line.find("batch_role")->as_string(), "leader");
  EXPECT_EQ(line.find("batch_size")->as_uint(), 3u);
  EXPECT_EQ(line.find("cache")->as_string(), "miss");
  EXPECT_EQ(line.find("deadline_stage")->as_string(), "");
  EXPECT_DOUBLE_EQ(line.find("batch_wait_us")->as_double(), 100.0);
  EXPECT_DOUBLE_EQ(line.find("queue_us")->as_double(), 200.0);
  EXPECT_DOUBLE_EQ(line.find("handler_us")->as_double(), 3000.0);
  EXPECT_DOUBLE_EQ(line.find("total_us")->as_double(), 3300.0);
  ASSERT_NE(line.find("ts"), nullptr);
  const Json* stages = line.find("stages");
  ASSERT_NE(stages, nullptr);
  EXPECT_DOUBLE_EQ(stages->find("generate")->as_double(), 1500.0);
}

TEST(AccessLog, RotatesAtTheByteBudget) {
  const std::string path =
      testing::TempDir() + "/picp_access_" + std::to_string(::getpid()) +
      ".ndjson";
  std::remove(path.c_str());
  std::remove((path + ".1").c_str());

  std::chrono::steady_clock::time_point now{};
  {
    AccessLog log({path, /*max_bytes=*/512});
    const RequestTrace trace = traced_request(&now);
    for (int i = 0; i < 8; ++i) log.write(trace);
    EXPECT_EQ(log.lines_written(), 8u);
  }

  // Every line is ~300 bytes, so 8 writes crossed the 512-byte budget at
  // least once: the rotated file exists and every surviving line (live +
  // rotated) is valid NDJSON. Early rotations overwrite `.1`, so only the
  // most recent generations survive — by design.
  std::size_t lines = 0;
  for (const std::string& name : {path + ".1", path}) {
    std::FILE* file = std::fopen(name.c_str(), "r");
    ASSERT_NE(file, nullptr) << name << " missing — rotation never happened";
    char buffer[4096];
    while (std::fgets(buffer, sizeof buffer, file) != nullptr) {
      const Json parsed = Json::parse(buffer);
      EXPECT_TRUE(parsed.is_object());
      ++lines;
    }
    std::fclose(file);
  }
  EXPECT_GT(lines, 0u);

  std::remove(path.c_str());
  std::remove((path + ".1").c_str());
}

TEST(AccessLog, CountsLinesLostToAFailedRotation) {
  telemetry::configure(telemetry::SessionOptions{});
  auto& dropped = telemetry::registry().counter("serve.access_log.dropped");
  auto& failures =
      telemetry::registry().counter("serve.access_log.rotation_failures");
  const std::uint64_t dropped_before = dropped.value();
  const std::uint64_t failures_before = failures.value();
  // Deleting the directory makes the rotation's rename and its reopen both
  // fail with ENOENT, whoever runs the test (root ignores permissions).
  const std::filesystem::path dir =
      testing::TempDir() + "/picp_access_gone_" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);

  std::chrono::steady_clock::time_point now{};
  const RequestTrace trace = traced_request(&now);
  const std::size_t line_bytes = access_log_line(trace).size() + 1;
  AccessLog log({(dir / "access.ndjson").string(), /*max_bytes=*/512});
  ASSERT_LT(line_bytes, 512u);
  ASSERT_GT(2 * line_bytes, 512u);  // the second line crosses the budget
  log.write(trace);
  std::filesystem::remove_all(dir);
  for (int i = 0; i < 5; ++i) log.write(trace);

  // The open file took the second line; then the rotation failed and the
  // last four had nowhere to go.
  EXPECT_EQ(log.lines_written(), 2u);
  EXPECT_EQ(failures.value() - failures_before, 1u);
  EXPECT_EQ(dropped.value() - dropped_before, 4u);
}

TEST(AccessLog, ThrowsWhenThePathCannotOpen) {
  EXPECT_THROW((AccessLog({"/nonexistent-dir/access.ndjson", 1024})),
               picp::Error);
}

}  // namespace
}  // namespace picp::serve
