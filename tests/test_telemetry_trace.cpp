// Chrome-trace emission, the minimal JSON reader/writer, and the manifest
// round-trip through util::AtomicFile.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/json.hpp"
#include "telemetry/manifest.hpp"
#include "telemetry/span_tracer.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace picp::telemetry {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// --- Json ------------------------------------------------------------------

TEST(Json, DumpGolden) {
  // Byte-exact golden of the writer: key order preserved, integers kept
  // integral, doubles shortest-round-trip, strings escaped.
  Json doc = Json::object();
  doc.set("name", "spans \"hot\"\n");
  doc.set("count", std::uint64_t{18446744073709551615ull});
  doc.set("ratio", 0.5);
  doc.set("on", true);
  doc.set("none", Json());
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back(2.5);
  doc.set("items", arr);

  EXPECT_EQ(doc.dump(),
            "{\"name\":\"spans \\\"hot\\\"\\n\","
            "\"count\":-1,"
            "\"ratio\":0.5,"
            "\"on\":true,"
            "\"none\":null,"
            "\"items\":[1,2.5]}");
  EXPECT_EQ(arr.dump(2), "[\n  1,\n  2.5\n]");
}

TEST(Json, ParseRoundTrip) {
  const std::string text =
      R"({"a": [1, -2, 3.75], "b": {"nested": "v\u0041l\nue"}, "c": null,)"
      R"( "d": false, "big": 9007199254740993})";
  const Json doc = Json::parse(text);
  EXPECT_EQ(doc.at("a").size(), 3u);
  EXPECT_EQ(doc.at("a").at(1).as_int(), -2);
  EXPECT_DOUBLE_EQ(doc.at("a").at(2).as_double(), 3.75);
  EXPECT_EQ(doc.at("b").at("nested").as_string(), "vAl\nue");
  EXPECT_EQ(doc.at("c").kind(), Json::Kind::kNull);
  EXPECT_FALSE(doc.at("d").as_bool());
  // 2^53+1 survives exactly because integers are not squeezed into doubles.
  EXPECT_EQ(doc.at("big").as_int(), 9007199254740993ll);
  EXPECT_EQ(Json::parse(doc.dump()).dump(), doc.dump());
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), Error);
  EXPECT_THROW(Json::parse("{"), Error);
  EXPECT_THROW(Json::parse("[1,]"), Error);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), Error);
  EXPECT_THROW(Json::parse("'single'"), Error);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), Error);
}

// --- Chrome trace ----------------------------------------------------------

TEST(ChromeTrace, EmitsRequiredKeysAndThreadAttribution) {
  SpanTracer tracer;
  tracer.set_thread_name("main");
  tracer.record("alpha", "test", 10.0, 5.0);
  std::thread worker([&tracer] {
    tracer.set_thread_name("worker");
    tracer.record("beta", "test", 12.0, 1.0);
  });
  worker.join();
  ASSERT_EQ(tracer.span_count(), 2u);

  const Json doc = Json::parse(tracer.chrome_trace_json());
  ASSERT_TRUE(doc.is_object());
  EXPECT_TRUE(doc.has("displayTimeUnit"));
  ASSERT_TRUE(doc.has("traceEvents"));
  const Json& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());

  std::set<std::string> thread_names;
  std::set<std::int64_t> span_tids;
  std::size_t complete_events = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& e = events.at(i);
    // Required keys of the trace-event format.
    ASSERT_TRUE(e.has("name"));
    ASSERT_TRUE(e.has("ph"));
    ASSERT_TRUE(e.has("pid"));
    ASSERT_TRUE(e.has("tid"));
    const std::string& ph = e.at("ph").as_string();
    if (ph == "M") {
      EXPECT_EQ(e.at("name").as_string(), "thread_name");
      thread_names.insert(e.at("args").at("name").as_string());
    } else {
      ASSERT_EQ(ph, "X");
      ASSERT_TRUE(e.has("ts"));
      ASSERT_TRUE(e.has("dur"));
      ASSERT_TRUE(e.has("cat"));
      span_tids.insert(e.at("tid").as_int());
      ++complete_events;
    }
  }
  EXPECT_EQ(complete_events, 2u);
  EXPECT_EQ(span_tids.size(), 2u) << "spans must be thread-attributed";
  EXPECT_TRUE(thread_names.count("main") == 1);
  EXPECT_TRUE(thread_names.count("worker") == 1);

  // Complete events are sorted by start time.
  EXPECT_EQ(tracer.collect().size(), 2u);
}

TEST(ChromeTrace, SpansSortedByStartAndClearDropsAll) {
  SpanTracer tracer;
  tracer.record("late", "test", 100.0, 1.0);
  tracer.record("early", "test", 1.0, 1.0);
  const Json doc = Json::parse(tracer.chrome_trace_json());
  std::vector<std::string> order;
  const Json& events = doc.at("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i)
    if (events.at(i).at("ph").as_string() == "X")
      order.push_back(events.at(i).at("name").as_string());
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "early");
  EXPECT_EQ(order[1], "late");

  tracer.clear();
  EXPECT_EQ(tracer.span_count(), 0u);
}

TEST(ChromeTrace, TracerBuiltWhereADestroyedOneLivedKeepsItsSpans) {
  // The calling thread's buffer belongs to the first tracer; the second,
  // built in the same storage, must register its own instead of adopting
  // the dead tracer's.
  alignas(SpanTracer) unsigned char storage[sizeof(SpanTracer)];
  SpanTracer* tracer = new (storage) SpanTracer();
  tracer->record("first", "test", 1.0, 1.0);
  tracer->~SpanTracer();
  tracer = new (storage) SpanTracer();
  tracer->record("second", "test", 2.0, 1.0);
  EXPECT_EQ(tracer->span_count(), 1u);
  const auto spans = tracer->collect();
  EXPECT_TRUE(spans.size() == 1 && std::string(spans[0].span.name) == "second");
  tracer->~SpanTracer();
}

TEST(ChromeTrace, WriteChromeTraceLeavesNoTempResidue) {
  SpanTracer tracer;
  tracer.record("span", "test", 1.0, 2.0);
  const std::string dir = temp_path("picp_trace_test_dir");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/trace.json";
  tracer.write_chrome_trace(path);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NO_THROW(Json::parse(text));
  std::size_t residue = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().filename().string() != "trace.json") ++residue;
  EXPECT_EQ(residue, 0u) << "atomic write must not leave temp files";
  std::filesystem::remove_all(dir);
}

// --- Manifest --------------------------------------------------------------

RunManifest sample_manifest() {
  RunManifest m;
  m.command = "simulate";
  m.git_describe = "v1.2.3-4-gabc";
  m.hostname = "node017";
  m.created_utc = "2026-08-06T12:00:00Z";
  m.config_fingerprint = 0xdeadbeefcafef00dull;  // needs all 64 bits
  m.threads = 8;
  m.wall_seconds = 1.25;
  m.process_cpu_seconds = 9.5;
  m.phases.push_back({"picsim.push", 0.5, 0.45, 6000});
  m.phases.push_back({"picsim.interpolate", 0.25, 0.2, 6000});
  m.metrics.counters.push_back({"picsim.iterations", 6000});
  m.metrics.gauges.push_back({"threadpool.utilization", 0.875});
  HistogramSnapshot h;
  h.name = "picsim.kernel.push.seconds";
  h.bounds = {1e-6, 1e-3};
  h.counts = {10, 5, 1};
  h.count = 16;
  h.sum = 0.0125;
  m.metrics.histograms.push_back(h);
  m.extra.emplace_back("config", "mini.ini");
  return m;
}

TEST(Manifest, JsonRoundTripIsLossless) {
  const RunManifest m = sample_manifest();
  const RunManifest back = manifest_from_json(manifest_to_json(m));
  EXPECT_EQ(back.tool, m.tool);
  EXPECT_EQ(back.command, m.command);
  EXPECT_EQ(back.git_describe, m.git_describe);
  EXPECT_EQ(back.hostname, m.hostname);
  EXPECT_EQ(back.created_utc, m.created_utc);
  EXPECT_EQ(back.config_fingerprint, m.config_fingerprint);
  EXPECT_EQ(back.threads, m.threads);
  EXPECT_DOUBLE_EQ(back.wall_seconds, m.wall_seconds);
  EXPECT_DOUBLE_EQ(back.process_cpu_seconds, m.process_cpu_seconds);
  ASSERT_EQ(back.phases.size(), 2u);
  EXPECT_EQ(back.phases[0].name, "picsim.push");
  EXPECT_EQ(back.phases[0].count, 6000u);
  EXPECT_DOUBLE_EQ(back.phases[1].wall_seconds, 0.25);
  EXPECT_EQ(back.metrics.counter_value("picsim.iterations"), 6000u);
  EXPECT_DOUBLE_EQ(back.metrics.gauge_value("threadpool.utilization"), 0.875);
  ASSERT_EQ(back.metrics.histograms.size(), 1u);
  EXPECT_EQ(back.metrics.histograms[0].counts,
            (std::vector<std::uint64_t>{10, 5, 1}));
  EXPECT_DOUBLE_EQ(back.metrics.histograms[0].sum, 0.0125);
  ASSERT_EQ(back.extra.size(), 1u);
  EXPECT_EQ(back.extra[0].second, "mini.ini");
}

TEST(Manifest, AtomicFileRoundTripLeavesNoTempResidue) {
  const std::string dir = temp_path("picp_manifest_test_dir");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/manifest.json";

  const RunManifest m = sample_manifest();
  write_manifest(m, path);
  const RunManifest back = load_manifest(path);
  EXPECT_EQ(back.config_fingerprint, m.config_fingerprint);
  EXPECT_EQ(back.command, m.command);

  std::size_t residue = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().filename().string() != "manifest.json") ++residue;
  EXPECT_EQ(residue, 0u) << "atomic write must not leave temp files";
  std::filesystem::remove_all(dir);
}

TEST(Manifest, LoadRejectsWrongSchema) {
  const std::string path = temp_path("picp_manifest_bad.json");
  std::ofstream out(path);
  out << R"({"schema": "something-else/v9", "tool": "x"})";
  out.close();
  EXPECT_THROW(load_manifest(path), Error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace picp::telemetry
