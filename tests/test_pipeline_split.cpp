// Regression tests for the pipeline stage split (serving refactor): the
// daemon calls generate_workload() / simulate_workload() separately with
// cached artifacts, the CLI calls the monolithic predict(). These tests pin
// the contract that both paths produce bit-identical numbers, so a cached
// response can never drift from what a fresh CLI run would print — down to
// every field of the rows the daemon renders.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <typeinfo>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "core/trainer.hpp"
#include "picsim/sim_driver.hpp"
#include "serve/service.hpp"
#include "util/deadline.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"
#include "workload/workload_stats.hpp"

namespace picp {
namespace {

struct SplitFixture {
  SimConfig cfg;
  std::string trace_path;
  ModelSet models;
  std::unique_ptr<SimDriver> driver;

  SplitFixture() {
    cfg.nelx = 6;
    cfg.nely = 6;
    cfg.nelz = 12;
    cfg.bed.num_particles = 1500;
    cfg.num_iterations = 200;
    cfg.sample_every = 50;
    cfg.num_ranks = 12;
    cfg.filter_size = 0.09;
    cfg.measure = true;
    cfg.measure_min_seconds = 5e-6;
    cfg.measure_max_reps = 8;
    trace_path = testing::TempDir() + "/picp_split_" +
                 testing::UnitTest::GetInstance()->current_test_info()->name() +
                 ".bin";
    driver = std::make_unique<SimDriver>(cfg);
    const SimResult app = driver->run(trace_path);

    // Small models: the tests compare the two code paths against each
    // other, so fit quality is irrelevant — only determinism matters.
    ModelGenConfig mg;
    mg.symreg.population = 64;
    mg.symreg.generations = 8;
    mg.symreg.threads = 1;
    models = train_models(app.timings, mg);
  }
  ~SplitFixture() { std::remove(trace_path.c_str()); }
};

void expect_same_workload(const WorkloadResult& a, const WorkloadResult& b) {
  ASSERT_EQ(a.num_ranks, b.num_ranks);
  ASSERT_EQ(a.num_intervals(), b.num_intervals());
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.partitions_per_interval, b.partitions_per_interval);
  EXPECT_EQ(a.elements_per_rank, b.elements_per_rank);
  for (std::size_t t = 0; t < a.num_intervals(); ++t) {
    for (Rank r = 0; r < a.num_ranks; ++r) {
      ASSERT_EQ(a.comp_real.at(r, t), b.comp_real.at(r, t));
      ASSERT_EQ(a.comp_ghost.at(r, t), b.comp_ghost.at(r, t));
    }
    for (const auto& [ma, mb] : {std::pair{&a.comm_real, &b.comm_real},
                                 std::pair{&a.comm_ghost, &b.comm_ghost}}) {
      const auto ta = ma->interval_transfers(t);
      const auto tb = mb->interval_transfers(t);
      ASSERT_EQ(ta.size(), tb.size());
      for (std::size_t i = 0; i < ta.size(); ++i) {
        ASSERT_EQ(ta[i].from, tb[i].from);
        ASSERT_EQ(ta[i].to, tb[i].to);
        ASSERT_EQ(ta[i].count, tb[i].count);
      }
    }
  }
}

void expect_same_report(const SimReport& a, const SimReport& b) {
  // EXPECT_EQ on doubles is deliberate: the contract is bit-identical
  // replay, not approximate agreement.
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.critical_path_seconds, b.critical_path_seconds);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.interval_end, b.interval_end);
  EXPECT_EQ(a.rank_busy_seconds, b.rank_busy_seconds);
}

TEST(PipelineSplit, SplitStagesMatchMonolithicPredictExactly) {
  SplitFixture f;
  PredictionPipeline pipeline(f.driver->mesh(), f.models);
  PredictionConfig pc;
  pc.num_ranks = f.cfg.num_ranks;
  pc.filter_size = f.cfg.filter_size;

  TraceReader monolithic_reader(f.trace_path);
  const PredictionOutcome outcome = pipeline.predict(monolithic_reader, pc);

  TraceReader split_reader(f.trace_path);
  const WorkloadResult workload = pipeline.generate_workload(split_reader, pc);
  const SimReport sim = pipeline.simulate_workload(workload, pc);

  expect_same_workload(outcome.workload, workload);
  expect_same_report(outcome.sim, sim);
}

TEST(PipelineSplit, SimulateWorkloadIsPureOverCachedArtifacts) {
  // The daemon simulates against one cached WorkloadResult from many
  // threads; that is only sound if simulate_workload() mutates nothing and
  // replays identically.
  SplitFixture f;
  PredictionPipeline pipeline(f.driver->mesh(), f.models);
  PredictionConfig pc;
  pc.num_ranks = f.cfg.num_ranks;
  pc.filter_size = f.cfg.filter_size;

  TraceReader reader(f.trace_path);
  const WorkloadResult workload = pipeline.generate_workload(reader, pc);
  const SimReport first = pipeline.simulate_workload(workload, pc);

  std::vector<SimReport> reports(4);
  std::vector<std::thread> threads;
  for (auto& slot : reports)
    threads.emplace_back(
        [&, out = &slot] { *out = pipeline.simulate_workload(workload, pc); });
  for (auto& t : threads) t.join();
  for (const SimReport& report : reports) expect_same_report(first, report);
}

TEST(PipelineSplit, DifferentTargetsFromOneWorkloadStayIndependent) {
  // Serving reuses a cached workload across requests that differ only in
  // network parameters; the simulation must honor the per-request config
  // rather than anything captured at generation time.
  SplitFixture f;
  PredictionPipeline pipeline(f.driver->mesh(), f.models);
  PredictionConfig pc;
  pc.num_ranks = f.cfg.num_ranks;
  pc.filter_size = f.cfg.filter_size;

  TraceReader reader(f.trace_path);
  const WorkloadResult workload = pipeline.generate_workload(reader, pc);

  PredictionConfig slow = pc;
  slow.network.alpha = pc.network.alpha * 100.0;
  slow.network.beta = pc.network.beta / 100.0;
  const SimReport fast_net = pipeline.simulate_workload(workload, pc);
  const SimReport slow_net = pipeline.simulate_workload(workload, slow);
  EXPECT_GT(slow_net.total_seconds, fast_net.total_seconds);
  // Compute critical path has no network term, so it must not move.
  EXPECT_EQ(slow_net.critical_path_seconds, fast_net.critical_path_seconds);
}

/// Threads of this process now.
std::size_t thread_count() {
  std::size_t threads = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++threads;
  return threads;
}

TEST(PipelineSplit, PooledGenerationMatchesInlineExactly) {
  // At 256 ranks both the ghost search (1500 particles, grain 256) and the
  // rank-split tally (grain 64) run more than one chunk on 2 or more
  // workers.
  SplitFixture f;
  PredictionConfig pc;
  pc.num_ranks = 256;
  pc.filter_size = f.cfg.filter_size;
  TraceReader reader(f.trace_path);
  const PredictionPipeline inline_pipeline(f.driver->mesh(), f.models, 1);
  ASSERT_EQ(inline_pipeline.threads(), 1u);
  ASSERT_EQ(inline_pipeline.pool(), nullptr);
  const PredictionOutcome expected = inline_pipeline.predict(reader, pc);
  ASSERT_GT(expected.workload.comm_ghost.total_volume(), 0);
  for (const std::size_t threads : {0u, 4u}) {
    SCOPED_TRACE(threads);
    const PredictionPipeline pipeline(f.driver->mesh(), f.models, threads);
    const PredictionOutcome outcome = pipeline.predict(reader, pc);
    expect_same_workload(expected.workload, outcome.workload);
    expect_same_report(expected.sim, outcome.sim);
  }
}

/// The type and message of the `E` that generating `path` raised; fails
/// the test when generation returned.
template <typename E>
std::string failure_of(const PredictionPipeline& pipeline,
                       const std::string& path, const PredictionConfig& pc) {
  TraceReader reader(path);
  try {
    pipeline.generate_workload(reader, pc);
  } catch (const E& e) {
    return std::string(typeid(e).name()) + ": " + e.what();
  }
  ADD_FAILURE() << "generation of " << path << " returned";
  return "";
}

/// Generation of `path` on a 4-worker pipeline, where each next interval
/// is read and mapped beside the current one's accounting, must fail as on
/// an inline pipeline: the same exception type and message. `arm` primes
/// the fault and the config before each run. The pooled pipeline must then
/// generate the intact trace exactly as the inline one. Returns the
/// inline failure.
template <typename E>
std::string expect_pooled_fails_as_inline(
    const SplitFixture& f, const std::string& path,
    const std::function<void(PredictionConfig&)>& arm) {
  // At 256 ranks the ghost search and the tally split on the pool too.
  PredictionConfig pc;
  pc.num_ranks = 256;
  pc.filter_size = f.cfg.filter_size;
  const PredictionPipeline inline_pipeline(f.driver->mesh(), f.models, 1);
  const PredictionPipeline pooled(f.driver->mesh(), f.models, 4);
  PredictionConfig faulty = pc;
  arm(faulty);
  const std::string expected = failure_of<E>(inline_pipeline, path, faulty);
  arm(faulty);
  EXPECT_EQ(failure_of<E>(pooled, path, faulty), expected);
  failpoint::disarm_all();

  TraceReader inline_reader(f.trace_path);
  TraceReader pooled_reader(f.trace_path);
  expect_same_workload(inline_pipeline.generate_workload(inline_reader, pc),
                       pooled.generate_workload(pooled_reader, pc));
  return expected;
}

TEST(PipelineSplit, PooledGenerationAbortsOnACorruptFrameAsInline) {
  SplitFixture f;
  const std::string corrupt = f.trace_path + ".corrupt";
  std::filesystem::copy_file(f.trace_path, corrupt,
                             std::filesystem::copy_options::overwrite_existing);
  std::uint64_t middle = 0;
  {
    // Flip one bit of a position in the middle frame.
    const TraceReader trace(f.trace_path);
    middle = trace.num_samples() / 2;
    ASSERT_GT(middle, 0u);
    const auto byte = static_cast<std::streamoff>(
        trace.header().header_bytes() +
        middle * trace.header().frame_bytes() + 16);
    std::fstream file(corrupt, std::ios::in | std::ios::out | std::ios::binary);
    char c = 0;
    file.seekg(byte);
    file.get(c);
    file.seekp(byte);
    file.put(static_cast<char>(c ^ 0x10));
  }
  const std::string what = expect_pooled_fails_as_inline<TraceCorruptError>(
      f, corrupt, [](PredictionConfig&) {});
  EXPECT_NE(what.find("workload generation aborted"), std::string::npos)
      << what;
  EXPECT_NE(what.find("frame checksum mismatch at sample " +
                      std::to_string(middle)),
            std::string::npos)
      << what;
  std::remove(corrupt.c_str());
}

TEST(PipelineSplit, PooledGenerationRaisesAnArmedTraceReadAsInline) {
  SplitFixture f;
  const std::string what =
      expect_pooled_fails_as_inline<Error>(f, f.trace_path, [](auto&) {
        failpoint::arm("trace.read=error:after2:times1");
      });
  EXPECT_NE(what.find("failpoint trace.read: injected error"),
            std::string::npos)
      << what;
}

TEST(PipelineSplit, PooledGenerationMissesAnExpiringDeadlineAsInline) {
  SplitFixture f;
  // The third read sleeps past the whole budget, so the deadline expires
  // at the check before that interval's accounting, not in a race.
  const std::string what = expect_pooled_fails_as_inline<DeadlineExceeded>(
      f, f.trace_path, [](PredictionConfig& pc) {
        pc.deadline = Deadline::after_ms(200);
        failpoint::arm("trace.read=delay(400):after2:times1");
      });
  EXPECT_NE(what.find("deadline exceeded at stage 'workload.interval'"),
            std::string::npos)
      << what;
}

TEST(PipelineSplit, PoolStartsOnTheFirstGenerationNotAtConstruction) {
  SplitFixture f;
  PredictionConfig pc;
  pc.num_ranks = f.cfg.num_ranks;
  pc.filter_size = f.cfg.filter_size;
  TraceReader reader(f.trace_path);
  const std::size_t before = thread_count();
  const PredictionPipeline pipeline(f.driver->mesh(), f.models, 3);
  EXPECT_EQ(pipeline.threads(), 3u);
  EXPECT_EQ(thread_count(), before) << "construction started a thread";
  pipeline.generate_workload(reader, pc);
  EXPECT_EQ(thread_count(), before + 3) << "the first generation";
  pipeline.generate_workload(reader, pc);
  EXPECT_EQ(thread_count(), before + 3) << "the second generation";
}

TEST(PipelineSplit, ConcurrentFirstGenerationsStartOnePool) {
  SplitFixture f;
  PredictionConfig pc;
  pc.num_ranks = f.cfg.num_ranks;
  pc.filter_size = f.cfg.filter_size;
  const std::size_t before = thread_count();
  const PredictionPipeline pipeline(f.driver->mesh(), f.models, 2);
  std::vector<WorkloadResult> results(4);
  std::vector<std::thread> threads;
  for (WorkloadResult& result : results)
    threads.emplace_back([&, out = &result] {
      TraceReader reader(f.trace_path);
      *out = pipeline.generate_workload(reader, pc);
    });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(thread_count(), before + 2);
  for (std::size_t i = 1; i < results.size(); ++i)
    expect_same_workload(results[0], results[i]);
}

/// The "results" rows of one daemon reply to `body` on `target`.
std::vector<Json> daemon_rows(serve::PredictionService& service,
                              const std::string& target,
                              const std::string& body) {
  serve::HttpRequest request;
  request.method = "POST";
  request.target = target;
  request.body = body;
  const serve::HttpResponse response = service.handle(request);
  EXPECT_EQ(response.status, 200) << target << " " << body << " -> "
                                  << response.body;
  if (response.status != 200) return {};
  return Json::parse(response.body).at("results").items();
}

TEST(PipelineSplit, DaemonRowsEqualThePipelinesFieldsExactly) {
  // Seeded configs over the mappers, rank counts, filters and strides. The
  // JSON writer prints round-trip doubles, so every field compares with ==.
  SplitFixture f;
  const std::string models_path = f.trace_path + ".models";
  f.models.save(models_path);
  serve::ServiceConfig config;
  config.trace_path = f.trace_path;
  config.models_path = models_path;
  config.nelx = f.cfg.nelx;
  config.nely = f.cfg.nely;
  config.nelz = f.cfg.nelz;
  config.points_per_dim = f.cfg.points_per_dim;
  serve::PredictionService service(config);

  TraceReader trace(f.trace_path);
  const SpectralMesh mesh(trace.header().domain, config.nelx, config.nely,
                          config.nelz, config.points_per_dim);
  const PredictionPipeline pipeline(mesh, ModelSet::load(models_path));

  Xoshiro256 rng(20260417);
  const char* const mappers[] = {"bin", "element", "hilbert"};
  for (int query = 0; query < 12; ++query) {
    PredictionConfig base;
    base.mapper_kind = mappers[rng.uniform_below(3)];
    base.filter_size = rng.uniform(0.03, 0.15);
    base.interval_stride = 1 + rng.uniform_below(3);
    base.network = config.network;
    std::vector<PredictionConfig> configs(1 + rng.uniform_below(2), base);
    Json ranks = Json::array();
    for (PredictionConfig& pc : configs) {
      pc.num_ranks = static_cast<Rank>(1 + rng.uniform_below(40));
      ranks.push_back(Json(static_cast<std::int64_t>(pc.num_ranks)));
    }
    Json request = Json::object();
    request.set("ranks", ranks);
    request.set("mapper", Json(base.mapper_kind));
    request.set("filter", Json(base.filter_size));
    request.set("interval_stride",
                Json(static_cast<std::uint64_t>(base.interval_stride)));
    const std::string body = request.dump();
    SCOPED_TRACE(body);

    const std::vector<Json> predicted =
        daemon_rows(service, "/v1/predict", body);
    const std::vector<Json> workload =
        daemon_rows(service, "/v1/workload", body);
    ASSERT_EQ(predicted.size(), configs.size());
    ASSERT_EQ(workload.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const PredictionConfig& pc = configs[i];
      const PredictionOutcome outcome = pipeline.predict(trace, pc);
      const WorkloadResult& w = outcome.workload;
      const UtilizationStats stats = utilization(w.comp_real);
      for (const Json* row : {&predicted[i], &workload[i]}) {
        EXPECT_EQ(row->at("ranks").as_int(), pc.num_ranks);
        EXPECT_EQ(row->at("mapper").as_string(), pc.mapper_kind);
        EXPECT_EQ(row->at("filter").as_double(), pc.filter_size);
        EXPECT_EQ(row->at("intervals").as_uint(), w.num_intervals());
      }
      const Json& p = predicted[i];
      EXPECT_EQ(p.members().size(), 7u) << "a /v1/predict field is unchecked";
      EXPECT_EQ(p.at("predicted_seconds").as_double(),
                outcome.sim.total_seconds);
      EXPECT_EQ(p.at("critical_path_seconds").as_double(),
                outcome.sim.critical_path_seconds);
      EXPECT_EQ(p.at("des_events").as_uint(), outcome.sim.events);
      const Json& q = workload[i];
      EXPECT_EQ(q.members().size(), 9u)
          << "a /v1/workload field is unchecked";
      EXPECT_EQ(q.at("peak_particles_per_rank").as_int(), stats.peak_load);
      EXPECT_EQ(q.at("mean_active_fraction").as_double(),
                stats.mean_active_fraction);
      EXPECT_EQ(q.at("ever_active_ranks").as_int(), stats.ever_active);
      EXPECT_EQ(q.at("migrated_particles").as_int(),
                w.comm_real.total_volume());
      EXPECT_EQ(q.at("ghost_transfers").as_int(),
                w.comm_ghost.total_volume());
    }
  }
  std::remove(models_path.c_str());
}

TEST(PipelineSplit, DaemonColdPredictStartsNoThread) {
  SplitFixture f;
  const std::string models_path = f.trace_path + ".models";
  f.models.save(models_path);
  serve::ServiceConfig config;
  config.trace_path = f.trace_path;
  config.models_path = models_path;
  config.nelx = f.cfg.nelx;
  config.nely = f.cfg.nely;
  config.nelz = f.cfg.nelz;
  config.points_per_dim = f.cfg.points_per_dim;
  serve::PredictionService service(config);
  const std::size_t before = thread_count();
  EXPECT_EQ(daemon_rows(service, "/v1/predict", R"({"ranks": [256]})").size(),
            1u);
  EXPECT_EQ(thread_count(), before);
  std::remove(models_path.c_str());
}

}  // namespace
}  // namespace picp
