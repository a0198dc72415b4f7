// offline_sweep: one process predicts a fixed sweep of configurations cold,
// as `picpredict predict` does, and the traced run's layer decomposition.

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "core/predictor.hpp"
#include "mapping/mapper.hpp"
#include "mesh/partition.hpp"
#include "picbench.hpp"
#include "spans.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "workload/ghost_finder.hpp"

namespace picbench {

namespace {

/// The sweep: bin mapping across the paper's processor counts plus element
/// mapping at the largest, at the CLI's default filter.
std::vector<Query> sweep_queries() {
  return {{"bin", 1044, 0.024},
          {"bin", 4176, 0.024},
          {"bin", 8352, 0.024},
          {"element", 8352, 0.024}};
}

/// What the analyst's process sets up before its first prediction.
struct Session {
  explicit Session(const Inputs& inputs)
      : trace(inputs.trace),
        mesh(default_mesh(trace)),
        pipeline(mesh, picp::ModelSet::load(inputs.models)) {}
  picp::TraceReader trace;
  picp::SpectralMesh mesh;
  picp::PredictionPipeline pipeline;
};

/// PredictionPipeline::predict, one public layer call at a time, in the
/// pipeline's order, with a span around each call.
picp::PredictionOutcome decomposed_predict(const picp::SpectralMesh& mesh,
                                           const picp::ModelSet& models,
                                           picp::TraceReader& trace,
                                           const picp::PredictionConfig& config,
                                           SpanRecorder& spans,
                                           std::uint64_t request,
                                           Layers& layers) {
  using picp::Rank;
  const SpanRecorder::Scope root(spans, "core.predict", request);
  std::unique_ptr<picp::MeshPartition> partition;
  {
    const SpanRecorder::Scope s(spans, "mesh.partition", request);
    partition = std::make_unique<picp::MeshPartition>(
        picp::rcb_partition(mesh, config.num_ranks));
  }
  std::unique_ptr<picp::Mapper> mapper;
  {
    const SpanRecorder::Scope s(spans, "mapping.map", request);
    mapper = picp::make_mapper(config.mapper_kind, mesh, *partition,
                               config.filter_size);
  }
  picp::WorkloadParams params;
  params.ghost_radius = config.filter_size;
  params.compute_ghosts = false;  // the ghost search gets its own span
  params.compute_comm = config.compute_comm;
  params.max_intervals = config.max_intervals;
  params.interval_stride = config.interval_stride;

  picp::PredictionOutcome out;
  picp::WorkloadResult& w = out.workload;
  {
    const SpanRecorder::Scope s(spans, "trace.read", request);
    trace.rewind();
  }
  const std::size_t available = static_cast<std::size_t>(trace.num_samples());
  const std::size_t total = std::min(
      (available + params.interval_stride - 1) / params.interval_stride,
      params.max_intervals);
  w.num_ranks = mapper->num_ranks();
  w.elements_per_rank = partition->elements_per_rank();
  w.comp_real = picp::CompMatrix(w.num_ranks, total);
  w.comp_ghost = picp::CompMatrix(w.num_ranks, total);
  w.comm_real = picp::CommMatrix(w.num_ranks, total);
  w.comm_ghost = picp::CommMatrix(w.num_ranks, total);
  w.iterations.reserve(total);
  w.partitions_per_interval.reserve(total);

  picp::TraceSample sample;
  std::vector<Rank> owners, prev_owners, near;
  std::size_t seen = 0, t = 0;
  while (t < total) {
    bool more = false;
    {
      const SpanRecorder::Scope s(spans, "trace.read", request);
      more = trace.read_next(sample);
    }
    if (!more) break;
    ++layers.frames;
    if (seen++ % params.interval_stride != 0) continue;
    {
      const SpanRecorder::Scope s(spans, "mapping.map", request);
      mapper->map(sample.positions, owners);
    }
    PICP_ENSURE(owners.size() == sample.positions.size(), "mapper output size");
    layers.particles += owners.size();
    w.iterations.push_back(sample.iteration);
    w.partitions_per_interval.push_back(mapper->num_partitions());
    {
      const SpanRecorder::Scope s(spans, "workload.account", request);
      picp::accumulate_interval_workload(mesh, *partition, sample.positions,
                                         owners, prev_owners, params, t, w);
    }
    if (config.compute_ghosts) {
      const SpanRecorder::Scope s(spans, "workload.ghost", request);
      const picp::GhostFinder finder(mesh, *partition, config.filter_size);
      for (std::size_t i = 0; i < sample.positions.size(); ++i) {
        finder.ranks_near(sample.positions[i], owners[i], near);
        for (const Rank r : near) {
          w.comp_ghost.add(r, t, 1);
          if (config.compute_comm) w.comm_ghost.add(owners[i], r, t, 1);
        }
        layers.ghosts += near.size();
      }
      layers.ghost_queries += sample.positions.size();
    }
    prev_owners = owners;
    ++t;
  }
  PICP_ENSURE(t == total, "trace ended before the planned interval count");

  picp::TraceSimInput input;
  {
    const SpanRecorder::Scope s(spans, "model.eval", request);
    const picp::Predictor predictor(models, config.filter_size);
    input = predictor.sim_input(w, config.network);
  }
  layers.cells += static_cast<std::uint64_t>(w.num_ranks) * total;
  {
    const SpanRecorder::Scope s(spans, "des.run", request);
    out.sim = picp::run_trace_simulation(input);
  }
  layers.events += out.sim.events;
  return out;
}

/// Checks one sweep's invariants and returns the digest of its outputs:
/// each prediction's full outcome, then the rendered /v1/predict body.
Digest check_sweep(const std::vector<Query>& queries,
                   const std::vector<picp::PredictionOutcome>& outcomes,
                   std::uint64_t particles, Report& report) {
  Digest digest;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    digest.pod(outcome_digest(outcomes[i].workload, outcomes[i].sim));
    const std::string broken = check_invariants(outcomes[i], particles);
    if (!broken.empty()) {
      report.failed_op();
      report.fail(queries[i].label() + ": " + broken);
    }
  }
  digest.text(render_predict_body(queries, outcomes));
  return digest;
}

}  // namespace

picp::SpectralMesh default_mesh(const picp::TraceReader& trace) {
  return picp::SpectralMesh(trace.header().domain, 32, 32, 64, 5);
}

Layers decompose(const picp::SpectralMesh& mesh, const picp::ModelSet& models,
                 const std::string& trace_path,
                 const std::vector<Query>& queries, SpanRecorder& spans,
                 std::vector<picp::PredictionOutcome>* reference) {
  picp::TraceReader trace(trace_path);
  const picp::PredictionPipeline pipeline(mesh, models);
  Layers layers;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const picp::PredictionConfig config = queries[i].config();
    auto start = Clock::now();
    picp::PredictionOutcome ref = pipeline.predict(trace, config);
    layers.untraced_s += seconds_since(start);

    start = Clock::now();
    const picp::WorkloadResult workload =
        pipeline.generate_workload(trace, config);
    layers.generate_s += seconds_since(start);
    start = Clock::now();
    const picp::SimReport sim = pipeline.simulate_workload(workload, config);
    layers.simulate_s += seconds_since(start);

    start = Clock::now();
    const picp::PredictionOutcome traced = decomposed_predict(
        mesh, pipeline.models(), trace, config, spans, i, layers);
    layers.traced_s += seconds_since(start);

    const std::uint64_t expect = outcome_digest(ref.workload, ref.sim);
    if (outcome_digest(workload, sim) != expect ||
        outcome_digest(traced.workload, traced.sim) != expect) {
      std::fprintf(stderr, "picbench: %s: decomposition differs from "
                   "PredictionPipeline::predict\n", queries[i].label().c_str());
      layers.bit_identical = false;
    }
    if (reference != nullptr) reference->push_back(std::move(ref));
  }
  const std::map<std::string, double> self = spans.self_seconds();
  const auto self_of = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  layers.read_s = self_of("trace.read");
  layers.partition_s = self_of("mesh.partition");
  layers.map_s = self_of("mapping.map");
  layers.account_s = self_of("workload.account");
  layers.ghost_s = self_of("workload.ghost");
  layers.model_s = self_of("model.eval");
  layers.des_s = self_of("des.run");
  return layers;
}

void report_layers(const Layers& l, Report& report) {
  const double covered = l.read_s + l.partition_s + l.map_s + l.account_s +
                         l.ghost_s + l.model_s + l.des_s;
  const double direct = l.generate_s + l.simulate_s;
  report.metric("trace.read_s", l.read_s, "s");
  report.metric("trace.frames", static_cast<double>(l.frames), "count");
  report.metric("mesh.partition_s", l.partition_s, "s");
  report.metric("mapping.map_s", l.map_s, "s");
  report.metric("mapping.particles", static_cast<double>(l.particles),
                "count");
  report.metric("workload.account_s", l.account_s, "s");
  report.metric("workload.ghost_s", l.ghost_s, "s");
  report.metric("workload.ghost_queries", static_cast<double>(l.ghost_queries),
                "count");
  report.metric("workload.ghosts", static_cast<double>(l.ghosts), "count");
  report.metric("model.eval_s", l.model_s, "s");
  report.metric("model.cells", static_cast<double>(l.cells), "count");
  report.metric("des.run_s", l.des_s, "s");
  report.metric("des.events", static_cast<double>(l.events), "count");
  report.metric("core.generate_s", l.generate_s, "s");
  report.metric("core.simulate_s", l.simulate_s, "s");
  report.metric("core.coverage", direct > 0 ? covered / direct : 0.0,
                "fraction");
  report.metric("bench.tracing_overhead_pct",
                l.untraced_s > 0 ? 100.0 * (l.traced_s - l.untraced_s) /
                                       l.untraced_s
                                 : 0.0,
                "%");
  if (!l.bit_identical)
    report.fail("layer decomposition is not bit-identical to "
                "PredictionPipeline::predict");
  if (direct > 0 && covered / direct < 0.9)
    report.fail("layer spans cover only " +
                std::to_string(100.0 * covered / direct) +
                "% of the direct pipeline time");
}

std::vector<picp::PredictionOutcome> reference_outcomes(
    const picp::SpectralMesh& mesh, const picp::ModelSet& models,
    const std::string& trace_path, const std::vector<Query>& queries,
    unsigned threads) {
  const picp::PredictionPipeline pipeline(mesh, models);
  std::vector<picp::PredictionOutcome> out(queries.size());
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    picp::TraceReader trace(trace_path);
    for (std::size_t i = next++; i < queries.size(); i = next++)
      out[i] = pipeline.predict(trace, queries[i].config());
  };
  std::vector<std::thread> pool;
  for (unsigned i = 1; i < threads && i < queries.size(); ++i)
    pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  return out;
}

int run_offline(const Options& options) {
  Report report;
  const Inputs inputs = input_paths(options.inputs);
  const std::vector<Query> queries = sweep_queries();

  Session session(inputs);
  const std::uint64_t particles = session.trace.num_particles();

  if (options.traced) {
    SpanRecorder spans;
    std::vector<picp::PredictionOutcome> reference;
    const Layers layers =
        decompose(session.mesh, session.pipeline.models(), inputs.trace,
                  queries, spans, &reference);
    report.attempt(queries.size());
    report.check_digest(options,
                        check_sweep(queries, reference, particles, report));
    report_layers(layers, report);
    // No request reaches a daemon in this workload, so its traffic ratios
    // read 0; the serving layers are still timed, on the offline inputs.
    for (const char* name :
         {"serve.response_hit_ratio", "serve.batch_member_ratio",
          "serve.shed_ratio"})
      report.metric(name, 0.0, "fraction");
    report.metric("serve.generations_per_distinct", 0.0, "ratio");
    report_serving_layers(options, inputs, queries, report);
    spans.write_chrome(options.spans_out);
    std::fprintf(stderr, "picbench: %zu spans written to %s\n",
                 spans.spans().size(), options.spans_out.c_str());
    report.print();
    return 0;
  }

  // Sweeps until --seconds have passed (at least three, so every config
  // contributes a median of three or more).
  std::vector<std::vector<double>> per_config(queries.size());
  std::vector<double> sweeps;
  // setup_s: open the trace, build the mesh, load the models. That is
  // mostly system calls, whose cost on a shared host shifts from one moment
  // to the next, so it is timed ten times before every sweep, spread over
  // the run, and the median reported.
  std::vector<double> setups;
  Digest first;
  const auto measure_start = Clock::now();
  while (sweeps.size() < 3 || seconds_since(measure_start) < options.seconds) {
    for (int i = 0; i < 10; ++i) {
      const auto start = Clock::now();
      const Session probe(inputs);
      setups.push_back(seconds_since(start));
    }
    const auto sweep_start = Clock::now();
    std::vector<picp::PredictionOutcome> outcomes;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto start = Clock::now();
      outcomes.push_back(
          session.pipeline.predict(session.trace, queries[i].config()));
      per_config[i].push_back(seconds_since(start));
    }
    sweeps.push_back(seconds_since(sweep_start));
    report.attempt(queries.size());
    const Digest digest = check_sweep(queries, outcomes, particles, report);
    if (sweeps.size() == 1) {
      first = digest;
    } else if (digest.value() != first.value()) {
      report.failed_op(queries.size());
      report.fail("sweep " + std::to_string(sweeps.size()) +
                  " differs from the first sweep");
    }
  }
  report.check_digest(options, first);

  std::vector<double> config_ms;
  for (const auto& times : per_config)
    config_ms.push_back(picp::percentile(times, 50.0) * 1e3);
  std::fprintf(stderr, "picbench: %zu sweeps, median sweep %.3f s\n",
               sweeps.size(), picp::percentile(sweeps, 50.0));
  report.metric("setup_s", picp::percentile(setups, 50.0), "s");
  report.metric("peak_rss_mb", self_peak_rss_mb(), "MB");
  report.metric("p50_ms", picp::percentile(config_ms, 50.0), "ms");
  report.metric("tail_ms", *std::max_element(config_ms.begin(), config_ms.end()),
                "ms");
  report.metric("throughput_per_s",
                static_cast<double>(queries.size()) /
                    picp::percentile(sweeps, 50.0),
                "1/s");
  report.print();
  return 0;
}

}  // namespace picbench
