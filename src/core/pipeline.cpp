#include "core/pipeline.hpp"

#include <algorithm>
#include <thread>

#include "mapping/mapper.hpp"
#include "mesh/partition.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace_format.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace picp {

PredictionPipeline::PredictionPipeline(const SpectralMesh& mesh,
                                       ModelSet models, std::size_t threads)
    : mesh_(&mesh), models_(std::move(models)), threads_(threads) {}

std::size_t PredictionPipeline::threads() const {
  // Resolved on use, not at construction: hardware_concurrency() reads a
  // system file, and construction is part of a session's timed set-up.
  return threads_ != 0
             ? threads_
             : std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool* PredictionPipeline::pool() const {
  std::call_once(pool_started_, [this] {
    if (const std::size_t workers = threads(); workers > 1)
      pool_ = std::make_unique<ThreadPool>(workers);
  });
  return pool_.get();
}

WorkloadResult PredictionPipeline::generate_workload(
    TraceReader& trace, const PredictionConfig& config) const {
  config.deadline.check("generate.partition");
  const MeshPartition partition = [&] {
    const telemetry::ScopedSpan span("mesh.partition", "pipeline");
    return rcb_partition(*mesh_, config.num_ranks);
  }();
  config.deadline.check("generate.mapper");
  const auto mapper = [&] {
    const telemetry::ScopedSpan span("mapping.map", "pipeline");
    return make_mapper(config.mapper_kind, *mesh_, partition,
                       config.filter_size);
  }();
  WorkloadParams params;
  params.ghost_radius = config.filter_size;
  params.compute_ghosts = config.compute_ghosts;
  params.compute_comm = config.compute_comm;
  params.max_intervals = config.max_intervals;
  params.interval_stride = config.interval_stride;
  params.deadline = config.deadline;
  WorkloadGenerator generator(*mesh_, partition, *mapper, params, pool());
  try {
    return generator.generate(trace);
  } catch (const TraceCorruptError& e) {
    // Keep the type (callers dispatch on it) but say which stage died — a
    // multi-hour prediction failing deep in workload generation should name
    // the corrupt trace, not just a byte offset. The first what() line is
    // the detail; the ctor re-attaches the salvage hint.
    const std::string what = e.what();
    throw TraceCorruptError(e.input_path(),
                            "workload generation aborted: " +
                                what.substr(0, what.find('\n')));
  }
}

SimReport PredictionPipeline::simulate_workload(
    const WorkloadResult& workload, const PredictionConfig& config) const {
  config.deadline.check("simulate.des");
  TraceSimInput input;
  {
    const telemetry::ScopedSpan span("model.eval", "pipeline");
    const Predictor predictor(models_, config.filter_size);
    input = predictor.sim_input(workload, config.network);
  }
  return run_trace_simulation(input);
}

PredictionOutcome PredictionPipeline::predict(
    TraceReader& trace, const PredictionConfig& config) const {
  PredictionOutcome outcome;

  Stopwatch watch;
  outcome.workload = generate_workload(trace, config);
  outcome.workload_gen_seconds = watch.seconds();

  watch.reset();
  outcome.sim = simulate_workload(outcome.workload, config);
  outcome.sim_seconds = watch.seconds();

  auto& reg = telemetry::registry();
  reg.counter("predict.runs").add();
  reg.counter("predict.intervals").add(outcome.workload.num_intervals());
  reg.gauge("predict.app_seconds").set(outcome.sim.total_seconds);

  PICP_LOG_INFO << "prediction " << config.mapper_kind << " R="
                << config.num_ranks << ": app time "
                << outcome.sim.total_seconds << " s (workload gen "
                << outcome.workload_gen_seconds << " s, DES "
                << outcome.sim_seconds << " s, "
                << outcome.sim.events << " events)";
  return outcome;
}

}  // namespace picp
