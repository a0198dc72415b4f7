#include "picsim/sim_driver.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "picsim/checkpoint.hpp"
#include "picsim/collision_grid.hpp"
#include "picsim/gas_model.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace_writer.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"
#include "workload/ghost_finder.hpp"

namespace picp {

namespace {

/// Fewest particles per chunk of the solver step, under the split rule
/// (util/thread_pool.hpp).
constexpr std::size_t kSolverGrain = 256;

}  // namespace

SimDriver::SimDriver(const SimConfig& config)
    : config_(config),
      mesh_(config.domain, config.nelx, config.nely, config.nelz,
            config.points_per_dim),
      partition_(rcb_partition(mesh_, config.num_ranks)) {
  config_.validate();
  if (config_.threads != 1)
    pool_ = std::make_unique<ThreadPool>(config_.threads);
}

SimResult SimDriver::run(const std::string& trace_path,
                         const RunOptions& options) {
  const Stopwatch total_watch;
  SimResult result;
  ThreadPool* const pool = pool_.get();
  const telemetry::ScopedSpan run_span("picsim.run");

  GasModel gas(config_.gas, config_.domain);
  SolverKernels kernels(mesh_, gas, config_.physics);
  GhostFinder finder(mesh_, partition_, config_.filter_size);  // create_ghost
  const auto mapper = make_mapper(config_.mapper_kind, mesh_, partition_,
                                  config_.filter_size);

  ParticleStore store;
  init_hele_shaw_bed(store, config_.domain, config_.bed);
  const std::size_t np = store.size();

  // Collision grid sized by the collision cutoff (or a nominal cell when
  // collisions are disabled — then it is never queried).
  const double cell = config_.physics.collision_radius > 0.0
                          ? config_.physics.collision_radius
                          : 0.05 * config_.domain.extent().z;
  CollisionGrid grid(cell);

  // Crash-safety state: where this run starts (non-zero after --resume), the
  // simulated time carried across the restart (stored in the checkpoint as
  // the accumulated double so the resumed trajectory is bit-identical), and
  // the checkpoint path derived from the trace path.
  std::int64_t start_iter = 0;
  double time = 0.0;
  const std::uint64_t fingerprint = sim_config_fingerprint(config_);
  const std::string ckpt_path =
      trace_path.empty() ? std::string() : trace_path + ".ckpt";

  std::unique_ptr<TraceWriter> trace;
  if (options.resume) {
    PICP_REQUIRE(!trace_path.empty(), "--resume requires a trace path");
    SimCheckpoint ckpt = SimCheckpoint::load(ckpt_path);
    if (ckpt.config_fingerprint != fingerprint)
      throw CorruptInputError(
          ckpt_path,
          "checkpoint was written by a different simulation configuration",
          "re-run with the original config, or delete the checkpoint and "
          "restart without --resume");
    PICP_REQUIRE(ckpt.positions.size() == np,
                 "checkpoint particle count disagrees with the bed");
    PICP_REQUIRE(ckpt.next_iteration > 0 &&
                     ckpt.next_iteration < config_.num_iterations,
                 "checkpoint iteration outside this run's range");
    std::copy(ckpt.positions.begin(), ckpt.positions.end(),
              store.positions().begin());
    std::copy(ckpt.velocities.begin(), ckpt.velocities.end(),
              store.velocities().begin());
    start_iter = ckpt.next_iteration;
    time = ckpt.sim_time;
    trace = TraceWriter::resume(trace_path, ckpt.trace_samples,
                                ckpt.trace_bytes);
    PICP_LOG_INFO << "picsim resume: continuing " << trace_path
                  << " at iteration " << start_iter << " ("
                  << ckpt.trace_samples << " samples already on disk)";
  } else if (!trace_path.empty()) {
    trace = std::make_unique<TraceWriter>(
        trace_path, np, static_cast<std::uint64_t>(config_.sample_every),
        config_.domain,
        config_.trace_float64 ? CoordKind::kFloat64 : CoordKind::kFloat32);
  }
  result.start_iteration = start_iter;

  // Double buffers driven through the kernels.
  std::vector<Vec3> gas_at_particles(np);
  std::vector<Vec3> next_velocities(np);
  std::vector<Vec3> next_positions(np);
  std::vector<Vec3> vel_scratch;  // measurement-only
  std::vector<std::uint32_t> all_ids(np);
  std::iota(all_ids.begin(), all_ids.end(), 0u);

  const std::size_t num_samples =
      static_cast<std::size_t>(config_.num_samples());
  result.actual = WorkloadResult(config_.num_ranks, num_samples);
  result.actual.elements_per_rank = partition_.elements_per_rank();

  WorkloadParams acc_params;
  acc_params.ghost_radius = config_.filter_size;

  std::vector<Rank> owners;
  std::vector<Rank> prev_owners;
  RankLists lists;  // particle and ghost ids by rank, filed by the accounting
  ProjectionField proj_field(config_.points_per_dim);
  ProjectionField fluid_field(config_.points_per_dim,
                              config_.measure ? mesh_.num_elements() : 0);
  // Per-rank element lists for the fluid-phase kernel (static partition).
  std::vector<std::vector<ElementId>> rank_elements(
      static_cast<std::size_t>(config_.num_ranks));
  if (config_.measure) {
    const auto& owners_of_elements = partition_.element_owners();
    for (std::size_t e = 0; e < owners_of_elements.size(); ++e)
      rank_elements[static_cast<std::size_t>(owners_of_elements[e])]
          .push_back(static_cast<ElementId>(e));
  }
  std::vector<GhostRecord> ghost_out;
  std::vector<MigrantRecord> migrate_out;
  std::vector<std::uint32_t> project_ids;
  TimeAccumulator measure_time;

  const bool collide = config_.physics.collision_radius > 0.0;

  for (std::int64_t iter = start_iter; iter < config_.num_iterations;
       ++iter) {
    static telemetry::Counter& iters =
        telemetry::registry().counter("picsim.iterations");
    iters.add();
    const bool sampling = iter % config_.sample_every == 0;
    if (collide || sampling) {
      const telemetry::ScopedSpan span("picsim.grid_rebuild", "picsim");
      grid.rebuild(store.positions(), pool);
    }

    if (sampling) {
      const auto t = static_cast<std::size_t>(iter / config_.sample_every);
      if (trace) {
        const telemetry::ScopedSpan span("picsim.trace_append", "picsim");
        trace->append(static_cast<std::uint64_t>(iter), store.positions());
      }

      // The application's own mapping pass (bin trees rebuilt, etc.).
      {
        const telemetry::ScopedSpan span("picsim.mapping", "picsim");
        mapper->map(store.positions(), owners);
      }
      result.actual.iterations.push_back(static_cast<std::uint64_t>(iter));
      result.actual.partitions_per_interval.push_back(
          mapper->num_partitions());
      {
        const telemetry::ScopedSpan span("picsim.workload_accounting",
                                         "picsim");
        accumulate_interval_workload(mesh_, partition_, store.positions(),
                                     owners, prev_owners, acc_params, t,
                                     result.actual, pool, &lists);
      }

      const bool measure_now =
          config_.measure &&
          (t % static_cast<std::size_t>(config_.measure_every) == 0);
      if (measure_now) {
        const telemetry::ScopedSpan measure_span("picsim.measure", "picsim");
        const ScopedTimer mt(measure_time);
        vel_scratch.assign(store.velocities().begin(),
                           store.velocities().end());

        // Fluid phase: measured once per run (its cost depends only on the
        // static element partition), covering every rank — including the
        // particle-idle ones that still carry grid work.
        if (t == 0) {
          for (Rank r = 0; r < config_.num_ranks; ++r) {
            const auto& elements =
                rank_elements[static_cast<std::size_t>(r)];
            if (elements.empty()) continue;
            TimingRecord rec;
            rec.interval = 0;
            rec.rank = r;
            rec.kernel = Kernel::kFluid;
            rec.np = static_cast<double>(
                lists.owned.bucket(static_cast<std::size_t>(r)).size());
            rec.filter = config_.filter_size;
            rec.nel = static_cast<double>(elements.size());
            rec.seconds = measure_adaptive(
                [&] { kernels.fluid_update(elements, time, fluid_field); },
                config_.measure_min_seconds, config_.measure_max_reps);
            result.timings.add(rec);
            fluid_field.clear();
          }
        }

        for (Rank r = 0; r < config_.num_ranks; ++r) {
          const auto ids = lists.owned.bucket(static_cast<std::size_t>(r));
          const auto gids = lists.ghosts.bucket(static_cast<std::size_t>(r));
          if (ids.empty() && gids.empty()) continue;

          TimingRecord rec;
          rec.interval = static_cast<std::uint32_t>(t);
          rec.rank = r;
          rec.np = static_cast<double>(ids.size());
          rec.ngp = static_cast<double>(gids.size());
          rec.filter = config_.filter_size;
          rec.nel = static_cast<double>(
              rank_elements[static_cast<std::size_t>(r)].size());

          const auto measure = [&](auto&& fn) {
            return measure_adaptive(fn, config_.measure_min_seconds,
                                    config_.measure_max_reps);
          };

          if (!ids.empty()) {
            rec.kernel = Kernel::kInterpolate;
            rec.seconds = measure([&] {
              kernels.interpolate(store.positions(), ids, time,
                                  gas_at_particles);
            });
            result.timings.add(rec);

            rec.kernel = Kernel::kEqSolve;
            rec.seconds = measure([&] {
              kernels.eq_solve(store.velocities(), gas_at_particles, grid,
                               ids, next_velocities);
            });
            result.timings.add(rec);

            rec.kernel = Kernel::kPush;
            rec.seconds = measure([&] {
              kernels.push(store.positions(), vel_scratch, ids,
                           next_positions);
            });
            result.timings.add(rec);

            rec.kernel = Kernel::kCreateGhost;
            rec.seconds = measure([&] {
              kernels.create_ghost(store.positions(), ids, r, finder,
                                   ghost_out);
            });
            result.timings.add(rec);
          }

          // Projection deposits owned + ghost particles onto local grid.
          project_ids.assign(ids.begin(), ids.end());
          project_ids.insert(project_ids.end(), gids.begin(), gids.end());
          if (!project_ids.empty()) {
            const telemetry::ScopedSpan span("picsim.project", "picsim");
            rec.kernel = Kernel::kProject;
            rec.seconds = measure([&] {
              kernels.project(store.positions(), project_ids,
                              config_.filter_size, proj_field);
            });
            result.timings.add(rec);
            proj_field.clear();
          }

          // Migration: unpack side — particles that arrived on r this
          // interval (prev owner differs). The first interval of a run or
          // of a resume has no previous owners, so nothing is timed there.
          if (prev_owners.size() == owners.size() && !ids.empty()) {
            rec.kernel = Kernel::kMigrate;
            rec.nmove = static_cast<double>([&] {
              std::size_t movers = 0;
              for (const std::uint32_t i : ids)
                if (prev_owners[i] != owners[i]) ++movers;
              return movers;
            }());
            rec.seconds = measure([&] {
              kernels.migrate(store.positions(), store.velocities(), ids,
                              prev_owners, owners, migrate_out);
            });
            result.timings.add(rec);
          }
        }
      }
      prev_owners = owners;
    }

    // --- Physics step (the PIC solver loop, executed globally) -------------
    // interpolate → eq_solve → push fused per chunk: each phase for particle
    // i reads only shared immutable state (positions, velocities, the
    // collision grid) plus slot i of the buffers written this step, so one
    // chunk's particles never observe another chunk's writes and the result
    // is bit-identical for any thread count.
    const auto physics_chunk = [&](std::size_t, std::size_t begin,
                                   std::size_t end) {
      const std::span<const std::uint32_t> ids(all_ids.data() + begin,
                                               end - begin);
      // Phase handles are process-stable; fetch them once per process so
      // the per-chunk cost stays at clock reads + relaxed adds.
      static telemetry::Phase& ph_interp =
          telemetry::phase("picsim.interpolate");
      static telemetry::Phase& ph_eq = telemetry::phase("picsim.eq_solve");
      static telemetry::Phase& ph_push = telemetry::phase("picsim.push");
      {
        const telemetry::ScopedSpan span("picsim.interpolate", ph_interp);
        kernels.interpolate(store.positions(), ids, time, gas_at_particles);
      }
      {
        const telemetry::ScopedSpan span("picsim.eq_solve", ph_eq);
        kernels.eq_solve(store.velocities(), gas_at_particles, grid, ids,
                         next_velocities);
      }
      const telemetry::ScopedSpan span("picsim.push", ph_push);
      kernels.push(store.positions(), next_velocities, ids, next_positions);
    };
    parallel_for(pool, np, kSolverGrain, physics_chunk);
    store.swap_in(next_positions, next_velocities);
    next_positions.resize(np);
    next_velocities.resize(np);
    time += config_.physics.dt;

    // --- Crash safety ------------------------------------------------------
    const std::int64_t done = iter + 1;
    const bool final_iter = done >= config_.num_iterations;
    if (trace && config_.checkpoint_every > 0 && !final_iter &&
        done % config_.checkpoint_every == 0) {
      const telemetry::ScopedSpan span("picsim.checkpoint", "picsim");
      static telemetry::Counter& ckpts =
          telemetry::registry().counter("picsim.checkpoints");
      ckpts.add();
      trace->sync();  // trace bytes must be durable before the ckpt says so
      SimCheckpoint ckpt;
      ckpt.config_fingerprint = fingerprint;
      ckpt.rng_seed = config_.bed.seed;
      ckpt.next_iteration = done;
      ckpt.sim_time = time;
      ckpt.trace_samples = trace->samples_written();
      ckpt.trace_bytes = trace->bytes_written();
      ckpt.positions.assign(store.positions().begin(),
                            store.positions().end());
      ckpt.velocities.assign(store.velocities().begin(),
                             store.velocities().end());
      ckpt.save(ckpt_path);
    }
    if (options.abort_after_iterations >= 0 && !final_iter &&
        done >= options.abort_after_iterations) {
      result.aborted = true;
      break;
    }
  }

  if (trace) {
    const telemetry::ScopedSpan span("picsim.trace_seal", "picsim");
    if (result.aborted) {
      // Crash drill: leave the unsealed `.part` and the last checkpoint on
      // disk exactly as a kill would; never publish the final trace.
      trace->abandon();
      result.trace_samples = trace->samples_written();
    } else {
      trace->close();
      result.trace_samples = trace->samples_written();
      if (!ckpt_path.empty()) std::remove(ckpt_path.c_str());
    }
  }
  telemetry::registry().counter("picsim.trace_samples")
      .add(result.trace_samples);
  telemetry::registry().gauge("picsim.particles").set(static_cast<double>(np));
  if (pool != nullptr) telemetry::publish_pool_stats(pool->stats());
  result.final_positions.assign(store.positions().begin(),
                                store.positions().end());
  result.final_velocities.assign(store.velocities().begin(),
                                 store.velocities().end());
  result.measure_seconds = measure_time.total_seconds();
  result.wall_seconds = total_watch.seconds();
  PICP_LOG_INFO << "picsim run: " << np << " particles, "
                << config_.num_iterations << " iterations, "
                << result.actual.num_intervals() << " intervals, "
                << threads() << " threads, wall " << result.wall_seconds
                << " s (measure " << result.measure_seconds << " s)";
  return result;
}

}  // namespace picp
