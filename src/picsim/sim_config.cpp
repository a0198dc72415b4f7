#include "picsim/sim_config.hpp"

#include "util/error.hpp"

namespace picp {

SimConfig SimConfig::from_config(const Config& c) {
  SimConfig s;
  s.domain.lo.x = c.get_double("mesh.lo_x", s.domain.lo.x);
  s.domain.lo.y = c.get_double("mesh.lo_y", s.domain.lo.y);
  s.domain.lo.z = c.get_double("mesh.lo_z", s.domain.lo.z);
  s.domain.hi.x = c.get_double("mesh.hi_x", s.domain.hi.x);
  s.domain.hi.y = c.get_double("mesh.hi_y", s.domain.hi.y);
  s.domain.hi.z = c.get_double("mesh.hi_z", s.domain.hi.z);
  s.nelx = c.get_int("mesh.nelx", s.nelx);
  s.nely = c.get_int("mesh.nely", s.nely);
  s.nelz = c.get_int("mesh.nelz", s.nelz);
  s.points_per_dim = static_cast<int>(
      c.get_int("mesh.points_per_dim", s.points_per_dim));

  s.bed.num_particles = static_cast<std::size_t>(
      c.get_int("bed.num_particles",
                static_cast<long long>(s.bed.num_particles)));
  s.bed.bed_bottom = c.get_double("bed.bottom", s.bed.bed_bottom);
  s.bed.bed_height = c.get_double("bed.height", s.bed.bed_height);
  s.bed.radius_fraction = c.get_double("bed.radius_fraction",
                                       s.bed.radius_fraction);
  s.bed.seed = static_cast<std::uint64_t>(
      c.get_int("bed.seed", static_cast<long long>(s.bed.seed)));

  s.gas.center.x = c.get_double("gas.center_x", s.gas.center.x);
  s.gas.center.y = c.get_double("gas.center_y", s.gas.center.y);
  s.gas.center.z = c.get_double("gas.center_z", s.gas.center.z);
  s.gas.shock_speed = c.get_double("gas.shock_speed", s.gas.shock_speed);
  s.gas.gas_speed = c.get_double("gas.gas_speed", s.gas.gas_speed);
  s.gas.decay_time = c.get_double("gas.decay_time", s.gas.decay_time);
  s.gas.front_width = c.get_double("gas.front_width", s.gas.front_width);
  s.gas.front_start = c.get_double("gas.front_start", s.gas.front_start);
  s.gas.lift = c.get_double("gas.lift", s.gas.lift);
  s.gas.expansion_rate =
      c.get_double("gas.expansion_rate", s.gas.expansion_rate);
  s.gas.expansion_ref = c.get_double("gas.expansion_ref", s.gas.expansion_ref);
  s.gas.jet_amplitude = c.get_double("gas.jet_amplitude", s.gas.jet_amplitude);
  s.gas.jet_count =
      static_cast<int>(c.get_int("gas.jet_count", s.gas.jet_count));

  s.physics.dt = c.get_double("physics.dt", s.physics.dt);
  s.physics.drag_tau = c.get_double("physics.drag_tau", s.physics.drag_tau);
  s.physics.gravity.z = c.get_double("physics.gravity_z", s.physics.gravity.z);
  s.physics.collision_radius =
      c.get_double("physics.collision_radius", s.physics.collision_radius);
  s.physics.collision_stiffness = c.get_double(
      "physics.collision_stiffness", s.physics.collision_stiffness);
  s.physics.max_collision_neighbors = static_cast<int>(c.get_int(
      "physics.max_collision_neighbors", s.physics.max_collision_neighbors));
  s.physics.wall_restitution =
      c.get_double("physics.wall_restitution", s.physics.wall_restitution);

  s.num_iterations = c.get_int("run.num_iterations", s.num_iterations);
  s.sample_every = c.get_int("run.sample_every", s.sample_every);
  s.trace_float64 = c.get_bool("run.trace_float64", s.trace_float64);
  const long long threads =
      c.get_int("run.threads", static_cast<long long>(s.threads));
  PICP_REQUIRE(threads >= 0, "run.threads must be >= 0 (0 = all cores)");
  s.threads = static_cast<std::size_t>(threads);
  s.checkpoint_every = c.get_int("run.checkpoint_every", s.checkpoint_every);

  s.mapper_kind = c.get_string("mapping.mapper", s.mapper_kind);
  s.num_ranks =
      static_cast<Rank>(c.get_int("mapping.num_ranks", s.num_ranks));
  s.filter_size = c.get_double("mapping.filter_size", s.filter_size);

  s.measure = c.get_bool("measure.enabled", s.measure);
  s.measure_every = c.get_int("measure.every", s.measure_every);
  s.measure_min_seconds =
      c.get_double("measure.min_seconds", s.measure_min_seconds);
  s.measure_max_reps = static_cast<int>(
      c.get_int("measure.max_reps", s.measure_max_reps));

  s.validate();
  return s;
}

void SimConfig::validate() const {
  PICP_REQUIRE(domain.valid() && domain.volume() > 0.0,
               "domain must be non-degenerate");
  PICP_REQUIRE(nelx > 0 && nely > 0 && nelz > 0, "element counts positive");
  PICP_REQUIRE(points_per_dim >= 2, "points_per_dim >= 2");
  PICP_REQUIRE(num_iterations > 0, "num_iterations positive");
  PICP_REQUIRE(sample_every > 0, "sample_every positive");
  PICP_REQUIRE(num_ranks > 0, "num_ranks positive");
  PICP_REQUIRE(filter_size > 0.0, "filter_size positive");
  PICP_REQUIRE(measure_every > 0, "measure_every positive");
  PICP_REQUIRE(checkpoint_every >= 0, "checkpoint_every non-negative");
  PICP_REQUIRE(bed.num_particles > 0, "need particles");
}

}  // namespace picp
