#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "geom/aabb.hpp"
#include "mesh/partition.hpp"
#include "picsim/gas_model.hpp"
#include "picsim/kernels.hpp"
#include "picsim/particle_store.hpp"
#include "util/config.hpp"

namespace picp {

/// Complete configuration of one proxy-application run — the union of the
/// paper's "system configuration" (processor count) and "application
/// configuration" (particles, elements, grid dims, mapping algorithm,
/// problem parameters). Defaults reproduce the scaled Hele-Shaw case study
/// described in DESIGN.md.
struct SimConfig {
  // --- Domain and spectral-element mesh -----------------------------------
  Aabb domain{Vec3(0.0, 0.0, 0.0), Vec3(1.0, 1.0, 2.0)};
  std::int64_t nelx = 32;
  std::int64_t nely = 32;
  std::int64_t nelz = 64;
  int points_per_dim = 5;  // the paper's N (grid resolution per element)

  // --- Initial particle bed ------------------------------------------------
  BedParams bed;

  // --- Gas field and particle physics --------------------------------------
  GasParams gas;
  PhysicsParams physics;

  // --- Time stepping and trace sampling ------------------------------------
  std::int64_t num_iterations = 6000;
  std::int64_t sample_every = 50;
  /// Store trace coordinates in double precision (exact generator-vs-app
  /// validation); f32 matches the paper's compact production traces.
  bool trace_float64 = true;
  /// Worker threads for the solver loop, collision-grid rebuilds, and the
  /// measurement-path rank/ghost builds. 1 = fully serial (no pool),
  /// 0 = hardware concurrency. Every parallel phase writes only disjoint
  /// per-particle slots, so results are bit-identical for any value.
  std::size_t threads = 1;
  /// Write a crash-recovery checkpoint (`<trace>.ckpt`) every N iterations
  /// when a trace is being written; 0 disables. `simulate --resume`
  /// continues from the last checkpoint and provably reproduces the
  /// uninterrupted trace byte for byte (see DESIGN.md, "Trace format v2 &
  /// crash safety").
  std::int64_t checkpoint_every = 0;

  // --- Mapping and prediction ----------------------------------------------
  std::string mapper_kind = "bin";
  Rank num_ranks = 1044;
  /// Projection filter size (absolute units). Also the threshold bin size
  /// for bin-based mapping, as in CMT-nek (§IV-D).
  double filter_size = 0.024;

  // --- Instrumentation ------------------------------------------------------
  bool measure = false;
  std::int64_t measure_every = 1;  // measure at every k-th sampled interval
  double measure_min_seconds = 25e-6;
  int measure_max_reps = 128;

  /// Parse from an INI config (missing keys keep defaults). Section names:
  /// [mesh], [bed], [gas], [physics], [run], [mapping], [measure].
  static SimConfig from_config(const Config& config);

  /// Total trace samples this configuration produces.
  std::int64_t num_samples() const {
    return (num_iterations + sample_every - 1) / sample_every;
  }

  /// Validate cross-field constraints; throws picp::Error on bad configs.
  void validate() const;
};

}  // namespace picp
