#pragma once

#include <span>
#include <vector>

#include "geom/vec3.hpp"
#include "mesh/partition.hpp"
#include "mesh/spectral_mesh.hpp"
#include "util/thread_pool.hpp"

namespace picp {

/// Finds the processors whose grid region a particle's projection filter
/// touches. A particle is a *ghost* on rank r when its influence radius (the
/// projection filter size) overlaps grid points owned by r while the
/// particle itself resides elsewhere (paper §II-A).
///
/// Ghosts are always defined against the grid (element) decomposition —
/// projection deposits onto grid points — regardless of which mapper owns
/// the particle data, which is what makes the ghost count grow with filter
/// size for both mapping algorithms (Fig 10b).
class GhostFinder {
 public:
  GhostFinder(const SpectralMesh& mesh, const MeshPartition& partition,
              double radius);

  /// Fill `out` with the distinct ranks (excluding `exclude`) whose owned
  /// elements lie within `radius` of p. `out` is cleared first. Typical
  /// result size is 0-3 ranks, so `out` should be reused across calls.
  void ranks_near(const Vec3& p, Rank exclude, std::vector<Rank>& out) const;

  /// The per-interval ghost search: afterwards `out.bucket(r)` lists, in
  /// particle order, the ids of the particles that are ghosts on rank r,
  /// where particle i resides on `owners[i]`. There is one bucket per rank
  /// of the partition. The search runs in `stable_bucket_sort`'s count step,
  /// split over `pool` by its rule, and the lists are the same for any
  /// pool. Over 2^16 ranks the sort runs as one chunk, so a pooled search
  /// runs inline there; no config reaches that (the paper's largest R is
  /// 8352).
  void bucket(std::span<const Vec3> positions, std::span<const Rank> owners,
              ThreadPool* pool, Buckets& out) const;

 private:
  const SpectralMesh* mesh_;
  const MeshPartition* partition_;
  double radius_;
  double radius2_;
};

}  // namespace picp
