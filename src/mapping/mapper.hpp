#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "geom/vec3.hpp"
#include "mesh/partition.hpp"
#include "mesh/spectral_mesh.hpp"

namespace picp {

/// A particle-mapping algorithm: decides, each sampled interval, which
/// processor owns each particle. This is the interface the Dynamic Workload
/// Generator "mimics" (paper §II-A): implementations must depend only on
/// particle positions and static configuration, so the generator can replay
/// them from a trace on any processor count.
class Mapper {
 public:
  virtual ~Mapper() = default;

  virtual std::string name() const = 0;

  /// Number of processors this mapper distributes particles across.
  virtual Rank num_ranks() const = 0;

  /// Recompute the mapping for the current particle positions and fill
  /// `owners[i]` with the rank owning particle i. Called once per interval.
  virtual void map(std::span<const Vec3> positions,
                   std::vector<Rank>& owners) = 0;

  /// Owner of an arbitrary point under the mapping computed by the last
  /// map() call. Valid only after map() has run at least once.
  virtual Rank owner_of_point(const Vec3& p) const = 0;

  /// Number of distinct spatial partitions created by the last map() call
  /// (#bins for bin-based mapping; #ranks otherwise). Drives Fig 6 / 10a.
  virtual std::int64_t num_partitions() const = 0;
};

/// Factory: construct a mapper by configuration name ("element", "bin",
/// "hilbert"). `bin_threshold` is the projection-filter-derived threshold
/// bin size; `max_bins` caps bin creation (pass a huge value to reproduce
/// the paper's "relaxed processor count" study in Fig 6).
std::unique_ptr<Mapper> make_mapper(const std::string& kind,
                                    const SpectralMesh& mesh,
                                    const MeshPartition& partition,
                                    double bin_threshold,
                                    std::int64_t max_bins = -1);

/// True when make_mapper accepts `kind` — lets request validation reject
/// an unknown mapper before any work is scheduled.
bool is_mapper_kind(const std::string& kind);

}  // namespace picp
