#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geom/grid_indexer.hpp"
#include "geom/vec3.hpp"
#include "util/thread_pool.hpp"

namespace picp {

/// Uniform cell list for particle-particle collision detection (the
/// collision force F_c in the CMT-nek particle solver, Eq. 2). The grid is
/// rebuilt every iteration over the *current particle bounding box* — a
/// domain-sized grid would waste orders of magnitude more memory and
/// clearing time when the particles occupy a small bed. Cell size is at
/// least the collision cutoff (larger if needed to respect `max_cells`), so
/// all partners of a particle lie within its 27-cell neighborhood.
class CollisionGrid {
 public:
  /// `cutoff` is the maximum collision interaction distance that will be
  /// queried; `max_cells` caps the grid footprint.
  explicit CollisionGrid(double cutoff, std::size_t max_cells = 1u << 21);

  /// Rebuild cell lists from current positions (counting sort, O(N)). The
  /// particle-bounds reduction, the cell indexing and the sort run chunked
  /// over `pool` (util/thread_pool.hpp's rule; no pool is one chunk); the
  /// cell lists are bit-identical for any pool, because chunks are
  /// contiguous, in-order particle ranges.
  void rebuild(std::span<const Vec3> positions, ThreadPool* pool = nullptr);

  /// Visit up to `max_neighbors` particles within `cutoff` of particle i
  /// (excluding i itself), calling visit(j, delta, dist2) for each, where
  /// delta = p_i - p_j. Returns the number visited. The neighbor cap bounds
  /// the per-particle collision cost in densely packed beds (standard
  /// practice in soft-sphere DEM kernels). `cutoff` must not exceed the
  /// constructor cutoff.
  template <typename Visitor>
  int visit_neighbors(std::size_t i, double cutoff, int max_neighbors,
                      Visitor&& visit) const {
    const Vec3 p = positions_[i];
    const double cutoff2 = cutoff * cutoff;
    const auto lo = indexer_.cell_of(
        Vec3(p.x - cutoff, p.y - cutoff, p.z - cutoff));
    const auto hi = indexer_.cell_of(
        Vec3(p.x + cutoff, p.y + cutoff, p.z + cutoff));
    int visited = 0;
    for (std::int64_t iz = lo[2]; iz <= hi[2]; ++iz)
      for (std::int64_t iy = lo[1]; iy <= hi[1]; ++iy)
        for (std::int64_t ix = lo[0]; ix <= hi[0]; ++ix) {
          const auto cell =
              static_cast<std::size_t>(indexer_.flat_index(ix, iy, iz));
          for (const std::uint32_t j : cells_.bucket(cell)) {
            if (j == i) continue;
            const Vec3 d = p - positions_[j];
            const double d2 = d.norm2();
            if (d2 >= cutoff2) continue;
            visit(static_cast<std::size_t>(j), d, d2);
            if (++visited >= max_neighbors) return visited;
          }
        }
    return visited;
  }

  std::size_t cell_count() const {
    return static_cast<std::size_t>(indexer_.cell_count());
  }

 private:
  double cutoff_;
  std::size_t max_cells_;
  GridIndexer indexer_;
  std::span<const Vec3> positions_;
  Buckets cells_;                          // particle ids grouped by cell
  std::vector<std::uint32_t> cell_index_;  // scratch: cell of each particle
};

}  // namespace picp
