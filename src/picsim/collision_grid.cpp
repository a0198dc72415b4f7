#include "picsim/collision_grid.hpp"

#include <algorithm>
#include <cmath>

#include "geom/aabb.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace picp {

namespace {

/// Grain of the split rule (util/thread_pool.hpp): each pass over the
/// particles costs nanoseconds apiece, so a rebuild stays inline under 4096
/// particles.
constexpr std::size_t kRebuildGrain = 2048;

}  // namespace

CollisionGrid::CollisionGrid(double cutoff, std::size_t max_cells)
    : cutoff_(cutoff), max_cells_(max_cells) {
  PICP_REQUIRE(cutoff > 0.0, "collision cutoff must be positive");
  PICP_REQUIRE(max_cells >= 1, "need at least one cell");
}

void CollisionGrid::rebuild(std::span<const Vec3> positions,
                            ThreadPool* pool) {
  positions_ = positions;
  PICP_REQUIRE(!positions.empty(), "rebuild with no particles");
  const std::size_t n = positions.size();

  // Tight particle bounds, slightly inflated so boundary particles never
  // sit exactly on the upper faces. min/max are exact, so merging per-chunk
  // partial boxes gives the identical box for any chunking.
  std::vector<Aabb> partial(chunk_count(pool, n, kRebuildGrain));
  parallel_for(pool, n, kRebuildGrain,
               [&](std::size_t c, std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i)
                   partial[c].expand(positions[i]);
               });
  Aabb box;
  for (const Aabb& b : partial) box.expand(b);
  box = box.inflated(1e-9 + 1e-9 * box.extent().norm());

  // Cell size: the cutoff, enlarged if necessary to respect max_cells.
  double cell = cutoff_;
  const Vec3 e = box.extent();
  const auto dims_for = [&](double size) {
    const auto along = [size](double extent) {
      return std::max<std::int64_t>(
          1, static_cast<std::int64_t>(std::floor(extent / size)));
    };
    return std::array<std::int64_t, 3>{along(e.x), along(e.y), along(e.z)};
  };
  auto dims = dims_for(cell);
  while (static_cast<std::size_t>(dims[0]) * static_cast<std::size_t>(dims[1]) *
             static_cast<std::size_t>(dims[2]) >
         max_cells_) {
    cell *= 1.5;
    dims = dims_for(cell);
  }
  indexer_ = GridIndexer(box, dims[0], dims[1], dims[2]);

  // Cell of every particle, the arithmetically heavy pass; each slot is
  // written by exactly one chunk.
  cell_index_.resize(n);
  parallel_for(pool, n, kRebuildGrain,
               [this, &positions](std::size_t, std::size_t begin,
                                  std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i)
                   cell_index_[i] = static_cast<std::uint32_t>(
                       indexer_.flat_cell_of(positions[i]));
               });

  bucket_by_key(pool, n, kRebuildGrain, cell_count(), cells_,
                [this](std::size_t i) { return cell_index_[i]; });
}

}  // namespace picp
