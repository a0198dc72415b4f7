#include "workload/ghost_finder.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace picp {

namespace {
/// Fewest particles per chunk of the ghost search: a query costs a few
/// hundred nanoseconds, so a chunk of 256 outweighs its task's wake-up.
constexpr std::size_t kGhostGrain = 256;
}  // namespace

GhostFinder::GhostFinder(const SpectralMesh& mesh,
                         const MeshPartition& partition, double radius)
    : mesh_(&mesh),
      partition_(&partition),
      radius_(radius),
      radius2_(radius * radius) {
  PICP_REQUIRE(radius >= 0.0, "ghost radius must be non-negative");
}

void GhostFinder::ranks_near(const Vec3& p, Rank exclude,
                             std::vector<Rank>& out) const {
  out.clear();
  if (radius_ == 0.0) return;
  const GridIndexer& grid = mesh_->indexer();
  const auto lo = grid.cell_of(Vec3(p.x - radius_, p.y - radius_, p.z - radius_));
  const auto hi = grid.cell_of(Vec3(p.x + radius_, p.y + radius_, p.z + radius_));
  for (std::int64_t iz = lo[2]; iz <= hi[2]; ++iz)
    for (std::int64_t iy = lo[1]; iy <= hi[1]; ++iy)
      for (std::int64_t ix = lo[0]; ix <= hi[0]; ++ix) {
        const ElementId e = grid.flat_index(ix, iy, iz);
        const Rank r = partition_->owner_of(e);
        if (r == exclude) continue;
        if (std::find(out.begin(), out.end(), r) != out.end()) continue;
        if (grid.cell_bounds(ix, iy, iz).distance2(p) < radius2_)
          out.push_back(r);
      }
}

void GhostFinder::bucket(std::span<const Vec3> positions,
                         std::span<const Rank> owners, ThreadPool* pool,
                         Buckets& out) const {
  PICP_REQUIRE(owners.size() == positions.size(), "owner array size");
  // Each chunk keeps, from the count step, how many ranks each of its
  // particles is a ghost on and those ranks, in particle order, so the
  // scatter files the ids without searching again.
  struct Found {
    std::vector<std::uint32_t> counts;  // one per particle of the chunk
    std::vector<Rank> ranks;
  };
  const std::size_t n = positions.size();
  std::vector<Found> chunks(chunk_count(pool, n, kGhostGrain));
  stable_bucket_sort(
      pool, n, kGhostGrain, static_cast<std::size_t>(partition_->num_ranks()),
      out,
      [&](std::size_t c, std::size_t begin, std::size_t end,
          std::uint32_t* row) {
        Found& found = chunks[c];
        found.counts.reserve(end - begin);
        std::vector<Rank> near;
        for (std::size_t i = begin; i < end; ++i) {
          ranks_near(positions[i], owners[i], near);
          found.counts.push_back(static_cast<std::uint32_t>(near.size()));
          for (const Rank r : near) {
            ++row[static_cast<std::size_t>(r)];
            found.ranks.push_back(r);
          }
        }
      },
      [&](std::size_t c, std::size_t begin, std::size_t end,
          std::uint32_t* row) {
        const Found& found = chunks[c];
        const Rank* rank = found.ranks.data();
        for (std::size_t i = begin; i < end; ++i)
          for (std::uint32_t k = found.counts[i - begin]; k > 0; --k)
            out.ids[row[static_cast<std::size_t>(*rank++)]++] =
                static_cast<std::uint32_t>(i);
      });
}

}  // namespace picp
