#include "workload/ghost_finder.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/error.hpp"

namespace picp {
namespace {

// 4x1x1 elements over [0,4]x[0,1]x[0,1], one element per rank: rank r owns
// x in [r, r+1).
struct Strip {
  SpectralMesh mesh{Aabb(Vec3(0, 0, 0), Vec3(4, 1, 1)), 4, 1, 1, 3};
  MeshPartition partition{block_partition(mesh, 4)};
};

TEST(GhostFinder, InteriorParticleHasNoGhosts) {
  Strip w;
  GhostFinder finder(w.mesh, w.partition, 0.2);
  std::vector<Rank> out;
  finder.ranks_near(Vec3(0.5, 0.5, 0.5), 0, out);
  EXPECT_TRUE(out.empty());
}

TEST(GhostFinder, NearBoundaryGhostsOnNeighbor) {
  Strip w;
  GhostFinder finder(w.mesh, w.partition, 0.2);
  std::vector<Rank> out;
  // 0.1 from the rank0/rank1 boundary at x=1.
  finder.ranks_near(Vec3(0.9, 0.5, 0.5), 0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 1);
}

TEST(GhostFinder, ExcludesOwnRank) {
  Strip w;
  GhostFinder finder(w.mesh, w.partition, 0.2);
  std::vector<Rank> out;
  finder.ranks_near(Vec3(0.9, 0.5, 0.5), 1, out);
  // Rank 1 excluded; the particle's own element belongs to rank 0.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0);
}

TEST(GhostFinder, LargeRadiusReachesTwoNeighbors) {
  Strip w;
  GhostFinder finder(w.mesh, w.partition, 1.2);
  std::vector<Rank> out;
  finder.ranks_near(Vec3(1.5, 0.5, 0.5), 1, out);
  std::sort(out.begin(), out.end());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 2);
}

TEST(GhostFinder, RadiusExactlyToFaceDoesNotCount) {
  Strip w;
  // Distance to the boundary equals the radius: strict < comparison.
  GhostFinder finder(w.mesh, w.partition, 0.5);
  std::vector<Rank> out;
  finder.ranks_near(Vec3(0.5, 0.5, 0.5), 0, out);
  EXPECT_TRUE(out.empty());
}

TEST(GhostFinder, ZeroRadiusNeverGhosts) {
  Strip w;
  GhostFinder finder(w.mesh, w.partition, 0.0);
  std::vector<Rank> out;
  finder.ranks_near(Vec3(0.999, 0.5, 0.5), 0, out);
  EXPECT_TRUE(out.empty());
}

TEST(GhostFinder, DedupesRanksOwningMultipleElements) {
  // 4 elements, 2 ranks: rank 0 owns x in [0,2), rank 1 owns [2,4).
  SpectralMesh mesh(Aabb(Vec3(0, 0, 0), Vec3(4, 1, 1)), 4, 1, 1, 3);
  MeshPartition partition = block_partition(mesh, 2);
  GhostFinder finder(mesh, partition, 1.5);
  std::vector<Rank> out;
  // Radius covers both of rank 1's elements; rank 1 must appear once.
  finder.ranks_near(Vec3(1.9, 0.5, 0.5), 0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 1);
}

TEST(GhostFinder, CornerTouchesDiagonalRank) {
  // 2x2 elements in xy, 4 ranks; a particle near the shared corner sees all
  // three foreign ranks.
  SpectralMesh mesh(Aabb(Vec3(0, 0, 0), Vec3(2, 2, 1)), 2, 2, 1, 3);
  MeshPartition partition = block_partition(mesh, 4);
  GhostFinder finder(mesh, partition, 0.1);
  std::vector<Rank> out;
  finder.ranks_near(Vec3(0.95, 0.95, 0.5), 0, out);
  std::sort(out.begin(), out.end());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 2);
  EXPECT_EQ(out[2], 3);
}

TEST(GhostFinder, NegativeRadiusThrows) {
  Strip w;
  EXPECT_THROW(GhostFinder(w.mesh, w.partition, -0.1), Error);
}

}  // namespace
}  // namespace picp
