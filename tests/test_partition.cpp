#include "mesh/partition.hpp"

#include <gtest/gtest.h>

#include "support/rcb_reference.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace picp {
namespace {

SpectralMesh make_mesh(std::int64_t nx = 8, std::int64_t ny = 8,
                       std::int64_t nz = 8) {
  return SpectralMesh(Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)), nx, ny, nz, 3);
}

/// Bounding box of the elements each rank owns (the tight union of their
/// element bounds).
std::vector<Aabb> rank_boxes(const SpectralMesh& mesh,
                             const MeshPartition& part) {
  std::vector<Aabb> boxes(static_cast<std::size_t>(part.num_ranks()));
  for (ElementId e = 0; e < mesh.num_elements(); ++e)
    boxes[static_cast<std::size_t>(part.owner_of(e))].expand(
        mesh.element_bounds(e));
  return boxes;
}

TEST(RcbPartition, EveryElementOwned) {
  const SpectralMesh mesh = make_mesh();
  const MeshPartition part = rcb_partition(mesh, 7);
  for (const Rank r : part.element_owners()) {
    EXPECT_GE(r, 0);
    EXPECT_LT(r, 7);
  }
}

TEST(RcbPartition, CountsSumToTotal) {
  const SpectralMesh mesh = make_mesh();
  const MeshPartition part = rcb_partition(mesh, 5);
  std::int64_t total = 0;
  for (const std::int64_t n : part.elements_per_rank()) total += n;
  EXPECT_EQ(total, mesh.num_elements());
}

// Balance must hold for power-of-two and awkward rank counts alike (the
// paper's processor counts — 1044, 2088, ... — are not powers of two).
class RcbBalance : public ::testing::TestWithParam<Rank> {};

TEST_P(RcbBalance, MaxMinSpreadIsTight) {
  const SpectralMesh mesh = make_mesh();
  const MeshPartition part = rcb_partition(mesh, GetParam());
  EXPECT_LE(part.max_elements_per_rank() - part.min_elements_per_rank(), 1)
      << "ranks=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RankCounts, RcbBalance,
                         ::testing::Values<Rank>(1, 2, 3, 4, 5, 7, 8, 16, 21,
                                                 64, 100, 261, 512));

TEST(RcbPartition, RegionsAreSpatiallyCompact) {
  const SpectralMesh mesh = make_mesh();
  const MeshPartition part = rcb_partition(mesh, 8);
  // With 8 ranks over a cube, RCB yields octants: each rank's bounding box
  // volume should be ~1/8 of the domain.
  for (const Aabb& box : rank_boxes(mesh, part))
    EXPECT_NEAR(box.volume(), 1.0 / 8.0, 1e-9);
}

TEST(RcbPartition, Deterministic) {
  const SpectralMesh mesh = make_mesh();
  const MeshPartition a = rcb_partition(mesh, 13);
  const MeshPartition b = rcb_partition(mesh, 13);
  EXPECT_EQ(a.element_owners(), b.element_owners());
}

TEST(RcbPartition, MoreRanksThanElements) {
  const SpectralMesh mesh = make_mesh(2, 2, 2);  // 8 elements
  const MeshPartition part = rcb_partition(mesh, 16);
  EXPECT_EQ(part.max_elements_per_rank(), 1);
  EXPECT_EQ(part.min_elements_per_rank(), 0);
}

TEST(RcbPartition, SingleRankOwnsAll) {
  const SpectralMesh mesh = make_mesh(4, 4, 4);
  const MeshPartition part = rcb_partition(mesh, 1);
  EXPECT_EQ(part.elements_per_rank()[0], 64);
  EXPECT_NEAR(rank_boxes(mesh, part)[0].volume(), 1.0, 1e-12);
}

TEST(BlockPartition, BalancedContiguous) {
  const SpectralMesh mesh = make_mesh();
  const MeshPartition part = block_partition(mesh, 6);
  EXPECT_LE(part.max_elements_per_rank() - part.min_elements_per_rank(), 1);
  // Owners are non-decreasing in element order.
  Rank prev = 0;
  for (const Rank r : part.element_owners()) {
    EXPECT_GE(r, prev);
    prev = r;
  }
}

TEST(MeshPartitionTest, RankBoundsCoverOwnedElements) {
  const SpectralMesh mesh = make_mesh();
  const MeshPartition part = rcb_partition(mesh, 12);
  const std::vector<Aabb> boxes = rank_boxes(mesh, part);
  for (ElementId e = 0; e < mesh.num_elements(); ++e) {
    const Rank r = part.owner_of(e);
    const Aabb eb = mesh.element_bounds(e);
    EXPECT_TRUE(
        boxes[static_cast<std::size_t>(r)].contains_closed(eb.center()));
  }
}

TEST(MeshPartitionTest, RejectsBadArguments) {
  const SpectralMesh mesh = make_mesh(2, 2, 2);
  EXPECT_THROW(rcb_partition(mesh, 0), Error);
  EXPECT_THROW(MeshPartition(2, std::vector<Rank>{0, 1}, mesh), Error);
  std::vector<Rank> bad(8, 5);
  EXPECT_THROW(MeshPartition(2, bad, mesh), Error);
}

// The packed-key bisections must reproduce the (center, id) bisections owner
// for owner: on cubic and non-cubic, offset and degenerate meshes, and at
// every rank count from one rank to more ranks than elements.
TEST(RcbPartition, PackedKeysEqualTheCenterOrderReference) {
  const std::vector<SpectralMesh> meshes = {
      SpectralMesh(Aabb(Vec3(0, 0, 0), Vec3(1, 1, 2)), 32, 32, 64, 5),
      make_mesh(8, 8, 16),
      SpectralMesh(Aabb(Vec3(-0.3, 0.1, 2.0), Vec3(1.7, 0.45, 9.0)), 40, 24,
                   17, 3),
      make_mesh(64, 64, 16),
      make_mesh(2, 2, 2),
      make_mesh(1, 1, 37),
  };
  const Rank rank_counts[] = {1,   2,   3,   5,    7,    16,   64,  100,
                              128, 261, 512, 1044, 2088, 4176, 8352};
  Xoshiro256 rng(21);
  for (const SpectralMesh& mesh : meshes) {
    // Seeded weights with a share of empty elements, as particle loads have.
    std::vector<double> weights(static_cast<std::size_t>(mesh.num_elements()));
    for (double& w : weights)
      w = rng.uniform() < 0.3 ? 0.0 : rng.uniform(0.5, 4.0);
    for (const Rank ranks : rank_counts) {
      SCOPED_TRACE(::testing::Message()
                   << mesh.nelx() << "x" << mesh.nely() << "x" << mesh.nelz()
                   << " R=" << ranks);
      EXPECT_EQ(rcb_partition(mesh, ranks).element_owners(),
                testing::rcb_reference(mesh, ranks));
      EXPECT_EQ(weighted_rcb_partition(mesh, ranks, weights).element_owners(),
                testing::weighted_rcb_reference(mesh, ranks, weights));
    }
  }
}

// Keys hold 21 bits per axis. A mesh with 2^21 elements on one axis is
// refused with picp::Error before any per-element array exists: these meshes
// have 2^61 elements, so any allocation first would throw something else.
TEST(RcbPartition, RejectsAnAxisOf2To21ElementsBeforeAllocating) {
  constexpr std::int64_t kTooMany = std::int64_t{1} << 21;
  constexpr std::int64_t kMany = std::int64_t{1} << 20;
  const Aabb domain(Vec3(0, 0, 0), Vec3(1, 1, 1));
  const auto partition = [&domain](std::int64_t nx, std::int64_t ny,
                                   std::int64_t nz) {
    return rcb_partition(SpectralMesh(domain, nx, ny, nz, 2), 4);
  };
  EXPECT_THROW(partition(kTooMany, kMany, kMany), Error);
  EXPECT_THROW(partition(kMany, kTooMany, kMany), Error);
  EXPECT_THROW(partition(kMany, kMany, kTooMany), Error);
  const SpectralMesh line(domain, kTooMany, 1, 1, 2);
  const std::vector<double> ones(static_cast<std::size_t>(kTooMany), 1.0);
  EXPECT_THROW(weighted_rcb_partition(line, 4, ones), Error);
}

// Elements narrower than the rounding of their coordinates share centers,
// so the center order is no longer the coordinate order: refuse, rather
// than order differently.
TEST(RcbPartition, RejectsCentersThatDoNotIncrease) {
  // Doubles near 1e17 are 16 apart, so unit-wide elements there collapse.
  const SpectralMesh mesh(Aabb(Vec3(1e17, 0, 0), Vec3(1e17 + 64.0, 1, 1)), 64,
                          2, 2, 2);
  EXPECT_THROW(rcb_partition(mesh, 4), Error);
  const std::vector<double> ones(static_cast<std::size_t>(mesh.num_elements()),
                                 1.0);
  EXPECT_THROW(weighted_rcb_partition(mesh, 4, ones), Error);
}

}  // namespace
}  // namespace picp
