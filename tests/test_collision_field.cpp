#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "picsim/collision_grid.hpp"
#include "picsim/field_cache.hpp"
#include "picsim/particle_store.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace picp {
namespace {

std::vector<Vec3> random_cloud(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Vec3> out(n);
  for (auto& p : out)
    p = Vec3(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1));
  return out;
}

TEST(CollisionGrid, FindsSameNeighborsAsBruteForce) {
  const auto cloud = random_cloud(400, 1);
  const double cutoff = 0.08;
  CollisionGrid grid(cutoff);
  grid.rebuild(cloud);
  for (std::size_t i = 0; i < cloud.size(); i += 13) {
    std::set<std::size_t> from_grid;
    grid.visit_neighbors(i, cutoff, 1000,
                         [&](std::size_t j, const Vec3&, double) {
                           from_grid.insert(j);
                         });
    std::set<std::size_t> brute;
    for (std::size_t j = 0; j < cloud.size(); ++j) {
      if (j == i) continue;
      if ((cloud[i] - cloud[j]).norm2() < cutoff * cutoff) brute.insert(j);
    }
    EXPECT_EQ(from_grid, brute) << "particle " << i;
  }
}

TEST(CollisionGrid, NeighborCapRespected) {
  // A tight cluster: every particle sees every other.
  std::vector<Vec3> cloud(50, Vec3(0.5, 0.5, 0.5));
  Xoshiro256 rng(2);
  for (auto& p : cloud)
    p += Vec3(rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01),
              rng.uniform(-0.01, 0.01));
  CollisionGrid grid(0.05);
  grid.rebuild(cloud);
  const int visited = grid.visit_neighbors(
      0, 0.05, 8, [](std::size_t, const Vec3&, double) {});
  EXPECT_EQ(visited, 8);
}

TEST(CollisionGrid, DeltaAndDistanceArguments) {
  const std::vector<Vec3> cloud = {Vec3(0.5, 0.5, 0.5),
                                   Vec3(0.53, 0.5, 0.5)};
  CollisionGrid grid(0.1);
  grid.rebuild(cloud);
  int count = 0;
  grid.visit_neighbors(0, 0.1, 10,
                       [&](std::size_t j, const Vec3& delta, double d2) {
                         EXPECT_EQ(j, 1u);
                         EXPECT_NEAR(delta.x, -0.03, 1e-12);
                         EXPECT_NEAR(d2, 0.0009, 1e-12);
                         ++count;
                       });
  EXPECT_EQ(count, 1);
}

TEST(CollisionGrid, SelfExcluded) {
  const std::vector<Vec3> cloud = {Vec3(0.5, 0.5, 0.5)};
  CollisionGrid grid(0.1);
  grid.rebuild(cloud);
  const int visited = grid.visit_neighbors(
      0, 0.1, 10, [](std::size_t, const Vec3&, double) {});
  EXPECT_EQ(visited, 0);
}

TEST(CollisionGrid, ParallelRebuildBitIdenticalToSerial) {
  // Enough particles for three chunks of the rebuild's grain (2048); odd
  // count so chunk boundaries don't align with anything.
  const auto cloud = random_cloud(8191, 3);
  const double cutoff = 0.03;
  CollisionGrid serial(cutoff);
  serial.rebuild(cloud);
  ThreadPool pool(4);
  CollisionGrid parallel(cutoff);
  parallel.rebuild(cloud, &pool);
  pool.wait_idle();  // a chunk's task may still be queued after the call
  EXPECT_GT(pool.stats().tasks, 0u) << "the rebuild ran as one chunk";
  ASSERT_EQ(serial.cell_count(), parallel.cell_count());
  // The neighbor *sequence* (not just the set) must match: the parallel
  // counting sort promises the identical stable cell order.
  for (std::size_t i = 0; i < cloud.size(); i += 97) {
    std::vector<std::size_t> a, b;
    serial.visit_neighbors(i, cutoff, 1000,
                           [&](std::size_t j, const Vec3&, double) {
                             a.push_back(j);
                           });
    parallel.visit_neighbors(i, cutoff, 1000,
                             [&](std::size_t j, const Vec3&, double) {
                               b.push_back(j);
                             });
    EXPECT_EQ(a, b) << "particle " << i;
  }
}

TEST(ParticleStoreTest, BedInitializationDeterministic) {
  const Aabb domain(Vec3(0, 0, 0), Vec3(1, 1, 2));
  BedParams params;
  params.num_particles = 1000;
  ParticleStore a, b;
  init_hele_shaw_bed(a, domain, params);
  init_hele_shaw_bed(b, domain, params);
  ASSERT_EQ(a.size(), 1000u);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a.position(i), b.position(i));
}

TEST(ParticleStoreTest, BedInsideConfiguredRegion) {
  const Aabb domain(Vec3(0, 0, 0), Vec3(1, 1, 2));
  BedParams params;
  params.num_particles = 2000;
  params.bed_bottom = 0.1;
  params.bed_height = 0.2;
  params.radius_fraction = 0.5;
  ParticleStore store;
  init_hele_shaw_bed(store, domain, params);
  const double radius = 0.5 * 0.5;  // fraction * half-extent
  for (std::size_t i = 0; i < store.size(); ++i) {
    const Vec3& p = store.position(i);
    EXPECT_GE(p.z, 0.1);
    EXPECT_LE(p.z, 0.3 + 1e-12);
    const double dx = p.x - 0.5, dy = p.y - 0.5;
    EXPECT_LE(std::sqrt(dx * dx + dy * dy), radius + 1e-12);
    EXPECT_EQ(store.velocity(i), Vec3());
  }
}

TEST(ParticleStoreTest, BoundsAreTight) {
  ParticleStore store;
  store.resize(2);
  store.positions()[0] = Vec3(0.1, 0.2, 0.3);
  store.positions()[1] = Vec3(0.9, 0.1, 0.8);
  const Aabb b = store.bounds();
  EXPECT_EQ(b.lo, Vec3(0.1, 0.1, 0.3));
  EXPECT_EQ(b.hi, Vec3(0.9, 0.2, 0.8));
}

TEST(FieldCacheTest, InterpolationMatchesDirectEvaluationAtCorners) {
  const SpectralMesh mesh(Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)), 4, 4, 4, 3);
  GasParams params;
  params.center = Vec3(0.5, 0.5, -0.2);
  const GasModel gas(params, mesh.domain());
  FieldCache cache(mesh, gas);
  const double t = 0.3;
  // At an element corner the trilinear weights collapse to that corner, so
  // the cache must reproduce the analytic field exactly.
  const Vec3 corner(0.25, 0.5, 0.75);
  const Vec3 cached = cache.interpolate(corner, t);
  const Vec3 direct = gas.velocity(corner, t);
  EXPECT_NEAR(cached.x, direct.x, 1e-12);
  EXPECT_NEAR(cached.y, direct.y, 1e-12);
  EXPECT_NEAR(cached.z, direct.z, 1e-12);
}

TEST(FieldCacheTest, InterpolationCloseToFieldInsideElements) {
  const SpectralMesh mesh(Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)), 8, 8, 8, 3);
  GasParams params;
  params.center = Vec3(0.5, 0.5, -0.2);
  const GasModel gas(params, mesh.domain());
  FieldCache cache(mesh, gas);
  Xoshiro256 rng(5);
  // Evaluate after the blast front has swept the whole domain: within the
  // front ramp (thinner than an element) trilinear interpolation smears the
  // discontinuity by design, so accuracy is only meaningful behind it.
  const double t = 1.0;
  for (int i = 0; i < 200; ++i) {
    const Vec3 p(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1));
    const Vec3 cached = cache.interpolate(p, t);
    const Vec3 direct = gas.velocity(p, t);
    // Trilinear interpolation over an h=1/8 element of a smooth field; the
    // azimuthal lobe pattern turns fastest near the blast axis, so allow a
    // magnitude-relative slack.
    const double tol = 0.02 + 0.08 * direct.norm();
    EXPECT_NEAR(cached.x, direct.x, tol);
    EXPECT_NEAR(cached.y, direct.y, tol);
    EXPECT_NEAR(cached.z, direct.z, tol);
  }
}

TEST(FieldCacheTest, DenseTableCoversEveryElementAtConstruction) {
  const SpectralMesh mesh(Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)), 4, 4, 4, 3);
  GasParams params;
  const GasModel gas(params, mesh.domain());
  const FieldCache cache(mesh, gas);
  // Eager dense build: the whole mesh is tabulated up front, so the
  // interpolation hot path is a const read (safe to share across threads).
  EXPECT_EQ(cache.cached_elements(),
            static_cast<std::size_t>(mesh.num_elements()));
  for (const ElementId e : {ElementId{0}, ElementId{31},
                            mesh.num_elements() - 1}) {
    const auto& field = cache.element_field(e);
    const Aabb expected = mesh.element_bounds(e);
    EXPECT_EQ(field.bounds.lo, expected.lo);
    EXPECT_EQ(field.bounds.hi, expected.hi);
  }
}

TEST(FieldCacheTest, AdjacentElementsShareCornerValues) {
  const SpectralMesh mesh(Aabb(Vec3(0, 0, 0), Vec3(1, 1, 1)), 4, 4, 4, 3);
  GasParams params;
  params.center = Vec3(0.5, 0.5, -0.2);
  const GasModel gas(params, mesh.domain());
  const FieldCache cache(mesh, gas);
  // Corner 1 (+x) of element (0,0,0) is corner 0 (-x) of element (1,0,0):
  // both gather from the same lattice point, so the values are bitwise
  // equal — adjacent elements can never disagree about a shared corner.
  const auto& left = cache.element_field(mesh.element_at(0, 0, 0));
  const auto& right = cache.element_field(mesh.element_at(1, 0, 0));
  EXPECT_EQ(left.corner_dir[1], right.corner_dir[0]);
  EXPECT_EQ(left.corner_d[1], right.corner_d[0]);
}

}  // namespace
}  // namespace picp
