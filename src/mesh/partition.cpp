#include "mesh/partition.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace picp {

MeshPartition::MeshPartition(Rank num_ranks, std::vector<Rank> element_owner,
                             const SpectralMesh& mesh)
    : num_ranks_(num_ranks),
      element_owner_(std::move(element_owner)),
      elements_per_rank_(static_cast<std::size_t>(num_ranks), 0) {
  PICP_REQUIRE(num_ranks > 0, "partition needs at least one rank");
  PICP_REQUIRE(static_cast<std::int64_t>(element_owner_.size()) ==
                   mesh.num_elements(),
               "owner array size must match element count");
  for (std::size_t e = 0; e < element_owner_.size(); ++e) {
    const Rank r = element_owner_[e];
    PICP_REQUIRE(r >= 0 && r < num_ranks, "element owner out of range");
    ++elements_per_rank_[static_cast<std::size_t>(r)];
  }
}

std::int64_t MeshPartition::max_elements_per_rank() const {
  return *std::max_element(elements_per_rank_.begin(),
                           elements_per_rank_.end());
}

std::int64_t MeshPartition::min_elements_per_rank() const {
  return *std::min_element(elements_per_rank_.begin(),
                           elements_per_rank_.end());
}

namespace {

// Each element travels through the bisection as its grid coordinates packed
// into one 64-bit key, iz << 42 | iy << 21 | ix. Element ids are
// (iz·ny + iy)·nx + ix, so key order is id order. An element's center on an
// axis depends only on its coordinate there, and require_packable checks
// that it strictly increases with that coordinate. So ordering by (center
// on the axis, id) is ordering by the axis coordinate, then by the other
// two in id order: (ix, iz, iy) on x, (iy, iz, ix) on y and the key itself
// on z. Every comparison is then a few shifts, and a subset's box of
// centers spans the centers of its extreme coordinates.
using Key = std::uint64_t;
constexpr int kAxisBits = 21;
constexpr Key kAxisMask = (Key{1} << kAxisBits) - 1;

constexpr Key ix_of(Key k) { return k & kAxisMask; }
constexpr Key iy_of(Key k) { return (k >> kAxisBits) & kAxisMask; }
constexpr Key iz_of(Key k) { return k >> (2 * kAxisBits); }
constexpr Key pack(Key major, Key middle, Key minor) {
  return major << (2 * kAxisBits) | middle << kAxisBits | minor;
}

// Calls visit(less) with the (center, id) order along `axis` as an order on
// keys; one lambda per axis, so each comparison inlines into the algorithm.
template <typename Visit>
void with_axis_order(int axis, Visit&& visit) {
  switch (axis) {
    case 0:
      return visit([](Key a, Key b) {
        return pack(ix_of(a), iz_of(a), iy_of(a)) <
               pack(ix_of(b), iz_of(b), iy_of(b));
      });
    case 1:
      return visit([](Key a, Key b) {
        return pack(iy_of(a), iz_of(a), ix_of(a)) <
               pack(iy_of(b), iz_of(b), ix_of(b));
      });
    default:
      return visit([](Key a, Key b) { return a < b; });
  }
}

// The two facts the key order rests on. Checked before anything is
// allocated, over nelx + nely + nelz centers.
void require_packable(const SpectralMesh& mesh) {
  const GridIndexer& grid = mesh.indexer();
  const std::int64_t cells[3] = {grid.nx(), grid.ny(), grid.nz()};
  for (const std::int64_t n : cells)
    PICP_REQUIRE(n <= static_cast<std::int64_t>(kAxisMask),
                 "rcb partitioning packs 21 bits per axis: every axis must "
                 "have fewer than 2^21 elements");
  for (int axis = 0; axis < 3; ++axis) {
    std::int64_t at[3] = {0, 0, 0};
    double previous = grid.cell_bounds(0, 0, 0).center()[axis];
    for (at[axis] = 1; at[axis] < cells[axis]; ++at[axis]) {
      const double center =
          grid.cell_bounds(at[0], at[1], at[2]).center()[axis];
      PICP_REQUIRE(center > previous,
                   "element centers must strictly increase along each axis "
                   "(elements narrower than the coordinates' rounding)");
      previous = center;
    }
  }
}

struct Bisection {
  const SpectralMesh& mesh;
  std::span<const double> weights;  // empty for the unweighted bisection
  std::vector<Rank>& owner;
  std::vector<Key>& keys;  // permuted in place during recursion

  ElementId id(Key k) const {
    return mesh.element_at(static_cast<std::int64_t>(ix_of(k)),
                           static_cast<std::int64_t>(iy_of(k)),
                           static_cast<std::int64_t>(iz_of(k)));
  }

  void assign(std::size_t begin, std::size_t end, Rank r) {
    for (std::size_t i = begin; i < end; ++i)
      owner[static_cast<std::size_t>(id(keys[i]))] = r;
  }

  // Longest axis of the box of the centers of keys[begin, end) (non-empty),
  // ties toward x: the centers of the extreme coordinates, computed as
  // element_center computes them, so the box holds the same doubles.
  int split_axis(std::size_t begin, std::size_t end) const {
    Key lo[3] = {kAxisMask, kAxisMask, kAxisMask};
    Key hi[3] = {0, 0, 0};
    for (std::size_t i = begin; i < end; ++i) {
      const Key c[3] = {ix_of(keys[i]), iy_of(keys[i]), iz_of(keys[i])};
      for (int a = 0; a < 3; ++a) {
        lo[a] = std::min(lo[a], c[a]);
        hi[a] = std::max(hi[a], c[a]);
      }
    }
    const GridIndexer& grid = mesh.indexer();
    const auto center = [&grid](const Key (&c)[3]) {
      return grid
          .cell_bounds(static_cast<std::int64_t>(c[0]),
                       static_cast<std::int64_t>(c[1]),
                       static_cast<std::int64_t>(c[2]))
          .center();
    };
    return Aabb(center(lo), center(hi)).longest_axis();
  }

  // Assign elements keys[begin, end) to ranks [r0, r1).
  void split_by_count(std::size_t begin, std::size_t end, Rank r0, Rank r1) {
    if (begin == end) return;  // more ranks than elements in this subtree
    if (r1 - r0 == 1) return assign(begin, end, r0);
    const Rank ranks = r1 - r0;
    const Rank left_ranks = ranks / 2;
    const std::size_t count = end - begin;
    // Elements proportional to the rank split, so odd rank counts stay
    // balanced.
    const std::size_t left_count =
        count * static_cast<std::size_t>(left_ranks) /
        static_cast<std::size_t>(ranks);
    const auto first = keys.begin() + static_cast<std::ptrdiff_t>(begin);
    const auto last = keys.begin() + static_cast<std::ptrdiff_t>(end);
    with_axis_order(split_axis(begin, end), [&](auto less) {
      std::nth_element(first, first + static_cast<std::ptrdiff_t>(left_count),
                       last, less);
    });
    split_by_count(begin, begin + left_count, r0, r0 + left_ranks);
    split_by_count(begin + left_count, end, r0 + left_ranks, r1);
  }

  // Assign elements keys[begin, end) to ranks [r0, r1), splitting weight
  // proportionally to the rank split.
  void split_by_weight(std::size_t begin, std::size_t end, Rank r0, Rank r1) {
    if (begin == end) return;  // more ranks than elements in this subtree
    if (r1 - r0 == 1) return assign(begin, end, r0);
    // A single element: the subtree's first rank owns it.
    if (end - begin == 1) return assign(begin, end, r0);
    const auto first = keys.begin() + static_cast<std::ptrdiff_t>(begin);
    const auto last = keys.begin() + static_cast<std::ptrdiff_t>(end);
    with_axis_order(split_axis(begin, end),
                    [&](auto less) { std::sort(first, last, less); });

    const Rank ranks = r1 - r0;
    const Rank left_ranks = ranks / 2;
    double total = 0.0;
    for (std::size_t i = begin; i < end; ++i)
      total += weights[static_cast<std::size_t>(id(keys[i]))];
    const double target = total * static_cast<double>(left_ranks) /
                          static_cast<double>(ranks);

    // Walk the sorted elements until the left side holds the target weight;
    // keep at least one element per side.
    std::size_t split = begin;
    double acc = 0.0;
    while (split < end && acc < target) {
      acc += weights[static_cast<std::size_t>(id(keys[split]))];
      ++split;
    }
    split = std::clamp(split, begin + 1, end - 1);

    split_by_weight(begin, split, r0, r0 + left_ranks);
    split_by_weight(split, end, r0 + left_ranks, r1);
  }
};

// Every element's key, in id order.
std::vector<Key> packed_keys(const SpectralMesh& mesh) {
  std::vector<Key> keys;
  keys.reserve(static_cast<std::size_t>(mesh.num_elements()));
  for (std::int64_t iz = 0; iz < mesh.nelz(); ++iz)
    for (std::int64_t iy = 0; iy < mesh.nely(); ++iy)
      for (std::int64_t ix = 0; ix < mesh.nelx(); ++ix)
        keys.push_back(pack(static_cast<Key>(iz), static_cast<Key>(iy),
                            static_cast<Key>(ix)));
  return keys;
}

}  // namespace

MeshPartition weighted_rcb_partition(const SpectralMesh& mesh, Rank num_ranks,
                                     std::span<const double> weights) {
  PICP_REQUIRE(num_ranks > 0, "weighted_rcb_partition needs ranks");
  PICP_REQUIRE(static_cast<std::int64_t>(weights.size()) ==
                   mesh.num_elements(),
               "one weight per element required");
  double total = 0.0;
  for (const double w : weights) {
    PICP_REQUIRE(w >= 0.0, "element weights must be non-negative");
    total += w;
  }
  if (total == 0.0) return rcb_partition(mesh, num_ranks);
  require_packable(mesh);

  std::vector<Key> keys = packed_keys(mesh);
  std::vector<Rank> owner(keys.size(), kInvalidRank);
  Bisection{mesh, weights, owner, keys}.split_by_weight(0, keys.size(), 0,
                                                        num_ranks);
  return MeshPartition(num_ranks, std::move(owner), mesh);
}

MeshPartition rcb_partition(const SpectralMesh& mesh, Rank num_ranks) {
  PICP_REQUIRE(num_ranks > 0, "rcb_partition needs at least one rank");
  require_packable(mesh);

  std::vector<Key> keys = packed_keys(mesh);
  std::vector<Rank> owner(keys.size(), kInvalidRank);
  Bisection{mesh, {}, owner, keys}.split_by_count(0, keys.size(), 0,
                                                  num_ranks);
  return MeshPartition(num_ranks, std::move(owner), mesh);
}

MeshPartition block_partition(const SpectralMesh& mesh, Rank num_ranks) {
  PICP_REQUIRE(num_ranks > 0, "block_partition needs at least one rank");
  const std::int64_t nel = mesh.num_elements();
  std::vector<Rank> owner(static_cast<std::size_t>(nel));
  for (std::int64_t e = 0; e < nel; ++e) {
    // Balanced contiguous chunks: first (nel % R) ranks get one extra.
    const std::int64_t r = e * num_ranks / nel;
    owner[static_cast<std::size_t>(e)] = static_cast<Rank>(r);
  }
  return MeshPartition(num_ranks, std::move(owner), mesh);
}

}  // namespace picp
