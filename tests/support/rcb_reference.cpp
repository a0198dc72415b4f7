#include "support/rcb_reference.hpp"

#include <algorithm>
#include <numeric>

#include "util/error.hpp"

namespace picp::testing {

namespace {

struct Context {
  const SpectralMesh& mesh;
  std::span<const double> weights;  // empty for the unweighted bisection
  std::vector<Rank>& owner;
  std::vector<ElementId>& ids;  // permuted in place during recursion
};

auto center_order(const Context& ctx, int axis) {
  return [&ctx, axis](ElementId a, ElementId b) {
    const double ca = ctx.mesh.element_center(a)[axis];
    const double cb = ctx.mesh.element_center(b)[axis];
    if (ca != cb) return ca < cb;
    return a < b;  // deterministic tie-break
  };
}

// Longest axis of the box of the centers of ids[begin, end).
int split_axis(const Context& ctx, std::size_t begin, std::size_t end) {
  Aabb box;
  for (std::size_t i = begin; i < end; ++i)
    box.expand(ctx.mesh.element_center(ctx.ids[i]));
  return box.valid() ? box.longest_axis() : 0;
}

void assign(Context& ctx, std::size_t begin, std::size_t end, Rank r) {
  for (std::size_t i = begin; i < end; ++i)
    ctx.owner[static_cast<std::size_t>(ctx.ids[i])] = r;
}

// Assign elements ids[begin, end) to ranks [r0, r1).
void recurse(Context& ctx, std::size_t begin, std::size_t end, Rank r0,
             Rank r1) {
  if (r1 - r0 == 1) return assign(ctx, begin, end, r0);
  const int axis = split_axis(ctx, begin, end);

  const Rank ranks = r1 - r0;
  const Rank left_ranks = ranks / 2;
  const std::size_t count = end - begin;
  // Elements proportional to the rank split, so odd rank counts stay balanced.
  std::size_t left_count = count * static_cast<std::size_t>(left_ranks) /
                           static_cast<std::size_t>(ranks);
  left_count = std::min(left_count, count);

  const auto first = ctx.ids.begin() + static_cast<std::ptrdiff_t>(begin);
  std::nth_element(first, first + static_cast<std::ptrdiff_t>(left_count),
                   ctx.ids.begin() + static_cast<std::ptrdiff_t>(end),
                   center_order(ctx, axis));

  recurse(ctx, begin, begin + left_count, r0, r0 + left_ranks);
  recurse(ctx, begin + left_count, end, r0 + left_ranks, r1);
}

// Assign elements ids[begin, end) to ranks [r0, r1), splitting weight
// proportionally to the rank split.
void weighted_recurse(Context& ctx, std::size_t begin, std::size_t end,
                      Rank r0, Rank r1) {
  if (begin == end) return;  // more ranks than elements in this subtree
  if (r1 - r0 == 1) return assign(ctx, begin, end, r0);
  // A single element: the subtree's first rank owns it.
  if (end - begin == 1) return assign(ctx, begin, end, r0);
  const int axis = split_axis(ctx, begin, end);

  std::sort(ctx.ids.begin() + static_cast<std::ptrdiff_t>(begin),
            ctx.ids.begin() + static_cast<std::ptrdiff_t>(end),
            center_order(ctx, axis));

  const Rank ranks = r1 - r0;
  const Rank left_ranks = ranks / 2;
  double total = 0.0;
  for (std::size_t i = begin; i < end; ++i)
    total += ctx.weights[static_cast<std::size_t>(ctx.ids[i])];
  const double target = total * static_cast<double>(left_ranks) /
                        static_cast<double>(ranks);

  // Walk the sorted elements until the left side holds the target weight;
  // keep at least one element per side.
  std::size_t split = begin;
  double acc = 0.0;
  while (split < end && acc < target) {
    acc += ctx.weights[static_cast<std::size_t>(ctx.ids[split])];
    ++split;
  }
  split = std::clamp(split, begin + 1, end - 1);

  weighted_recurse(ctx, begin, split, r0, r0 + left_ranks);
  weighted_recurse(ctx, split, end, r0 + left_ranks, r1);
}

}  // namespace

std::vector<Rank> rcb_reference(const SpectralMesh& mesh, Rank num_ranks) {
  PICP_REQUIRE(num_ranks > 0, "rcb_reference needs at least one rank");
  const auto nel = static_cast<std::size_t>(mesh.num_elements());
  std::vector<Rank> owner(nel, kInvalidRank);
  std::vector<ElementId> ids(nel);
  std::iota(ids.begin(), ids.end(), ElementId{0});
  Context ctx{mesh, {}, owner, ids};
  recurse(ctx, 0, nel, 0, num_ranks);
  return owner;
}

std::vector<Rank> weighted_rcb_reference(const SpectralMesh& mesh,
                                         Rank num_ranks,
                                         std::span<const double> weights) {
  PICP_REQUIRE(num_ranks > 0, "weighted_rcb_reference needs ranks");
  PICP_REQUIRE(static_cast<std::int64_t>(weights.size()) ==
                   mesh.num_elements(),
               "one weight per element required");
  double total = 0.0;
  for (const double w : weights) {
    PICP_REQUIRE(w >= 0.0, "element weights must be non-negative");
    total += w;
  }
  if (total == 0.0) return rcb_reference(mesh, num_ranks);

  const auto nel = static_cast<std::size_t>(mesh.num_elements());
  std::vector<Rank> owner(nel, kInvalidRank);
  std::vector<ElementId> ids(nel);
  std::iota(ids.begin(), ids.end(), ElementId{0});
  Context ctx{mesh, weights, owner, ids};
  weighted_recurse(ctx, 0, nel, 0, num_ranks);
  return owner;
}

}  // namespace picp::testing
