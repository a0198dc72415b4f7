#pragma once

// The (element center, element id) form of the two recursive coordinate
// bisections that `rcb_partition` and `weighted_rcb_partition` evaluate on
// packed integer keys. Each comparison reads the elements' centers through
// `SpectralMesh::element_center`, and each subset's box expands over every
// member's center. Tests hold the packed-key bisections equal to these,
// owner for owner.

#include <span>
#include <vector>

#include "mesh/partition.hpp"

namespace picp::testing {

/// Owner of each element under recursive coordinate bisection: split the
/// longest axis of the subset's box of centers at the element that divides
/// the count in proportion to the rank split, ordering by (center on that
/// axis, id).
std::vector<Rank> rcb_reference(const SpectralMesh& mesh, Rank num_ranks);

/// Owner of each element under weighted bisection: sort the subset by
/// (center, id) on the longest axis and walk it until the left side holds
/// its rank share of the weight. All-zero weights fall back to
/// `rcb_reference`.
std::vector<Rank> weighted_rcb_reference(const SpectralMesh& mesh,
                                         Rank num_ranks,
                                         std::span<const double> weights);

}  // namespace picp::testing
