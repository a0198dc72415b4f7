#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mesh/spectral_mesh.hpp"

namespace picp {

using Rank = std::int32_t;
constexpr Rank kInvalidRank = -1;

/// Assignment of spectral elements to processors, produced by the recursive
/// coordinate bisection partitioner (CMT-nek distributes elements with a
/// recursive-bisection algorithm [Hsieh et al.] to minimize grid exchange).
class MeshPartition {
 public:
  MeshPartition(Rank num_ranks, std::vector<Rank> element_owner,
                const SpectralMesh& mesh);

  Rank num_ranks() const { return num_ranks_; }

  Rank owner_of(ElementId e) const {
    return element_owner_[static_cast<std::size_t>(e)];
  }

  const std::vector<Rank>& element_owners() const { return element_owner_; }

  /// Number of elements owned by each rank.
  const std::vector<std::int64_t>& elements_per_rank() const {
    return elements_per_rank_;
  }

  /// Largest / smallest per-rank element count (load-balance diagnostics).
  std::int64_t max_elements_per_rank() const;
  std::int64_t min_elements_per_rank() const;

 private:
  Rank num_ranks_;
  std::vector<Rank> element_owner_;
  std::vector<std::int64_t> elements_per_rank_;
};

/// Recursive coordinate bisection of the mesh's elements across `num_ranks`
/// processors. Splits the longest axis of the current element subset's
/// bounding box at the element that divides the count proportionally to the
/// rank split (supports non-power-of-two rank counts such as the paper's
/// 1044). Ties in the center break by element id. Deterministic. Throws
/// picp::Error, before allocating, when an axis has 2^21 or more elements or
/// element centers do not strictly increase along an axis.
MeshPartition rcb_partition(const SpectralMesh& mesh, Rank num_ranks);

/// Weighted recursive coordinate bisection: like rcb_partition, but splits
/// so each side receives element *weight* proportional to its rank share
/// (weights = grid work + particle load, after Zhai et al.'s load-balanced
/// partitioning). `weights` must have one non-negative entry per element;
/// all-zero weights fall back to counting elements. Same mesh limits as
/// rcb_partition.
MeshPartition weighted_rcb_partition(const SpectralMesh& mesh, Rank num_ranks,
                                     std::span<const double> weights);

/// Simple lexicographic block partition (elements in x-fastest order split
/// into R contiguous chunks). Used as a baseline and in tests.
MeshPartition block_partition(const SpectralMesh& mesh, Rank num_ranks);

}  // namespace picp
