#include "mapping/mapper.hpp"

#include <optional>
#include <string_view>
#include <utility>

#include "mapping/bin_mapper.hpp"
#include "mapping/element_mapper.hpp"
#include "mapping/hilbert_mapper.hpp"
#include "mapping/weighted_mapper.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace picp {

namespace {

enum class MapperKind { kElement, kBin, kHilbert, kWeighted };

/// Every configuration name make_mapper accepts, after trim + lower-case.
constexpr std::pair<std::string_view, MapperKind> kMapperNames[] = {
    {"element", MapperKind::kElement}, {"element-based", MapperKind::kElement},
    {"bin", MapperKind::kBin},         {"bin-based", MapperKind::kBin},
    {"hilbert", MapperKind::kHilbert}, {"weighted", MapperKind::kWeighted},
    {"weighted-element", MapperKind::kWeighted}};

std::optional<MapperKind> find_mapper_kind(const std::string& kind) {
  const std::string k = to_lower(trim(kind));
  for (const auto& [name, value] : kMapperNames)
    if (k == name) return value;
  return std::nullopt;
}

}  // namespace

bool is_mapper_kind(const std::string& kind) {
  return find_mapper_kind(kind).has_value();
}

std::unique_ptr<Mapper> make_mapper(const std::string& kind,
                                    const SpectralMesh& mesh,
                                    const MeshPartition& partition,
                                    double bin_threshold,
                                    std::int64_t max_bins) {
  const std::optional<MapperKind> k = find_mapper_kind(kind);
  if (!k)
    throw Error("unknown mapper kind: '" + kind +
                "' (expected element | bin | hilbert | weighted)");
  switch (*k) {
    case MapperKind::kElement:
      return std::make_unique<ElementMapper>(mesh, partition);
    case MapperKind::kBin:
      return std::make_unique<BinMapper>(partition.num_ranks(), bin_threshold,
                                         max_bins);
    case MapperKind::kHilbert:
      return std::make_unique<HilbertMapper>(mesh, partition.num_ranks());
    case MapperKind::kWeighted:
      return std::make_unique<WeightedElementMapper>(mesh,
                                                     partition.num_ranks());
  }
  return nullptr;  // unreachable: the switch covers every kind
}

}  // namespace picp
