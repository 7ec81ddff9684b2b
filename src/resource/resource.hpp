// Generalized resource model (paper §III).
//
// "Flux ... introduces a generalized resource model that is extensible and
// covers any kind of resource and its relationships." Resources form a
// containment graph (center → cluster → rack → node → socket → core) with
// scalar resources (power watts, I/O bandwidth, memory) attached at any
// level. Types are open-ended strings so sites can model anything; the
// builders below construct the shapes used by the examples and benches.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/error.hpp"
#include "json/json.hpp"

namespace flux {

using ResourceId = std::uint64_t;
inline constexpr ResourceId kNoResource = ~0ULL;

struct ResourceVertex {
  ResourceId id = kNoResource;
  std::string type;      ///< "cluster", "rack", "node", "core", "power", ...
  std::string name;      ///< unique within its parent
  double capacity = 1;   ///< units for scalar types, 1 for structural
  ResourceId parent = kNoResource;
  std::vector<ResourceId> children;
};

class ResourceGraph {
 public:
  /// Create the root vertex; must be called first.
  ResourceId add_root(std::string type, std::string name, double capacity = 1);
  /// Attach a vertex beneath `parent`.
  ResourceId add(ResourceId parent, std::string type, std::string name,
                 double capacity = 1);

  [[nodiscard]] const ResourceVertex& at(ResourceId id) const;
  [[nodiscard]] ResourceId root() const noexcept { return vertices_.empty() ? kNoResource : 0; }
  [[nodiscard]] std::size_t size() const noexcept { return vertices_.size(); }

  /// All vertices of `type` in the subtree under `from` (inclusive).
  [[nodiscard]] std::vector<ResourceId> find(std::string_view type,
                                             ResourceId from) const;
  [[nodiscard]] std::vector<ResourceId> find(std::string_view type) const {
    return find(type, root());
  }

  /// Sum of `capacity` over `type` vertices in the subtree under `from`.
  [[nodiscard]] double total_capacity(std::string_view type,
                                      ResourceId from) const;
  [[nodiscard]] double total_capacity(std::string_view type) const {
    return total_capacity(type, root());
  }

  /// Dotted path from the root ("center.clusterA.rack0.node3").
  [[nodiscard]] std::string path(ResourceId id) const;

  /// JSON form — the shape resvc enumerates into the KVS.
  [[nodiscard]] Json to_json() const;
  static Expected<ResourceGraph> from_json(const Json& j);

  /// A center with `nclusters` clusters of `nracks` racks of
  /// `nodes_per_rack` nodes; each node carries cores, memory and a power
  /// budget; each cluster gets a filesystem-bandwidth resource (the paper's
  /// shared-file-system co-scheduling motivation).
  static ResourceGraph build_center(std::string name, unsigned nclusters,
                                    unsigned nracks, unsigned nodes_per_rack,
                                    unsigned cores_per_node = 16,
                                    double mem_gb_per_node = 32,
                                    double watts_per_node = 350,
                                    double fs_bandwidth_gbs = 100);

  /// A live session's inventory: one flat rack of `nranks` nodes of the
  /// shape below. Node vertex i is broker rank i.
  static ResourceGraph build_session(unsigned nranks);
  static constexpr unsigned kSessionCoresPerNode = 16;
  static constexpr unsigned kSessionMemGbPerNode = 32;

 private:
  [[nodiscard]] Json vertex_to_json(ResourceId id) const;
  std::vector<ResourceVertex> vertices_;
};

}  // namespace flux
