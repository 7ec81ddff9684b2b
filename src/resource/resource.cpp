#include "resource/resource.hpp"

#include <stdexcept>

namespace flux {

ResourceId ResourceGraph::add_root(std::string type, std::string name,
                                   double capacity) {
  if (!vertices_.empty())
    throw std::logic_error("resource graph already has a root");
  vertices_.push_back(ResourceVertex{0, std::move(type), std::move(name),
                                     capacity, kNoResource, {}});
  return 0;
}

ResourceId ResourceGraph::add(ResourceId parent, std::string type,
                              std::string name, double capacity) {
  if (parent >= vertices_.size())
    throw std::out_of_range("resource graph: bad parent");
  const ResourceId id = vertices_.size();
  vertices_.push_back(ResourceVertex{id, std::move(type), std::move(name),
                                     capacity, parent, {}});
  vertices_[parent].children.push_back(id);
  return id;
}

const ResourceVertex& ResourceGraph::at(ResourceId id) const {
  return vertices_.at(id);
}

std::vector<ResourceId> ResourceGraph::find(std::string_view type,
                                            ResourceId from) const {
  std::vector<ResourceId> out;
  if (from == kNoResource || from >= vertices_.size()) return out;
  std::vector<ResourceId> stack{from};
  while (!stack.empty()) {
    const ResourceId id = stack.back();
    stack.pop_back();
    const ResourceVertex& v = vertices_[id];
    if (v.type == type) out.push_back(id);
    for (auto it = v.children.rbegin(); it != v.children.rend(); ++it)
      stack.push_back(*it);
  }
  return out;
}

double ResourceGraph::total_capacity(std::string_view type,
                                     ResourceId from) const {
  double total = 0;
  for (ResourceId id : find(type, from)) total += vertices_[id].capacity;
  return total;
}

std::string ResourceGraph::path(ResourceId id) const {
  const ResourceVertex& v = at(id);
  if (v.parent == kNoResource) return v.name;
  return path(v.parent) + "." + v.name;
}

Json ResourceGraph::vertex_to_json(ResourceId id) const {
  const ResourceVertex& v = vertices_[id];
  Json children = Json::array();
  for (ResourceId c : v.children) children.push_back(vertex_to_json(c));
  return Json::object({{"type", v.type},
                       {"name", v.name},
                       {"capacity", v.capacity},
                       {"children", std::move(children)}});
}

Json ResourceGraph::to_json() const {
  if (vertices_.empty()) return Json();
  return vertex_to_json(0);
}

namespace {
Status parse_vertex(ResourceGraph& g, const Json& j, ResourceId parent) {
  if (!j.is_object()) return Error(errc::proto, "resource: expected object");
  const std::string type = j.get_string("type");
  const std::string name = j.get_string("name");
  if (type.empty() || name.empty())
    return Error(errc::proto, "resource: vertex needs type and name");
  const double capacity = j.get_double("capacity", 1.0);
  const ResourceId id = (parent == kNoResource)
                            ? g.add_root(type, name, capacity)
                            : g.add(parent, type, name, capacity);
  for (const Json& c : j.at("children").is_array()
                           ? j.at("children").as_array()
                           : JsonArray{}) {
    if (auto st = parse_vertex(g, c, id); !st) return st;
  }
  return {};
}
}  // namespace

Expected<ResourceGraph> ResourceGraph::from_json(const Json& j) {
  ResourceGraph g;
  if (auto st = parse_vertex(g, j, kNoResource); !st) return st.error();
  return g;
}

ResourceGraph ResourceGraph::build_center(std::string name, unsigned nclusters,
                                          unsigned nracks,
                                          unsigned nodes_per_rack,
                                          unsigned cores_per_node,
                                          double mem_gb_per_node,
                                          double watts_per_node,
                                          double fs_bandwidth_gbs) {
  ResourceGraph g;
  const ResourceId center = g.add_root("center", std::move(name));
  for (unsigned c = 0; c < nclusters; ++c) {
    const ResourceId cluster =
        g.add(center, "cluster", "cluster" + std::to_string(c));
    g.add(cluster, "bandwidth", "fs", fs_bandwidth_gbs);
    for (unsigned r = 0; r < nracks; ++r) {
      const ResourceId rack = g.add(cluster, "rack", "rack" + std::to_string(r));
      for (unsigned n = 0; n < nodes_per_rack; ++n) {
        const ResourceId node = g.add(rack, "node", "node" + std::to_string(n));
        g.add(node, "memory", "mem", mem_gb_per_node);
        g.add(node, "power", "power", watts_per_node);
        for (unsigned k = 0; k < cores_per_node; ++k)
          g.add(node, "core", "core" + std::to_string(k));
      }
    }
  }
  return g;
}

ResourceGraph ResourceGraph::build_session(unsigned nranks) {
  return build_center("session", 1, 1, nranks, kSessionCoresPerNode,
                      kSessionMemGbPerNode);
}

}  // namespace flux
