// Generalized resource model and pools (paper §III).
#include <gtest/gtest.h>

#include "resource/pool.hpp"
#include "resource/resource.hpp"

namespace flux {
namespace {

ResourceGraph small_center() {
  // 2 clusters x 2 racks x 4 nodes = 16 nodes, 16 cores each.
  return ResourceGraph::build_center("center", 2, 2, 4, 16, 32, 350, 100);
}

TEST(ResourceGraph, BuildCenterShape) {
  ResourceGraph g = small_center();
  EXPECT_EQ(g.find("cluster").size(), 2u);
  EXPECT_EQ(g.find("rack").size(), 4u);
  EXPECT_EQ(g.find("node").size(), 16u);
  EXPECT_EQ(g.find("core").size(), 16u * 16u);
  EXPECT_DOUBLE_EQ(g.total_capacity("power"), 16 * 350.0);
  EXPECT_DOUBLE_EQ(g.total_capacity("bandwidth"), 200.0);
}

TEST(ResourceGraph, SubtreeScoping) {
  ResourceGraph g = small_center();
  const ResourceId cluster0 = g.find("cluster").front();
  EXPECT_EQ(g.find("node", cluster0).size(), 8u);
  EXPECT_DOUBLE_EQ(g.total_capacity("power", cluster0), 8 * 350.0);
}

TEST(ResourceGraph, PathNames) {
  ResourceGraph g = small_center();
  const ResourceId node = g.find("node").front();
  EXPECT_EQ(g.path(node), "center.cluster0.rack0.node0");
}

TEST(ResourceGraph, JsonRoundTrip) {
  ResourceGraph g = small_center();
  auto back = ResourceGraph::from_json(g.to_json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->size(), g.size());
  EXPECT_EQ(back->find("core").size(), g.find("core").size());
  EXPECT_EQ(back->to_json(), g.to_json());
}

TEST(ResourceGraph, FromJsonRejectsGarbage) {
  EXPECT_FALSE(ResourceGraph::from_json(Json(3)).has_value());
  EXPECT_FALSE(
      ResourceGraph::from_json(Json::object({{"type", "node"}})).has_value());
}

TEST(Pool, AllocateReleaseAccounting) {
  ResourceGraph g = small_center();
  ResourcePool pool(g);
  EXPECT_EQ(pool.total_nodes(), 16u);
  ResourceRequest req;
  req.nnodes = 5;
  req.power_w = 1000;
  auto alloc = pool.allocate(req);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(alloc->nodes.size(), 5u);
  EXPECT_EQ(pool.free_nodes(), 11u);
  EXPECT_DOUBLE_EQ(pool.power_in_use(), 1000);
  EXPECT_NEAR(pool.node_utilization(), 5.0 / 16.0, 1e-9);
  ASSERT_TRUE(pool.release(alloc->id).has_value());
  EXPECT_EQ(pool.free_nodes(), 16u);
  EXPECT_DOUBLE_EQ(pool.power_in_use(), 0);
}

TEST(Pool, RejectsInfeasibleAndOversized) {
  ResourceGraph g = small_center();
  ResourcePool pool(g);
  ResourceRequest too_wide;
  too_wide.nnodes = 17;
  EXPECT_FALSE(pool.feasible(too_wide));
  EXPECT_FALSE(pool.allocate(too_wide).has_value());
  ResourceRequest too_hot;
  too_hot.nnodes = 1;
  too_hot.power_w = 1e9;
  EXPECT_FALSE(pool.allocate(too_hot).has_value());
  ResourceRequest too_many_cores;
  too_many_cores.nnodes = 1;
  too_many_cores.cores_per_node = 64;
  EXPECT_FALSE(pool.allocate(too_many_cores).has_value());
}

TEST(Pool, RemoveTakesOnlyFreeNodesForGood) {
  ResourceGraph g = ResourceGraph::build_session(4);
  const std::vector<ResourceId> nodes = g.find("node");
  ResourcePool pool(g);
  ResourceRequest one;
  one.nnodes = 1;
  auto busy = pool.allocate(one);
  ASSERT_TRUE(busy.has_value());
  ASSERT_EQ(busy->nodes, std::vector<ResourceId>{nodes[0]});
  // A busy node is refused and stays allocated.
  EXPECT_FALSE(pool.remove(nodes[0]).has_value());
  EXPECT_EQ(pool.total_nodes(), 4u);
  // A free node leaves the pool; removing it twice is refused.
  ASSERT_TRUE(pool.remove(nodes[1]).has_value());
  EXPECT_FALSE(pool.remove(nodes[1]).has_value());
  EXPECT_EQ(pool.total_nodes(), 3u);
  EXPECT_EQ(pool.free_nodes(), 2u);
  ResourceRequest all_four;
  all_four.nnodes = 4;
  EXPECT_FALSE(pool.feasible(all_four));
  // Once everything is released, a full-width allocation never gets it.
  ASSERT_TRUE(pool.release(busy->id).has_value());
  ResourceRequest three;
  three.nnodes = 3;
  auto rest = pool.allocate(three);
  ASSERT_TRUE(rest.has_value());
  EXPECT_EQ(rest->nodes,
            (std::vector<ResourceId>{nodes[0], nodes[2], nodes[3]}));
  EXPECT_FALSE(pool.allocate(one).has_value());
}

TEST(Pool, PowerBudgetGatesConcurrency) {
  ResourceGraph g = small_center();
  ResourcePool pool(g);  // budget = 5600 W
  ResourceRequest req;
  req.nnodes = 1;
  req.power_w = 2000;
  ASSERT_TRUE(pool.allocate(req).has_value());
  ASSERT_TRUE(pool.allocate(req).has_value());
  // Third would exceed 5600.
  EXPECT_FALSE(pool.fits_now(req));
  EXPECT_FALSE(pool.allocate(req).has_value());
}

TEST(Pool, GrowAndShrink) {
  ResourceGraph g = small_center();
  ResourcePool pool(g);
  ResourceRequest req;
  req.nnodes = 4;
  auto alloc = pool.allocate(req);
  ASSERT_TRUE(alloc.has_value());
  ResourceRequest delta;
  delta.nnodes = 2;
  auto grown = pool.grow(alloc->id, delta);
  ASSERT_TRUE(grown.has_value());
  EXPECT_EQ(grown->size(), 2u);
  EXPECT_EQ(pool.lookup(alloc->id)->nodes.size(), 6u);
  auto freed = pool.shrink(alloc->id, delta);
  ASSERT_TRUE(freed.has_value());
  EXPECT_EQ(pool.lookup(alloc->id)->nodes.size(), 4u);
  EXPECT_EQ(pool.free_nodes(), 12u);
}

TEST(Pool, ShrinkMoreThanAllocatedRejected) {
  ResourceGraph g = small_center();
  ResourcePool pool(g);
  ResourceRequest req;
  req.nnodes = 2;
  auto alloc = pool.allocate(req);
  ASSERT_TRUE(alloc.has_value());
  ResourceRequest delta;
  delta.nnodes = 3;
  EXPECT_FALSE(pool.shrink(alloc->id, delta).has_value());
}

TEST(Pool, AdoptAndCedeMoveCapacityBetweenPools) {
  ResourceGraph g = small_center();
  ResourcePool parent(g);
  ResourceRequest carve;
  carve.nnodes = 6;
  carve.power_w = 2100;
  auto alloc = parent.allocate(carve);
  ASSERT_TRUE(alloc.has_value());
  ResourcePool child(g, alloc->nodes, alloc->power_w, 0);
  EXPECT_EQ(child.total_nodes(), 6u);
  EXPECT_DOUBLE_EQ(child.power_budget(), 2100);

  // Child gives two nodes back.
  ResourceRequest back;
  back.nnodes = 2;
  back.power_w = 700;
  auto ceded = child.cede(back);
  ASSERT_TRUE(ceded.has_value());
  EXPECT_EQ(child.total_nodes(), 4u);
  ASSERT_TRUE(parent.shrink_nodes(alloc->id, *ceded, 700, 0).has_value());
  EXPECT_EQ(parent.free_nodes(), 12u);

  // Parent grants one node more.
  ResourceRequest more;
  more.nnodes = 1;
  more.power_w = 350;
  auto granted = parent.grow(alloc->id, more);
  ASSERT_TRUE(granted.has_value());
  child.adopt(*granted, 350, 0);
  EXPECT_EQ(child.total_nodes(), 5u);
  EXPECT_DOUBLE_EQ(child.power_budget(), 1750);
}

TEST(Pool, OverBudgetDetection) {
  ResourceGraph g = small_center();
  ResourcePool pool(g);
  ResourceRequest req;
  req.nnodes = 2;
  req.power_w = 3000;
  ASSERT_TRUE(pool.allocate(req).has_value());
  EXPECT_FALSE(pool.over_power_budget());
  pool.set_power_budget(2000);  // dynamic cap below current use
  EXPECT_TRUE(pool.over_power_budget());
}

TEST(Pool, CoreConstraintSelectsWideNodes) {
  // Heterogeneous graph: 2 fat nodes (32 cores), 2 thin (8 cores).
  ResourceGraph g;
  const ResourceId root = g.add_root("cluster", "mixed");
  for (int i = 0; i < 4; ++i) {
    const ResourceId n = g.add(root, "node", "n" + std::to_string(i));
    const int cores = i < 2 ? 32 : 8;
    for (int c = 0; c < cores; ++c)
      g.add(n, "core", "c" + std::to_string(c));
  }
  ResourcePool pool(g);
  ResourceRequest req;
  req.nnodes = 2;
  req.cores_per_node = 16;
  auto alloc = pool.allocate(req);
  ASSERT_TRUE(alloc.has_value());
  for (ResourceId n : alloc->nodes)
    EXPECT_GE(g.find("core", n).size(), 16u);
  // A third wide node does not exist.
  ResourceRequest one_more = req;
  one_more.nnodes = 1;
  EXPECT_FALSE(pool.allocate(one_more).has_value());
}

TEST(Pool, CoreCountsHoldAcrossRemoveAndAdopt) {
  // 16 cores per node. The pool starts as cluster 0 (8 nodes) and adopts a
  // node of cluster 1 it has never held, so nine-node requests see it.
  ResourceGraph g = small_center();
  const std::vector<ResourceId> clusters = g.find("cluster");
  ResourcePool pool(g, clusters[0]);
  const ResourceId outsider = g.find("node", clusters[1]).front();
  const ResourceId insider = g.find("node", clusters[0]).front();
  auto check = [&](std::int64_t nnodes) {
    ResourceRequest req;
    req.nnodes = nnodes;
    req.cores_per_node = 17;
    EXPECT_FALSE(pool.feasible(req));
    req.cores_per_node = 16;
    EXPECT_TRUE(pool.feasible(req));
    EXPECT_TRUE(pool.fits_now(req));
    req.cores_per_node = 15;
    EXPECT_TRUE(pool.feasible(req));
  };
  check(8);
  pool.adopt({outsider}, 0, 0);
  check(9);
  ASSERT_TRUE(pool.remove(insider).has_value());
  check(8);
  pool.adopt({insider}, 0, 0);
  check(9);
  ResourceRequest all;
  all.nnodes = 9;
  all.cores_per_node = 16;
  auto alloc = pool.allocate(all);
  ASSERT_TRUE(alloc.has_value());
  EXPECT_EQ(alloc->nodes.size(), 9u);
}

}  // namespace
}  // namespace flux
