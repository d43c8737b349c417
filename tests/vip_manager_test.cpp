// Virtual IP manager: mutually exclusive assignment, balanced spread,
// fail-over with gratuitous ARP, and manual moves.
#include <gtest/gtest.h>

#include <memory>

#include "testing/sim_cluster.h"

namespace raincore {
namespace {

using apps::Subnet;
using apps::VipConfig;
using apps::VipManager;

using testing::SimCluster;
using testing::SimStack;

const std::vector<std::string> kPool = {"10.0.0.1", "10.0.0.2", "10.0.0.3",
                                        "10.0.0.4"};

/// Each node runs a VipManager for kPool on the cluster's shared subnet.
SimCluster vip_cluster(std::vector<NodeId> ids) {
  SimStack stack = SimStack::channels();
  stack.vips = VipConfig{kPool, 100};
  return SimCluster(std::move(ids), {}, {}, stack);
}

/// Joins every node through node 1 (each join rebalances the pool), then
/// lets the VIP assignment settle.
::testing::AssertionResult start(SimCluster& c) {
  if (!c.bootstrap_via_join(seconds(5))) {
    return ::testing::AssertionFailure() << "no ring formed";
  }
  c.run(seconds(5));
  return ::testing::AssertionSuccess();
}

/// Each VIP owned by exactly one live node, consistently across replicas.
bool assignment_consistent(SimCluster& c, const std::vector<NodeId>& live) {
  for (const std::string& vip : kPool) {
    std::optional<NodeId> expect;
    for (NodeId id : live) {
      auto o = c.node(id).vips->owner_of(vip);
      if (!o) return false;
      if (!expect) expect = o;
      if (*o != *expect) return false;
    }
    if (std::find(live.begin(), live.end(), *expect) == live.end())
      return false;
  }
  return true;
}

TEST(VipManagerTest, AllVipsAssignedAfterBootstrap) {
  SimCluster c = vip_cluster({1, 2});
  ASSERT_TRUE(start(c));
  EXPECT_TRUE(assignment_consistent(c, {1, 2}));
  // Every VIP answered by the subnet ARP cache.
  for (const auto& vip : kPool) {
    EXPECT_TRUE(c.subnet().resolve(vip).has_value()) << vip;
  }
}

TEST(VipManagerTest, AssignmentIsBalanced) {
  SimCluster c = vip_cluster({1, 2, 3, 4});
  ASSERT_TRUE(start(c));
  // 4 VIPs over 4 nodes: each serves exactly one.
  for (NodeId id : c.ids()) {
    EXPECT_EQ(c.node(id).vips->my_vips().size(), 1u) << "node " << id;
  }
}

TEST(VipManagerTest, NoVipOwnedByTwoNodes) {
  SimCluster c = vip_cluster({1, 2, 3});
  ASSERT_TRUE(start(c));
  std::map<std::string, int> claim_count;
  for (NodeId id : c.ids()) {
    for (const auto& vip : c.node(id).vips->my_vips()) claim_count[vip]++;
  }
  for (const auto& vip : kPool) {
    EXPECT_EQ(claim_count[vip], 1) << vip << " claimed by multiple nodes";
  }
}

TEST(VipManagerTest, FailoverMovesVipsToSurvivors) {
  SimCluster c = vip_cluster({1, 2, 3});
  ASSERT_TRUE(start(c));
  ASSERT_TRUE(assignment_consistent(c, {1, 2, 3}));
  std::size_t arps_before = c.subnet().arp_log().size();

  c.crash(3);
  c.run(seconds(5));

  EXPECT_TRUE(assignment_consistent(c, {1, 2}))
      << "VIPs of the failed node were not taken over";
  // Subnet must route every VIP to a live node ("the virtual IPs never
  // disappear as long as at least one physical node is functional").
  for (const auto& vip : kPool) {
    auto owner = c.subnet().resolve(vip);
    ASSERT_TRUE(owner.has_value()) << vip;
    EXPECT_NE(*owner, 3u) << vip << " still routed to the dead node";
  }
  EXPECT_GT(c.subnet().arp_log().size(), arps_before)
      << "no gratuitous ARP was sent for the moved VIPs";
}

TEST(VipManagerTest, CascadeToSingleSurvivor) {
  SimCluster c = vip_cluster({1, 2, 3, 4});
  ASSERT_TRUE(start(c));
  for (NodeId victim : {4u, 3u, 2u}) {
    c.crash(victim);
    c.run(seconds(5));
  }
  // The last node serves the whole pool.
  EXPECT_EQ(c.node(1).vips->my_vips().size(), kPool.size());
  for (const auto& vip : kPool) {
    EXPECT_EQ(*c.subnet().resolve(vip), 1u) << vip;
  }
}

TEST(VipManagerTest, ManualMoveRelocatesVip) {
  SimCluster c = vip_cluster({1, 2});
  ASSERT_TRUE(start(c));
  const std::string vip = kPool[0];
  NodeId owner = *c.node(1).vips->owner_of(vip);
  NodeId target = owner == 1 ? 2 : 1;
  c.node(1).vips->move(vip, target);
  c.run(seconds(2));
  EXPECT_EQ(*c.node(1).vips->owner_of(vip), target);
  EXPECT_EQ(*c.node(2).vips->owner_of(vip), target);
  EXPECT_EQ(*c.subnet().resolve(vip), target);
}

TEST(VipManagerTest, JoinerTriggersRebalanceTowardEvenSpread) {
  SimCluster c = vip_cluster({1, 2, 3, 4});
  // Start with only node 1: it owns all 4 VIPs.
  c.session(1).found();
  c.run(seconds(2));
  EXPECT_EQ(c.node(1).vips->my_vips().size(), 4u);
  // Three nodes join; the rebalancer must spread the pool 1/1/1/1.
  c.session(2).join({1});
  c.session(3).join({1});
  c.session(4).join({1});
  c.run(seconds(8));
  for (NodeId id : c.ids()) {
    EXPECT_EQ(c.node(id).vips->my_vips().size(), 1u) << "node " << id;
  }
}

TEST(VipManagerTest, MergeFormedClusterRebalancesToEvenSpread) {
  // Regression: four nodes that each found alone and then merge by
  // discovery used to leave one node serving the whole pool — the merge
  // reconcile wiped the rebalancer's in-flight writes without reporting
  // them, so it waited forever for writes that would never land.
  SimCluster c = vip_cluster({1, 2, 3, 4});
  ASSERT_TRUE(c.bootstrap(seconds(10)));
  EXPECT_TRUE(c.run_until(
      [&] {
        for (NodeId id : c.ids()) {
          if (c.node(id).vips->my_vips().size() != 1) return false;
        }
        return true;
      },
      seconds(5)));
  for (NodeId id : c.ids()) {
    EXPECT_EQ(c.node(id).vips->my_vips().size(), 1u) << "node " << id;
  }
  EXPECT_TRUE(assignment_consistent(c, c.ids()));
}

TEST(VipManagerTest, RestartedNodeRebalancesCleanly) {
  // Regression: a crash-restarted node used to keep its pre-crash `mine_`
  // set and replica, so re-granted VIPs fired no gratuitous ARP and the
  // subnet kept routing them to the wrong node.
  SimCluster c = vip_cluster({1, 2});
  ASSERT_TRUE(start(c));
  c.crash(2);
  c.run(seconds(4));
  ASSERT_EQ(c.node(1).vips->my_vips().size(), kPool.size());

  c.net().set_node_up(2, true);
  c.session(2).join({1});
  c.run(seconds(8));
  // Balanced 2/2 again, and the subnet agrees with the assignment map.
  EXPECT_EQ(c.node(1).vips->my_vips().size(), 2u);
  EXPECT_EQ(c.node(2).vips->my_vips().size(), 2u);
  for (const auto& vip : kPool) {
    auto owner = c.node(1).vips->owner_of(vip);
    ASSERT_TRUE(owner.has_value()) << vip;
    ASSERT_TRUE(c.subnet().resolve(vip).has_value()) << vip;
    EXPECT_EQ(*c.subnet().resolve(vip), *owner)
        << vip << ": subnet ARP disagrees with assignment";
  }
}

TEST(VipManagerTest, ManualMoveInSteadyStateIsNotFoughtByRebalancer) {
  SimCluster c = vip_cluster({1, 2});
  ASSERT_TRUE(start(c));
  // Move everything to node 2 manually (diff > 1): steady-state moves are
  // operator decisions and must stand.
  for (const auto& vip : kPool) c.node(1).vips->move(vip, 2);
  c.run(seconds(3));
  EXPECT_EQ(c.node(2).vips->my_vips().size(), kPool.size());
  EXPECT_EQ(c.node(1).vips->my_vips().size(), 0u);
}

TEST(VipManagerTest, GainLossCallbacksFire) {
  SimCluster c = vip_cluster({1, 2});
  int gains = 0, losses = 0;
  c.node(1).vips->set_gain_handler([&](const std::string&) { ++gains; });
  c.node(1).vips->set_loss_handler([&](const std::string&) { ++losses; });
  ASSERT_TRUE(start(c));
  // Node 1 founds alone (gains everything), then cedes a share when node 2
  // joins; the running balance must always equal current ownership.
  EXPECT_EQ(gains - losses, static_cast<int>(c.node(1).vips->my_vips().size()));
  EXPECT_GT(gains, 0);
  // Kill node 2 → node 1 takes over the whole pool.
  int losses_before = losses;
  c.crash(2);
  c.run(seconds(5));
  EXPECT_EQ(c.node(1).vips->my_vips().size(), 4u);
  EXPECT_EQ(gains - losses, 4);
  EXPECT_EQ(losses, losses_before) << "takeover must not lose VIPs";
}

}  // namespace
}  // namespace raincore
