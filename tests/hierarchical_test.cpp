// Hierarchical Raincore (the §5 scalability extension): ring formation,
// leader election and fail-over, cross-ring multicast with exactly-once
// delivery, and behaviour when a whole ring dies.
#include <gtest/gtest.h>

#include "testing/sim_cluster.h"

namespace raincore {
namespace {

using session::HierarchyConfig;
using testing::SimCluster;

HierarchyConfig three_rings() {
  HierarchyConfig cfg;
  cfg.rings = {{1, 2, 3}, {11, 12, 13}, {21, 22, 23}};
  return cfg;
}

int count_delivered(SimCluster& c, NodeId at, const std::string& s) {
  int n = 0;
  for (const auto& d : c.delivered(at)) n += d.payload == s;
  return n;
}

TEST(HierarchicalTest, RingsFormAndLeadersConnect) {
  SimCluster c(three_rings());
  ASSERT_TRUE(c.bootstrap(seconds(40)));
  // Leaders are the lowest ids of each ring.
  EXPECT_TRUE(c.node(1).hier->is_leader());
  EXPECT_TRUE(c.node(11).hier->is_leader());
  EXPECT_TRUE(c.node(21).hier->is_leader());
  EXPECT_FALSE(c.node(2).hier->is_leader());
}

TEST(HierarchicalTest, CrossRingMulticastReachesEveryoneExactlyOnce) {
  SimCluster c(three_rings());
  ASSERT_TRUE(c.bootstrap(seconds(40)));

  c.send(12, "from-ring-1");
  c.send(2, "from-ring-0");
  c.run(seconds(3));

  for (NodeId id : c.ids()) {
    EXPECT_EQ(count_delivered(c, id, "from-ring-1"), 1) << "node " << id;
    EXPECT_EQ(count_delivered(c, id, "from-ring-0"), 1) << "node " << id;
  }
}

TEST(HierarchicalTest, FifoPerOriginAcrossRings) {
  SimCluster c(three_rings());
  ASSERT_TRUE(c.bootstrap(seconds(40)));

  for (int i = 0; i < 10; ++i) c.send(13, "seq-" + std::to_string(i));
  c.run(seconds(5));

  for (NodeId id : c.ids()) {
    std::vector<std::string> from13;
    for (const auto& d : c.delivered(id)) {
      if (d.origin == 13) from13.push_back(d.payload);
    }
    ASSERT_EQ(from13.size(), 10u) << "node " << id;
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(from13[i], "seq-" + std::to_string(i)) << "node " << id;
    }
  }
}

TEST(HierarchicalTest, LeaderFailoverElectsNextAndBridgesAgain) {
  SimCluster c(three_rings());
  ASSERT_TRUE(c.bootstrap(seconds(40)));

  // Kill ring 0's leader (node 1) — one endpoint carries both rings now.
  c.crash(1);

  ASSERT_TRUE(
      c.run_until([&] { return c.node(2).hier->is_leader(); }, seconds(20)))
      << "next-lowest member did not take over leadership";
  ASSERT_TRUE(c.run_until(
      [&] { return c.node(2).hier->global_view().members.size() == 3; },
      seconds(30)))
      << "new leader did not join the global ring";

  // Cross-ring traffic flows again.
  c.send(22, "after-failover");
  c.run(seconds(5));
  for (NodeId id : {2u, 3u, 11u, 12u, 13u, 21u, 22u, 23u}) {
    EXPECT_EQ(count_delivered(c, id, "after-failover"), 1) << "node " << id;
  }
}

TEST(HierarchicalTest, WholeRingDeathLeavesOthersWorking) {
  SimCluster c(three_rings());
  ASSERT_TRUE(c.bootstrap(seconds(40)));

  for (NodeId n : {11u, 12u, 13u}) {
    c.crash(n);
  }
  // Remaining leaders reconverge to a 2-member global ring.
  ASSERT_TRUE(c.run_until(
      [&] {
        return c.node(1).hier->global_view().members.size() == 2 &&
               c.node(21).hier->global_view().members.size() == 2;
      },
      seconds(30)));

  c.send(3, "two-rings-left");
  c.run(seconds(3));
  for (NodeId id : {1u, 2u, 3u, 21u, 22u, 23u}) {
    EXPECT_EQ(count_delivered(c, id, "two-rings-left"), 1) << "node " << id;
  }
}

TEST(HierarchicalTest, ScalesToManyRings) {
  HierarchyConfig cfg;
  for (NodeId r = 0; r < 6; ++r) {
    std::vector<NodeId> ring;
    for (NodeId k = 1; k <= 4; ++k) ring.push_back(r * 100 + k);
    cfg.rings.push_back(ring);
  }
  SimCluster c(cfg);
  ASSERT_TRUE(c.bootstrap(seconds(80)));
  c.send(304, "hello-24-nodes");
  c.run(seconds(5));
  for (NodeId id : c.ids()) {
    EXPECT_EQ(count_delivered(c, id, "hello-24-nodes"), 1) << "node " << id;
  }
}

}  // namespace
}  // namespace raincore
