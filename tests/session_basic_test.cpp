// Session Service basics: group formation, token circulation, membership
// agreement, multicast ordering and the mutual exclusion service.
#include <gtest/gtest.h>

#include "testing/sim_cluster.h"

namespace raincore {
namespace {

using session::Ordering;
using session::SessionNode;
using testing::SimCluster;

TEST(SessionBasic, SingletonGroupFormsAndDeliversToSelf) {
  SimCluster c({1});
  c.session(1).found();
  c.send(1, "hello");
  c.run(millis(100));
  ASSERT_EQ(c.delivered(1).size(), 1u);
  EXPECT_EQ(c.delivered(1)[0].payload, "hello");
  EXPECT_EQ(c.delivered(1)[0].origin, 1u);
  EXPECT_EQ(c.session(1).view().members, std::vector<NodeId>{1});
}

TEST(SessionBasic, FoundAllMergesIntoOneGroupViaDiscovery) {
  SimCluster c({1, 2, 3, 4});
  c.found_all();
  ASSERT_TRUE(c.run_until_converged({1, 2, 3, 4}, seconds(10)))
      << "discovery/merge did not unify the groups";
  // Group ID is the lowest node id.
  EXPECT_EQ(c.session(3).view().group_id, 1u);
}

TEST(SessionBasic, BootstrapViaJoin) {
  SimCluster c({1, 2, 3, 4, 5});
  ASSERT_TRUE(c.bootstrap_via_join());
}

TEST(SessionBasic, TokenCirculates) {
  SimCluster c({1, 2, 3});
  ASSERT_TRUE(c.bootstrap_via_join());
  auto before = c.session(2).stats().tokens_received.value();
  c.run(seconds(1));
  auto after = c.session(2).stats().tokens_received.value();
  EXPECT_GT(after, before + 10) << "token is not circulating";
}

TEST(SessionBasic, AgreedMulticastReachesAllMembers) {
  SimCluster c({1, 2, 3, 4});
  ASSERT_TRUE(c.bootstrap_via_join());
  c.send(2, "from-2");
  c.send(4, "from-4");
  c.run(seconds(1));
  for (NodeId id : c.ids()) {
    ASSERT_EQ(c.delivered(id).size(), 2u) << "node " << id;
  }
  EXPECT_TRUE(c.check_agreed_order().empty()) << c.check_agreed_order();
}

TEST(SessionBasic, AgreedOrderingIsIdenticalEverywhere) {
  SimCluster c({1, 2, 3, 4, 5});
  ASSERT_TRUE(c.bootstrap_via_join());
  // Interleave sends from several origins over time.
  for (int round = 0; round < 10; ++round) {
    for (NodeId id : c.ids()) {
      c.send(id, "r" + std::to_string(round) + "-n" + std::to_string(id));
      c.run(millis(3));
    }
  }
  c.run(seconds(2));
  for (NodeId id : c.ids()) {
    ASSERT_EQ(c.delivered(id).size(), 50u) << "node " << id;
  }
  EXPECT_TRUE(c.check_agreed_order().empty()) << c.check_agreed_order();
}

TEST(SessionBasic, SafeMulticastDeliversAfterExtraRound) {
  SimCluster c({1, 2, 3});
  ASSERT_TRUE(c.bootstrap_via_join());
  c.send(1, "safe-msg", Ordering::kSafe);
  c.run(seconds(2));
  for (NodeId id : c.ids()) {
    ASSERT_EQ(c.delivered(id).size(), 1u) << "node " << id;
    EXPECT_EQ(c.delivered(id)[0].ordering, Ordering::kSafe);
    EXPECT_EQ(c.delivered(id)[0].payload, "safe-msg");
  }
}

TEST(SessionBasic, SafeDeliveryIsLaterThanAgreedForSameSubmission) {
  SimCluster c({1, 2, 3, 4});
  ASSERT_TRUE(c.bootstrap_via_join());
  c.send(1, "agreed", Ordering::kAgreed);
  c.send(1, "safe", Ordering::kSafe);
  c.run(seconds(2));
  // On a non-origin node, "agreed" must be delivered before "safe" even
  // though both were submitted together: safe costs one extra round (§2.6).
  const auto& d = c.delivered(3);
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(d[0].payload, "agreed");
  EXPECT_EQ(d[1].payload, "safe");
}

TEST(SessionBasic, MutualExclusionRunsExactlyOnceAndWhileEating) {
  SimCluster c({1, 2, 3});
  ASSERT_TRUE(c.bootstrap_via_join());
  int runs = 0;
  bool was_eating = false;
  c.session(2).run_exclusive([&] {
    ++runs;
    was_eating = c.session(2).holds_token();
  });
  c.run(seconds(1));
  EXPECT_EQ(runs, 1);
  EXPECT_TRUE(was_eating);
}

TEST(SessionBasic, ExclusiveSectionsDoNotOverlapAcrossNodes) {
  SimCluster c({1, 2, 3, 4});
  ASSERT_TRUE(c.bootstrap_via_join());
  int active = 0;
  int max_active = 0;
  int total = 0;
  for (NodeId id : c.ids()) {
    for (int k = 0; k < 5; ++k) {
      c.session(id).run_exclusive([&] {
        ++active;
        max_active = std::max(max_active, active);
        ++total;
        --active;
      });
    }
  }
  c.run(seconds(2));
  EXPECT_EQ(total, 20);
  EXPECT_EQ(max_active, 1);
}

TEST(SessionBasic, GracefulLeaveShrinksMembership) {
  SimCluster c({1, 2, 3, 4});
  ASSERT_TRUE(c.bootstrap_via_join());
  c.session(3).leave();
  ASSERT_TRUE(c.run_until_converged({1, 2, 4}, seconds(5)));
  EXPECT_FALSE(c.session(3).started());
}

TEST(SessionBasic, VisitEndHandlerRunsOnEveryVisitIncludingTheLeavingOne) {
  SimCluster c({1, 2, 3});
  ASSERT_TRUE(c.bootstrap_via_join());
  int visits = 0;
  int after_leave = 0;  // visit ends observed once the node had stopped
  c.session(3).set_visit_end_handler([&] {
    ++visits;
    if (!c.session(3).started()) ++after_leave;
  });
  c.run(millis(200));
  EXPECT_GT(visits, 0);
  EXPECT_EQ(after_leave, 0);
  // The leaving visit passes the token and stops without arming a hold
  // timer; its visit end must still fire (the WAL commit rides it).
  c.session(3).leave();
  ASSERT_TRUE(c.run_until_converged({1, 2}, seconds(5)));
  EXPECT_EQ(after_leave, 1);
}

TEST(SessionBasic, ViewChangeCallbacksAreMonotonic) {
  SimCluster c({1, 2, 3});
  ASSERT_TRUE(c.bootstrap_via_join());
  const auto& vs = c.node(1).views.at(0);
  ASSERT_FALSE(vs.empty());
  for (std::size_t i = 1; i < vs.size(); ++i) {
    EXPECT_GE(vs[i].view_id, vs[i - 1].view_id);
  }
}

TEST(SessionBasic, MulticastBeforeJoinIsDeliveredOnceMember) {
  SimCluster c({1, 2});
  c.session(1).found();
  c.run(millis(50));
  c.session(2).join({1});
  c.send(2, "early");  // queued while still joining
  ASSERT_TRUE(c.run_until_converged({1, 2}, seconds(5)));
  c.run(seconds(1));
  ASSERT_EQ(c.delivered(1).size(), 1u);
  EXPECT_EQ(c.delivered(1)[0].payload, "early");
}

TEST(SessionBasic, OpenGroupSubmitReachesWholeGroup) {
  // §2.6: "a node can send a message to any member of the Raincore group,
  // and that member then forwards the message to the entire group."
  SimCluster c({1, 2, 3, 9});  // node 9 stays outside the group
  c.session(1).found();
  c.session(2).join({1});
  c.session(3).join({1});
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, seconds(10)));

  std::string s = "from-outside";
  c.session(9).submit_open(2, Bytes(s.begin(), s.end()));
  c.run(seconds(1));
  for (NodeId id : {1u, 2u, 3u}) {
    ASSERT_EQ(c.delivered(id).size(), 1u) << "node " << id;
    EXPECT_EQ(c.delivered(id)[0].payload, "from-outside");
    EXPECT_EQ(c.delivered(id)[0].origin, 2u) << "gateway member is the origin";
  }
  EXPECT_TRUE(c.delivered(9).empty()) << "outsider is not a group member";
}

TEST(SessionBasic, LargeGroupConverges) {
  SimCluster c(testing::node_ids(16));
  ASSERT_TRUE(c.bootstrap_via_join(seconds(30)));
  c.send(7, "big-group");
  c.run(seconds(2));
  for (NodeId id : c.ids()) {
    ASSERT_EQ(c.delivered(id).size(), 1u) << "node " << id;
  }
}

}  // namespace
}  // namespace raincore
