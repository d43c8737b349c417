// Distributed synchronisation primitives: barrier, counter, queue — all
// replicated state machines over the agreed multicast stream.
#include <gtest/gtest.h>

#include <memory>

#include "data/sync_primitives.h"
#include "testing/sim_cluster.h"

namespace raincore {
namespace {

using data::DistributedBarrier;
using data::DistributedCounter;
using data::DistributedQueue;
using testing::SimCluster;
using testing::SimStack;

struct SyncPrims {
  std::unique_ptr<DistributedBarrier> barrier;
  std::unique_ptr<DistributedCounter> counter;
  std::unique_ptr<DistributedQueue> queue;
};

/// Attaches a barrier (channel 1), a counter (channel 2) and a queue
/// (channel 3) to every node's ChannelMux.
std::map<NodeId, SyncPrims> attach_prims(SimCluster& c) {
  std::map<NodeId, SyncPrims> out;
  for (NodeId id : c.ids()) {
    data::ChannelMux& chan = *c.node(id).chan;
    SyncPrims& p = out[id];
    p.barrier = std::make_unique<DistributedBarrier>(chan, 1, c.ids().size());
    p.counter = std::make_unique<DistributedCounter>(chan, 2);
    p.queue = std::make_unique<DistributedQueue>(chan, 3);
  }
  return out;
}

TEST(BarrierTest, ReleasesOnlyWhenAllArrive) {
  SimCluster c({1, 2, 3}, {}, {}, SimStack::channels());
  auto p = attach_prims(c);
  ASSERT_TRUE(c.bootstrap());
  std::map<NodeId, int> released;
  for (NodeId id : c.ids()) {
    p.at(id).barrier->set_released_handler(
        [&released, id](std::uint64_t) { released[id]++; });
  }
  p.at(1).barrier->arrive();
  p.at(2).barrier->arrive();
  c.run(seconds(1));
  EXPECT_EQ(released[1], 0) << "barrier released before all parties arrived";
  p.at(3).barrier->arrive();
  c.run(seconds(1));
  for (NodeId id : c.ids()) {
    EXPECT_EQ(released[id], 1) << "node " << id;
    EXPECT_EQ(p.at(id).barrier->generation(), 1u);
  }
}

TEST(BarrierTest, IsReusableAcrossGenerations) {
  SimCluster c({1, 2}, {}, {}, SimStack::channels());
  auto p = attach_prims(c);
  ASSERT_TRUE(c.bootstrap());
  int released = 0;
  p.at(1).barrier->set_released_handler([&](std::uint64_t) { ++released; });
  for (int round = 0; round < 3; ++round) {
    p.at(1).barrier->arrive();
    p.at(2).barrier->arrive();
    c.run(seconds(1));
  }
  EXPECT_EQ(released, 3);
}

TEST(BarrierTest, DoubleArrivalCountsOnce) {
  SimCluster c({1, 2}, {}, {}, SimStack::channels());
  auto p = attach_prims(c);
  ASSERT_TRUE(c.bootstrap());
  int released = 0;
  p.at(1).barrier->set_released_handler([&](std::uint64_t) { ++released; });
  p.at(1).barrier->arrive();
  p.at(1).barrier->arrive();  // same node, same generation
  c.run(seconds(1));
  EXPECT_EQ(released, 0);
  EXPECT_EQ(p.at(1).barrier->waiting(), 1u);
}

TEST(CounterTest, ConcurrentAddsConvergeIdentically) {
  SimCluster c({1, 2, 3}, {}, {}, SimStack::channels());
  auto p = attach_prims(c);
  ASSERT_TRUE(c.bootstrap());
  for (int i = 0; i < 10; ++i) {
    p.at(1).counter->add(1);
    p.at(2).counter->add(10);
    p.at(3).counter->add(-2);
  }
  c.run(seconds(3));
  for (NodeId id : c.ids()) {
    EXPECT_EQ(p.at(id).counter->value(), 90) << "node " << id;
  }
}

TEST(CounterTest, FetchCallbackSeesPostOpValue) {
  SimCluster c({1, 2}, {}, {}, SimStack::channels());
  auto p = attach_prims(c);
  ASSERT_TRUE(c.bootstrap());
  std::vector<std::int64_t> seen;
  p.at(1).counter->add(5, [&](std::int64_t v) { seen.push_back(v); });
  c.run(seconds(1));
  p.at(2).counter->add(3);
  c.run(seconds(1));
  p.at(1).counter->add(1, [&](std::int64_t v) { seen.push_back(v); });
  c.run(seconds(1));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], 5);
  EXPECT_EQ(seen[1], 9);
}

TEST(CounterTest, UniqueTicketAllocation) {
  // fetch-add as a cluster-wide unique id allocator.
  SimCluster c({1, 2, 3, 4}, {}, {}, SimStack::channels());
  auto p = attach_prims(c);
  ASSERT_TRUE(c.bootstrap());
  std::set<std::int64_t> tickets;
  for (NodeId id : c.ids()) {
    for (int k = 0; k < 5; ++k) {
      p.at(id).counter->add(1, [&](std::int64_t v) { tickets.insert(v); });
    }
  }
  c.run(seconds(3));
  EXPECT_EQ(tickets.size(), 20u) << "duplicate tickets allocated";
  EXPECT_EQ(*tickets.begin(), 1);
  EXPECT_EQ(*tickets.rbegin(), 20);
}

TEST(QueueTest, PushPopFifoAcrossNodes) {
  SimCluster c({1, 2}, {}, {}, SimStack::channels());
  auto p = attach_prims(c);
  ASSERT_TRUE(c.bootstrap());
  p.at(1).queue->push("a");
  p.at(1).queue->push("b");
  c.run(seconds(1));
  std::optional<std::string> got;
  p.at(2).queue->try_pop([&](std::optional<std::string> v) { got = v; });
  c.run(seconds(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "a");
  for (NodeId id : c.ids()) {
    EXPECT_EQ(p.at(id).queue->size(), 1u) << "node " << id;
  }
}

TEST(QueueTest, EachItemPoppedByExactlyOneNode) {
  SimCluster c({1, 2, 3}, {}, {}, SimStack::channels());
  auto p = attach_prims(c);
  ASSERT_TRUE(c.bootstrap());
  for (int i = 0; i < 9; ++i) p.at(1).queue->push("item" + std::to_string(i));
  c.run(seconds(1));
  std::multiset<std::string> popped;
  int empties = 0;
  for (NodeId id : c.ids()) {
    for (int k = 0; k < 3; ++k) {
      p.at(id).queue->try_pop([&](std::optional<std::string> v) {
        if (v) {
          popped.insert(*v);
        } else {
          ++empties;
        }
      });
    }
  }
  c.run(seconds(3));
  EXPECT_EQ(popped.size(), 9u);
  EXPECT_EQ(empties, 0);
  // No duplicates: every item exactly once.
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(popped.count("item" + std::to_string(i)), 1u);
  }
  for (NodeId id : c.ids()) {
    EXPECT_EQ(p.at(id).queue->size(), 0u);
  }
}

TEST(QueueTest, PopOnEmptyReturnsNullopt) {
  SimCluster c({1, 2}, {}, {}, SimStack::channels());
  auto p = attach_prims(c);
  ASSERT_TRUE(c.bootstrap());
  bool called = false;
  std::optional<std::string> got = std::string("sentinel");
  p.at(1).queue->try_pop([&](std::optional<std::string> v) {
    called = true;
    got = v;
  });
  c.run(seconds(1));
  EXPECT_TRUE(called);
  EXPECT_FALSE(got.has_value());
}

}  // namespace
}  // namespace raincore
