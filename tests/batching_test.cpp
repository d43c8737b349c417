// Token-hop batching and bounded flow control (session/token.h
// AttachedBatch, session_node.h batching knobs): batch formation and the
// flush-deadline deferral trigger, try_multicast backpressure, the
// flush-deadline-vs-token-loss race, and the seeded chaos + determinism
// sweep with batching enabled (ctest -L batching).
#include <gtest/gtest.h>

#include "testing/chaos_cluster.h"
#include "testing/sim_cluster.h"

namespace raincore {
namespace {

using session::Ordering;
using testing::ChaosProfile;
using testing::ChaosRoundResult;
using testing::run_multi_ring_round;
using testing::SimCluster;

double counter_of(const session::SessionNode& n, const std::string& name) {
  const metrics::Snapshot snap = n.metrics().snapshot();
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
}

// --- Batch formation ---------------------------------------------------------

TEST(BatchFormation, VisitCoalescesBacklogIntoBatchFrames) {
  session::SessionConfig cfg;
  cfg.token_hold = millis(2);
  cfg.max_batch_msgs = 64;
  SimCluster c({1, 2, 3}, cfg);
  ASSERT_TRUE(c.bootstrap_via_join());

  // Enqueue a burst while node 1 does not hold the token: the next visit
  // must drain it as a handful of batch frames, not 40 singletons.
  for (int i = 0; i < 40; ++i) c.send(1, "b" + std::to_string(i));
  c.run(seconds(2));

  for (NodeId id : c.ids()) {
    ASSERT_EQ(c.delivered(id).size(), 40u) << "node " << id;
  }
  EXPECT_TRUE(c.check_agreed_order().empty()) << c.check_agreed_order();
  const double batches = counter_of(c.session(1), "session.batch.attached");
  const double msgs = counter_of(c.session(1), "session.batch.msgs");
  EXPECT_EQ(msgs, 40.0);
  EXPECT_GE(batches, 1.0);
  EXPECT_LT(batches, 40.0) << "burst should coalesce, not ship singletons";
}

TEST(BatchFormation, ClassFlipClosesTheFrame) {
  // agreed,agreed,safe,agreed in one backlog: the safe message cannot share
  // a frame with its agreed neighbours, and delivery order (at every node)
  // is still exactly enqueue order.
  session::SessionConfig cfg;
  cfg.token_hold = millis(2);
  SimCluster c({1, 2, 3}, cfg);
  ASSERT_TRUE(c.bootstrap_via_join());

  c.send(1, "a0", Ordering::kAgreed);
  c.send(1, "a1", Ordering::kAgreed);
  c.send(1, "s0", Ordering::kSafe);
  c.send(1, "a2", Ordering::kAgreed);
  c.run(seconds(3));

  for (NodeId id : c.ids()) {
    ASSERT_EQ(c.delivered(id).size(), 4u) << "node " << id;
    EXPECT_EQ(c.delivered(id)[0].payload, "a0");
    EXPECT_EQ(c.delivered(id)[1].payload, "a1");
    EXPECT_EQ(c.delivered(id)[2].payload, "s0");
    EXPECT_EQ(c.delivered(id)[3].payload, "a2");
  }
  EXPECT_TRUE(c.check_agreed_order().empty()) << c.check_agreed_order();
  // One visit saw the whole backlog; the class flips force ≥ 3 frames.
  EXPECT_GE(counter_of(c.session(1), "session.batch.attached"), 3.0);
}

TEST(BatchFormation, OversizedMessageShipsAlone) {
  session::SessionConfig cfg;
  cfg.token_hold = millis(2);
  cfg.max_batch_bytes = 64;  // far below the payload below
  SimCluster c({1, 2, 3}, cfg);
  ASSERT_TRUE(c.bootstrap_via_join());

  c.send(1, std::string(4096, 'x'));
  c.send(1, "tail");
  c.run(seconds(3));
  for (NodeId id : c.ids()) {
    ASSERT_EQ(c.delivered(id).size(), 2u) << "node " << id;
    EXPECT_EQ(c.delivered(id)[0].payload.size(), 4096u);
    EXPECT_EQ(c.delivered(id)[1].payload, "tail");
  }
}

TEST(BatchFormation, FlushDeadlineDefersSlivers) {
  session::SessionConfig cfg;
  cfg.token_hold = millis(2);
  cfg.max_batch_msgs = 32;
  cfg.flush_deadline = millis(60);
  SimCluster c({1, 2, 3}, cfg);
  ASSERT_TRUE(c.bootstrap_via_join());

  c.send(1, "sliver");
  // Well under the deadline: several visits pass, none may attach yet.
  c.run(millis(30));
  EXPECT_EQ(c.delivered(1).size(), 0u) << "sliver must defer to fill";
  EXPECT_GE(counter_of(c.session(1), "session.batch.deferrals"), 1.0);
  // Past the deadline the sliver must flush even though the batch never
  // filled.
  c.run(seconds(2));
  for (NodeId id : c.ids()) {
    ASSERT_EQ(c.delivered(id).size(), 1u) << "node " << id;
    EXPECT_EQ(c.delivered(id)[0].payload, "sliver");
  }
}

TEST(BatchFormation, FullBatchFlushesBeforeDeadline) {
  session::SessionConfig cfg;
  cfg.token_hold = millis(2);
  cfg.max_batch_msgs = 8;
  cfg.flush_deadline = seconds(30);  // absurd: only the fill trigger fires
  SimCluster c({1, 2, 3}, cfg);
  ASSERT_TRUE(c.bootstrap_via_join());

  for (int i = 0; i < 8; ++i) c.send(1, "f" + std::to_string(i));
  c.run(seconds(2));
  for (NodeId id : c.ids()) {
    ASSERT_EQ(c.delivered(id).size(), 8u)
        << "full batch must not wait out the deadline (node " << id << ")";
  }
}

TEST(BatchFormation, LeavingNodeFlushesDespiteDeadline) {
  session::SessionConfig cfg;
  cfg.token_hold = millis(2);
  cfg.flush_deadline = seconds(30);
  SimCluster c({1, 2, 3}, cfg);
  ASSERT_TRUE(c.bootstrap_via_join());

  c.send(2, "parting");
  c.session(2).leave();
  c.run(seconds(3));
  for (NodeId id : {1, 3}) {
    ASSERT_EQ(c.delivered(id).size(), 1u) << "node " << id;
    EXPECT_EQ(c.delivered(id)[0].payload, "parting");
  }
}

// --- Bounded queue / backpressure --------------------------------------------

TEST(Backpressure, TryMulticastRefusesWhenMsgBoundHit) {
  session::SessionConfig cfg;
  cfg.token_hold = millis(2);
  cfg.max_queue_msgs = 4;
  SimCluster c({1, 2, 3}, cfg);
  ASSERT_TRUE(c.bootstrap_via_join());

  // Without running the loop the queue cannot drain: exactly the first 4
  // are admitted, the rest refuse without consuming sequence numbers.
  session::SessionNode& n = c.session(1);
  int accepted = 0, refused = 0;
  std::optional<MsgSeq> last;
  for (int i = 0; i < 10; ++i) {
    std::string s = "q" + std::to_string(i);
    auto seq = n.try_multicast(Bytes(s.begin(), s.end()));
    if (seq) {
      if (last) {
        EXPECT_EQ(*seq, *last + 1) << "refusals must not burn seqs";
      }
      last = seq;
      ++accepted;
    } else {
      ++refused;
    }
  }
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(refused, 6);
  EXPECT_EQ(n.pending_out(), 4u);
  EXPECT_EQ(counter_of(n, "session.backpressure_stalls"), 6.0);

  // The admitted messages flow normally once the ring runs.
  c.run(seconds(2));
  for (NodeId id : c.ids()) {
    ASSERT_EQ(c.delivered(id).size(), 4u) << "node " << id;
  }
  EXPECT_TRUE(c.check_agreed_order().empty()) << c.check_agreed_order();
}

TEST(Backpressure, TryMulticastRefusesWhenByteBoundHit) {
  session::SessionConfig cfg;
  cfg.max_queue_bytes = 100;
  SimCluster c({1, 2, 3}, cfg);
  ASSERT_TRUE(c.bootstrap_via_join());

  session::SessionNode& n = c.session(1);
  EXPECT_TRUE(n.try_multicast(Bytes(60, 'a')).has_value());
  EXPECT_FALSE(n.try_multicast(Bytes(60, 'b')).has_value())
      << "60+60 exceeds the 100-byte bound";
  EXPECT_TRUE(n.try_multicast(Bytes(10, 'c')).has_value());
  EXPECT_EQ(n.pending_out_bytes(), 70u);
}

TEST(Backpressure, OversizedMessageAdmittedIntoEmptyQueue) {
  // A lone message larger than max_queue_bytes must not wedge forever: the
  // byte bound only refuses when the queue is non-empty.
  session::SessionConfig cfg;
  cfg.max_queue_bytes = 100;
  SimCluster c({1, 2, 3}, cfg);
  ASSERT_TRUE(c.bootstrap_via_join());
  EXPECT_TRUE(c.session(1).try_multicast(Bytes(5000, 'x')).has_value());
  c.run(seconds(2));
  for (NodeId id : c.ids()) {
    ASSERT_EQ(c.delivered(id).size(), 1u) << "node " << id;
  }
}

TEST(Backpressure, ForceMulticastBypassesBound) {
  // Protocol-internal senders (open-submit forwarding, re-proposals) must
  // never drop: plain multicast() keeps force-enqueue semantics.
  session::SessionConfig cfg;
  cfg.max_queue_msgs = 2;
  SimCluster c({1, 2, 3}, cfg);
  ASSERT_TRUE(c.bootstrap_via_join());
  for (int i = 0; i < 6; ++i) c.send(1, "f" + std::to_string(i));
  EXPECT_EQ(c.session(1).pending_out(), 6u);
  c.run(seconds(2));
  for (NodeId id : c.ids()) {
    ASSERT_EQ(c.delivered(id).size(), 6u) << "node " << id;
  }
}

// --- Flush-deadline vs token loss --------------------------------------------

TEST(BatchingRaces, DeferredMessagesSurviveTokenHolderCrash) {
  // The race: a sender is deferring its backlog (deadline not yet reached)
  // when the token dies with its current holder. Deferred messages sit in
  // the sender's local pending_out_ queue — they are NOT on the lost token —
  // so 911 regeneration must neither lose nor duplicate them; they attach
  // after recovery and deliver exactly once, in enqueue order.
  session::SessionConfig cfg;
  cfg.token_hold = millis(2);
  cfg.hungry_timeout = millis(400);
  cfg.max_batch_msgs = 64;
  cfg.flush_deadline = millis(250);
  SimCluster c({1, 2, 3, 4}, cfg);
  ASSERT_TRUE(c.bootstrap_via_join());

  // Find a moment where some node other than 1 holds the token.
  NodeId victim = 0;
  for (int i = 0; i < 1000 && victim == 0; ++i) {
    c.run(millis(1));
    for (NodeId id : {2, 3, 4}) {
      if (c.session(id).holds_token()) {
        victim = id;
        break;
      }
    }
  }
  ASSERT_NE(victim, 0u) << "no non-sender token holder observed";

  // Enqueue the deferred backlog at node 1, then immediately kill the
  // holder — the deadline (250 ms) is far beyond the recovery time, so the
  // messages are still deferring when the token dies.
  for (int i = 0; i < 5; ++i) c.send(1, "race" + std::to_string(i));
  c.crash(victim);

  std::vector<NodeId> survivors;
  for (NodeId id : c.ids()) {
    if (id != victim) survivors.push_back(id);
  }
  ASSERT_TRUE(c.run_until_converged(survivors, seconds(30)));
  c.run(seconds(2));

  for (NodeId id : survivors) {
    ASSERT_EQ(c.delivered(id).size(), 5u) << "node " << id;
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(c.delivered(id)[static_cast<std::size_t>(i)].payload,
                "race" + std::to_string(i));
    }
  }
  EXPECT_TRUE(c.check_agreed_order().empty()) << c.check_agreed_order();
}

// --- Chaos sweep + determinism with batching enabled -------------------------

ChaosProfile batching_profile() {
  ChaosProfile p;
  p.max_batch_msgs = 16;
  p.max_batch_bytes = 2048;
  p.flush_deadline = millis(5);
  return p;
}

class BatchingChaosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchingChaosSweep, MultiRingRoundHasNoViolations) {
  // The full 13-fault-class schedule over 4 nodes × 3 rings, with batch
  // formation (including the deferral trigger) live on every ring. The
  // oracles (total order, exactly-once, membership agreement) must stay
  // clean — batching changed the wire format, not the semantics.
  ChaosRoundResult res = run_multi_ring_round(GetParam(), millis(1500), 4, 3,
                                              batching_profile());
  EXPECT_TRUE(res.violations.empty()) << res.report;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchingChaosSweep,
                         ::testing::Range<std::uint64_t>(1, 26));

TEST(BatchingDeterminism, SameSeedBitIdenticalWithBatching) {
  ChaosRoundResult a =
      run_multi_ring_round(7, millis(1500), 4, 3, batching_profile());
  ChaosRoundResult b =
      run_multi_ring_round(7, millis(1500), 4, 3, batching_profile());
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.violations, b.violations);
  // Counter-for-counter, gauge-for-gauge bit equality across the replay.
  EXPECT_TRUE(a.metrics == b.metrics) << "metrics snapshots diverged";
}

TEST(BatchingDeterminism, ZeroProfileMatchesDefaultKnobs) {
  // A zero-valued profile leaves the session defaults untouched: the same
  // seed must replay bit-identically with and without the profile struct's
  // new fields present — the guard that keeps every pre-batching seeded
  // schedule stable.
  ChaosRoundResult a = run_multi_ring_round(11, millis(1200), 4, 3, {});
  ChaosProfile zeroed;  // all batching fields at their zero defaults
  ChaosRoundResult b = run_multi_ring_round(11, millis(1200), 4, 3, zeroed);
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.violations, b.violations);
}

}  // namespace
}  // namespace raincore
