// Property-based tests: protocol invariants swept over cluster size, packet
// loss and RNG seed (TEST_P / INSTANTIATE_TEST_SUITE_P).
//
// Invariants checked (paper §2.5–§2.7):
//   I1  Agreed ordering: all members observe identical delivery sequences.
//   I2  Token uniqueness: never more than one EATING node at any sampled
//       instant during fault-free operation.
//   I3  Quiescent agreement: after faults stop, all live members converge
//       on the same membership.
//   I4  Atomicity: a message delivered by any stable member is delivered by
//       every stable member, exactly once.
//   I5  Mutual exclusion: exclusive sections never overlap.
#include <gtest/gtest.h>

#include "testing/sim_cluster.h"

namespace raincore {
namespace {

using session::Ordering;
using testing::SimCluster;

struct Params {
  std::size_t nodes;
  double drop;
  std::uint64_t seed;
};

std::string param_name(const ::testing::TestParamInfo<Params>& info) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "n%zu_drop%d_seed%llu", info.param.nodes,
                static_cast<int>(info.param.drop * 100),
                static_cast<unsigned long long>(info.param.seed));
  return buf;
}

class SessionProperty : public ::testing::TestWithParam<Params> {
 protected:
  std::unique_ptr<SimCluster> make_cluster() {
    const Params& p = GetParam();
    net::SimNetConfig ncfg;
    ncfg.default_drop = p.drop;
    ncfg.seed = p.seed;
    session::SessionConfig scfg;
    scfg.hungry_timeout = millis(1200);
    return std::make_unique<SimCluster>(testing::node_ids(p.nodes), scfg,
                                        ncfg);
  }
};

TEST_P(SessionProperty, AgreedOrderIdenticalEverywhere) {
  auto c = make_cluster();
  ASSERT_TRUE(c->bootstrap_via_join(seconds(60)));
  Rng rng(GetParam().seed);
  for (int i = 0; i < 40; ++i) {
    NodeId from = 1 + static_cast<NodeId>(rng.next_below(GetParam().nodes));
    c->send(from, "p" + std::to_string(i));
    c->run(millis(1 + rng.next_below(8)));
  }
  c->run(seconds(10));
  EXPECT_TRUE(c->check_agreed_order().empty()) << c->check_agreed_order();
  for (NodeId id : c->ids()) {
    EXPECT_EQ(c->delivered(id).size(), 40u) << "node " << id;  // I4
  }
}

TEST_P(SessionProperty, AtMostOneTokenHolderSampled) {
  auto c = make_cluster();
  ASSERT_TRUE(c->bootstrap_via_join(seconds(60)));
  for (int step = 0; step < 500; ++step) {
    c->run(millis(1));
    int holders = 0;
    for (NodeId id : c->ids()) {
      if (c->session(id).holds_token()) ++holders;
    }
    ASSERT_LE(holders, 1) << "two EATING nodes at step " << step;  // I2
  }
}

TEST_P(SessionProperty, ConvergesAfterRandomKill) {
  auto c = make_cluster();
  ASSERT_TRUE(c->bootstrap_via_join(seconds(60)));
  Rng rng(GetParam().seed * 31);
  c->run(millis(rng.next_below(200)));
  NodeId victim = 1 + static_cast<NodeId>(rng.next_below(GetParam().nodes));
  c->crash(victim);
  std::vector<NodeId> survivors;
  for (NodeId id : c->ids()) {
    if (id != victim) survivors.push_back(id);
  }
  EXPECT_TRUE(c->run_until_converged(survivors, seconds(30)));  // I3
  // Exactly one token after recovery.
  c->run(seconds(1));
  int regens = 0;
  for (NodeId id : survivors) {
    regens += static_cast<int>(c->session(id).stats().regenerations.value());
  }
  EXPECT_LE(regens, 1);
}

TEST_P(SessionProperty, MixedOrderingClassesShareOneTotalOrder) {
  // Agreed and safe messages interleave into a single total order at every
  // node (Totem-style holdback; see process_attached).
  auto c = make_cluster();
  ASSERT_TRUE(c->bootstrap_via_join(seconds(60)));
  Rng rng(GetParam().seed * 7);
  for (int i = 0; i < 24; ++i) {
    NodeId from = 1 + static_cast<NodeId>(rng.next_below(GetParam().nodes));
    Ordering o = rng.chance(0.4) ? Ordering::kSafe : Ordering::kAgreed;
    c->send(from, "x" + std::to_string(i), o);
    c->run(millis(1 + rng.next_below(10)));
  }
  c->run(seconds(15));
  EXPECT_TRUE(c->check_agreed_order().empty()) << c->check_agreed_order();
  for (NodeId id : c->ids()) {
    EXPECT_EQ(c->delivered(id).size(), 24u) << "node " << id;
  }
}

TEST_P(SessionProperty, ExclusiveSectionsNeverOverlap) {
  auto c = make_cluster();
  ASSERT_TRUE(c->bootstrap_via_join(seconds(60)));
  int active = 0, max_active = 0, total = 0;
  Rng rng(GetParam().seed * 97);
  for (int i = 0; i < 30; ++i) {
    NodeId at = 1 + static_cast<NodeId>(rng.next_below(GetParam().nodes));
    c->session(at).run_exclusive([&] {
      ++active;
      max_active = std::max(max_active, active);
      ++total;
      --active;
    });
    c->run(millis(rng.next_below(10)));
  }
  c->run(seconds(10));
  EXPECT_EQ(total, 30);
  EXPECT_EQ(max_active, 1);  // I5
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SessionProperty,
    ::testing::Values(Params{2, 0.0, 1}, Params{3, 0.0, 2}, Params{5, 0.0, 3},
                      Params{8, 0.0, 4}, Params{3, 0.02, 5},
                      Params{5, 0.02, 6}, Params{4, 0.05, 7},
                      Params{6, 0.05, 8}, Params{4, 0.10, 9},
                      Params{5, 0.10, 10}),
    param_name);

// --- Chaos: random kills, restarts and partitions, then heal ---------------

struct ChaosParams {
  std::uint64_t seed;
};

class SessionChaos : public ::testing::TestWithParam<ChaosParams> {};

TEST_P(SessionChaos, SurvivesAndConverges) {
  const std::uint64_t seed = GetParam().seed;
  net::SimNetConfig ncfg;
  ncfg.seed = seed;
  ncfg.default_drop = 0.01;
  session::SessionConfig scfg;
  scfg.hungry_timeout = millis(1000);
  std::vector<NodeId> ids = {1, 2, 3, 4, 5, 6};
  SimCluster c(ids, scfg, ncfg);
  ASSERT_TRUE(c.bootstrap_via_join(seconds(60)));

  Rng rng(seed * 1337);
  std::set<NodeId> down;
  int msg = 0;
  for (int round = 0; round < 12; ++round) {
    // Random multicasts from live nodes.
    for (int k = 0; k < 3; ++k) {
      NodeId from = ids[rng.next_below(ids.size())];
      if (down.count(from) == 0 && c.session(from).started()) {
        c.send(from, "chaos-" + std::to_string(msg++));
      }
    }
    // Random fault action.
    switch (rng.next_below(4)) {
      case 0: {  // kill someone (keep at least 2 alive)
        if (down.size() + 2 < ids.size()) {
          NodeId victim = ids[rng.next_below(ids.size())];
          if (down.count(victim) == 0) {
            c.crash(victim);
            down.insert(victim);
          }
        }
        break;
      }
      case 1: {  // restart someone
        if (!down.empty()) {
          NodeId back = *down.begin();
          down.erase(down.begin());
          c.net().set_node_up(back, true);
          std::vector<NodeId> contacts;
          for (NodeId id : ids) {
            if (down.count(id) == 0 && id != back) contacts.push_back(id);
          }
          if (!contacts.empty()) c.session(back).join(contacts);
        }
        break;
      }
      case 2: {  // transient partition
        c.net().partition({{1, 2, 3}, {4, 5, 6}});
        c.run(millis(500 + rng.next_below(1500)));
        c.net().heal_partition();
        break;
      }
      default:
        break;  // breather round
    }
    c.run(millis(300 + rng.next_below(700)));
  }

  // Restart everything that is down, heal, and require full convergence.
  c.net().heal_partition();
  for (NodeId back : down) {
    c.net().set_node_up(back, true);
    if (!c.session(back).started()) {
      std::vector<NodeId> contacts;
      for (NodeId id : ids) {
        if (id != back) contacts.push_back(id);
      }
      c.session(back).join(contacts);
    }
  }
  EXPECT_TRUE(c.run_until_converged(ids, seconds(120)))
      << "chaos run (seed " << seed << ") did not converge after healing";

  // And the group still works.
  c.send(ids[seed % ids.size()], "post-chaos");
  c.run(seconds(2));
  for (NodeId id : ids) {
    ASSERT_FALSE(c.delivered(id).empty()) << "node " << id;
    EXPECT_EQ(c.delivered(id).back().payload, "post-chaos") << "node " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionChaos,
                         ::testing::Values(ChaosParams{101}, ChaosParams{202},
                                           ChaosParams{303}, ChaosParams{404},
                                           ChaosParams{505}, ChaosParams{606},
                                           ChaosParams{707}, ChaosParams{808}),
                         [](const ::testing::TestParamInfo<ChaosParams>& pinfo) {
                           return "seed" + std::to_string(pinfo.param.seed);
                         });

// --- Token-hop batching properties -------------------------------------------
//
// Batching changed the wire format (multi-message AttachedBatch frames,
// per-visit byte budgets, the flush-deadline formation trigger) but must
// not change the delivery semantics the protocol promises:
//   B1  Any knob setting yields one identical total order at every node,
//       with exactly-once delivery, under loss and reordering.
//   B2  Per-origin delivery order equals that origin's send order (FIFO) —
//       the observable contract the pre-batching path provided.
//   B3  The bounded send queue never exceeds its cap when producers use
//       try_multicast, and backpressure is actually reported.

struct BatchParams {
  std::uint64_t seed;
  std::size_t max_batch_msgs;
  std::size_t max_batch_bytes;
  Time flush_deadline;
  double drop;
};

std::string batch_param_name(const ::testing::TestParamInfo<BatchParams>& i) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "seed%llu_m%zu_b%zu_d%d_drop%d",
                static_cast<unsigned long long>(i.param.seed),
                i.param.max_batch_msgs, i.param.max_batch_bytes,
                static_cast<int>(i.param.flush_deadline / kNanosPerMilli),
                static_cast<int>(i.param.drop * 100));
  return buf;
}

class BatchingProperty : public ::testing::TestWithParam<BatchParams> {
 protected:
  static constexpr std::size_t kNodes = 4;
  static constexpr int kMsgs = 60;

  session::SessionConfig knob_config() {
    const BatchParams& p = GetParam();
    session::SessionConfig cfg;
    cfg.hungry_timeout = millis(1200);
    cfg.max_batch_msgs = p.max_batch_msgs;
    cfg.max_batch_bytes = p.max_batch_bytes;
    cfg.flush_deadline = p.flush_deadline;
    return cfg;
  }

  /// Deterministic mixed-class schedule with random payload sizes; payload
  /// prefix "o<origin>-i<index>:" lets any observer reconstruct per-origin
  /// send order.
  void run_schedule(SimCluster& c, std::uint64_t seed) {
    Rng rng(seed * 101);
    std::map<NodeId, int> next_idx;
    for (int i = 0; i < kMsgs; ++i) {
      NodeId from = 1 + static_cast<NodeId>(rng.next_below(kNodes));
      Ordering o = rng.chance(0.3) ? Ordering::kSafe : Ordering::kAgreed;
      std::string payload = "o" + std::to_string(from) + "-i" +
                            std::to_string(next_idx[from]++) + ":" +
                            std::string(rng.next_below(700), 'p');
      c.send(from, payload, o);
      c.run(millis(rng.next_below(6)));
    }
    c.run(seconds(30));
  }

  /// B2: per-origin delivered indices are exactly 0,1,2,... at every node.
  void check_per_origin_fifo(SimCluster& c) {
    for (NodeId id : c.ids()) {
      std::map<NodeId, int> expect;
      for (const testing::Delivery& d : c.delivered(id)) {
        const std::string& s = d.payload;
        auto dash = s.find("-i");
        auto colon = s.find(':');
        ASSERT_NE(dash, std::string::npos);
        ASSERT_NE(colon, std::string::npos);
        int idx = std::stoi(s.substr(dash + 2, colon - dash - 2));
        EXPECT_EQ(idx, expect[d.origin]++)
            << "node " << id << ": origin " << d.origin
            << " delivered out of send order";
      }
    }
  }
};

TEST_P(BatchingProperty, TotalOrderAndExactlyOnceUnderAnyKnobs) {
  const BatchParams& p = GetParam();
  net::SimNetConfig ncfg;
  ncfg.default_drop = p.drop;
  ncfg.seed = p.seed;
  std::vector<NodeId> ids = testing::node_ids(kNodes);
  SimCluster c(ids, knob_config(), ncfg);
  ASSERT_TRUE(c.bootstrap_via_join(seconds(60)));

  run_schedule(c, p.seed);

  EXPECT_TRUE(c.check_agreed_order().empty()) << c.check_agreed_order();  // B1
  for (NodeId id : ids) {
    EXPECT_EQ(c.delivered(id).size(), static_cast<std::size_t>(kMsgs))
        << "node " << id;  // exactly-once
  }
  check_per_origin_fifo(c);  // B2
}

TEST_P(BatchingProperty, KnobsPreserveUnbatchedDeliverySemantics) {
  // Metamorphic equivalence: the same schedule under the default config
  // (the pre-batching semantics — drain every visit, unbounded practical
  // queue) and under the parameterised knobs must produce the same message
  // SET with the same per-origin order at every node. The global
  // interleaving may legally differ (attach timing shifts), which is why
  // the comparison is per-origin, not positional.
  const BatchParams& p = GetParam();
  std::vector<NodeId> ids = testing::node_ids(kNodes);

  auto origin_streams = [&](SimCluster& c) {
    // node -> origin -> payload prefixes in delivery order.
    std::map<NodeId, std::map<NodeId, std::vector<std::string>>> out;
    for (NodeId id : ids) {
      for (const testing::Delivery& d : c.delivered(id)) {
        out[id][d.origin].push_back(d.payload.substr(0, d.payload.find(':')));
      }
    }
    return out;
  };

  net::SimNetConfig ncfg;
  ncfg.default_drop = p.drop;
  ncfg.seed = p.seed;

  session::SessionConfig reference;  // defaults = pre-batching behaviour
  reference.hungry_timeout = millis(1200);
  SimCluster ref(ids, reference, ncfg);
  ASSERT_TRUE(ref.bootstrap_via_join(seconds(60)));
  run_schedule(ref, p.seed);
  ASSERT_TRUE(ref.check_agreed_order().empty());

  SimCluster knobbed(ids, knob_config(), ncfg);
  ASSERT_TRUE(knobbed.bootstrap_via_join(seconds(60)));
  run_schedule(knobbed, p.seed);
  ASSERT_TRUE(knobbed.check_agreed_order().empty());

  EXPECT_EQ(origin_streams(ref), origin_streams(knobbed))
      << "per-origin delivery streams must not depend on batching knobs";
}

TEST_P(BatchingProperty, BoundedQueueHoldsUnderTryOnlyProducers) {
  const BatchParams& p = GetParam();
  net::SimNetConfig ncfg;
  ncfg.default_drop = p.drop;
  ncfg.seed = p.seed;
  session::SessionConfig cfg = knob_config();
  constexpr std::size_t kCap = 8;
  cfg.max_queue_msgs = kCap;
  std::vector<NodeId> ids = testing::node_ids(kNodes);
  SimCluster c(ids, cfg, ncfg);
  ASSERT_TRUE(c.bootstrap_via_join(seconds(60)));

  // Offered load far above one visit's drain budget, admission via
  // try_multicast only: the queue must never exceed the cap (B3), refusals
  // must not burn sequence numbers, and every admitted message must still
  // deliver exactly once everywhere.
  Rng rng(p.seed * 13);
  session::SessionNode& producer = c.session(1);
  std::size_t accepted = 0, refused = 0;
  for (int i = 0; i < 400; ++i) {
    std::string s = "t" + std::to_string(i);
    if (producer.try_multicast(Bytes(s.begin(), s.end()))) {
      ++accepted;
    } else {
      ++refused;
    }
    ASSERT_LE(producer.pending_out(), kCap) << "queue exceeded its bound";
    if (rng.chance(0.25)) c.run(millis(1));
  }
  EXPECT_GT(refused, 0u) << "offered load should have hit backpressure";
  c.run(seconds(30));
  EXPECT_EQ(c.session(1).pending_out(), 0u);
  for (NodeId id : ids) {
    EXPECT_EQ(c.delivered(id).size(), accepted) << "node " << id;
  }
  EXPECT_TRUE(c.check_agreed_order().empty()) << c.check_agreed_order();
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, BatchingProperty,
    ::testing::Values(
        // Degenerate single-message frames: batching off in all but format.
        BatchParams{1, 1, 64, 0, 0.0},
        // Tiny byte budget forces multi-frame visits.
        BatchParams{2, 4, 256, 0, 0.02},
        // Deadline-driven formation under loss.
        BatchParams{3, 16, 2048, millis(5), 0.05},
        // Production-like knobs.
        BatchParams{4, 128, 1 << 20, millis(3), 0.0},
        // Small everything, long deadline.
        BatchParams{5, 8, 128, millis(10), 0.02},
        // Heavy loss.
        BatchParams{6, 64, 4096, millis(1), 0.10}),
    batch_param_name);

}  // namespace
}  // namespace raincore
