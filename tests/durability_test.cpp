// Durable data plane: persist/recover across process lifetimes, rejoin
// reconciliation (no resurrection of deleted entries), full-cluster restart
// recovery, and the seeded restart-storm sweep with the durability oracle.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/shard_router.h"
#include "net/sim_network.h"
#include "session/session_mux.h"
#include "testing/chaos_cluster.h"

namespace raincore {
namespace {

namespace fs = std::filesystem;
using testing::ChaosRoundResult;
using testing::run_durability_round;

constexpr data::Channel kMapChannel = 1;
constexpr data::Channel kLockChannel = 2;

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("raincore-dur-" + std::to_string(::getpid()) + "-" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
};

/// Minimal durable stack per node — enough control to crash, wipe, restart
/// and rebuild nodes individually (the chaos harness owns the storm case).
struct DurNode {
  std::unique_ptr<session::SessionMux> mux;
  std::unique_ptr<data::ShardedDataPlane> plane;
  std::unique_ptr<data::ShardedMap> map;
  std::unique_ptr<data::ShardedLockManager> locks;
};

struct DurCluster {
  net::SimNetwork net;
  session::SessionConfig scfg;
  storage::StorageConfig stcfg;
  std::size_t n_shards;
  std::vector<NodeId> ids;
  std::map<NodeId, DurNode> nodes;

  DurCluster(std::vector<NodeId> node_ids, const std::string& root,
             std::size_t shards, std::uint64_t net_seed = 42)
      : net([net_seed] {
          net::SimNetConfig c;
          c.seed = net_seed;
          return c;
        }()),
        n_shards(shards),
        ids(std::move(node_ids)) {
    scfg.eligible = ids;
    stcfg.dir = root;  // per-node subdir applied in build()
    stcfg.snapshot_every = 64;
    for (NodeId id : ids) build(id);
  }

  void build(NodeId id) {
    auto& env = net.add_node(id);
    DurNode n;
    n.mux = std::make_unique<session::SessionMux>(env, scfg.transport);
    storage::StorageConfig cfg = stcfg;
    cfg.dir = stcfg.dir + "/node" + std::to_string(id);
    n.plane = std::make_unique<data::ShardedDataPlane>(*n.mux, n_shards,
                                                       scfg, 0, cfg);
    n.map = std::make_unique<data::ShardedMap>(*n.plane, kMapChannel);
    n.locks = std::make_unique<data::ShardedLockManager>(*n.plane,
                                                         kLockChannel);
    nodes.erase(id);
    nodes.emplace(id, std::move(n));
  }

  /// found() installs the founding singleton view synchronously, so any
  /// recovery MUST happen before it — the shadow is adopted at that view.
  void start_all(bool recover = false) {
    for (NodeId id : ids) {
      ASSERT_TRUE(nodes.at(id).plane->open_storage());
      if (recover) nodes.at(id).plane->recover_storage();
      nodes.at(id).plane->found_all();
    }
  }

  void run(Time d) { net.loop().run_for(d); }

  bool converged(const std::vector<NodeId>& live) {
    for (NodeId id : live) {
      if (!nodes.at(id).plane->all_converged(live.size())) return false;
      if (!nodes.at(id).map->synced()) return false;
    }
    return true;
  }

  ::testing::AssertionResult wait_converged(const std::vector<NodeId>& live,
                                            Time timeout = millis(8000)) {
    Time deadline = net.now() + timeout;
    while (net.now() < deadline) {
      if (converged(live)) return ::testing::AssertionSuccess();
      net.loop().run_for(millis(10));
    }
    return ::testing::AssertionFailure() << "cluster did not converge";
  }

  /// Power-cut + stop: the unsynced WAL tail is gone, the node is dark.
  void crash(NodeId id) {
    nodes.at(id).plane->crash_storage();
    nodes.at(id).mux->set_enabled(false);
    net.set_node_up(id, false);
  }

  /// Restart from disk: recover the shadow BEFORE the rings re-found.
  void restart(NodeId id) {
    net.set_node_up(id, true);
    nodes.at(id).mux->set_enabled(true);
    ASSERT_TRUE(nodes.at(id).plane->open_storage());
    nodes.at(id).plane->recover_storage();
    nodes.at(id).plane->found_all();
  }
};

TEST_F(DurabilityTest, SingleNodePersistsAcrossFullTeardown) {
  const std::string root = root_.string();
  {
    DurCluster c({1}, root, /*shards=*/2);
    c.start_all();
    ASSERT_TRUE(c.wait_converged({1}));
    for (int i = 0; i < 40; ++i) {
      c.nodes.at(1).map->put("key" + std::to_string(i),
                             "val" + std::to_string(i));
    }
    c.nodes.at(1).map->erase("key7");
    c.run(millis(500));
    EXPECT_EQ(c.nodes.at(1).map->size(), 39u);
    for (NodeId id : c.ids) c.nodes.at(id).plane->flush_storage();
  }
  // A brand-new process over the same directory: everything must come back
  // from snapshot+WAL alone, including the deletion.
  DurCluster c({1}, root, 2);
  // Recovery loads the SHADOW; adoption happens when the founding
  // singleton's first view forms, so recovery must run before found().
  c.start_all(/*recover=*/true);
  ASSERT_TRUE(c.wait_converged({1}));
  c.run(millis(300));
  EXPECT_EQ(c.nodes.at(1).map->size(), 39u);
  EXPECT_EQ(c.nodes.at(1).map->get("key3"), std::optional<std::string>("val3"));
  EXPECT_FALSE(c.nodes.at(1).map->contains("key7"));
  // The state genuinely travelled through the log/snapshot files.
  const auto snap = c.nodes.at(1).plane->storage_snapshot();
  std::uint64_t replayed = 0, loads = 0;
  for (const auto& [name, v] : snap.counters) {
    if (name.find("storage.wal.replayed") != std::string::npos) replayed += v;
    if (name.find("storage.snapshot.loads") != std::string::npos) loads += v;
  }
  EXPECT_GT(replayed + loads, 0u);
}

// --- token-visit group commit (DESIGN.md §5g) -------------------------------

std::uint64_t storage_counter(DurCluster& c, NodeId id, const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& [key, v] : c.nodes.at(id).plane->storage_snapshot().counters) {
    if (key.size() >= name.size() &&
        key.compare(key.size() - name.size(), name.size(), name) == 0) {
      total += v;
    }
  }
  return total;
}

TEST_F(DurabilityTest, OnePutIsDurableOnEveryReplicaWithinOneRotation) {
  // Idle plane, empty commit buffers: a single put must be durable on each
  // replica at the end of the visit that applied it. There is no record
  // count to reach first.
  DurCluster c({1, 2, 3}, root_.string(), /*shards=*/2);
  c.start_all();
  ASSERT_TRUE(c.wait_converged({1, 2, 3}));
  c.run(millis(200));
  for (NodeId id : c.ids) c.nodes.at(id).plane->flush_storage();

  const std::string key = "solo";
  const std::size_t shard = c.nodes.at(1).map->write_shard_of(key);
  std::map<NodeId, std::uint64_t> lsn_before;
  for (NodeId id : c.ids) {
    lsn_before[id] = c.nodes.at(id).plane->store(shard)->lsn();
  }
  c.nodes.at(1).map->put(key, "v");
  // Step the simulator 1 ms at a time: whenever a replica shows the put
  // applied, its journal record must already be synced.
  std::size_t applied = 0;
  for (int ms = 0; ms < 200 && applied < c.ids.size(); ++ms) {
    c.run(millis(1));
    applied = 0;
    for (NodeId id : c.ids) {
      if (!c.nodes.at(id).map->contains(key)) continue;
      ++applied;
      storage::ShardStore* st = c.nodes.at(id).plane->store(shard);
      ASSERT_EQ(st->lsn(), lsn_before[id] + 1) << "node " << id;
      ASSERT_EQ(st->durable_lsn(), st->lsn())
          << "node " << id << " applied the put but has not synced it";
    }
  }
  EXPECT_EQ(applied, c.ids.size()) << "put never reached every replica";
}

TEST_F(DurabilityTest, AVisitDeliveringManyRecordsCostsOneFsync) {
  // 20 puts ride one batch; every replica delivers the batch in one token
  // visit and commits all 20 records with exactly one fdatasync.
  constexpr int kPuts = 20;
  DurCluster c({1, 2, 3}, root_.string(), /*shards=*/1);
  c.start_all();
  ASSERT_TRUE(c.wait_converged({1, 2, 3}));
  c.run(millis(200));
  for (NodeId id : c.ids) c.nodes.at(id).plane->flush_storage();

  std::map<NodeId, std::uint64_t> fsyncs_before, appends_before;
  for (NodeId id : c.ids) {
    fsyncs_before[id] = storage_counter(c, id, "storage.wal.fsyncs");
    appends_before[id] = storage_counter(c, id, "storage.wal.appends");
  }
  for (int i = 0; i < kPuts; ++i) {
    c.nodes.at(1).map->put("k" + std::to_string(i), "v");
  }
  c.run(millis(300));
  for (NodeId id : c.ids) {
    EXPECT_EQ(c.nodes.at(id).map->size(), static_cast<std::size_t>(kPuts));
    EXPECT_EQ(storage_counter(c, id, "storage.wal.appends") - appends_before[id],
              static_cast<std::uint64_t>(kPuts))
        << "node " << id;
    EXPECT_EQ(storage_counter(c, id, "storage.wal.fsyncs") - fsyncs_before[id],
              1u)
        << "node " << id;
    storage::ShardStore* st = c.nodes.at(id).plane->store(0);
    EXPECT_EQ(st->durable_lsn(), st->lsn()) << "node " << id;
  }
}

TEST_F(DurabilityTest, RestartedNodeDoesNotResurrectEntriesDeletedWhileDown) {
  // The forget_peer/rejoin regression: node 1 crashes holding durable
  // entries; the survivors delete some of them; node 1 restarts with its
  // stale incarnation plus recovered state and rejoins. The deleted keys
  // must stay deleted (the survivors' tombstones outrank the shadow), the
  // untouched keys must survive, and a key only node 1 knew must be
  // re-proposed back into the group.
  DurCluster c({1, 2, 3}, root_.string(), 2);
  c.start_all();
  ASSERT_TRUE(c.wait_converged({1, 2, 3}));

  c.nodes.at(1).map->put("shared-a", "1");
  c.nodes.at(1).map->put("shared-b", "1");
  c.run(millis(500));
  ASSERT_TRUE(c.nodes.at(3).map->contains("shared-b"));
  c.nodes.at(1).plane->flush_storage();

  // While node 1 is dark, the group moves on: one of its keys is deleted,
  // another is overwritten.
  c.crash(1);
  ASSERT_TRUE(c.wait_converged({2, 3}));
  c.nodes.at(2).map->erase("shared-a");
  c.nodes.at(2).map->put("shared-b", "2");
  c.run(millis(500));

  c.restart(1);
  ASSERT_TRUE(c.wait_converged({1, 2, 3}));
  c.run(millis(800));  // reconcile + any re-proposals circulate

  for (NodeId id : {1, 2, 3}) {
    const auto& m = *c.nodes.at(id).map;
    EXPECT_FALSE(m.contains("shared-a"))
        << "node " << id << " resurrected a key deleted while node 1 was down";
    EXPECT_EQ(m.get("shared-b"), std::optional<std::string>("2"))
        << "node " << id << " rolled back to node 1's stale value";
  }
}

TEST_F(DurabilityTest, RecoveredOnlyKeysAreReproposedOnRejoin) {
  // Keys that reached node 1's log but never any surviving replica (e.g.
  // every other replica of that shard was since wiped) must be re-proposed
  // by the recovering node so the group regains them.
  DurCluster c({1, 2}, root_.string(), 1);
  c.start_all();
  ASSERT_TRUE(c.wait_converged({1, 2}));
  c.nodes.at(1).map->put("precious", "p1");
  c.run(millis(500));
  c.nodes.at(1).plane->flush_storage();
  c.crash(1);
  ASSERT_TRUE(c.wait_converged({2}));
  // Node 2 loses its replica wholesale: crash + wiped directory = a fresh
  // incarnation with empty state (it was never durable there).
  c.crash(2);
  fs::remove_all(root_ / "node2");
  c.restart(2);
  ASSERT_TRUE(c.wait_converged({2}));
  EXPECT_FALSE(c.nodes.at(2).map->contains("precious"));

  c.restart(1);
  ASSERT_TRUE(c.wait_converged({1, 2}));
  c.run(millis(800));
  for (NodeId id : {1, 2}) {
    EXPECT_EQ(c.nodes.at(id).map->get("precious"),
              std::optional<std::string>("p1"))
        << "node " << id << " missing the re-proposed recovered key";
  }
  // The heal is visible in the instruments.
  std::uint64_t reproposed = 0;
  for (std::size_t s = 0; s < 1; ++s) {
    reproposed += c.nodes.at(1)
                      .map->shard(s)
                      .metrics()
                      .snapshot()
                      .counters.at("data.map.reproposed");
  }
  EXPECT_GT(reproposed, 0u);
}

TEST_F(DurabilityTest, FullClusterRestartRecoversTheUnionFromDiskAlone) {
  DurCluster c({1, 2, 3}, root_.string(), 2);
  c.start_all();
  ASSERT_TRUE(c.wait_converged({1, 2, 3}));
  for (NodeId id : {1, 2, 3}) {
    for (int i = 0; i < 8; ++i) {
      c.nodes.at(id).map->put(
          "n" + std::to_string(id) + ":k" + std::to_string(i), "v");
    }
  }
  c.run(millis(600));
  c.nodes.at(1).map->erase("n2:k0");  // a deletion that must hold
  c.run(millis(400));
  ASSERT_EQ(c.nodes.at(3).map->size(), 23u);
  for (NodeId id : {1, 2, 3}) c.nodes.at(id).plane->flush_storage();

  // Lights out everywhere at once: no surviving replica to sync from.
  for (NodeId id : {1, 2, 3}) c.crash(id);
  c.run(millis(200));
  for (NodeId id : {1, 2, 3}) c.restart(id);
  ASSERT_TRUE(c.wait_converged({1, 2, 3}));
  c.run(millis(1000));

  for (NodeId id : {1, 2, 3}) {
    const auto& m = *c.nodes.at(id).map;
    EXPECT_EQ(m.size(), 23u) << "node " << id;
    EXPECT_TRUE(m.contains("n1:k5")) << "node " << id;
    EXPECT_TRUE(m.contains("n3:k7")) << "node " << id;
    EXPECT_FALSE(m.contains("n2:k0"))
        << "node " << id << " resurrected a durably-deleted key";
  }
  // Cross-check: the state came through the WAL (every node replayed).
  for (NodeId id : {1, 2, 3}) {
    const auto snap = c.nodes.at(id).plane->storage_snapshot();
    std::uint64_t replayed = 0;
    for (const auto& [name, v] : snap.counters) {
      if (name.find("storage.wal.replayed") != std::string::npos) {
        replayed += v;
      }
    }
    EXPECT_GT(replayed, 0u) << "node " << id << " recovered nothing";
  }
}

TEST_F(DurabilityTest, LockRecoveryReleasesOwnershipOfTheDeadIncarnation) {
  // Lock ownership is session state: it dies with the incarnation that held
  // it. Recovery restores the replicated table (and the request-id counter,
  // so ids are never reused), then the epoch self-heal notices the adopted
  // entry belongs to a holder with no live outstanding request — the dead
  // incarnation — and releases it through the agreed stream. The lock must
  // come back FREE, not leaked to a ghost, and be re-acquirable.
  DurCluster c({1}, root_.string(), 1);
  c.start_all();
  ASSERT_TRUE(c.wait_converged({1}));
  bool granted = false;
  c.nodes.at(1).locks->acquire("the-lock",
                               [&granted](const std::string&) { granted = true; });
  c.run(millis(500));
  ASSERT_TRUE(granted);
  c.nodes.at(1).plane->flush_storage();
  c.crash(1);
  c.restart(1);
  ASSERT_TRUE(c.wait_converged({1}));
  c.run(millis(500));
  EXPECT_EQ(c.nodes.at(1).locks->owner("the-lock"), std::nullopt)
      << "stale ownership from the dead incarnation leaked across restart";
  // ...and the recovered table did not wedge the lock: a fresh acquire by
  // the new incarnation is granted.
  bool regranted = false;
  c.nodes.at(1).locks->acquire(
      "the-lock", [&regranted](const std::string&) { regranted = true; });
  c.run(millis(500));
  EXPECT_TRUE(regranted);
}

// --- restart-storm sweep -----------------------------------------------------

void run_sweep(std::uint64_t first_seed, std::uint64_t last_seed,
               const std::string& root) {
  std::set<testing::FaultClass> classes;
  std::uint64_t total_acked = 0;
  for (std::uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    const std::string dir = root + "/seed" + std::to_string(seed);
    ChaosRoundResult res = run_durability_round(seed, dir);
    EXPECT_TRUE(res.violations.empty())
        << "seed " << seed << ":\n" << res.report;
    EXPECT_EQ(res.acked_lost, 0u) << "seed " << seed << " lost acked writes";
    EXPECT_EQ(res.phantom_resurrections, 0u)
        << "seed " << seed << " resurrected deleted keys";
    total_acked += res.acked_ops;
    classes.insert(res.classes.begin(), res.classes.end());
    fs::remove_all(dir);
  }
  // The storm must actually have stormed: writes were acknowledged under
  // fire and both restart fault classes fired somewhere in the sweep.
  EXPECT_GT(total_acked, 0u);
  EXPECT_TRUE(classes.count(testing::FaultClass::kShardRestart))
      << "no shard restart fired across the sweep";
  EXPECT_TRUE(classes.count(testing::FaultClass::kClusterRestart))
      << "no cluster restart fired across the sweep";
}

TEST_F(DurabilityTest, RestartStormSweepSeeds1To12) {
  run_sweep(1, 12, root_.string());
}

TEST_F(DurabilityTest, RestartStormSweepSeeds13To25) {
  run_sweep(13, 25, root_.string());
}

TEST_F(DurabilityTest, SameSeedSameOutcome) {
  // Determinism modulo the wall clock: the fault schedule and every oracle
  // outcome must be identical run-to-run (the metrics snapshot is excluded
  // — storage.recovery_ns measures real disk time).
  const std::string d1 = (root_ / "a").string();
  const std::string d2 = (root_ / "b").string();
  ChaosRoundResult r1 = run_durability_round(7, d1);
  ChaosRoundResult r2 = run_durability_round(7, d2);
  EXPECT_EQ(r1.schedule, r2.schedule);
  EXPECT_EQ(r1.faults, r2.faults);
  EXPECT_EQ(r1.violations, r2.violations);
  EXPECT_EQ(r1.acked_ops, r2.acked_ops);
  EXPECT_EQ(r1.voided_ops, r2.voided_ops);
  EXPECT_EQ(r1.acked_lost, r2.acked_lost);
  EXPECT_EQ(r1.phantom_resurrections, r2.phantom_resurrections);
}

}  // namespace
}  // namespace raincore
