// Durable data plane: persist/recover across process lifetimes, rejoin
// reconciliation (no resurrection of deleted entries), full-cluster restart
// recovery, the seeded restart-storm sweep with the durability oracle, and
// the replicated map's bounded tombstone/own-write tables and snapshot
// entry order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "storage/shard_store.h"
#include "testing/chaos_cluster.h"

namespace raincore {
namespace {

namespace fs = std::filesystem;
using testing::ChaosRoundResult;
using testing::run_durability_round;
using testing::SimCluster;
using testing::SimStack;

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

/// The durable sharded plane (map on channel 1, locks on channel 2) with
/// its WAL under `root` — enough control to crash, wipe, restart and
/// rebuild nodes individually (the chaos harness owns the storm case).
SimCluster dur_cluster(std::vector<NodeId> ids, const std::string& root,
                       std::size_t shards) {
  SimStack stack = SimStack::sharded(shards);
  stack.map_channel = 1;
  stack.lock_channel = 2;
  stack.storage.dir = root;
  stack.storage.snapshot_every = 64;
  return SimCluster(std::move(ids), {}, {}, stack);
}

/// A plain ReplicatedMap on channel 1, no store.
SimCluster map_cluster(std::vector<NodeId> ids) {
  SimStack stack = SimStack::channels();
  stack.map_channel = 1;
  return SimCluster(std::move(ids), {}, {}, stack);
}

/// A snapshot blob in the map's state format: live entries and tombstones
/// in the given order, then the clock.
Bytes map_state_blob(
    const std::vector<std::pair<std::string, std::string>>& live,
    const std::vector<std::string>& tombs, std::uint64_t clock) {
  ByteWriter w(64);
  w.u32(static_cast<std::uint32_t>(live.size()));
  std::uint64_t lamport = 0;
  for (const auto& [k, v] : live) {
    w.str(k);
    w.str(v);
    w.u64(++lamport);
    w.u32(1);
  }
  w.u32(static_cast<std::uint32_t>(tombs.size()));
  for (const std::string& k : tombs) {
    w.str(k);
    w.u64(++lamport);
    w.u32(2);
  }
  w.u64(clock);
  return w.take();
}

TEST(ReplicatedMapTablesTest, TombstoneBoundEvictsTheOldest) {
  // 8192 tombstones are kept; the 8193rd erase evicts the first one.
  SimCluster c = map_cluster({1});
  ASSERT_TRUE(c.bootstrap());
  data::ReplicatedMap& m = *c.node(1).map;
  for (int i = 0; i < 8193; ++i) m.erase("t" + std::to_string(i));
  ASSERT_TRUE(c.run_until([&] { return m.tombstoned("t8192"); }, seconds(10)));
  EXPECT_FALSE(m.tombstoned("t0"));
  EXPECT_TRUE(m.tombstoned("t1"));
  EXPECT_TRUE(m.tombstoned("t4096"));
  // A re-put clears the oldest tombstone; erasing the key again queues it
  // as the newest, so the next eviction takes t2, not t1's fresh one.
  m.put("t1", "back");
  m.erase("t1");
  m.erase("u0");
  ASSERT_TRUE(c.run_until([&] { return m.tombstoned("u0"); }, seconds(5)));
  EXPECT_TRUE(m.tombstoned("t1"));
  EXPECT_FALSE(m.tombstoned("t2"));
  EXPECT_TRUE(m.tombstoned("t3"));
  EXPECT_EQ(m.size(), 0u);
}

TEST(ReplicatedMapTablesTest, OwnWriteLedgerKeepsTheNewest2048) {
  // Node 1 writes 2049 keys, then an empty RECONCILE wipes the table: the
  // ledger re-asserts exactly its newest 2048 rows.
  SimCluster c = map_cluster({1});
  ASSERT_TRUE(c.bootstrap());
  data::ReplicatedMap& m = *c.node(1).map;
  for (int i = 0; i < 2049; ++i) m.put("o" + std::to_string(i), "v");
  ASSERT_TRUE(c.run_until([&] { return m.size() == 2049; }, seconds(10)));
  ByteWriter w(32);
  w.u8(5);  // kReconcile: no entries, no tombstones, clock 0
  w.u32(0);
  w.u32(0);
  w.u64(0);
  c.node(1).chan->send(1, w.take());
  ASSERT_TRUE(c.run_until([&] { return m.size() == 2048; }, seconds(10)));
  c.run(millis(500));
  EXPECT_EQ(m.size(), 2048u);
  EXPECT_FALSE(m.contains("o0"));
  EXPECT_TRUE(m.contains("o1"));
  EXPECT_TRUE(m.contains("o2048"));
  EXPECT_EQ(m.metrics().counter("data.map.reasserted").value(), 2048u);
}

TEST_F(DurabilityTest, SnapshotEntryOrderDoesNotChangeRecovery) {
  // Stores written before the hashed tables hold their entries sorted by
  // key; current ones in table order. Both must recover to the same state.
  std::vector<std::pair<std::string, std::string>> live;
  std::vector<std::string> tombs;
  for (int i = 0; i < 300; ++i) {
    char key[16];
    std::snprintf(key, sizeof key, "k%03d", i);
    live.emplace_back(key, "v" + std::to_string(i));
  }
  for (int i = 0; i < 40; ++i) tombs.push_back("d" + std::to_string(i));
  const std::uint64_t kClock = 5000;
  std::vector<std::map<std::string, std::string>> recovered;
  for (bool sorted : {true, false}) {
    auto l = live;
    auto t = tombs;
    if (sorted) {
      std::sort(l.begin(), l.end());
      std::sort(t.begin(), t.end());
    } else {
      std::reverse(l.begin(), l.end());
      std::reverse(t.begin(), t.end());
    }
    const std::string root =
        (root_ / (sorted ? "sorted" : "reversed")).string();
    {
      storage::StorageConfig cfg;
      cfg.dir = root;
      storage::ShardStore store(cfg, root + "/node1/shard0");
      storage::ShardStore::Hooks hooks;
      const Bytes blob = map_state_blob(l, t, kClock);
      hooks.snapshot = [blob] { return blob; };
      store.attach(1, std::move(hooks));
      ASSERT_TRUE(store.open());
      store.compact();
      store.close();
    }
    SimCluster c = dur_cluster({1}, root, /*shards=*/1);
    ASSERT_TRUE(c.restart(1));
    ASSERT_TRUE(c.run_until_converged({1}, millis(8000)));
    data::ReplicatedMap& m = c.node(1).smap->shard(0);
    EXPECT_EQ(m.size(), live.size());
    for (const std::string& k : tombs) EXPECT_TRUE(m.tombstoned(k)) << k;
    EXPECT_GE(m.clock_ceiling(), kClock);
    std::map<std::string, std::string> got;
    for (const auto& [k, v] : m.contents()) got[k] = v;
    recovered.push_back(std::move(got));
  }
  EXPECT_EQ(recovered[0], recovered[1]);
  EXPECT_EQ(recovered[0], (std::map<std::string, std::string>(live.begin(),
                                                               live.end())));
}

TEST_F(DurabilityTest, SingleNodePersistsAcrossFullTeardown) {
  const std::string root = root_.string();
  {
    SimCluster c = dur_cluster({1}, root, /*shards=*/2);
    ASSERT_TRUE(c.bootstrap(millis(8000)));
    for (int i = 0; i < 40; ++i) {
      c.node(1).smap->put("key" + std::to_string(i),
                          "val" + std::to_string(i));
    }
    c.node(1).smap->erase("key7");
    c.run(millis(500));
    EXPECT_EQ(c.node(1).smap->size(), 39u);
    for (NodeId id : c.ids()) c.node(id).plane->flush_storage();
  }
  // A brand-new process over the same directory: everything must come back
  // from snapshot+WAL alone, including the deletion.
  SimCluster c = dur_cluster({1}, root, 2);
  // Recovery loads the SHADOW; adoption happens when the founding
  // singleton's first view forms, so restart() recovers before it founds.
  ASSERT_TRUE(c.restart(1));
  ASSERT_TRUE(c.run_until_converged({1}, millis(8000)));
  c.run(millis(300));
  EXPECT_EQ(c.node(1).smap->size(), 39u);
  EXPECT_EQ(c.node(1).smap->get("key3"), std::optional<std::string>("val3"));
  EXPECT_FALSE(c.node(1).smap->contains("key7"));
  // The state genuinely travelled through the log/snapshot files.
  const auto snap = c.node(1).plane->storage_snapshot();
  std::uint64_t replayed = 0, loads = 0;
  for (const auto& [name, v] : snap.counters) {
    if (name.find("storage.wal.replayed") != std::string::npos) replayed += v;
    if (name.find("storage.snapshot.loads") != std::string::npos) loads += v;
  }
  EXPECT_GT(replayed + loads, 0u);
}

// --- token-visit group commit (DESIGN.md §5g) -------------------------------

std::uint64_t storage_counter(SimCluster& c, NodeId id,
                              const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& [key, v] : c.node(id).plane->storage_snapshot().counters) {
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
  SimCluster c = dur_cluster({1, 2, 3}, root_.string(), /*shards=*/2);
  ASSERT_TRUE(c.bootstrap(millis(8000)));
  c.run(millis(200));
  for (NodeId id : c.ids()) c.node(id).plane->flush_storage();

  const std::string key = "solo";
  const std::size_t shard = c.node(1).smap->write_shard_of(key);
  std::map<NodeId, std::uint64_t> lsn_before;
  for (NodeId id : c.ids()) {
    lsn_before[id] = c.node(id).plane->store(shard)->lsn();
  }
  c.node(1).smap->put(key, "v");
  // Step the simulator 1 ms at a time: whenever a replica shows the put
  // applied, its journal record must already be synced.
  std::size_t applied = 0;
  for (int ms = 0; ms < 200 && applied < c.ids().size(); ++ms) {
    c.run(millis(1));
    applied = 0;
    for (NodeId id : c.ids()) {
      if (!c.node(id).smap->contains(key)) continue;
      ++applied;
      storage::ShardStore* st = c.node(id).plane->store(shard);
      ASSERT_EQ(st->lsn(), lsn_before[id] + 1) << "node " << id;
      ASSERT_EQ(st->durable_lsn(), st->lsn())
          << "node " << id << " applied the put but has not synced it";
    }
  }
  EXPECT_EQ(applied, c.ids().size()) << "put never reached every replica";
}

TEST_F(DurabilityTest, AVisitDeliveringManyRecordsCostsOneFsync) {
  // 20 puts ride one batch; every replica delivers the batch in one token
  // visit and commits all 20 records with exactly one fdatasync.
  constexpr int kPuts = 20;
  SimCluster c = dur_cluster({1, 2, 3}, root_.string(), /*shards=*/1);
  ASSERT_TRUE(c.bootstrap(millis(8000)));
  c.run(millis(200));
  for (NodeId id : c.ids()) c.node(id).plane->flush_storage();

  std::map<NodeId, std::uint64_t> fsyncs_before, appends_before;
  for (NodeId id : c.ids()) {
    fsyncs_before[id] = storage_counter(c, id, "storage.wal.fsyncs");
    appends_before[id] = storage_counter(c, id, "storage.wal.appends");
  }
  for (int i = 0; i < kPuts; ++i) {
    c.node(1).smap->put("k" + std::to_string(i), "v");
  }
  c.run(millis(300));
  for (NodeId id : c.ids()) {
    EXPECT_EQ(c.node(id).smap->size(), static_cast<std::size_t>(kPuts));
    EXPECT_EQ(storage_counter(c, id, "storage.wal.appends") - appends_before[id],
              static_cast<std::uint64_t>(kPuts))
        << "node " << id;
    EXPECT_EQ(storage_counter(c, id, "storage.wal.fsyncs") - fsyncs_before[id],
              1u)
        << "node " << id;
    storage::ShardStore* st = c.node(id).plane->store(0);
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
  SimCluster c = dur_cluster({1, 2, 3}, root_.string(), 2);
  ASSERT_TRUE(c.bootstrap(millis(8000)));

  c.node(1).smap->put("shared-a", "1");
  c.node(1).smap->put("shared-b", "1");
  c.run(millis(500));
  ASSERT_TRUE(c.node(3).smap->contains("shared-b"));
  c.node(1).plane->flush_storage();

  // While node 1 is dark, the group moves on: one of its keys is deleted,
  // another is overwritten.
  c.crash(1);
  ASSERT_TRUE(c.run_until_converged({2, 3}, millis(8000)));
  c.node(2).smap->erase("shared-a");
  c.node(2).smap->put("shared-b", "2");
  c.run(millis(500));

  ASSERT_TRUE(c.restart(1));
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, millis(8000)));
  c.run(millis(800));  // reconcile + any re-proposals circulate

  for (NodeId id : {1, 2, 3}) {
    const auto& m = *c.node(id).smap;
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
  SimCluster c = dur_cluster({1, 2}, root_.string(), 1);
  ASSERT_TRUE(c.bootstrap(millis(8000)));
  c.node(1).smap->put("precious", "p1");
  c.run(millis(500));
  c.node(1).plane->flush_storage();
  c.crash(1);
  ASSERT_TRUE(c.run_until_converged({2}, millis(8000)));
  // Node 2 loses its replica wholesale: crash + wiped directory = a fresh
  // incarnation with empty state (it was never durable there).
  c.crash(2);
  fs::remove_all(root_ / "node2");
  ASSERT_TRUE(c.restart(2));
  ASSERT_TRUE(c.run_until_converged({2}, millis(8000)));
  EXPECT_FALSE(c.node(2).smap->contains("precious"));

  ASSERT_TRUE(c.restart(1));
  ASSERT_TRUE(c.run_until_converged({1, 2}, millis(8000)));
  c.run(millis(800));
  for (NodeId id : {1, 2}) {
    EXPECT_EQ(c.node(id).smap->get("precious"),
              std::optional<std::string>("p1"))
        << "node " << id << " missing the re-proposed recovered key";
  }
  // The heal is visible in the instruments.
  std::uint64_t reproposed = 0;
  for (std::size_t s = 0; s < 1; ++s) {
    reproposed += c.node(1)
                      .smap->shard(s)
                      .metrics()
                      .snapshot()
                      .counters.at("data.map.reproposed");
  }
  EXPECT_GT(reproposed, 0u);
}

TEST_F(DurabilityTest, FullClusterRestartRecoversTheUnionFromDiskAlone) {
  SimCluster c = dur_cluster({1, 2, 3}, root_.string(), 2);
  ASSERT_TRUE(c.bootstrap(millis(8000)));
  for (NodeId id : {1, 2, 3}) {
    for (int i = 0; i < 8; ++i) {
      c.node(id).smap->put(
          "n" + std::to_string(id) + ":k" + std::to_string(i), "v");
    }
  }
  c.run(millis(600));
  c.node(1).smap->erase("n2:k0");  // a deletion that must hold
  c.run(millis(400));
  ASSERT_EQ(c.node(3).smap->size(), 23u);
  for (NodeId id : {1, 2, 3}) c.node(id).plane->flush_storage();

  // Lights out everywhere at once: no surviving replica to sync from.
  for (NodeId id : {1, 2, 3}) c.crash(id);
  c.run(millis(200));
  for (NodeId id : {1, 2, 3}) ASSERT_TRUE(c.restart(id));
  ASSERT_TRUE(c.run_until_converged({1, 2, 3}, millis(8000)));
  c.run(millis(1000));

  for (NodeId id : {1, 2, 3}) {
    const auto& m = *c.node(id).smap;
    EXPECT_EQ(m.size(), 23u) << "node " << id;
    EXPECT_TRUE(m.contains("n1:k5")) << "node " << id;
    EXPECT_TRUE(m.contains("n3:k7")) << "node " << id;
    EXPECT_FALSE(m.contains("n2:k0"))
        << "node " << id << " resurrected a durably-deleted key";
  }
  // Cross-check: the state came through the WAL (every node replayed).
  for (NodeId id : {1, 2, 3}) {
    const auto snap = c.node(id).plane->storage_snapshot();
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
  SimCluster c = dur_cluster({1}, root_.string(), 1);
  ASSERT_TRUE(c.bootstrap(millis(8000)));
  bool granted = false;
  c.node(1).slocks->acquire(
      "the-lock", [&granted](const std::string&) { granted = true; });
  c.run(millis(500));
  ASSERT_TRUE(granted);
  c.node(1).plane->flush_storage();
  c.crash(1);
  ASSERT_TRUE(c.restart(1));
  ASSERT_TRUE(c.run_until_converged({1}, millis(8000)));
  c.run(millis(500));
  EXPECT_EQ(c.node(1).slocks->owner("the-lock"), std::nullopt)
      << "stale ownership from the dead incarnation leaked across restart";
  // ...and the recovered table did not wedge the lock: a fresh acquire by
  // the new incarnation is granted.
  bool regranted = false;
  c.node(1).slocks->acquire(
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
