// Elastic resharding (DESIGN.md §5j): VersionedRouter minimal-remap and
// epoch-table-equivalence properties, plus live 2->4 migrations on a sim
// cluster — keys and locks served throughout, every range handed off whole,
// filters retired on completion, and a durable node restarting into the
// grown epoch.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "testing/chaos_cluster.h"

namespace raincore {
namespace {

using data::RangeId;
using data::RangeState;
using data::ShardRouter;
using data::VersionedRouter;
using testing::SimCluster;
using testing::SimStack;

// --- VersionedRouter properties ---------------------------------------------

TEST(VersionedRouterTest, GrowByOneRemapsAboutOneOverKPlusOne) {
  // Consistent hashing's contract: going K -> K+1 moves ~1/(K+1) of the
  // keyspace, and every moved key lands on the NEW shard (a K->K+1 grow
  // never shuffles keys between existing shards).
  for (std::size_t k : {2u, 4u, 8u}) {
    ShardRouter oldr(k), newr(k + 1);
    const int kKeys = 4000;
    int moved = 0;
    for (int i = 0; i < kKeys; ++i) {
      std::string key = "prop-" + std::to_string(i);
      const std::size_t a = oldr.shard_of(key);
      const std::size_t b = newr.shard_of(key);
      if (a != b) {
        ++moved;
        EXPECT_EQ(b, k) << "grow moved " << key << " between OLD shards";
      }
    }
    const double frac = static_cast<double>(moved) / kKeys;
    const double ideal = 1.0 / (k + 1);
    EXPECT_GT(frac, ideal / 3) << "K=" << k << " new shard starved";
    EXPECT_LT(frac, ideal * 3) << "K=" << k << " remapped too much";
  }
}

TEST(VersionedRouterTest, MovedRangesCoverExactlyTheRemappedKeys) {
  ShardRouter oldr(4), newr(6);
  const auto ranges = VersionedRouter::moved_ranges(oldr, newr);
  EXPECT_FALSE(ranges.empty());
  std::set<RangeId> set(ranges.begin(), ranges.end());
  for (int i = 0; i < 4000; ++i) {
    std::string key = "cover-" + std::to_string(i);
    const auto a = static_cast<std::uint32_t>(oldr.shard_of(key));
    const auto b = static_cast<std::uint32_t>(newr.shard_of(key));
    if (a != b) {
      EXPECT_TRUE(set.count(RangeId{a, b}))
          << key << " moved " << a << "->" << b << " outside every range";
    }
  }
}

TEST(VersionedRouterTest, EpochTableEquivalence) {
  // Before any range freezes, route_write is the OLD table verbatim; once
  // every range is done (and after complete()), it is the NEW table
  // verbatim. The window only ever interpolates between the two epochs.
  VersionedRouter vr(3);
  ShardRouter oldr(3), newr(5);
  vr.begin(5, 1);
  ASSERT_TRUE(vr.migrating());
  for (int i = 0; i < 2000; ++i) {
    std::string key = "eq-" + std::to_string(i);
    EXPECT_EQ(vr.route_write(key), oldr.shard_of(key));
  }
  for (const auto& [r, st] : vr.ranges()) {
    vr.set_state(r, RangeState::kDone);
  }
  for (int i = 0; i < 2000; ++i) {
    std::string key = "eq-" + std::to_string(i);
    EXPECT_EQ(vr.route_write(key), newr.shard_of(key));
  }
  EXPECT_TRUE(vr.all_done());
  vr.complete();
  EXPECT_FALSE(vr.migrating());
  for (int i = 0; i < 2000; ++i) {
    std::string key = "eq-" + std::to_string(i);
    EXPECT_EQ(vr.route_write(key), newr.shard_of(key));
    EXPECT_EQ(vr.route_read(key).primary, newr.shard_of(key));
    EXPECT_FALSE(vr.route_read(key).fallback.has_value());
  }
}

TEST(VersionedRouterTest, ReadRouteFallsBackToOldOwnerDuringWindow) {
  VersionedRouter vr(2);
  vr.begin(4, 7);
  ShardRouter oldr(2), newr(4);
  bool saw_moved = false;
  for (int i = 0; i < 500; ++i) {
    std::string key = "rr-" + std::to_string(i);
    const auto rr = vr.route_read(key);
    if (oldr.shard_of(key) == newr.shard_of(key)) continue;
    saw_moved = true;
    // In flight: destination first, old owner as bounded-redirect fallback.
    EXPECT_EQ(rr.primary, newr.shard_of(key));
    ASSERT_TRUE(rr.fallback.has_value());
    EXPECT_EQ(*rr.fallback, oldr.shard_of(key));
  }
  EXPECT_TRUE(saw_moved);
}

// --- Live migration cluster -------------------------------------------------

/// Map on channel 1 and locks on channel 2 of every shard, resizable from an
/// epoch-0 table of two shards; durable when `root` is set.
SimCluster reshard_cluster(std::size_t n_nodes, std::size_t shards,
                           std::string root = {}) {
  SimStack stack = SimStack::sharded(shards);
  stack.map_channel = 1;
  stack.lock_channel = 2;
  stack.reshard_from = 2;
  stack.storage.dir = std::move(root);
  return SimCluster(testing::node_ids(n_nodes), {}, {}, stack);
}

/// Runs the sim, ticking every reshard manager, until pred or timeout.
bool run_ticking(SimCluster& c, const std::function<bool()>& pred,
                 Time timeout = seconds(30)) {
  return c.run_until(
      [&] {
        for (NodeId id : c.ids()) c.node(id).mgr->tick();
        return pred();
      },
      timeout);
}

bool resize_settled(SimCluster& c, std::size_t new_k, std::uint64_t epoch) {
  for (NodeId id : c.ids()) {
    const SimCluster::Node& n = c.node(id);
    if (n.mgr->migrating() || n.mgr->epoch() != epoch) return false;
    if (n.plane->shard_count() != new_k) return false;
  }
  return c.converged(c.ids());
}

TEST(ReshardLiveTest, ResizeMovesEveryKeyToItsNewHome) {
  SimCluster f = reshard_cluster(3, 2);
  ASSERT_TRUE(f.bootstrap(seconds(20)));

  const int kKeys = 80;
  for (int i = 0; i < kKeys; ++i) {
    NodeId w = f.ids()[static_cast<std::size_t>(i) % f.ids().size()];
    f.node(w).smap->put("mk" + std::to_string(i), "v" + std::to_string(i));
  }
  ASSERT_TRUE(run_ticking(f, [&] {
    for (NodeId id : f.ids()) {
      if (!f.node(id).smap->synced() ||
          f.node(id).smap->size() != static_cast<std::size_t>(kKeys)) {
        return false;
      }
    }
    return true;
  }));

  f.node(1).mgr->start_resize(4);
  ASSERT_TRUE(run_ticking(f, [&] { return resize_settled(f, 4, 1); }))
      << "migration never settled";

  const ShardRouter target(4);
  for (int i = 0; i < kKeys; ++i) {
    std::string key = "mk" + std::to_string(i);
    const std::size_t home = target.shard_of(key);
    for (NodeId id : f.ids()) {
      auto& m = *f.node(id).smap;
      auto v = m.get(key);
      ASSERT_TRUE(v.has_value()) << "node " << id << " lost " << key;
      EXPECT_EQ(*v, "v" + std::to_string(i));
      // After the epoch retires the key lives on its new home partition
      // and nowhere else (the source copies were dropped + scrubbed).
      for (std::size_t s = 0; s < m.shard_count(); ++s) {
        EXPECT_EQ(m.shard(s).contains(key), s == home)
            << "node " << id << " key " << key << " shard " << s;
      }
    }
  }
}

TEST(ReshardLiveTest, WritesDuringTheWindowAreAllServed) {
  SimCluster f = reshard_cluster(3, 2);
  ASSERT_TRUE(f.bootstrap(seconds(20)));

  // Single writer per key (cross-epoch multi-writer races resolve by LWW,
  // documented in DESIGN.md §5j); the writer overwrites its keys while the
  // migration runs, so bounced writes and the forwarding window are on the
  // hot path.
  std::map<std::string, std::string> expect;
  int round = 0;
  auto write_round = [&] {
    ++round;
    for (int i = 0; i < 40; ++i) {
      NodeId w = f.ids()[static_cast<std::size_t>(i) % f.ids().size()];
      std::string key = "wk" + std::to_string(i);
      std::string val = "r" + std::to_string(round);
      f.node(w).smap->put(key, val);
      expect[key] = val;
    }
  };
  write_round();
  f.node(2).mgr->start_resize(4);
  for (int burst = 0; burst < 6; ++burst) {
    run_ticking(f, [] { return false; }, millis(120));
    write_round();
  }
  ASSERT_TRUE(run_ticking(f, [&] { return resize_settled(f, 4, 1); }))
      << "migration never settled under write load";
  // The last round's writes may still be in flight — wait until every node
  // serves every key at its final value before asserting.
  auto all_final = [&] {
    for (const auto& [key, val] : expect) {
      for (NodeId id : f.ids()) {
        auto v = f.node(id).smap->get(key);
        if (!v || *v != val) return false;
      }
    }
    return true;
  };
  ASSERT_TRUE(run_ticking(f, all_final, seconds(30)))
      << "some write issued during the window was lost or left stale";
  for (const auto& [key, val] : expect) {
    for (NodeId id : f.ids()) {
      auto v = f.node(id).smap->get(key);
      ASSERT_TRUE(v.has_value()) << "node " << id << " lost " << key;
      EXPECT_EQ(*v, val) << "node " << id << " stale " << key;
    }
  }
}

TEST(ReshardLiveTest, LocksStayExclusiveAcrossTheResize) {
  SimCluster f = reshard_cluster(3, 2);
  ASSERT_TRUE(f.bootstrap(seconds(20)));

  // Hold a batch of locks across the whole migration; waiters queued behind
  // them must be granted exactly once, after release, wherever the lock's
  // row migrated to.
  std::vector<std::string> names;
  for (int i = 0; names.size() < 12; ++i) {
    names.push_back("lock-" + std::to_string(i));
  }
  std::map<std::string, int> grants1, grants2;
  for (const auto& n : names) {
    f.node(1).slocks->acquire(n, [&](const std::string& g) {
      ++grants1[g];
    });
  }
  ASSERT_TRUE(run_ticking(f, [&] {
    return grants1.size() == names.size();
  }));
  for (const auto& n : names) {
    f.node(2).slocks->acquire(n, [&](const std::string& g) {
      ++grants2[g];
      EXPECT_TRUE(f.node(2).slocks->held_by_me(g));
    });
  }

  f.node(1).mgr->start_resize(4);
  ASSERT_TRUE(run_ticking(f, [&] { return resize_settled(f, 4, 1); }));
  // Holder still owns every lock after the hand-off; waiters still pending.
  for (const auto& n : names) {
    EXPECT_TRUE(f.node(1).slocks->held_by_me(n)) << n;
    EXPECT_EQ(grants2.count(n), 0u) << n << " granted while held";
  }
  for (const auto& n : names) f.node(1).slocks->release(n);
  ASSERT_TRUE(run_ticking(f, [&] { return grants2.size() == names.size(); }))
      << "queued waiters lost across the migration";
  for (const auto& n : names) {
    EXPECT_EQ(grants1[n], 1) << n;
    EXPECT_EQ(grants2[n], 1) << n;
  }
}

TEST(ReshardLiveTest, SecondResizeUsesTheNextEpoch) {
  SimCluster f = reshard_cluster(3, 2);
  ASSERT_TRUE(f.bootstrap(seconds(20)));
  for (int i = 0; i < 30; ++i) {
    f.node(1).smap->put("e" + std::to_string(i), "x");
  }
  f.node(1).mgr->start_resize(3);
  ASSERT_TRUE(run_ticking(f, [&] { return resize_settled(f, 3, 1); }));
  f.node(2).mgr->start_resize(5);
  ASSERT_TRUE(run_ticking(f, [&] { return resize_settled(f, 5, 2); }));
  const ShardRouter target(5);
  for (int i = 0; i < 30; ++i) {
    std::string key = "e" + std::to_string(i);
    for (NodeId id : f.ids()) {
      auto& m = *f.node(id).smap;
      ASSERT_TRUE(m.get(key).has_value()) << "node " << id << " lost " << key;
      EXPECT_TRUE(m.shard(target.shard_of(key)).contains(key));
    }
  }
}

TEST(ReshardLiveTest, SingletonRingZeroCoordinatorDefersFreezeAndChunks) {
  // A coordinator whose ring 0 collapsed to a singleton must not freeze or
  // chunk: its fresh destination rings are singletons too, so the guard
  // "destination as wide as ring 0" passes trivially and the range's only
  // copy would be stranded on its own replica.
  SimCluster f = reshard_cluster(4, 2);
  ASSERT_TRUE(f.bootstrap(seconds(20)));
  for (int i = 0; i < 40; ++i) {
    f.node(1).smap->put("sk" + std::to_string(i), "v");
  }
  ASSERT_TRUE(run_ticking(f, [&] { return f.node(4).smap->size() == 40; }));

  SimCluster::Node& coord = f.node(1);
  auto ring0_width = [&] {
    return coord.plane->channels(0).view().members.size();
  };
  auto froze_or_chunked = [&] {
    if (coord.mgr->metrics().counter("data.reshard.chunks_sent").value() > 0) {
      return true;
    }
    for (const auto& [range, state] : coord.plane->vrouter().ranges()) {
      if (state != RangeState::kPending) return true;
    }
    return false;
  };
  f.net().partition({{1}, {2, 3, 4}});
  ASSERT_TRUE(run_ticking(f, [&] { return ring0_width() == 1; }, seconds(10)));
  coord.mgr->start_resize(4);
  ASSERT_TRUE(
      run_ticking(f, [&] { return coord.mgr->migrating(); }, seconds(2)))
      << "the isolated node never opened the migration window";
  EXPECT_FALSE(run_ticking(f, froze_or_chunked, seconds(2)))
      << "FREEZE/CHUNK sent while ring 0 held " << ring0_width() << " member";

  // Healed, the step may only go out once ring 0 spans a majority again.
  f.net().heal_partition();
  bool early = false;
  ASSERT_TRUE(run_ticking(f, [&] {
    if (froze_or_chunked() && ring0_width() < 3) early = true;
    return resize_settled(f, 4, 1);
  })) << "migration never settled after the heal";
  EXPECT_FALSE(early) << "FREEZE/CHUNK sent before ring 0 regained its width";
  for (int i = 0; i < 40; ++i) {
    for (NodeId id : f.ids()) {
      EXPECT_TRUE(f.node(id).smap->get("sk" + std::to_string(i)))
          << "node " << id << " lost sk" << i;
    }
  }
}

TEST(ReshardLiveTest, ReproposeDropsSameOrOlderStamps) {
  // Bounced writes and migration chunks apply through the strict-LWW
  // repropose path: a same-or-older stamp than the live entry or the
  // tombstone is history and must not apply.
  SimStack stack = SimStack::channels();
  stack.map_channel = 1;
  SimCluster c({1}, {}, {}, stack);
  ASSERT_TRUE(c.bootstrap());
  data::ReplicatedMap& m = *c.node(1).map;
  using Stamp = data::ReplicatedMap::Stamp;
  m.put("k", "v1");
  c.run(millis(200));
  const std::uint64_t l = m.clock_ceiling();  // "k" carries {l, 1}
  m.migrate_propose(false, "k", "same", Stamp{l, 1});
  m.migrate_propose(false, "k", "older", Stamp{l - 1, 9});
  m.migrate_propose(false, "k", "tie-lower-origin", Stamp{l, 0});
  m.migrate_propose(true, "k", "", Stamp{l, 1});
  c.run(millis(200));
  EXPECT_EQ(m.get("k"), std::optional<std::string>("v1"));
  m.migrate_propose(false, "k", "newer", Stamp{l, 2});
  c.run(millis(200));
  EXPECT_EQ(m.get("k"), std::optional<std::string>("newer"));

  m.erase("k");
  c.run(millis(200));
  const std::uint64_t t = m.clock_ceiling();  // the tombstone's {t, 1}
  ASSERT_TRUE(m.tombstoned("k"));
  m.migrate_propose(false, "k", "stale", Stamp{t, 1});
  m.migrate_propose(false, "k", "staler", Stamp{t - 1, 9});
  c.run(millis(200));
  EXPECT_FALSE(m.contains("k"));
  EXPECT_TRUE(m.tombstoned("k"));
  m.migrate_propose(false, "k", "fresh", Stamp{t + 1, 1});
  c.run(millis(200));
  EXPECT_EQ(m.get("k"), std::optional<std::string>("fresh"));
  EXPECT_FALSE(m.tombstoned("k"));
  EXPECT_EQ(m.size(), 1u);
}

TEST(ReshardDurabilityTest, FullRestartRecoversIntoTheGrownEpoch) {
  const std::string root = ::testing::TempDir() + "/reshard_recover";
  std::filesystem::remove_all(root);
  const int kKeys = 40;
  {
    SimCluster f = reshard_cluster(3, 2, root);
    ASSERT_TRUE(f.bootstrap(seconds(20)));
    for (int i = 0; i < kKeys; ++i) {
      f.node(1).smap->put("dk" + std::to_string(i), "d" + std::to_string(i));
    }
    f.node(1).mgr->start_resize(4);
    ASSERT_TRUE(run_ticking(f, [&] { return resize_settled(f, 4, 1); }));
    for (NodeId id : f.ids()) f.node(id).plane->flush_storage();
  }

  // Full teardown + restart from disk: each plane is reconstructed
  // pre-grown (four shard directories on disk), recovery replays the
  // reshard journal stream, and after_recovery lands every node on the
  // completed epoch — no migration window reopened.
  SimCluster g = reshard_cluster(3, 4, root);
  for (NodeId id : g.ids()) ASSERT_TRUE(g.restart(id));
  ASSERT_TRUE(
      run_ticking(g, [&] { return g.converged(g.ids()); }, seconds(20)));
  for (NodeId id : g.ids()) {
    EXPECT_FALSE(g.node(id).mgr->migrating()) << "node " << id;
    EXPECT_EQ(g.node(id).mgr->epoch(), 1u) << "node " << id;
    EXPECT_EQ(g.node(id).plane->vrouter().current().shard_count(), 4u)
        << "node " << id;
  }
  ASSERT_TRUE(run_ticking(g, [&] {
    for (NodeId id : g.ids()) {
      if (!g.node(id).smap->synced() ||
          g.node(id).smap->size() != static_cast<std::size_t>(kKeys)) {
        return false;
      }
    }
    return true;
  }, seconds(40))) << "restarted cluster never reconverged";
  const ShardRouter target(4);
  for (int i = 0; i < kKeys; ++i) {
    std::string key = "dk" + std::to_string(i);
    for (NodeId id : g.ids()) {
      auto v = g.node(id).smap->get(key);
      ASSERT_TRUE(v.has_value()) << "node " << id << " missing " << key;
      EXPECT_EQ(*v, "d" + std::to_string(i));
      EXPECT_TRUE(g.node(id).smap->shard(target.shard_of(key)).contains(key));
    }
  }
  std::filesystem::remove_all(root);
}

// --- migration chaos sweep ---------------------------------------------------
//
// Each round grows a 4-node cluster 2 -> 4 shards mid-storm while one
// TARGETED migration fault fires at its trigger phase (on top of a lighter
// background schedule of crashes, drops and shard restarts), then judges:
//   - zero acked-write loss and zero phantom resurrection (double-apply)
//     over the FINAL shard count;
//   - every node agreeing on the final epoch and table;
//   - every surviving key on exactly its final owner shard.
// Seeds replay bit-for-bit; a failure prints the full fault schedule.

void run_reshard_sweep(std::uint64_t first_seed, std::uint64_t last_seed,
                       testing::MigrationFault fault) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() /
      ("raincore_reshard_chaos_" +
       std::to_string(static_cast<unsigned>(fault)) + "_" +
       std::to_string(::getpid()));
  fs::create_directories(root);
  std::uint64_t total_acked = 0;
  std::size_t completed = 0;
  for (std::uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    const std::string dir = (root / ("seed" + std::to_string(seed))).string();
    testing::ReshardRoundOptions opts;
    opts.fault = fault;
    testing::ChaosRoundResult res = testing::run_reshard_round(seed, dir, opts);
    EXPECT_TRUE(res.violations.empty())
        << "seed " << seed << ":\n" << res.report;
    EXPECT_EQ(res.acked_lost, 0u) << "seed " << seed << " lost acked writes";
    EXPECT_EQ(res.phantom_resurrections, 0u)
        << "seed " << seed << " double-applied (resurrected) keys";
    EXPECT_TRUE(res.resize_completed)
        << "seed " << seed << " healed at " << res.final_shards
        << " shards (epoch " << res.final_epoch << ")";
    EXPECT_GE(res.final_epoch, 1u) << "seed " << seed;
    total_acked += res.acked_ops;
    if (res.resize_completed) ++completed;
    fs::remove_all(dir);
  }
  // The storm must actually have stormed AND the cluster must have grown.
  EXPECT_GT(total_acked, 0u);
  EXPECT_EQ(completed, last_seed - first_seed + 1);
  fs::remove_all(root);
}

TEST(ReshardChaosTest, KillSourceMidSnapshotSeeds1To9) {
  run_reshard_sweep(1, 9, testing::MigrationFault::kKillSourceMidSnapshot);
}

TEST(ReshardChaosTest, KillDestBeforeCutoverSeeds1To9) {
  run_reshard_sweep(1, 9, testing::MigrationFault::kKillDestBeforeCutover);
}

TEST(ReshardChaosTest, PartitionDuringUnfreezeSeeds1To9) {
  run_reshard_sweep(1, 9, testing::MigrationFault::kPartitionDuringUnfreeze);
}

TEST(ReshardChaosTest, SameSeedSameOutcome) {
  // A resize round replays from its seed, durable restarts included: the
  // schedule, the verdicts, every outcome and every counter match run to
  // run in fresh directories (the wall-clock recovery histograms do not).
  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() /
      ("raincore_reshard_replay_" + std::to_string(::getpid()));
  testing::ReshardRoundOptions opts;
  opts.fault = testing::MigrationFault::kKillDestBeforeCutover;
  const testing::ChaosRoundResult a =
      testing::run_reshard_round(1, (root / "a").string(), opts);
  const testing::ChaosRoundResult b =
      testing::run_reshard_round(1, (root / "b").string(), opts);
  fs::remove_all(root);
  EXPECT_GT(a.faults, 0u);
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.acked_ops, b.acked_ops);
  EXPECT_EQ(a.voided_ops, b.voided_ops);
  EXPECT_EQ(a.acked_lost, b.acked_lost);
  EXPECT_EQ(a.phantom_resurrections, b.phantom_resurrections);
  EXPECT_EQ(a.final_epoch, b.final_epoch);
  EXPECT_EQ(a.final_shards, b.final_shards);
  EXPECT_EQ(a.metrics.counters, b.metrics.counters);
}

}  // namespace
}  // namespace raincore
