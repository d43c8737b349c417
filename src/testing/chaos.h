// Deterministic chaos engine.
//
// Injects a randomized but fully seed-replayable schedule of faults into a
// SimNetwork — crash/restart with new incarnations, partitions, link cuts,
// drop-rate bursts, latency storms, duplication bursts, corruption bursts,
// reordering windows, RTT inflation, asymmetric loss, link flaps, and (for
// the durable data plane) shard and whole-cluster restarts. Every
// stochastic decision draws from one seeded Rng in virtual time, so the
// seed plus the recorded schedule reproduce a run bit-for-bit.
//
// The engine only drives the network and the up/down bookkeeping; the
// protocol stack reacts through hooks. ChaosCluster (testing/
// chaos_cluster.h) is the harness that pairs it with live stacks and the
// invariant checkers; TestCluster and the benches use it directly.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "net/sim_network.h"

namespace raincore::testing {

enum class FaultClass : std::uint8_t {
  kCrashRestart = 0,  ///< node crash-stops, later rejoins as a new incarnation
  kPartition,         ///< fabric splits into two isolated groups, then heals
  kLinkCut,           ///< one node pair loses connectivity, then recovers
  kDropBurst,         ///< one node pair suffers heavy packet loss for a while
  kLatencyStorm,      ///< one node pair's latency/jitter spikes
  kDuplicateBurst,    ///< one node pair duplicates packets
  kCorruptBurst,      ///< one node pair flips payload bits in flight
  kReorderWindow,     ///< one node pair stops preserving FIFO order
  kRttInflate,        ///< sustained multi-x latency inflation on a node pair
  kAsymLoss,          ///< heavy one-direction-only packet loss on a pair
  kLinkFlap,          ///< link toggles up/down on a short period, then heals
  kShardRestart,      ///< one data-plane shard restarts cluster-wide (durability)
  kClusterRestart,    ///< every node crash-stops, then the whole cluster restarts
  kCount,             ///< number of fault classes (not a fault)
};

const char* fault_class_name(FaultClass c);

struct ChaosConfig {
  std::uint64_t seed = 1;
  /// Mean (exponential) gap between fault injections.
  Time mean_gap = millis(120);
  /// Mean (exponential) duration of a fault before it auto-reverts.
  Time mean_duration = millis(350);
  /// Crash faults never reduce the up-node count below this.
  std::size_t min_alive = 2;
  /// Relative weight per fault class, indexed by FaultClass. Zero disables
  /// the class. The restart-storm classes (kShardRestart, kClusterRestart)
  /// default to zero: they only make sense against a durability harness
  /// that installs the shard/cluster hooks, and a zero weight keeps every
  /// pre-existing seeded schedule bit-for-bit identical.
  double weights[static_cast<std::size_t>(FaultClass::kCount)] = {
      1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0};
  /// Shard count of the harness's data plane; kShardRestart needs it > 0.
  std::size_t n_shards = 0;
};

/// One injected fault, recorded for the replayable schedule.
struct FaultEvent {
  Time at = 0;
  FaultClass cls = FaultClass::kCrashRestart;
  NodeId a = kInvalidNode;  ///< affected node (or first of the pair)
  NodeId b = kInvalidNode;  ///< second of the pair, if pairwise
  double rate = 0.0;        ///< drop/duplicate/corrupt probability, if any
  Time duration = 0;        ///< time until auto-revert
  /// Shard index, kShardRestart only.
  std::size_t shard = static_cast<std::size_t>(-1);

  std::string describe() const;
};

/// Injects a randomized, seed-replayable fault schedule into a SimNetwork.
/// The engine owns node up/down state and link overrides while running;
/// crash/restart of the protocol stack is delegated to the hooks so the
/// engine works with any harness (TestCluster, ChaosCluster, benches).
class ChaosEngine {
 public:
  using NodeHook = std::function<void(NodeId)>;
  using ShardHook = std::function<void(std::size_t)>;

  ChaosEngine(net::SimNetwork& net, std::vector<NodeId> ids, ChaosConfig cfg);
  ChaosEngine(const ChaosEngine&) = delete;
  ChaosEngine& operator=(const ChaosEngine&) = delete;
  ~ChaosEngine();

  /// Called right before the engine marks the node down (stop the stack).
  void set_crash_hook(NodeHook fn) { on_crash_ = std::move(fn); }
  /// Called right after the engine marks the node up again (rejoin as a new
  /// incarnation).
  void set_restart_hook(NodeHook fn) { on_restart_ = std::move(fn); }
  /// Shard-restart hooks (kShardRestart; requires cfg.n_shards > 0): the
  /// harness stops/recovers the shard's service on every live node. Node
  /// up/down state is untouched — the shard dies cluster-wide while every
  /// other shard keeps serving.
  void set_shard_crash_hook(ShardHook fn) { on_shard_crash_ = std::move(fn); }
  void set_shard_restart_hook(ShardHook fn) {
    on_shard_restart_ = std::move(fn);
  }

  /// Targeted injections (the migration fault schedules of DESIGN.md §5j):
  /// same machinery, bookkeeping and auto-revert as the randomized injector,
  /// and recorded in the replayable schedule. Return false when the fault
  /// cannot apply right now (node already down, partition already active).
  bool inject_crash(NodeId id, Time duration);
  bool inject_partition(std::vector<NodeId> group_a, Time duration);

  /// Begins injecting faults (timers run on the network's event loop).
  void start();
  /// Stops injecting, reverts every active fault, heals the partition and
  /// restarts every crashed node — the cluster is left fault-free.
  void stop_and_heal();

  bool running() const { return running_; }
  std::vector<NodeId> alive() const;

  const std::vector<FaultEvent>& schedule() const { return schedule_; }
  std::size_t faults_injected() const { return schedule_.size(); }
  /// Which fault classes have fired so far.
  std::set<FaultClass> classes_seen() const;
  /// Seed header plus one line per injected fault — printed on violation so
  /// the failing run can be replayed exactly.
  std::string describe_schedule() const;

 private:
  void schedule_next();
  void inject_one();
  FaultClass pick_class();
  NodeId pick_alive();
  std::pair<NodeId, NodeId> pick_pair();
  void crash(NodeId id, Time duration);
  void restart(NodeId id);
  void restart_shard(std::size_t shard);
  void add_revert(Time after, std::function<void()> fn);
  /// One phase of a link-flap fault: toggles the link and schedules the
  /// next phase until `until` (or stop_and_heal) restores the link.
  void flap_link(NodeId a, NodeId b, bool down, Time period, Time until);

  net::SimNetwork& net_;
  std::vector<NodeId> ids_;
  ChaosConfig cfg_;
  Rng rng_;
  bool running_ = false;
  net::TimerId next_timer_ = 0;
  std::set<NodeId> down_;
  std::set<std::size_t> shards_down_;
  /// Groups of the currently active partition (empty = none). A node that
  /// restarts while a partition is active joins a random group so it cannot
  /// bridge the split.
  std::vector<std::vector<NodeId>> partition_groups_;
  struct Revert {
    net::TimerId timer = 0;
    std::function<void()> fn;
  };
  std::map<std::uint64_t, Revert> reverts_;
  std::uint64_t next_revert_id_ = 1;
  std::vector<FaultEvent> schedule_;
  NodeHook on_crash_;
  NodeHook on_restart_;
  ShardHook on_shard_crash_;
  ShardHook on_shard_restart_;
};

}  // namespace raincore::testing
