// The chaos harness: live simulated Raincore stacks under a ChaosEngine
// fault schedule, plus the invariant checkers the paper promises.
//
// One cluster class, three stack configurations (ChaosStack):
//
//   - kApp: one session ring per node with channel mux, replicated map,
//     lock manager and VIP manager on a shared subnet, plus the
//     failure-detection oracle (removals of nodes whose process was alive);
//   - kMultiRing: K independent rings over ONE shared transport per node
//     (session/session_mux.h); a crash takes the whole mux down;
//   - kDurable: the durable sharded data plane (SessionMux, per-shard
//     WAL+snapshot stores on disk, ShardedMap, ShardedLockManager,
//     ReshardManager) under restart storms, optionally resizing live.
//
// The ring configurations (kApp, kMultiRing) share one definition of each
// ring invariant, run over every node's list of rings:
//
//   - at most one token holder among nodes sharing an identical view (§2.2);
//   - membership converges to exactly the live set (§2.3/§2.4);
//   - duplicate-free, in-order chaos deliveries per incarnation (§2.6);
//   - a post-heal agreed batch arrives complete, exactly once, and in the
//     identical order on every node (§2.6).
//
// kApp adds lock exclusion (§2.7), map convergence (§3) and VIP coverage
// (§3.1); kMultiRing adds detector consistency (every ring of a node agrees
// on the live set; one transport.rtt_samples instrument per node). kDurable
// judges shard convergence instead, plus the durability oracle:
//
//   A write is ACKNOWLEDGED only when the issuing node observed its own
//   apply and the journal record of that apply is durable (its LSN is at
//   or below the shard store's durable LSN). Acks are swept on a short
//   timer and at every crash boundary; ops that never resolve are voided
//   (a client timeout — their effects MAY survive). After heal the final
//   replicated state is classified per key against its issue history:
//   "acked write lost" (matches neither the newest acked op nor any later
//   one) and "phantom resurrection" (a value older than an acknowledged
//   erase). Both must be zero. With a live resize, every surviving key must
//   also sit on exactly its final owner shard.
//
// Every stochastic decision derives from the ChaosConfig seed, so a
// violation report (seed + fault schedule) replays bit-for-bit.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "apps/vip/vip_manager.h"
#include "common/metrics.h"
#include "data/lock_manager.h"
#include "data/replicated_map.h"
#include "data/reshard.h"
#include "data/shard_router.h"
#include "session/session_mux.h"
#include "session/session_node.h"
#include "testing/chaos.h"

namespace raincore::testing {

/// Targeted migration fault schedules (DESIGN.md §5j), layered on top of
/// the background restart storm. Each fires once per round, triggered by
/// the observed phase of the live migration rather than by wall time.
enum class MigrationFault : std::uint8_t {
  kNone = 0,
  /// Crash the coordinator while a frozen range's snapshot chunks are in
  /// flight to the destination ring (the source-side replica the chunks
  /// are being read from dies mid-transfer).
  kKillSourceMidSnapshot,
  /// Crash a destination replica after the freeze landed but before the
  /// CUTOVER record does.
  kKillDestBeforeCutover,
  /// Split the fabric while ranges are cut over and unfreezing.
  kPartitionDuringUnfreeze,
};

struct DurabilityConfig {
  std::size_t n_shards = 2;
  std::size_t slots_per_node = 4;
  /// Client retry timeout: a pending op older than this is voided.
  Time op_timeout = millis(2500);
  /// Ack sweep cadence.
  Time sweep_every = millis(2);
  storage::StorageConfig storage;  ///< dir filled in by the harness
  /// Elastic resharding under the storm: when resize_to > n_shards the
  /// harness asks a live node to start_resize(resize_to) at resize_at into
  /// the chaos phase (re-requesting if the request dies with its proposer)
  /// and the heal phase waits for the migration to finish before judging
  /// the oracles over the FINAL shard count.
  std::size_t resize_to = 0;
  Time resize_at = millis(400);
  MigrationFault migration_fault = MigrationFault::kNone;
  /// Crash/partition length of the targeted migration fault.
  Time migration_fault_duration = millis(250);
};

/// Which stack every node of a ChaosCluster runs.
struct ChaosStack {
  enum class Kind : std::uint8_t { kApp, kMultiRing, kDurable };
  Kind kind = Kind::kApp;
  std::size_t n_rings = 1;  ///< kMultiRing: rings per node
  /// kDurable: holds one "node<id>" subdirectory per node, each with one
  /// directory per shard store. The caller owns its cleanup.
  std::string root_dir;
  DurabilityConfig durable;  ///< kDurable

  static ChaosStack multi_ring(std::size_t n_rings) {
    ChaosStack s;
    s.kind = Kind::kMultiRing;
    s.n_rings = n_rings;
    return s;
  }
  static ChaosStack durable_plane(std::string root_dir, DurabilityConfig cfg) {
    ChaosStack s;
    s.kind = Kind::kDurable;
    s.root_dir = std::move(root_dir);
    s.durable = cfg;
    return s;
  }
};

/// Outcome of one chaos round. Everything derives from the seed; identical
/// seeds produce identical schedules and outcomes.
struct ChaosRoundResult {
  std::vector<std::string> violations;
  std::string schedule;  ///< seed + fault log (replay recipe)
  std::size_t faults = 0;
  std::set<FaultClass> classes;
  /// Final cluster-wide metrics. Deterministic per seed, except the
  /// durable stack's wall-clock recovery histograms (compare its counters).
  metrics::Snapshot metrics;
  std::size_t reservoir_samples = 0;  ///< kApp
  /// Full diagnostic artifact; non-empty only when the round had violations.
  std::string report;
  /// Failure-detection oracle (kApp; also in `metrics` under session.*).
  std::uint64_t false_removals = 0;
  std::uint64_t true_removals = 0;
  /// Durability oracle (kDurable).
  std::uint64_t acked_ops = 0;
  std::uint64_t voided_ops = 0;
  std::uint64_t acked_lost = 0;
  std::uint64_t phantom_resurrections = 0;
  /// Migration outcome (kDurable; zero / n_shards / false without a resize).
  std::uint64_t final_epoch = 0;
  std::size_t final_shards = 0;
  bool resize_completed = false;
};

class ChaosCluster {
 public:
  ChaosCluster(std::vector<NodeId> ids, ChaosConfig chaos_cfg,
               session::SessionConfig session_cfg = {},
               net::SimNetConfig net_cfg = {}, ChaosStack stack = {});
  ~ChaosCluster();

  /// Phase 1: found everybody and wait for one converged group (every ring,
  /// or every shard ring with its map synced). A zero timeout picks the
  /// configuration's default.
  bool bootstrap(Time timeout = 0);
  /// Phase 2: background traffic + fault injection for `duration`.
  void run_chaos(Time duration);
  /// Phase 3: heal everything, wait for a stable reconvergence, quiesce and
  /// run the configuration's checks. Appends to violations().
  void heal_and_check(Time converge_timeout = 0);

  const std::vector<std::string>& violations() const { return violations_; }
  ChaosEngine& engine() { return *engine_; }
  net::SimNetwork& net() { return net_; }
  /// The node's first ring (its only one in the kApp stack).
  session::SessionNode& session(NodeId id) {
    return *rings_of(node(id)).front();
  }

  /// Cluster-wide merge of every layer's instruments on every node (plus,
  /// for kApp, the harness's failure-detection oracle instruments).
  metrics::Snapshot metrics_snapshot() const;
  /// Removals of a node whose process was alive at removal time (kApp).
  std::uint64_t false_removals() const { return false_removals_.value(); }
  /// Removals of genuinely crashed nodes (kApp).
  std::uint64_t true_removals() const { return true_removals_.value(); }
  /// Samples held across all histogram reservoirs of the kApp stack — the
  /// memory-flatness measure for long soaks.
  std::size_t reservoir_samples() const;
  /// Live ring state of every node (RingIntrospector rendering).
  std::string ring_dump() const;
  /// Diagnostic artifact for a failed round: violations, the replayable
  /// fault schedule, the ring dump, and the final metrics table.
  std::string failure_report() const;
  /// Everything above, packaged; the report only when there are violations.
  ChaosRoundResult result() const;

  /// Durability oracle (kDurable).
  std::uint64_t acked_ops() const { return acked_ops_; }
  std::uint64_t voided_ops() const { return voided_ops_; }
  std::uint64_t acked_lost() const { return acked_lost_; }
  std::uint64_t phantom_resurrections() const { return phantoms_; }
  /// Issue→ack latencies (ms) of every acked op, split by whether the
  /// migration window was open at issue or ack time (bench_reshard's blip).
  const std::vector<double>& ack_latencies_steady_ms() const {
    return ack_lat_steady_;
  }
  const std::vector<double>& ack_latencies_migration_ms() const {
    return ack_lat_migration_;
  }
  /// First/last sim time the migration window was observed open (0 if the
  /// watch never saw it).
  Time migration_first_open() const { return mig_first_open_; }
  Time migration_last_open() const { return mig_last_open_; }
  /// Final migration outcome, valid after heal_and_check.
  std::uint64_t final_epoch() const { return final_epoch_; }
  std::size_t final_shard_count() const { return final_shards_; }
  bool resize_completed() const {
    return stack_.durable.resize_to > 0 &&
           final_shards_ == stack_.durable.resize_to;
  }

 private:
  struct Delivered {
    std::uint64_t recv_epoch;
    NodeId origin;
    std::string payload;
  };
  struct Node {
    // kApp stack.
    std::unique_ptr<session::SessionNode> session;
    std::unique_ptr<data::ChannelMux> chan;
    std::unique_ptr<data::ReplicatedMap> map;
    std::unique_ptr<data::LockManager> locks;
    std::unique_ptr<apps::VipManager> vips;
    // kMultiRing and kDurable: one shared transport per node.
    std::unique_ptr<session::SessionMux> mux;
    // kDurable stack.
    std::unique_ptr<data::ShardedDataPlane> plane;
    std::unique_ptr<data::ShardedMap> smap;
    std::unique_ptr<data::ShardedLockManager> slocks;
    std::unique_ptr<data::ReshardManager> mgr;
    /// Shards whose store+ring are down on this node.
    std::set<std::size_t> shards_down;
    /// What the ring checkers watch (kApp, kMultiRing), with a delivery log
    /// and a traffic counter per ring.
    std::vector<session::SessionNode*> rings;
    std::vector<std::vector<Delivered>> logs;
    std::vector<std::uint64_t> counters;
    std::uint64_t epoch = 0;  ///< incremented on every chaos restart
    net::TimerId traffic_timer = 0;
    Rng traffic_rng{0};
    Time crashed_at = -1;    ///< virtual time of the current crash, -1 if up
    Time restarted_at = -1;  ///< virtual time of the last chaos restart
    bool detection_recorded = false;  ///< latency sampled for this crash
    bool crashed() const { return crashed_at >= 0; }
  };
  /// One issued client op (kDurable). `id` is a cluster-global issue
  /// ordinal; values "v<id>-<key>" are unique, so the final state names
  /// its op.
  struct OpRecord {
    std::uint64_t id = 0;
    bool is_erase = false;
    std::string value;  ///< empty for erases
    bool acked = false;
  };
  /// The in-flight op of one slot (at most one outstanding per slot).
  struct Pending {
    std::uint64_t op_id = 0;
    NodeId node = kInvalidNode;
    std::string key;
    std::size_t shard = 0;
    bool applied = false;           ///< own apply observed
    std::uint64_t applied_lsn = 0;  ///< store LSN of the journal record
    Time issued_at = 0;
    bool saw_migration = false;  ///< migration window open at issue or ack
  };

  bool is(ChaosStack::Kind k) const { return stack_.kind == k; }
  Node& node(NodeId id) { return *nodes_.at(id); }
  const Node& node(NodeId id) const { return *nodes_.at(id); }
  /// Every ring a node currently runs (shard rings for kDurable).
  std::vector<session::SessionNode*> rings_of(const Node& n) const;
  void violation(std::string what);
  /// "node <id>", plus " ring <r>" in the multi-ring stack.
  std::string where(NodeId id, std::size_t ring) const;
  /// Runs the loop until `ready` holds continuously for 300 ms (or the
  /// timeout), so a removal decided during the fault window can land and
  /// the victim rejoin before anything is judged.
  void wait_stable(const std::function<bool()>& ready, Time timeout);

  void build_node(NodeId id, Rng& setup_rng);
  void on_crash(NodeId id);
  void on_restart(NodeId id);
  void start_traffic(NodeId id);
  void send(Node& n, std::size_t ring, const std::string& payload);
  void on_removal_observed(NodeId removed);

  // Ring checkers (kApp, kMultiRing).
  bool rings_converged(const std::vector<NodeId>& live) const;
  void check_token_uniqueness(const char* when);
  void check_membership(const std::vector<NodeId>& live);
  void check_chaos_deliveries();
  void check_final_batch(const std::vector<NodeId>& live);
  // kApp checks.
  void check_lock_service(const std::vector<NodeId>& live);
  void check_map_convergence(const std::vector<NodeId>& live);
  void check_vip_coverage(const std::vector<NodeId>& live);
  // kMultiRing check.
  void check_detector_consistency(const std::vector<NodeId>& live);

  // kDurable: client ops, acks, shard faults, live resize, oracles.
  void heal_durable(Time converge_timeout);
  bool durable_settled();
  void issue_op(NodeId id);
  void on_map_change(NodeId id, std::size_t shard, const std::string& key,
                     const std::optional<std::string>& value, NodeId origin);
  void sweep_acks(NodeId id);
  void sweep_acks_shard(std::size_t shard);
  void void_pending_if(const std::function<bool(const Pending&)>& pred);
  void ack(Pending& p);
  void schedule_sweep();
  bool migration_open() const;
  void crash_shard(std::size_t shard);
  void restart_shard(std::size_t shard);
  void schedule_resize(Time delay);
  void schedule_migration_watch();
  /// Re-requests the resize when no node shows any trace of it (the first
  /// request can die with its proposer); idempotent once it took hold.
  void ensure_resize_requested();
  void watch_migration_fault();
  void check_shard_convergence(const std::vector<NodeId>& live);
  void check_ownership();
  void run_oracle();

  net::SimNetwork net_;
  session::SessionConfig session_cfg_;
  ChaosConfig chaos_cfg_;
  ChaosStack stack_;
  apps::Subnet subnet_;
  std::unique_ptr<ChaosEngine> engine_;
  std::map<NodeId, std::unique_ptr<Node>> nodes_;
  std::vector<NodeId> ids_;
  bool traffic_on_ = false;
  std::vector<std::string> violations_;

  /// Harness-owned oracle instruments (kApp): removal outcomes judged
  /// against ground truth and the crash-to-first-removal latency.
  metrics::Registry harness_metrics_;
  Counter& false_removals_ = harness_metrics_.counter("session.false_removals");
  Counter& true_removals_ = harness_metrics_.counter("session.true_removals");
  Histogram& detection_latency_ =
      harness_metrics_.histogram("session.detection_latency_ns");

  // kDurable state.
  std::set<std::size_t> global_shards_down_;
  net::TimerId sweep_timer_ = 0;
  net::TimerId resize_timer_ = 0;
  net::TimerId watch_timer_ = 0;
  bool resize_requested_ = false;
  Time resize_requested_at_ = 0;
  bool migration_fault_fired_ = false;
  std::uint64_t final_epoch_ = 0;
  std::size_t final_shards_ = 0;
  std::uint64_t next_op_id_ = 1;
  /// key -> pending op (one outstanding per slot == per key).
  std::map<std::string, Pending> pending_;
  /// key -> full issue history, oldest first.
  std::map<std::string, std::vector<OpRecord>> history_;
  std::vector<double> ack_lat_steady_;
  std::vector<double> ack_lat_migration_;
  Time mig_first_open_ = 0;
  Time mig_last_open_ = 0;
  std::uint64_t acked_ops_ = 0;
  std::uint64_t voided_ops_ = 0;
  std::uint64_t acked_lost_ = 0;
  std::uint64_t phantoms_ = 0;
};

/// Environment profile for a ring chaos round, layered under the fault
/// schedule: a uniform base packet-loss rate on every link, the choice
/// between the paper's fixed-RTO detector and the adaptive one, and the
/// token-hop batching knobs (zero = session defaults, which keeps every
/// pre-batching seeded schedule bit-identical).
struct ChaosProfile {
  double base_loss = 0.0;
  bool adaptive = false;
  std::size_t max_batch_msgs = 0;
  std::size_t max_batch_bytes = 0;
  Time flush_deadline = 0;
};

/// One full round — bootstrap → chaos + traffic → heal → checks — per
/// configuration. The durable rounds keep their on-disk state under `dir`
/// (a fresh subtree per seed; the caller removes it afterwards).
ChaosRoundResult run_chaos_round(std::uint64_t seed,
                                 Time chaos_duration = millis(2000),
                                 std::size_t n_nodes = 5,
                                 ChaosProfile profile = {});
ChaosRoundResult run_multi_ring_round(std::uint64_t seed,
                                      Time chaos_duration = millis(2000),
                                      std::size_t n_nodes = 4,
                                      std::size_t n_rings = 3,
                                      ChaosProfile profile = {});
ChaosRoundResult run_durability_round(std::uint64_t seed,
                                      const std::string& dir,
                                      Time chaos_duration = millis(2200),
                                      std::size_t n_nodes = 4,
                                      std::size_t n_shards = 2);

/// A live-resize round: the cluster grows n_shards -> resize_to mid-storm
/// while one targeted migration fault (plus a lighter background schedule)
/// fires at its trigger phase; heal additionally requires agreement on the
/// final epoch and shard count, and every key on its final owner shard.
struct ReshardRoundOptions {
  std::size_t resize_to = 4;
  Time resize_at = millis(350);
  MigrationFault fault = MigrationFault::kNone;
};

ChaosRoundResult run_reshard_round(std::uint64_t seed, const std::string& dir,
                                   ReshardRoundOptions opts = {},
                                   Time chaos_duration = millis(1800),
                                   std::size_t n_nodes = 4,
                                   std::size_t n_shards = 2);

}  // namespace raincore::testing
