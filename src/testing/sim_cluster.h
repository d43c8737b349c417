// One way to build a simulated Raincore cluster: the SimNetwork, the node
// ids and one protocol stack per node (paper §2: reliable transport, the
// token-ring session, the data service and the apps above it), plus one set
// of bootstrap, convergence and crash/restart helpers. Tests, benches and
// ChaosCluster all build their clusters here.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "apps/vip/vip_manager.h"
#include "data/lock_manager.h"
#include "data/replicated_map.h"
#include "data/reshard.h"
#include "data/shard_router.h"
#include "net/sim_network.h"
#include "session/hierarchical.h"
#include "session/session_mux.h"
#include "session/session_node.h"
#include "testing/chaos.h"

namespace raincore::testing {

/// Node ids 1..n.
inline std::vector<NodeId> node_ids(std::size_t n) {
  std::vector<NodeId> ids;
  for (std::size_t i = 1; i <= n; ++i) ids.push_back(static_cast<NodeId>(i));
  return ids;
}

/// One message as a node's logged ring (or logged channel) delivered it.
struct Delivery {
  NodeId origin;
  std::string payload;
  session::Ordering ordering;
  std::uint64_t incarnation;  ///< receiver's incarnation at delivery time

  /// Same message in the same order: the receiver's incarnation is local.
  bool operator==(const Delivery& o) const {
    return origin == o.origin && payload == o.payload &&
           ordering == o.ordering;
  }
};

/// Which stack every node of a SimCluster runs.
struct SimStack {
  enum class Kind : std::uint8_t {
    kRing,       ///< one SessionNode; deliveries and views are logged
    kChannels,   ///< one SessionNode under a ChannelMux, plus services below
    kMultiRing,  ///< `rings` SessionNodes over one shared SessionMux
    kSharded,    ///< a ShardedDataPlane of `rings` shards over one SessionMux
    kHierarchy,  ///< one HierarchicalNode per member of `hierarchy.rings`
  };
  Kind kind = Kind::kRing;
  std::size_t rings = 1;  ///< kMultiRing: rings per node; kSharded: shards
  /// kChannels: ReplicatedMap/LockManager; kSharded: ShardedMap/
  /// ShardedLockManager. Unset = no such service.
  std::optional<data::Channel> map_channel;
  std::optional<data::Channel> lock_channel;
  /// kChannels: a VipManager per node on the cluster's shared subnet.
  std::optional<apps::VipConfig> vips;
  /// kChannels: the channel whose deliveries are logged and send() uses.
  std::optional<data::Channel> log_channel;
  /// kSharded: nonzero adds a ReshardManager whose epoch-0 table has this
  /// many shards (needs both service channels).
  std::size_t reshard_from = 0;
  /// kSharded: a non-empty dir makes the plane durable, with one
  /// "node<id>" subdirectory per node. The caller owns its cleanup.
  storage::StorageConfig storage;
  session::HierarchyConfig hierarchy;  ///< kHierarchy

  static SimStack channels() { return with(Kind::kChannels, 1); }
  static SimStack multi_ring(std::size_t rings) {
    return with(Kind::kMultiRing, rings);
  }
  static SimStack sharded(std::size_t shards) {
    return with(Kind::kSharded, shards);
  }

 private:
  static SimStack with(Kind kind, std::size_t rings) {
    SimStack s;
    s.kind = kind;
    s.rings = rings;
    return s;
  }
};

class SimCluster {
 public:
  /// Every object one node runs; which members are set follows the kind.
  struct Node {
    // kRing, kChannels.
    std::unique_ptr<session::SessionNode> session;
    std::unique_ptr<data::ChannelMux> chan;
    std::unique_ptr<data::ReplicatedMap> map;
    std::unique_ptr<data::LockManager> locks;
    std::unique_ptr<apps::VipManager> vips;
    // kMultiRing, kSharded: one shared transport per node.
    std::unique_ptr<session::SessionMux> mux;
    // kSharded.
    std::unique_ptr<data::ShardedDataPlane> plane;
    std::unique_ptr<data::ShardedMap> smap;
    std::unique_ptr<data::ShardedLockManager> slocks;
    std::unique_ptr<data::ReshardManager> mgr;
    // kHierarchy.
    std::unique_ptr<session::HierarchicalNode> hier;
    /// One log per logged ring (kRing, kMultiRing), the logged channel
    /// (kChannels) or the hierarchy-wide stream (kHierarchy).
    std::vector<std::vector<Delivery>> delivered;
    std::vector<std::vector<session::View>> views;  ///< kRing, kMultiRing
    std::uint64_t incarnation = 0;  ///< bumped by every restart()
  };

  SimCluster(std::vector<NodeId> ids, session::SessionConfig cfg = {},
             net::SimNetConfig net_cfg = {}, SimStack stack = {});
  /// A hierarchy: one node per member of cfg.rings, in ring order.
  explicit SimCluster(session::HierarchyConfig cfg,
                      net::SimNetConfig net_cfg = {});
  ~SimCluster();
  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  /// Founds every node (each a singleton group; discovery merges them).
  /// A durable plane opens its stores first; false if any fails to open.
  bool found_all();
  /// Founds the first node, joins the rest through it (ring stacks), then
  /// waits for converged(ids()).
  bool bootstrap_via_join(Time timeout = seconds(10));
  /// found_all, then waits for converged(ids()).
  bool bootstrap(Time timeout = seconds(10));

  void run(Time d) { net_.loop().run_for(d); }
  /// Runs in 10 ms steps until pred holds or the timeout passes.
  bool run_until(const std::function<bool()>& pred, Time timeout);
  bool run_until_converged(const std::vector<NodeId>& live, Time timeout) {
    return run_until([&] { return converged(live); }, timeout);
  }
  /// Every live node is up, each of its rings holds exactly `live` and its
  /// map (if any) has synced. In a hierarchy, each local ring holds exactly
  /// its live members and one leader per such ring sits in a global ring of
  /// all of them. Nodes outside `live` are not consulted.
  bool converged(const std::vector<NodeId>& live) const;

  /// Crash-stop: the stack stops (a durable plane loses its unsynced WAL
  /// tail), then the node's cable is pulled.
  void crash(NodeId id);
  /// Plugs the node back in and starts a new incarnation: ring stacks
  /// found anew; a durable plane opens and recovers every store not in
  /// `shards_down`, rebuilds its migration window, then founds those
  /// shards' rings. False if a store fails to open.
  bool restart(NodeId id, const std::set<std::size_t>& shards_down = {});

  /// Background chaos whose crash/restart hooks call crash()/restart().
  /// Call engine.start() to begin and stop_and_heal() before asserting.
  ChaosEngine& enable_chaos(ChaosConfig cfg = {});

  Node& node(NodeId id) { return *nodes_.at(id); }
  const Node& node(NodeId id) const { return *nodes_.at(id); }
  /// The node's first ring (its only one in the kRing/kChannels stacks).
  session::SessionNode& session(NodeId id) { return *rings(id).front(); }
  /// Every ring the node runs now (shard rings grow with a resize; a
  /// hierarchy node runs its local and its global ring).
  std::vector<session::SessionNode*> rings(NodeId id) const;
  net::SimNetwork& net() { return net_; }
  apps::Subnet& subnet() { return subnet_; }
  const std::vector<NodeId>& ids() const { return ids_; }
  const std::vector<Delivery>& delivered(NodeId id, std::size_t ring = 0) {
    return node(id).delivered.at(ring);
  }

  /// Multicasts a string on the node's ring (kRing, kMultiRing), its
  /// logged channel (kChannels) or its hierarchy.
  MsgSeq send(NodeId from, const std::string& payload,
              session::Ordering o = session::Ordering::kAgreed,
              std::size_t ring = 0);
  /// Ring 0's delivery sequences must agree across all started nodes; the
  /// first divergence, or empty.
  std::string check_agreed_order();

 private:
  void build(NodeId id);
  bool hierarchy_converged(const std::vector<NodeId>& live) const;

  net::SimNetwork net_;
  session::SessionConfig cfg_;
  SimStack stack_;
  std::vector<NodeId> ids_;
  apps::Subnet subnet_;
  std::map<NodeId, std::unique_ptr<Node>> nodes_;
  std::unique_ptr<ChaosEngine> chaos_;
};

}  // namespace raincore::testing
