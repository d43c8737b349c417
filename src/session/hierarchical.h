// Hierarchical Raincore (the paper's §5 future-work item: "we are currently
// working on the hierarchical design that extends the scalability of the
// protocol").
//
// Nodes are statically partitioned into local token rings. The lowest-id
// live member of each ring is its *leader* and additionally participates in
// a global ring. Both rings are groups on one shared-transport SessionMux:
// one endpoint (one UDP port on real deployments), one failure detector,
// one set of per-peer RTT/health state — the global ring is demuxed by the
// wire header's group id instead of running a second stack in a disjoint
// logical id space. Multicasts travel: local ring → leader → global ring →
// other leaders → their local rings. Leadership fails over automatically
// with local membership.
//
// Ordering: FIFO per origin across the whole hierarchy, agreed (total)
// order within each ring's deliveries of its local traffic. Global total
// order across rings is deliberately not promised — that is the classical
// price of hierarchical group communication, traded for token roundtrip
// times that scale with ring size instead of cluster size.
#pragma once

#include <map>
#include <set>

#include "session/session_mux.h"

namespace raincore::session {

struct HierarchyConfig {
  /// Static partition of all nodes into local rings.
  std::vector<std::vector<NodeId>> rings;
  /// Session parameters used for both the local and the global ring.
  SessionConfig session;
  /// Leadership must be held this long before the node joins the global
  /// ring. During bootstrap every node transiently leads its own singleton
  /// ring; without the grace period all of them would found global
  /// sessions that then have to merge and resign again.
  Time leader_grace = millis(1500);

  int ring_of(NodeId node) const {
    for (std::size_t r = 0; r < rings.size(); ++r) {
      for (NodeId n : rings[r]) {
        if (n == node) return static_cast<int>(r);
      }
    }
    return -1;
  }
};

class HierarchicalNode {
 public:
  /// Demux groups of the two rings on the shared transport.
  static constexpr transport::MuxGroup kLocalGroup = 0;
  static constexpr transport::MuxGroup kGlobalGroup = 1;

  /// Payload slices alias the local ring's token frame (zero-copy).
  using DeliverFn = std::function<void(NodeId origin, const Slice& payload)>;

  /// One endpoint per node: both the local and the (leader-only) global
  /// ring ride `env` through a shared-transport SessionMux.
  HierarchicalNode(net::NodeEnv& env, HierarchyConfig cfg);
  ~HierarchicalNode() { stop(); }  // cancels the grace timer's `this` capture

  /// Starts the local session (founding or joining its ring peers).
  void start();
  void stop();

  /// Hierarchy-wide FIFO multicast: delivered on every node of every ring.
  MsgSeq multicast(Slice payload);
  MsgSeq multicast(Bytes payload) {
    return multicast(Slice::take(std::move(payload)));
  }

  void set_deliver_handler(DeliverFn fn) { on_deliver_ = std::move(fn); }

  NodeId id() const { return local_.id(); }
  bool is_leader() const { return leader_; }
  const View& local_view() const { return local_.view(); }
  const View& global_view() const { return global_.view(); }
  SessionNode& local_session() { return local_; }
  SessionNode& global_session() { return global_; }
  /// The shared runtime both rings ride (one transport, one detector).
  SessionMux& mux() { return mux_; }

  /// Named views into the hierarchy registry ("hier.*" instruments).
  struct Stats {
    explicit Stats(metrics::Registry& r)
        : forwarded_to_global(r.counter("hier.forwarded_to_global")),
          injected_from_global(r.counter("hier.injected_from_global")),
          duplicates_dropped(r.counter("hier.duplicates_dropped")),
          leadership_gained(r.counter("hier.leadership_gained")),
          leadership_lost(r.counter("hier.leadership_lost")) {}
    Counter &forwarded_to_global, &injected_from_global, &duplicates_dropped;
    Counter &leadership_gained, &leadership_lost;
  };
  const Stats& stats() const { return stats_; }
  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }

 private:
  struct WireMsg {
    std::uint32_t ring = 0;
    NodeId origin = kInvalidNode;
    std::uint32_t incarnation = 0;
    MsgSeq seq = 0;
    Slice payload;
  };
  static Slice encode(const WireMsg& m);
  static bool decode(const Slice& b, WireMsg& m);

  void on_local_deliver(const Slice& payload);
  void on_global_deliver(const Slice& payload);
  void on_local_view(const View& v);
  bool already_delivered(const WireMsg& m);

  HierarchyConfig cfg_;
  int my_ring_;
  net::NodeEnv& env_;
  SessionMux mux_;
  SessionNode& local_;   ///< mux ring on kLocalGroup
  SessionNode& global_;  ///< mux ring on kGlobalGroup (active while leading)
  bool leader_ = false;
  bool started_ = false;
  net::TimerId grace_timer_ = 0;
  std::uint32_t incarnation_;
  MsgSeq next_seq_ = 0;
  DeliverFn on_deliver_;

  /// Exactly-once delivery across the (possibly duplicating) leader
  /// fail-over paths: per-origin-incarnation watermark plus sparse set.
  struct OriginSeen {
    std::uint32_t incarnation = 0;
    MsgSeq watermark = 0;
    std::set<MsgSeq> above;
  };
  std::map<NodeId, OriginSeen> seen_;
  metrics::Registry metrics_;
  Stats stats_{metrics_};
};

}  // namespace raincore::session
