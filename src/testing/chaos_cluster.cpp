#include "testing/chaos_cluster.h"

#include <algorithm>
#include <cstdio>

#include "common/log.h"
#include "session/introspect.h"

namespace raincore::testing {

namespace {
constexpr const char* kMod = "chaos";

using Kind = ChaosStack::Kind;

// kApp channels.
constexpr data::Channel kAppChannel = 1;
constexpr data::Channel kLockChannel = 2;
constexpr data::Channel kMapChannel = 3;
constexpr data::Channel kVipChannel = 4;
// kDurable channels.
constexpr data::Channel kShardMapChannel = 1;
constexpr data::Channel kShardLockChannel = 2;

/// What differs between the configurations besides their stacks and
/// checks. Each value is part of the configuration's seeded replay.
struct Shape {
  std::uint32_t setup_salt;  ///< seeds the per-node traffic RNGs
  Time traffic_gap;          ///< traffic cadence: gap + uniform[0, jitter)
  Time traffic_jitter;
  Time bootstrap_timeout;
  Time converge_timeout;
  int final_per_node;  ///< post-heal agreed batch: messages per node per ring
  Time final_deadline;
};
constexpr Shape kShapes[] = {
    {0x5bd1e995u, millis(8), millis(8), millis(5000), millis(15000), 5,
     millis(3000)},  // kApp
    {0x7f4a7c15u, millis(8), millis(8), millis(8000), millis(15000), 3,
     millis(4000)},  // kMultiRing
    {0x2545f491u, millis(3), millis(5), millis(8000), millis(20000), 0, 0},
};

std::vector<NodeId> sorted(std::vector<NodeId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

}  // namespace

// --- construction and fault hooks -------------------------------------------

ChaosCluster::ChaosCluster(std::vector<NodeId> ids, ChaosConfig chaos_cfg,
                           session::SessionConfig session_cfg,
                           net::SimNetConfig net_cfg, ChaosStack stack)
    : net_(net_cfg),
      session_cfg_(std::move(session_cfg)),
      chaos_cfg_(chaos_cfg),
      stack_(std::move(stack)),
      ids_(std::move(ids)) {
  if (session_cfg_.eligible.empty()) session_cfg_.eligible = ids_;
  if (is(Kind::kDurable)) chaos_cfg_.n_shards = stack_.durable.n_shards;
  // The public side: ARPs from a disconnected node never reach the segment.
  subnet_.set_reachability([this](NodeId n) { return net_.node_up(n); });
  const Shape& shape = kShapes[static_cast<std::size_t>(stack_.kind)];
  Rng setup_rng(chaos_cfg_.seed ^ shape.setup_salt);
  for (NodeId id : ids_) build_node(id, setup_rng);
  engine_ = std::make_unique<ChaosEngine>(net_, ids_, chaos_cfg_);
  engine_->set_crash_hook([this](NodeId id) { on_crash(id); });
  engine_->set_restart_hook([this](NodeId id) { on_restart(id); });
  if (is(Kind::kDurable)) {
    engine_->set_shard_crash_hook([this](std::size_t s) { crash_shard(s); });
    engine_->set_shard_restart_hook(
        [this](std::size_t s) { restart_shard(s); });
  }
}

ChaosCluster::~ChaosCluster() {
  traffic_on_ = false;
  if (sweep_timer_) net_.loop().cancel(sweep_timer_);
  if (resize_timer_) net_.loop().cancel(resize_timer_);
  if (watch_timer_) net_.loop().cancel(watch_timer_);
  for (auto& [id, n] : nodes_) {
    if (n->traffic_timer) net_.loop().cancel(n->traffic_timer);
  }
}

void ChaosCluster::build_node(NodeId id, Rng& setup_rng) {
  auto& env = net_.add_node(id);
  auto n = std::make_unique<Node>();
  Node* np = n.get();
  auto log_ring = [np](std::size_t r) {
    return [np, r](NodeId origin, const Slice& payload, session::Ordering) {
      np->logs[r].push_back(
          {np->epoch, origin, std::string(payload.begin(), payload.end())});
    };
  };
  switch (stack_.kind) {
    case Kind::kApp: {
      n->session = std::make_unique<session::SessionNode>(env, session_cfg_);
      n->chan = std::make_unique<data::ChannelMux>(*n->session);
      n->map = std::make_unique<data::ReplicatedMap>(*n->chan, kMapChannel);
      n->locks = std::make_unique<data::LockManager>(*n->chan, kLockChannel);
      apps::VipConfig vcfg;
      for (std::size_t i = 0; i < ids_.size() + 2; ++i) {
        vcfg.pool.push_back("10.1.0." + std::to_string(i + 1));
      }
      vcfg.channel = kVipChannel;
      n->vips = std::make_unique<apps::VipManager>(*n->chan, subnet_, vcfg);
      n->traffic_rng = setup_rng.fork();
      n->rings.push_back(n->session.get());
      n->chan->subscribe(kAppChannel, log_ring(0));
      n->session->set_removal_handler(
          [this](NodeId removed) { on_removal_observed(removed); });
      break;
    }
    case Kind::kMultiRing: {
      n->mux =
          std::make_unique<session::SessionMux>(env, session_cfg_.transport);
      n->traffic_rng = setup_rng.fork();
      for (std::size_t r = 0; r < stack_.n_rings; ++r) {
        auto& ring = n->mux->create_ring(static_cast<transport::MuxGroup>(r),
                                         session_cfg_);
        n->rings.push_back(&ring);
        ring.set_deliver_handler(log_ring(r));
      }
      break;
    }
    case Kind::kDurable: {
      const DurabilityConfig& dcfg = stack_.durable;
      n->mux =
          std::make_unique<session::SessionMux>(env, session_cfg_.transport);
      storage::StorageConfig scfg = dcfg.storage;
      scfg.dir = stack_.root_dir + "/node" + std::to_string(id);
      n->plane = std::make_unique<data::ShardedDataPlane>(
          *n->mux, dcfg.n_shards, session_cfg_, 0, scfg);
      n->smap = std::make_unique<data::ShardedMap>(*n->plane, kShardMapChannel);
      n->slocks = std::make_unique<data::ShardedLockManager>(
          *n->plane, kShardLockChannel);
      data::ReshardConfig rcfg;
      rcfg.initial_shards = dcfg.n_shards;
      n->mgr = std::make_unique<data::ReshardManager>(*n->plane, *n->smap,
                                                      *n->slocks, rcfg);
      n->traffic_rng = setup_rng.fork();
      // Shard-aware ack tracking: during a migration window a write can
      // bounce and apply on a different shard than it routed to at issue
      // time, and the durable-LSN gate must watch the store it landed in.
      n->smap->set_shard_change_handler(
          [this, id](std::size_t shard, const std::string& key,
                     const std::optional<std::string>& value, NodeId origin) {
            on_map_change(id, shard, key, value, origin);
          });
      break;
    }
  }
  n->logs.resize(n->rings.size());
  n->counters.assign(n->rings.size(), 0);
  nodes_.emplace(id, std::move(n));
}

void ChaosCluster::on_crash(NodeId id) {
  Node& n = node(id);
  switch (stack_.kind) {
    case Kind::kApp:
      n.session->stop();
      break;
    case Kind::kMultiRing:
      // Node-level crash: every ring AND the shared transport go down — a
      // stopped ring over a live transport would keep acking token passes.
      n.mux->set_enabled(false);
      break;
    case Kind::kDurable:
      // Anything durable at the power cut counts as acked — crash_store
      // only discards the tail AFTER the durable LSN, so sweeping first is
      // exact.
      sweep_acks(id);
      void_pending_if([id](const Pending& p) { return p.node == id; });
      for (std::size_t s = 0; s < n.plane->shard_count(); ++s) {
        if (n.shards_down.count(s) == 0) n.plane->crash_store(s);
      }
      n.mux->set_enabled(false);
      break;
  }
  n.crashed_at = net_.now();
  n.detection_recorded = false;
}

void ChaosCluster::on_restart(NodeId id) {
  Node& n = node(id);
  ++n.epoch;  // new incarnation: its traffic counters restart from zero
  std::fill(n.counters.begin(), n.counters.end(), 0);
  n.crashed_at = -1;
  n.restarted_at = net_.now();
  switch (stack_.kind) {
    case Kind::kApp:
      n.session->found();  // discovery (BODYODOR) merges it back in
      break;
    case Kind::kMultiRing:
      n.mux->set_enabled(true);
      for (auto* ring : n.rings) ring->found();
      break;
    case Kind::kDurable:
      n.mux->set_enabled(true);
      // Shards that are down CLUSTER-WIDE stay down on this node too; the
      // shard-restart hook brings them back everywhere at once.
      n.shards_down = global_shards_down_;
      for (std::size_t s = 0; s < n.plane->shard_count(); ++s) {
        if (global_shards_down_.count(s)) continue;
        n.plane->open_store(s);
        n.plane->recover_store(s);  // shadow ready before the ring forms
      }
      // Rebuild the migration window from the recovered filter journals
      // before any ring re-forms, so the first post-restart applies are
      // classified with the journaled state, not the stale in-memory one.
      n.mgr->after_recovery();
      for (std::size_t s = 0; s < n.plane->shard_count(); ++s) {
        if (global_shards_down_.count(s)) continue;
        if (!n.plane->ring(s).started()) n.plane->ring(s).found();
      }
      break;
  }
}

void ChaosCluster::on_removal_observed(NodeId removed) {
  auto it = nodes_.find(removed);
  if (it == nodes_.end()) return;
  Node& target = *it->second;
  if (target.session->started()) {
    // A removal landing just after the node's chaos restart was decided
    // while the node was genuinely down — a correct (if stale) detection
    // that raced the rejoin, not a detector error. The grace window covers
    // the worst-case detection bound plus removal propagation.
    constexpr Time kRestartGrace = millis(500);
    if (target.restarted_at >= 0 &&
        net_.now() - target.restarted_at <= kRestartGrace) {
      true_removals_.inc();
      return;
    }
    // Ground truth says the removed node's process is alive: the detector
    // misclassified packet loss / congestion as a crash.
    false_removals_.inc();
    return;
  }
  true_removals_.inc();
  if (target.crashed() && !target.detection_recorded) {
    target.detection_recorded = true;
    detection_latency_.record_time(net_.now() - target.crashed_at);
  }
}

// --- phases -----------------------------------------------------------------

bool ChaosCluster::bootstrap(Time timeout) {
  if (timeout == 0) {
    timeout = kShapes[static_cast<std::size_t>(stack_.kind)].bootstrap_timeout;
  }
  for (auto& [id, n] : nodes_) {
    if (!is(Kind::kDurable)) {
      for (auto* ring : n->rings) ring->found();
      continue;
    }
    if (!n->plane->open_storage()) {
      violation("bootstrap: node " + std::to_string(id) +
                " failed to open its stores under " + stack_.root_dir);
      return false;
    }
    n->plane->found_all();
  }
  auto ready = [this] {
    if (!is(Kind::kDurable)) return rings_converged(ids_);
    for (auto& [id, n] : nodes_) {
      if (!n->plane->all_converged(ids_.size()) || !n->smap->synced()) {
        return false;
      }
    }
    return true;
  };
  const Time deadline = net_.now() + timeout;
  while (net_.now() < deadline) {
    if (ready()) return true;
    net_.loop().run_for(millis(10));
  }
  violation("bootstrap: not every ring converged");
  return false;
}

void ChaosCluster::start_traffic(NodeId id) {
  const Shape& shape = kShapes[static_cast<std::size_t>(stack_.kind)];
  Node& n = node(id);
  Time gap = shape.traffic_gap +
             static_cast<Time>(n.traffic_rng.next_below(shape.traffic_jitter));
  n.traffic_timer = net_.loop().schedule(gap, [this, id] {
    Node& st = node(id);
    st.traffic_timer = 0;
    if (!traffic_on_) return;
    if (is(Kind::kDurable)) {
      if (!st.crashed()) {
        issue_op(id);
        st.mgr->tick();  // coordinator re-drive rides the traffic cadence
      }
    } else {
      // Multi-ring nodes pick a random ring so every ring sees load.
      const std::size_t r =
          is(Kind::kMultiRing)
              ? static_cast<std::size_t>(st.traffic_rng.next_below(
                    st.rings.size()))
              : 0;
      const session::SessionNode& ring = *st.rings[r];
      if (ring.started() && ring.view().has(id)) {
        send(st, r,
             "c:" + std::to_string(id) + ":" + std::to_string(st.epoch) + ":" +
                 std::to_string(st.counters[r]++));
      }
    }
    start_traffic(id);
  });
}

void ChaosCluster::send(Node& n, std::size_t ring, const std::string& payload) {
  Bytes bytes(payload.begin(), payload.end());
  if (is(Kind::kApp)) {
    n.chan->send(kAppChannel, std::move(bytes));
  } else {
    n.rings[ring]->multicast(std::move(bytes));
  }
}

void ChaosCluster::run_chaos(Time duration) {
  traffic_on_ = true;
  for (NodeId id : ids_) start_traffic(id);
  if (is(Kind::kDurable)) {
    schedule_sweep();
    if (stack_.durable.resize_to > stack_.durable.n_shards) {
      schedule_resize(stack_.durable.resize_at);
      schedule_migration_watch();
    }
  }
  engine_->start();
  const Time end = net_.now() + duration;
  while (net_.now() < end) {
    net_.loop().run_for(millis(10));
    if (!is(Kind::kDurable)) check_token_uniqueness("during chaos");
  }
}

void ChaosCluster::wait_stable(const std::function<bool()>& ready,
                               Time timeout) {
  constexpr Time kStableWindow = millis(300);
  const Time deadline = net_.now() + timeout;
  Time stable_since = -1;
  while (net_.now() < deadline) {
    if (ready()) {
      if (stable_since < 0) stable_since = net_.now();
      if (net_.now() - stable_since >= kStableWindow) return;
    } else {
      stable_since = -1;
    }
    net_.loop().run_for(millis(10));
  }
}

void ChaosCluster::heal_and_check(Time converge_timeout) {
  if (converge_timeout == 0) {
    converge_timeout =
        kShapes[static_cast<std::size_t>(stack_.kind)].converge_timeout;
  }
  engine_->stop_and_heal();
  if (is(Kind::kDurable)) {
    heal_durable(converge_timeout);
    return;
  }
  // Everybody is back up; wait (with traffic still flowing) until every
  // ring converges to the full live set and stays there.
  const std::vector<NodeId>& live = ids_;
  auto converged = [this] { return rings_converged(ids_); };
  wait_stable(converged, converge_timeout);
  check_membership(live);
  // Quiesce: stop the traffic generators and drain in-flight messages.
  traffic_on_ = false;
  net_.loop().run_for(millis(300));
  // Token uniqueness in the quiescent group, sampled across several rounds.
  for (int i = 0; i < 40; ++i) {
    check_token_uniqueness("quiescent");
    net_.loop().run_for(session_cfg_.token_hold / 2 + micros(500));
  }
  check_chaos_deliveries();
  // Re-verify stability before the delivery batch: the quiesce and token
  // sampling above give a late-landing removal one more chance to fire.
  wait_stable(converged, converge_timeout);
  check_final_batch(live);
  if (is(Kind::kApp)) {
    check_lock_service(live);
    check_map_convergence(live);
    check_vip_coverage(live);
  } else {
    check_detector_consistency(live);
  }
}

// --- ring checkers (kApp, kMultiRing) --------------------------------------

std::string ChaosCluster::where(NodeId id, std::size_t ring) const {
  std::string out = "node " + std::to_string(id);
  if (is(Kind::kMultiRing)) out += " ring " + std::to_string(ring);
  return out;
}

bool ChaosCluster::rings_converged(const std::vector<NodeId>& live) const {
  const std::vector<NodeId> want = sorted(live);
  for (NodeId id : live) {
    for (const auto* ring : node(id).rings) {
      if (!ring->started() || sorted(ring->view().members) != want) {
        return false;
      }
    }
  }
  return true;
}

void ChaosCluster::check_token_uniqueness(const char* when) {
  // Sound sampling rule: two nodes may legitimately hold a token each while
  // their groups have not merged yet (§2.4 strategy 2) — but two nodes with
  // *identical views* of one ring belong to the same logical group and must
  // never both be EATING. Rings with different indices are independent.
  const std::size_t n_rings = nodes_.begin()->second->rings.size();
  for (std::size_t r = 0; r < n_rings; ++r) {
    for (auto it = nodes_.begin(); it != nodes_.end(); ++it) {
      const auto& a = *it->second->rings[r];
      if (!a.started() || !a.holds_token()) continue;
      for (auto jt = std::next(it); jt != nodes_.end(); ++jt) {
        const auto& b = *jt->second->rings[r];
        if (!b.started() || !b.holds_token() || a.view() != b.view()) {
          continue;
        }
        violation(
            (is(Kind::kMultiRing) ? "ring " + std::to_string(r) + " " : "") +
            "token uniqueness (" + when + "): nodes " +
            std::to_string(it->first) + " and " + std::to_string(jt->first) +
            " both EATING in identical view at t=" +
            std::to_string(to_millis(net_.now())) + "ms");
      }
    }
  }
}

void ChaosCluster::check_membership(const std::vector<NodeId>& live) {
  const std::vector<NodeId> want = sorted(live);
  for (NodeId id : live) {
    const Node& n = node(id);
    for (std::size_t r = 0; r < n.rings.size(); ++r) {
      const std::vector<NodeId> got = sorted(n.rings[r]->view().members);
      if (n.rings[r]->started() && got == want) continue;
      std::string members;
      for (NodeId m : got) members += std::to_string(m) + " ";
      violation("membership: " + where(id, r) +
                " did not converge to the live set (has: " + members + ")");
    }
  }
}

void ChaosCluster::check_chaos_deliveries() {
  // Per ring, per receiver incarnation, per origin incarnation: the chaos
  // traffic counters must be strictly increasing — gaps are legitimate
  // (partitions and ring removals drop messages), duplicates and
  // reordering never are.
  for (auto& [id, n] : nodes_) {
    for (std::size_t r = 0; r < n->logs.size(); ++r) {
      std::map<std::tuple<std::uint64_t, NodeId, std::uint64_t>,
               std::pair<bool, std::uint64_t>>
          last;  // (recv_epoch, origin, origin_epoch) -> (seen, counter)
      for (const Delivered& d : n->logs[r]) {
        if (d.payload.rfind("c:", 0) != 0) continue;
        NodeId origin = 0;
        std::uint64_t epoch = 0, counter = 0;
        if (std::sscanf(d.payload.c_str(), "c:%u:%llu:%llu", &origin,
                        reinterpret_cast<unsigned long long*>(&epoch),
                        reinterpret_cast<unsigned long long*>(&counter)) !=
            3) {
          violation("delivery: " + where(id, r) +
                    " received unparseable chaos payload '" + d.payload + "'");
          continue;
        }
        if (origin != d.origin) {
          violation("delivery: " + where(id, r) + " got payload '" +
                    d.payload + "' attributed to origin " +
                    std::to_string(d.origin));
          continue;
        }
        auto& [seen, prev] = last[std::make_tuple(d.recv_epoch, origin, epoch)];
        if (seen && counter <= prev) {
          violation("delivery: " + where(id, r) +
                    " saw duplicate/out-of-order counter " +
                    std::to_string(counter) + " after " +
                    std::to_string(prev) + " from origin " +
                    std::to_string(origin) + " epoch " +
                    std::to_string(epoch));
        }
        seen = true;
        prev = counter;
      }
    }
  }
}

void ChaosCluster::check_final_batch(const std::vector<NodeId>& live) {
  // Post-heal gap-free agreed delivery, independently per ring: a fresh
  // batch multicast by every live node must arrive complete, exactly once,
  // and in the identical order everywhere.
  const Shape& shape = kShapes[static_cast<std::size_t>(stack_.kind)];
  const std::size_t n_rings = node(live.front()).rings.size();
  auto payload = [this](NodeId id, std::size_t r, int k) {
    return "f:" + std::to_string(id) + ":" +
           (is(Kind::kMultiRing) ? std::to_string(r) + ":" : "") +
           std::to_string(k);
  };
  std::map<NodeId, std::vector<std::size_t>> mark;
  for (NodeId id : live) {
    for (const auto& log : node(id).logs) mark[id].push_back(log.size());
  }
  for (NodeId id : live) {
    for (std::size_t r = 0; r < n_rings; ++r) {
      for (int k = 0; k < shape.final_per_node; ++k) {
        send(node(id), r, payload(id, r, k));
      }
    }
  }
  const std::size_t expect = live.size() * shape.final_per_node;
  auto batch_of = [&](NodeId id, std::size_t r) {
    std::vector<std::pair<NodeId, std::string>> out;
    const auto& log = node(id).logs[r];
    for (std::size_t i = mark[id][r]; i < log.size(); ++i) {
      if (log[i].payload.rfind("f:", 0) == 0) {
        out.emplace_back(log[i].origin, log[i].payload);
      }
    }
    return out;
  };
  auto all_arrived = [&] {
    for (NodeId id : live) {
      for (std::size_t r = 0; r < n_rings; ++r) {
        if (batch_of(id, r).size() < expect) return false;
      }
    }
    return true;
  };
  const Time deadline = net_.now() + shape.final_deadline;
  while (net_.now() < deadline && !all_arrived()) {
    net_.loop().run_for(millis(10));
  }
  for (std::size_t r = 0; r < n_rings; ++r) {
    const auto ref = batch_of(live.front(), r);
    if (ref.size() != expect) {
      violation("final batch: " + where(live.front(), r) + " delivered " +
                std::to_string(ref.size()) + " of " + std::to_string(expect) +
                " fresh messages");
    }
    for (NodeId id : live) {
      const auto got = batch_of(id, r);
      if (got == ref) continue;
      std::string detail;
      for (const auto& [origin, p] : got) {
        if (!detail.empty()) detail += " ";
        detail += p;
      }
      violation("final batch: " + where(id, r) +
                " delivered a different sequence than node " +
                std::to_string(live.front()) + " (" +
                std::to_string(got.size()) + " vs " +
                std::to_string(ref.size()) + " messages; got: [" + detail +
                "])");
    }
    // Completeness + exactly-once against the expected set.
    std::map<std::string, int> count;
    for (const auto& [origin, p] : ref) count[p]++;
    for (NodeId id : live) {
      for (int k = 0; k < shape.final_per_node; ++k) {
        const std::string p = payload(id, r, k);
        if (count[p] != 1) {
          violation("final batch: message '" + p + "' delivered " +
                    std::to_string(count[p]) + " times");
        }
      }
    }
  }
}

// --- kApp checks ------------------------------------------------------------

void ChaosCluster::check_lock_service(const std::vector<NodeId>& live) {
  // Post-heal mutual exclusion on a fresh lock: every live node requests
  // it, each must be granted exactly once, and no two grants may overlap.
  // The depth counter is bumped when a grant fires and dropped just before
  // the owner initiates its release, so any overlap trips depth > 1.
  struct Probe {
    int depth = 0;
    std::map<NodeId, int> grants;
  };
  auto probe = std::make_shared<Probe>();
  const std::string lock = "chaos-final";
  for (NodeId id : live) {
    node(id).locks->acquire(lock, [this, probe, id](const std::string&) {
      ++probe->depth;
      if (probe->depth != 1) {
        violation("lock exclusion: node " + std::to_string(id) +
                  " granted while another node still holds the lock");
      }
      ++probe->grants[id];
      net_.loop().schedule(millis(2), [this, probe, id] {
        --probe->depth;
        node(id).locks->release("chaos-final");
      });
    });
  }
  auto all_granted = [&] {
    for (NodeId id : live) {
      if (probe->grants[id] != 1) return false;
    }
    return true;
  };
  const Time deadline = net_.now() + millis(5000);
  while (net_.now() < deadline && !all_granted()) {
    net_.loop().run_for(millis(10));
  }
  for (NodeId id : live) {
    if (probe->grants[id] != 1) {
      violation("lock service: node " + std::to_string(id) + " granted " +
                std::to_string(probe->grants[id]) + " times (want 1)");
    }
  }
  // Let the last release circulate, then every replica must agree: no owner.
  net_.loop().run_for(millis(500));
  for (NodeId id : live) {
    if (auto owner = node(id).locks->owner(lock)) {
      violation("lock service: node " + std::to_string(id) +
                " still sees owner " + std::to_string(*owner) +
                " after all releases");
    }
  }
}

void ChaosCluster::check_map_convergence(const std::vector<NodeId>& live) {
  for (NodeId id : live) {
    node(id).map->put("final-" + std::to_string(id), std::to_string(id));
  }
  const Time deadline = net_.now() + millis(5000);
  auto settled = [&] {
    const auto& ref = node(live.front()).map->contents();
    for (NodeId id : live) {
      const auto& m = *node(id).map;
      if (!m.synced() || m.contents() != ref) return false;
      if (!m.contains("final-" + std::to_string(id))) return false;
    }
    return true;
  };
  while (net_.now() < deadline && !settled()) net_.loop().run_for(millis(10));
  const auto& ref = node(live.front()).map->contents();
  for (NodeId id : live) {
    const auto& m = *node(id).map;
    if (!m.synced()) {
      violation("replicated map: node " + std::to_string(id) + " never synced");
      continue;
    }
    if (m.contents() != ref) {
      violation("replicated map: node " + std::to_string(id) + " holds " +
                std::to_string(m.size()) + " entries, node " +
                std::to_string(live.front()) + " holds " +
                std::to_string(ref.size()) + " — replicas diverged");
    }
    if (!m.contains("final-" + std::to_string(id))) {
      violation("replicated map: post-heal put from node " +
                std::to_string(id) + " was lost");
    }
  }
}

void ChaosCluster::check_vip_coverage(const std::vector<NodeId>& live) {
  const apps::VipManager& ref = *node(live.front()).vips;
  const std::set<NodeId> live_set(live.begin(), live.end());
  auto covered = [&] {
    for (const std::string& vip : ref.pool()) {
      auto owner = ref.owner_of(vip);
      if (!owner || live_set.count(*owner) == 0) return false;
      for (NodeId id : live) {
        if (node(id).vips->owner_of(vip) != owner) return false;
      }
      if (subnet_.resolve(vip) != owner) return false;
    }
    return true;
  };
  const Time deadline = net_.now() + millis(5000);
  while (net_.now() < deadline && !covered()) net_.loop().run_for(millis(20));
  for (const std::string& vip : ref.pool()) {
    auto owner = ref.owner_of(vip);
    if (!owner || live_set.count(*owner) == 0) {
      violation("vip coverage: " + vip + " has no live owner");
      continue;
    }
    for (NodeId id : live) {
      if (node(id).vips->owner_of(vip) != owner) {
        violation("vip coverage: node " + std::to_string(id) +
                  " disagrees on the owner of " + vip);
      }
    }
    auto resolved = subnet_.resolve(vip);
    if (resolved != owner) {
      violation("vip coverage: subnet resolves " + vip + " to " +
                (resolved ? std::to_string(*resolved) : "nobody") +
                " but the assignment says " + std::to_string(*owner));
    }
  }
}

// --- kMultiRing check -------------------------------------------------------

void ChaosCluster::check_detector_consistency(const std::vector<NodeId>& live) {
  // One shared failure detector feeding K rings must leave them agreeing
  // at quiescence...
  for (NodeId id : live) {
    const Node& n = node(id);
    // Ring order (the token circulation order) legitimately differs per
    // ring — only the member SET must agree.
    const std::vector<NodeId> ref = sorted(n.rings[0]->view().members);
    for (std::size_t r = 1; r < n.rings.size(); ++r) {
      if (sorted(n.rings[r]->view().members) != ref) {
        violation("detector consistency: node " + std::to_string(id) +
                  " rings 0 and " + std::to_string(r) +
                  " disagree on membership at quiescence");
      }
    }
    // ...and must exist exactly once per node: the shared transport owns
    // `transport.*`; a per-ring copy (e.g. "ring1.transport.rtt_samples")
    // would mean duplicated detection state.
    std::size_t plain = 0, prefixed = 0;
    for (const auto& [name, value] : n.mux->metrics_snapshot().counters) {
      if (name == "transport.rtt_samples") {
        ++plain;
      } else if (name.find("transport.rtt_samples") != std::string::npos) {
        ++prefixed;
      }
    }
    if (plain != 1 || prefixed != 0) {
      violation("detector state: node " + std::to_string(id) + " has " +
                std::to_string(plain) + " shared + " +
                std::to_string(prefixed) +
                " per-ring transport.rtt_samples instruments (want 1 + 0)");
    }
  }
}

// --- kDurable: client traffic + ack tracking --------------------------------

void ChaosCluster::issue_op(NodeId id) {
  Node& st = node(id);
  const std::size_t slot =
      st.traffic_rng.next_below(stack_.durable.slots_per_node);
  const std::string key =
      "d" + std::to_string(id) + ":" + std::to_string(slot);
  if (pending_.count(key)) return;  // one outstanding op per slot
  const std::size_t shard = st.smap->write_shard_of(key);
  if (st.shards_down.count(shard)) return;
  const session::SessionNode& ring = st.plane->ring(shard);
  if (!ring.started() || !ring.view().has(id)) return;
  if (!st.smap->shard(shard).synced()) return;

  Pending p;
  p.op_id = next_op_id_++;
  p.node = id;
  p.key = key;
  p.shard = shard;
  p.issued_at = net_.now();
  p.saw_migration = migration_open();

  OpRecord op;
  op.id = p.op_id;
  // Erase only a key whose newest issued op was a put: a never-written key
  // exercises nothing, and erasing an already-erased key is a no-op the map
  // never reports (no change callback fires), so the client would sit on a
  // write that cannot ack until the timeout voids it.
  op.is_erase = !history_[key].empty() && !history_[key].back().is_erase &&
                st.traffic_rng.chance(0.25);
  if (!op.is_erase) op.value = "v" + std::to_string(p.op_id) + "-" + key;
  history_[key].push_back(op);
  pending_.emplace(key, p);
  if (op.is_erase) {
    st.smap->erase(key);
  } else {
    st.smap->put(key, op.value);
  }
  // Light lock traffic so the lock journal/recovery path sees the same
  // storms (exclusion itself is judged by the lock suite, not here).
  if (st.traffic_rng.chance(0.1)) {
    st.slocks->acquire("lk:" + key, [this, id](const std::string& name) {
      net_.loop().schedule(millis(1), [this, id, name] {
        Node& holder = node(id);
        if (!holder.crashed()) holder.slocks->release(name);
      });
    });
  }
}

void ChaosCluster::on_map_change(NodeId id, std::size_t shard,
                                 const std::string& key,
                                 const std::optional<std::string>& value,
                                 NodeId origin) {
  if (key.empty() || origin != id) return;
  auto it = pending_.find(key);
  if (it == pending_.end() || it->second.node != id) return;
  Pending& p = it->second;
  if (p.applied) return;
  const OpRecord& op = history_.at(key).back();
  const bool matches = op.is_erase ? !value.has_value()
                                   : (value.has_value() && *value == op.value);
  if (!matches) return;
  p.applied = true;
  // A bounced write applies on its destination shard, not the one it routed
  // to at issue time — the durable-LSN gate must watch the store that holds
  // the journal record.
  p.shard = shard;
  // The journal record was appended inside the apply, just before this
  // handler ran — the store's head LSN IS that record's LSN.
  p.applied_lsn = node(id).plane->store(shard)->lsn();
}

void ChaosCluster::ack(Pending& p) {
  auto& ops = history_.at(p.key);
  for (auto rit = ops.rbegin(); rit != ops.rend(); ++rit) {
    if (rit->id == p.op_id) {
      rit->acked = true;
      break;
    }
  }
  ++acked_ops_;
  if (p.saw_migration || migration_open()) {
    ack_lat_migration_.push_back(to_millis(net_.now() - p.issued_at));
  } else {
    ack_lat_steady_.push_back(to_millis(net_.now() - p.issued_at));
  }
}

bool ChaosCluster::migration_open() const {
  for (const auto& [id, n] : nodes_) {
    if (!n->crashed() && n->plane->vrouter().migrating()) return true;
  }
  return false;
}

void ChaosCluster::sweep_acks(NodeId id) {
  Node& st = node(id);
  for (auto it = pending_.begin(); it != pending_.end();) {
    Pending& p = it->second;
    if (p.node == id && p.applied &&
        st.plane->store(p.shard)->durable_lsn() >= p.applied_lsn) {
      ack(p);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void ChaosCluster::sweep_acks_shard(std::size_t shard) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    Pending& p = it->second;
    Node& st = node(p.node);
    if (p.shard == shard && !st.crashed() && p.applied &&
        st.plane->store(p.shard)->durable_lsn() >= p.applied_lsn) {
      ack(p);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void ChaosCluster::void_pending_if(
    const std::function<bool(const Pending&)>& pred) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (pred(it->second)) {
      ++voided_ops_;
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void ChaosCluster::schedule_sweep() {
  sweep_timer_ = net_.loop().schedule(stack_.durable.sweep_every, [this] {
    sweep_timer_ = 0;
    if (!traffic_on_) return;
    for (NodeId id : ids_) {
      if (!node(id).crashed()) sweep_acks(id);
    }
    // A client whose op never resolves times out and frees the slot for a
    // retry; the op's effects may or may not survive, which the oracle
    // allows — exactly the real-world unknown-outcome window.
    void_pending_if([this](const Pending& p) {
      return net_.now() - p.issued_at > stack_.durable.op_timeout;
    });
    schedule_sweep();
  });
}

// --- kDurable: shard faults -------------------------------------------------

void ChaosCluster::crash_shard(std::size_t shard) {
  global_shards_down_.insert(shard);
  sweep_acks_shard(shard);
  void_pending_if([shard](const Pending& p) { return p.shard == shard; });
  for (NodeId id : ids_) {
    Node& st = node(id);
    if (st.crashed() || st.shards_down.count(shard)) continue;
    if (shard >= st.plane->shard_count()) continue;
    st.plane->crash_store(shard);
    st.plane->ring(shard).stop();
    st.shards_down.insert(shard);
  }
}

void ChaosCluster::restart_shard(std::size_t shard) {
  global_shards_down_.erase(shard);
  for (NodeId id : ids_) {
    Node& st = node(id);
    if (st.crashed() || st.shards_down.count(shard) == 0) continue;
    st.plane->open_store(shard);
    st.plane->recover_store(shard);
    st.mgr->after_recovery();
    if (!st.plane->ring(shard).started()) st.plane->ring(shard).found();
    st.shards_down.erase(shard);
  }
}

// --- kDurable: live resize --------------------------------------------------

void ChaosCluster::schedule_resize(Time delay) {
  resize_timer_ = net_.loop().schedule(delay, [this] {
    resize_timer_ = 0;
    if (!traffic_on_ || resize_requested_) return;
    ensure_resize_requested();
    if (!resize_requested_) schedule_resize(millis(50));  // everyone down
  });
}

void ChaosCluster::ensure_resize_requested() {
  const DurabilityConfig& dcfg = stack_.durable;
  if (dcfg.resize_to <= dcfg.n_shards) return;
  if (resize_requested_) {
    // The request can die with its proposer (crashed, or stranded on the
    // doomed side of a split). Re-ask when nothing anywhere shows a trace
    // of it — start_resize is ignored while in flight or once grown, so
    // re-requesting is idempotent.
    for (auto& [id, n] : nodes_) {
      if (n->mgr->migrating() || n->mgr->epoch() > 0 ||
          n->plane->shard_count() > dcfg.n_shards) {
        return;
      }
    }
    if (net_.now() - resize_requested_at_ < millis(400)) return;
  }
  for (NodeId id : ids_) {
    Node& st = node(id);
    if (st.crashed()) continue;
    st.mgr->start_resize(dcfg.resize_to);
    resize_requested_ = true;
    resize_requested_at_ = net_.now();
    return;
  }
}

void ChaosCluster::schedule_migration_watch() {
  watch_timer_ = net_.loop().schedule(millis(2), [this] {
    watch_timer_ = 0;
    if (!traffic_on_) return;
    ensure_resize_requested();
    if (migration_open()) {
      if (mig_first_open_ == 0) mig_first_open_ = net_.now();
      mig_last_open_ = net_.now();
    }
    watch_migration_fault();
    schedule_migration_watch();
  });
}

void ChaosCluster::watch_migration_fault() {
  if (migration_fault_fired_ || !engine_->running()) return;
  if (stack_.durable.migration_fault == MigrationFault::kNone) return;
  // Observe the coordinator's routing window (lowest live id drives).
  NodeId coord = kInvalidNode;
  for (NodeId id : ids_) {
    if (!node(id).crashed()) {
      coord = id;
      break;
    }
  }
  if (coord == kInvalidNode) return;
  Node& st = node(coord);
  const data::VersionedRouter& vr = st.plane->vrouter();
  if (!vr.migrating()) return;
  bool any_frozen = false;
  bool any_cut = false;
  for (const auto& [r, rs] : vr.ranges()) {
    if (rs == data::RangeState::kFrozen) any_frozen = true;
    if (rs == data::RangeState::kCut) any_cut = true;
  }
  const Time dur = stack_.durable.migration_fault_duration;
  switch (stack_.durable.migration_fault) {
    case MigrationFault::kKillSourceMidSnapshot: {
      // Chunks have left the coordinator but the range is not yet cut: the
      // replica the snapshot is being read from dies mid-transfer.
      const std::uint64_t chunks =
          st.mgr->metrics().counter("data.reshard.chunks_sent").value();
      if (any_frozen && chunks > 0) {
        migration_fault_fired_ = engine_->inject_crash(coord, dur);
      }
      break;
    }
    case MigrationFault::kKillDestBeforeCutover: {
      if (!any_frozen) break;
      // Every node replicates the destination ring; kill the one farthest
      // from the coordinator so the ring loses a destination replica while
      // the CUTOVER record is still in flight.
      for (auto it = ids_.rbegin(); it != ids_.rend(); ++it) {
        if (*it != coord && !node(*it).crashed()) {
          migration_fault_fired_ = engine_->inject_crash(*it, dur);
          break;
        }
      }
      break;
    }
    case MigrationFault::kPartitionDuringUnfreeze: {
      if (!any_cut) break;
      std::vector<NodeId> half(ids_.begin(),
                               ids_.begin() + (ids_.size() + 1) / 2);
      migration_fault_fired_ = engine_->inject_partition(std::move(half), dur);
      break;
    }
    case MigrationFault::kNone:
      break;
  }
}

// --- kDurable: heal and oracles ---------------------------------------------

bool ChaosCluster::durable_settled() {
  // An in-flight migration must finish before the oracles run: every node
  // idle, agreeing on the final epoch and shard count, and every ROUTER
  // actually landed on the final table (a node can retire its partitions
  // yet keep a stale current table after an ill-timed crash — the tick
  // below lets the manager's self-heal paths run).
  const Node& ref = node(ids_.front());
  const std::size_t k = ref.plane->shard_count();
  const std::uint64_t ep = ref.mgr->epoch();
  if (resize_requested_ && k != stack_.durable.resize_to) return false;
  for (auto& [id, n] : nodes_) {
    if (!n->crashed()) n->mgr->tick();
    if (n->mgr->migrating()) return false;
    if (n->plane->shard_count() != k || n->mgr->epoch() != ep) return false;
    if (n->plane->vrouter().migrating() ||
        n->plane->vrouter().current().shard_count() != k) {
      return false;
    }
    if (!n->plane->all_converged(ids_.size()) || !n->smap->synced()) {
      return false;
    }
  }
  return true;
}

void ChaosCluster::heal_durable(Time converge_timeout) {
  wait_stable([this] { return durable_settled(); }, converge_timeout);
  if (!durable_settled()) {
    violation("heal: not every shard ring re-converged to the full set");
  }
  final_shards_ = node(ids_.front()).plane->shard_count();
  final_epoch_ = node(ids_.front()).mgr->epoch();
  if (resize_requested_ && final_shards_ != stack_.durable.resize_to) {
    violation("resize: cluster healed at " + std::to_string(final_shards_) +
              " shards, epoch " + std::to_string(final_epoch_) +
              " — the requested resize to " +
              std::to_string(stack_.durable.resize_to) + " never completed");
  }
  // Quiesce the clients, let re-proposals and re-assertions circulate.
  traffic_on_ = false;
  net_.loop().run_for(millis(400));
  // Promote everything still buffered to durable, take the final acks, and
  // write off whatever never resolved.
  for (auto& [id, n] : nodes_) n->plane->flush_storage();
  for (NodeId id : ids_) sweep_acks(id);
  const std::size_t unresolved = pending_.size();
  voided_ops_ += unresolved;
  pending_.clear();
  RC_INFO(kMod, "final sweep: %llu acked, %llu voided (%lu at heal)",
          static_cast<unsigned long long>(acked_ops_),
          static_cast<unsigned long long>(voided_ops_),
          static_cast<unsigned long>(unresolved));
  check_shard_convergence(ids_);
  check_ownership();
  run_oracle();
}

void ChaosCluster::check_shard_convergence(const std::vector<NodeId>& live) {
  // Wait until every shard's replicas agree everywhere, then assert it.
  const Time deadline = net_.now() + millis(6000);
  const Node& ref = node(live.front());
  const std::size_t n_shards = ref.plane->shard_count();
  auto settled = [&] {
    for (NodeId id : live) {
      const Node& st = node(id);
      if (st.smap->shard_count() != n_shards) return false;
      for (std::size_t s = 0; s < n_shards; ++s) {
        if (!st.smap->shard(s).synced()) return false;
        if (st.smap->shard(s).contents() != ref.smap->shard(s).contents()) {
          return false;
        }
      }
    }
    return true;
  };
  while (net_.now() < deadline && !settled()) net_.loop().run_for(millis(10));
  for (NodeId id : live) {
    const Node& st = node(id);
    if (st.smap->shard_count() != n_shards) {
      violation("convergence: node " + std::to_string(id) + " holds " +
                std::to_string(st.smap->shard_count()) +
                " partitions, expected " + std::to_string(n_shards));
      continue;
    }
    for (std::size_t s = 0; s < n_shards; ++s) {
      if (!st.smap->shard(s).synced()) {
        violation("convergence: node " + std::to_string(id) + " shard " +
                  std::to_string(s) + " never synced");
      } else if (st.smap->shard(s).contents() !=
                 ref.smap->shard(s).contents()) {
        violation("convergence: node " + std::to_string(id) + " shard " +
                  std::to_string(s) + " diverged from node " +
                  std::to_string(live.front()) + " (" +
                  std::to_string(st.smap->shard(s).size()) + " vs " +
                  std::to_string(ref.smap->shard(s).size()) + " entries)");
      }
    }
  }
}

void ChaosCluster::check_ownership() {
  // Ownership uniqueness after a completed resize: every surviving key
  // lives on exactly the shard the FINAL routing table owns it to. A key
  // also present on its old home is a double-apply (the unfreeze never
  // dropped it); a key only on the old home never migrated. Replicas are
  // already known identical (check_shard_convergence), so one node suffices.
  const Node& ref = node(ids_.front());
  if (ref.plane->vrouter().migrating()) return;  // heal violation already
  const data::ShardRouter& router = ref.plane->router();
  bool any = false;
  for (std::size_t s = 0; s < ref.plane->shard_count(); ++s) {
    for (const auto& [key, value] : ref.smap->shard(s).contents()) {
      const std::size_t owner = router.shard_of(key);
      if (owner != s) {
        any = true;
        violation("ownership: key '" + key + "' resides on shard " +
                  std::to_string(s) + " but the final table (k=" +
                  std::to_string(router.shard_count()) + ") owns it to " +
                  std::to_string(owner));
      }
    }
  }
  if (!any) return;
  for (const auto& [id, n] : nodes_) {
    RC_WARN(kMod, "  node %u: rings=%lu cur_k=%lu migrating=%d epoch=%llu",
            id, static_cast<unsigned long>(n->plane->shard_count()),
            static_cast<unsigned long>(
                n->plane->vrouter().current().shard_count()),
            n->mgr->migrating() ? 1 : 0,
            static_cast<unsigned long long>(n->mgr->epoch()));
  }
}

void ChaosCluster::run_oracle() {
  // Judge the converged final state (reference node) against every key's
  // issue history. See the header for the acked-loss / phantom rules.
  std::map<std::string, std::string> finals;
  const Node& ref = node(ids_.front());
  for (std::size_t s = 0; s < ref.plane->shard_count(); ++s) {
    for (const auto& [k, v] : ref.smap->shard(s).contents()) finals[k] = v;
  }
  for (const auto& [key, ops] : history_) {
    // Newest acknowledged op; keys with no acked op promise nothing.
    std::size_t acked_idx = ops.size();
    for (std::size_t i = ops.size(); i-- > 0;) {
      if (ops[i].acked) {
        acked_idx = i;
        break;
      }
    }
    if (acked_idx == ops.size()) continue;
    auto it = finals.find(key);
    // Allowed final states: the newest acked op itself, or any op issued
    // after it (voided ops may have landed — the client never learned).
    bool ok = false;
    for (std::size_t i = acked_idx; i < ops.size() && !ok; ++i) {
      ok = it == finals.end() ? ops[i].is_erase
                              : !ops[i].is_erase && ops[i].value == it->second;
    }
    if (ok) continue;
    const OpRecord& acked = ops[acked_idx];
    if (it != finals.end() && acked.is_erase) {
      ++phantoms_;
      violation("durability: phantom resurrection — '" + key + "' = '" +
                it->second + "' though op " + std::to_string(acked.id) +
                " (erase) was acknowledged with nothing newer issued");
    } else if (it != finals.end()) {
      ++acked_lost_;
      violation("durability: acked write lost — '" + key + "' holds '" +
                it->second + "' instead of acknowledged op " +
                std::to_string(acked.id) + " ('" + acked.value +
                "') or anything issued after it");
    } else {
      ++acked_lost_;
      violation("durability: acked write lost — '" + key +
                "' is absent though op " + std::to_string(acked.id) + " ('" +
                acked.value + "') was acknowledged and never erased");
    }
  }
}

// --- reporting --------------------------------------------------------------

void ChaosCluster::violation(std::string what) {
  RC_WARN(kMod, "INVARIANT VIOLATION: %s", what.c_str());
  violations_.push_back(std::move(what));
}

std::vector<session::SessionNode*> ChaosCluster::rings_of(const Node& n) const {
  if (!is(Kind::kDurable)) return n.rings;
  std::vector<session::SessionNode*> out;
  for (std::size_t s = 0; s < n.plane->shard_count(); ++s) {
    out.push_back(&n.plane->ring(s));
  }
  return out;
}

metrics::Snapshot ChaosCluster::metrics_snapshot() const {
  metrics::Snapshot out;
  for (const auto& [id, n] : nodes_) {
    switch (stack_.kind) {
      case Kind::kApp:
        out.merge(n->session->metrics().snapshot());
        out.merge(n->session->transport().metrics().snapshot());
        out.merge(n->chan->metrics().snapshot());
        out.merge(n->map->metrics().snapshot());
        out.merge(n->locks->metrics().snapshot());
        out.merge(n->vips->metrics().snapshot());
        break;
      case Kind::kMultiRing:
        out.merge(n->mux->metrics_snapshot());
        break;
      case Kind::kDurable:
        out.merge(n->mux->metrics_snapshot());
        out.merge(n->plane->storage_snapshot());
        out.merge(n->mgr->metrics().snapshot());
        for (std::size_t s = 0; s < n->smap->shard_count(); ++s) {
          out.merge(n->smap->shard(s).metrics().snapshot());
          out.merge(n->slocks->shard(s).metrics().snapshot());
        }
        break;
    }
  }
  if (is(Kind::kApp)) out.merge(harness_metrics_.snapshot());
  return out;
}

std::size_t ChaosCluster::reservoir_samples() const {
  if (!is(Kind::kApp)) return 0;
  std::size_t total = harness_metrics_.reservoir_samples();
  for (const auto& [id, n] : nodes_) {
    total += n->session->metrics().reservoir_samples();
    total += n->session->transport().metrics().reservoir_samples();
    total += n->chan->metrics().reservoir_samples();
    total += n->map->metrics().reservoir_samples();
    total += n->locks->metrics().reservoir_samples();
    total += n->vips->metrics().reservoir_samples();
  }
  return total;
}

std::string ChaosCluster::ring_dump() const {
  session::RingIntrospector ri;
  for (const auto& [id, n] : nodes_) {
    for (auto* ring : rings_of(*n)) ri.watch(*ring);
  }
  return ri.dump();
}

std::string ChaosCluster::failure_report() const {
  std::string out = "=== chaos failure report ===\n";
  out += "violations (" + std::to_string(violations_.size()) + "):\n";
  for (const std::string& v : violations_) out += "  " + v + "\n";
  if (is(Kind::kDurable)) {
    out += "acked=" + std::to_string(acked_ops_) +
           " voided=" + std::to_string(voided_ops_) +
           " acked_lost=" + std::to_string(acked_lost_) +
           " phantoms=" + std::to_string(phantoms_) + "\n";
  }
  out += engine_->describe_schedule();
  out += ring_dump();
  out += "final metrics snapshot:\n";
  out += metrics_snapshot().to_table();
  return out;
}

ChaosRoundResult ChaosCluster::result() const {
  ChaosRoundResult res;
  res.violations = violations_;
  res.schedule = engine_->describe_schedule();
  res.faults = engine_->faults_injected();
  res.classes = engine_->classes_seen();
  res.metrics = metrics_snapshot();
  res.reservoir_samples = reservoir_samples();
  if (!res.violations.empty()) res.report = failure_report();
  res.false_removals = false_removals();
  res.true_removals = true_removals();
  res.acked_ops = acked_ops_;
  res.voided_ops = voided_ops_;
  res.acked_lost = acked_lost_;
  res.phantom_resurrections = phantoms_;
  res.final_epoch = final_epoch_;
  res.final_shards = final_shards_;
  res.resize_completed = resize_completed();
  return res;
}

// --- round drivers ----------------------------------------------------------

namespace {

std::vector<NodeId> node_ids(std::size_t n) {
  std::vector<NodeId> ids;
  for (std::size_t i = 1; i <= n; ++i) ids.push_back(static_cast<NodeId>(i));
  return ids;
}

session::SessionConfig session_config(const ChaosProfile& profile) {
  session::SessionConfig scfg;
  scfg.transport.adaptive = profile.adaptive;
  if (profile.max_batch_msgs > 0) scfg.max_batch_msgs = profile.max_batch_msgs;
  if (profile.max_batch_bytes > 0) {
    scfg.max_batch_bytes = profile.max_batch_bytes;
  }
  if (profile.flush_deadline > 0) scfg.flush_deadline = profile.flush_deadline;
  return scfg;
}

/// The network seed is the round seed under a per-configuration salt.
net::SimNetConfig net_config(std::uint64_t seed, std::uint64_t salt,
                             double base_loss = 0.0) {
  net::SimNetConfig ncfg;
  ncfg.seed = seed ^ salt;
  ncfg.default_drop = base_loss;
  return ncfg;
}

ChaosRoundResult run_round(ChaosCluster& cluster, Time chaos_duration,
                           Time converge_timeout = 0) {
  if (cluster.bootstrap()) {
    cluster.run_chaos(chaos_duration);
    cluster.heal_and_check(converge_timeout);
  }
  return cluster.result();
}

ChaosConfig seeded(std::uint64_t seed) {
  ChaosConfig ccfg;
  ccfg.seed = seed;
  return ccfg;
}

void set_weight(ChaosConfig& ccfg, FaultClass c, double w) {
  ccfg.weights[static_cast<std::size_t>(c)] = w;
}

}  // namespace

ChaosRoundResult run_chaos_round(std::uint64_t seed, Time chaos_duration,
                                 std::size_t n_nodes, ChaosProfile profile) {
  ChaosCluster cluster(
      node_ids(n_nodes), seeded(seed), session_config(profile),
      net_config(seed, 0x9e3779b97f4a7c15ULL, profile.base_loss));
  return run_round(cluster, chaos_duration);
}

ChaosRoundResult run_multi_ring_round(std::uint64_t seed, Time chaos_duration,
                                      std::size_t n_nodes,
                                      std::size_t n_rings,
                                      ChaosProfile profile) {
  ChaosCluster cluster(
      node_ids(n_nodes), seeded(seed), session_config(profile),
      net_config(seed, 0xc2b2ae3d27d4eb4fULL, profile.base_loss),
      ChaosStack::multi_ring(n_rings));
  return run_round(cluster, chaos_duration);
}

ChaosRoundResult run_durability_round(std::uint64_t seed,
                                      const std::string& dir,
                                      Time chaos_duration, std::size_t n_nodes,
                                      std::size_t n_shards) {
  ChaosConfig ccfg = seeded(seed);
  ccfg.mean_gap = millis(160);
  ccfg.mean_duration = millis(320);
  // Restart-storm mix: node crashes, shard restarts and full-cluster
  // restarts dominate; a light seasoning of network faults keeps the
  // recovery paths honest about loss and reordering.
  set_weight(ccfg, FaultClass::kCrashRestart, 1.5);
  set_weight(ccfg, FaultClass::kPartition, 0.4);
  set_weight(ccfg, FaultClass::kLinkCut, 0.4);
  set_weight(ccfg, FaultClass::kDropBurst, 0.4);
  set_weight(ccfg, FaultClass::kLatencyStorm, 0.3);
  set_weight(ccfg, FaultClass::kDuplicateBurst, 0.2);
  set_weight(ccfg, FaultClass::kCorruptBurst, 0.2);
  set_weight(ccfg, FaultClass::kReorderWindow, 0.2);
  set_weight(ccfg, FaultClass::kRttInflate, 0.0);
  set_weight(ccfg, FaultClass::kAsymLoss, 0.2);
  set_weight(ccfg, FaultClass::kLinkFlap, 0.0);
  set_weight(ccfg, FaultClass::kShardRestart, 1.2);
  set_weight(ccfg, FaultClass::kClusterRestart, 0.5);
  DurabilityConfig dcfg;
  dcfg.n_shards = n_shards;
  dcfg.storage.snapshot_every = 64;
  ChaosProfile profile;
  profile.adaptive = true;
  ChaosCluster cluster(node_ids(n_nodes), ccfg, session_config(profile),
                       net_config(seed, 0xa0761d6478bd642fULL),
                       ChaosStack::durable_plane(dir, dcfg));
  return run_round(cluster, chaos_duration);
}

ChaosRoundResult run_reshard_round(std::uint64_t seed, const std::string& dir,
                                   ReshardRoundOptions opts,
                                   Time chaos_duration, std::size_t n_nodes,
                                   std::size_t n_shards) {
  ChaosConfig ccfg = seeded(seed);
  // Lighter background storm than the pure restart rounds: the migration
  // must make progress between faults, and the targeted schedule supplies
  // the interesting kill on top.
  ccfg.mean_gap = millis(320);
  ccfg.mean_duration = millis(260);
  ccfg.min_alive = n_nodes > 1 ? n_nodes - 1 : 1;
  for (double& w : ccfg.weights) w = 0.0;
  set_weight(ccfg, FaultClass::kCrashRestart, 1.0);
  set_weight(ccfg, FaultClass::kDropBurst, 0.5);
  set_weight(ccfg, FaultClass::kLatencyStorm, 0.4);
  set_weight(ccfg, FaultClass::kLinkCut, 0.3);
  set_weight(ccfg, FaultClass::kShardRestart, 0.3);
  DurabilityConfig dcfg;
  dcfg.n_shards = n_shards;
  dcfg.storage.snapshot_every = 64;
  dcfg.resize_to = opts.resize_to;
  dcfg.resize_at = opts.resize_at;
  dcfg.migration_fault = opts.fault;
  ChaosProfile profile;
  profile.adaptive = true;
  ChaosCluster cluster(node_ids(n_nodes), ccfg, session_config(profile),
                       net_config(seed, 0xe7037ed1a0b428dbULL),
                       ChaosStack::durable_plane(dir, dcfg));
  return run_round(cluster, chaos_duration, millis(30000));
}

}  // namespace raincore::testing
