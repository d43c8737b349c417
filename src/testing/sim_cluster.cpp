#include "testing/sim_cluster.h"

#include <algorithm>
#include <cassert>

namespace raincore::testing {

namespace {

using Kind = SimStack::Kind;

std::vector<NodeId> sorted(std::vector<NodeId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<NodeId> members_of(const session::HierarchyConfig& cfg) {
  std::vector<NodeId> out;
  for (const auto& ring : cfg.rings) {
    out.insert(out.end(), ring.begin(), ring.end());
  }
  return out;
}

SimStack hierarchy_stack(session::HierarchyConfig cfg) {
  SimStack s;
  s.kind = Kind::kHierarchy;
  s.hierarchy = std::move(cfg);
  return s;
}

}  // namespace

SimCluster::SimCluster(std::vector<NodeId> ids, session::SessionConfig cfg,
                       net::SimNetConfig net_cfg, SimStack stack)
    : net_(net_cfg),
      cfg_(std::move(cfg)),
      stack_(std::move(stack)),
      ids_(std::move(ids)) {
  if (cfg_.eligible.empty()) cfg_.eligible = ids_;
  // The public side: ARPs from a disconnected node never reach the segment.
  subnet_.set_reachability([this](NodeId n) { return net_.node_up(n); });
  for (NodeId id : ids_) build(id);
}

SimCluster::SimCluster(session::HierarchyConfig cfg, net::SimNetConfig net_cfg)
    : SimCluster(members_of(cfg), cfg.session, net_cfg,
                 hierarchy_stack(cfg)) {}

SimCluster::~SimCluster() = default;

void SimCluster::build(NodeId id) {
  // Redundant links: one physical interface per peer path the transport
  // is configured to use.
  auto& env = net_.add_node(id, cfg_.transport.default_peer_ifaces);
  auto n = std::make_unique<Node>();
  Node* np = n.get();
  auto log_to = [np](std::size_t i) {
    return [np, i](NodeId origin, const Slice& payload, session::Ordering o) {
      np->delivered[i].push_back({origin,
                                  std::string(payload.begin(), payload.end()),
                                  o, np->incarnation});
    };
  };
  auto log_ring = [&](session::SessionNode& ring) {
    const std::size_t i = np->delivered.size();
    np->delivered.emplace_back();
    np->views.emplace_back();
    ring.set_deliver_handler(log_to(i));
    ring.set_view_handler(
        [np, i](const session::View& v) { np->views[i].push_back(v); });
  };
  switch (stack_.kind) {
    case Kind::kRing:
      n->session = std::make_unique<session::SessionNode>(env, cfg_);
      log_ring(*n->session);
      break;
    case Kind::kChannels:
      n->session = std::make_unique<session::SessionNode>(env, cfg_);
      n->chan = std::make_unique<data::ChannelMux>(*n->session);
      if (stack_.map_channel) {
        n->map = std::make_unique<data::ReplicatedMap>(*n->chan,
                                                       *stack_.map_channel);
      }
      if (stack_.lock_channel) {
        n->locks = std::make_unique<data::LockManager>(*n->chan,
                                                       *stack_.lock_channel);
      }
      if (stack_.vips) {
        n->vips = std::make_unique<apps::VipManager>(*n->chan, subnet_,
                                                     *stack_.vips);
      }
      if (stack_.log_channel) {
        n->delivered.emplace_back();
        n->chan->subscribe(*stack_.log_channel, log_to(0));
      }
      break;
    case Kind::kMultiRing:
      n->mux = std::make_unique<session::SessionMux>(env, cfg_.transport);
      for (std::size_t r = 0; r < stack_.rings; ++r) {
        const auto group = static_cast<transport::MuxGroup>(r);
        log_ring(n->mux->create_ring(group, cfg_));
      }
      break;
    case Kind::kSharded: {
      n->mux = std::make_unique<session::SessionMux>(env, cfg_.transport);
      storage::StorageConfig scfg = stack_.storage;
      if (!scfg.dir.empty()) scfg.dir += "/node" + std::to_string(id);
      n->plane = std::make_unique<data::ShardedDataPlane>(
          *n->mux, stack_.rings, cfg_, 0, scfg);
      if (stack_.map_channel) {
        n->smap = std::make_unique<data::ShardedMap>(*n->plane,
                                                     *stack_.map_channel);
      }
      if (stack_.lock_channel) {
        n->slocks = std::make_unique<data::ShardedLockManager>(
            *n->plane, *stack_.lock_channel);
      }
      if (stack_.reshard_from > 0) {
        assert(n->smap && n->slocks && "resharding moves map and lock rows");
        data::ReshardConfig rcfg;
        rcfg.initial_shards = stack_.reshard_from;
        n->mgr = std::make_unique<data::ReshardManager>(*n->plane, *n->smap,
                                                        *n->slocks, rcfg);
      }
      break;
    }
    case Kind::kHierarchy:
      n->hier = std::make_unique<session::HierarchicalNode>(env,
                                                            stack_.hierarchy);
      n->delivered.emplace_back();
      n->hier->set_deliver_handler(
          [log = log_to(0)](NodeId origin, const Slice& payload) {
            log(origin, payload, session::Ordering::kAgreed);
          });
      break;
  }
  nodes_.emplace(id, std::move(n));
}

// --- lifecycle --------------------------------------------------------------

bool SimCluster::found_all() {
  for (auto& [id, n] : nodes_) {
    switch (stack_.kind) {
      case Kind::kHierarchy:
        n->hier->start();
        break;
      case Kind::kSharded:
        if (!n->plane->open_storage()) return false;
        n->plane->found_all();
        break;
      default:
        for (auto* ring : rings(id)) ring->found();
    }
  }
  return true;
}

bool SimCluster::bootstrap_via_join(Time timeout) {
  assert(stack_.kind == Kind::kRing || stack_.kind == Kind::kChannels);
  auto it = nodes_.begin();
  const NodeId seed = it->first;
  it->second->session->found();
  for (++it; it != nodes_.end(); ++it) it->second->session->join({seed});
  return run_until_converged(ids_, timeout);
}

bool SimCluster::bootstrap(Time timeout) {
  return found_all() && run_until_converged(ids_, timeout);
}

bool SimCluster::run_until(const std::function<bool()>& pred, Time timeout) {
  const Time deadline = net_.now() + timeout;
  while (net_.now() < deadline) {
    if (pred()) return true;
    net_.loop().run_for(millis(10));
  }
  return pred();
}

bool SimCluster::converged(const std::vector<NodeId>& live) const {
  const std::vector<NodeId> want = sorted(live);
  if (stack_.kind == Kind::kHierarchy) return hierarchy_converged(want);
  for (NodeId id : live) {
    const Node& n = node(id);
    for (const auto* ring : rings(id)) {
      if (!ring->started() || sorted(ring->view().members) != want) {
        return false;
      }
    }
    if ((n.map && !n.map->synced()) || (n.smap && !n.smap->synced())) {
      return false;
    }
  }
  return true;
}

bool SimCluster::hierarchy_converged(const std::vector<NodeId>& live) const {
  std::size_t rings_up = 0;
  std::vector<const session::HierarchicalNode*> leading;
  for (const auto& ring : stack_.hierarchy.rings) {
    std::vector<NodeId> peers;
    for (NodeId m : ring) {
      if (std::binary_search(live.begin(), live.end(), m)) peers.push_back(m);
    }
    if (peers.empty()) continue;
    ++rings_up;
    for (NodeId id : peers) {
      session::HierarchicalNode& h = *node(id).hier;
      if (!h.local_session().started() ||
          sorted(h.local_view().members) != sorted(peers)) {
        return false;
      }
      if (h.is_leader()) leading.push_back(&h);
    }
  }
  for (const auto* h : leading) {
    if (h->global_view().members.size() != rings_up) return false;
  }
  return leading.size() == rings_up;
}

void SimCluster::crash(NodeId id) {
  Node& n = node(id);
  switch (stack_.kind) {
    case Kind::kRing:
    case Kind::kChannels:
      n.session->stop();
      break;
    case Kind::kSharded:
      n.plane->crash_storage();  // power cut: the unsynced tail is gone
      [[fallthrough]];
    case Kind::kMultiRing:
      // Node-level crash: every ring AND the shared transport go down — a
      // stopped ring over a live transport would keep acking token passes.
      n.mux->set_enabled(false);
      break;
    case Kind::kHierarchy:
      n.hier->stop();
      break;
  }
  net_.set_node_up(id, false);
}

bool SimCluster::restart(NodeId id, const std::set<std::size_t>& shards_down) {
  net_.set_node_up(id, true);
  Node& n = node(id);
  ++n.incarnation;
  switch (stack_.kind) {
    case Kind::kRing:
    case Kind::kChannels:
      n.session->found();  // discovery (BODYODOR) merges it back in
      return true;
    case Kind::kMultiRing:
      n.mux->set_enabled(true);
      for (auto* ring : rings(id)) ring->found();
      return true;
    case Kind::kHierarchy:
      n.hier->start();
      return true;
    case Kind::kSharded:
      break;
  }
  n.mux->set_enabled(true);
  bool ok = true;
  const std::size_t k = n.plane->shard_count();
  for (std::size_t s = 0; s < k; ++s) {
    if (shards_down.count(s) || !n.plane->durable()) continue;
    ok = n.plane->open_store(s) && ok;
    n.plane->recover_store(s);  // shadow ready before the ring forms
  }
  // Rebuild the migration window from the recovered filter journals before
  // any ring re-forms, so the first post-restart applies are classified
  // with the journaled state, not the stale in-memory one.
  if (n.mgr && n.plane->durable()) n.mgr->after_recovery();
  for (std::size_t s = 0; s < k; ++s) {
    if (shards_down.count(s) == 0 && !n.plane->ring(s).started()) {
      n.plane->ring(s).found();
    }
  }
  return ok;
}

ChaosEngine& SimCluster::enable_chaos(ChaosConfig cfg) {
  if (!chaos_) {
    chaos_ = std::make_unique<ChaosEngine>(net_, ids_, cfg);
    chaos_->set_crash_hook([this](NodeId id) { crash(id); });
    chaos_->set_restart_hook([this](NodeId id) { restart(id); });
  }
  return *chaos_;
}

// --- access -----------------------------------------------------------------

std::vector<session::SessionNode*> SimCluster::rings(NodeId id) const {
  const Node& n = node(id);
  switch (stack_.kind) {
    case Kind::kRing:
    case Kind::kChannels:
      return {n.session.get()};
    case Kind::kMultiRing:
    case Kind::kSharded: {
      // Shard rings grow with a resize; multi-ring groups are 0..rings-1.
      std::vector<session::SessionNode*> out;
      const std::size_t k = n.plane ? n.plane->shard_count() : stack_.rings;
      for (std::size_t r = 0; r < k; ++r) {
        const auto group = static_cast<transport::MuxGroup>(r);
        out.push_back(n.plane ? &n.plane->ring(r) : n.mux->ring(group));
      }
      return out;
    }
    case Kind::kHierarchy:
      return {&n.hier->local_session(), &n.hier->global_session()};
  }
  return {};
}

MsgSeq SimCluster::send(NodeId from, const std::string& payload,
                        session::Ordering o, std::size_t ring) {
  Bytes bytes(payload.begin(), payload.end());
  Node& n = node(from);
  switch (stack_.kind) {
    case Kind::kChannels:
      return n.chan->send(*stack_.log_channel, std::move(bytes), o);
    case Kind::kHierarchy:
      return n.hier->multicast(std::move(bytes));
    default:
      return rings(from).at(ring)->multicast(std::move(bytes), o);
  }
}

std::string SimCluster::check_agreed_order() {
  const std::vector<Delivery>* ref = nullptr;
  NodeId ref_id = 0;
  for (auto& [id, n] : nodes_) {
    if (!session(id).started()) continue;
    const auto& mine = delivered(id);
    if (!ref) {
      ref = &mine;
      ref_id = id;
      continue;
    }
    const std::size_t upto = std::min(ref->size(), mine.size());
    for (std::size_t i = 0; i < upto; ++i) {
      if (!((*ref)[i] == mine[i])) {
        return "divergence at index " + std::to_string(i) + " between node " +
               std::to_string(ref_id) + " and node " + std::to_string(id);
      }
    }
  }
  return {};
}

}  // namespace raincore::testing
