#include "testing/chaos.h"

#include <algorithm>
#include <cstdio>

#include "common/log.h"

namespace raincore::testing {

namespace {
constexpr const char* kMod = "chaos";
}  // namespace

const char* fault_class_name(FaultClass c) {
  switch (c) {
    case FaultClass::kCrashRestart: return "crash-restart";
    case FaultClass::kPartition: return "partition";
    case FaultClass::kLinkCut: return "link-cut";
    case FaultClass::kDropBurst: return "drop-burst";
    case FaultClass::kLatencyStorm: return "latency-storm";
    case FaultClass::kDuplicateBurst: return "duplicate-burst";
    case FaultClass::kCorruptBurst: return "corrupt-burst";
    case FaultClass::kReorderWindow: return "reorder-window";
    case FaultClass::kRttInflate: return "rtt-inflate";
    case FaultClass::kAsymLoss: return "asym-loss";
    case FaultClass::kLinkFlap: return "link-flap";
    case FaultClass::kShardRestart: return "shard-restart";
    case FaultClass::kClusterRestart: return "cluster-restart";
    case FaultClass::kCount: break;
  }
  return "?";
}

std::string FaultEvent::describe() const {
  char buf[160];
  if (shard != static_cast<std::size_t>(-1)) {
    std::snprintf(buf, sizeof(buf), "  t=%9.3fms %-15s shard=%lu dur=%.1fms",
                  to_millis(at), fault_class_name(cls),
                  static_cast<unsigned long>(shard), to_millis(duration));
  } else if (b != kInvalidNode) {
    std::snprintf(buf, sizeof(buf),
                  "  t=%9.3fms %-15s a=%u b=%u rate=%.2f dur=%.1fms",
                  to_millis(at), fault_class_name(cls), a, b, rate,
                  to_millis(duration));
  } else if (a != kInvalidNode) {
    std::snprintf(buf, sizeof(buf), "  t=%9.3fms %-15s node=%u dur=%.1fms",
                  to_millis(at), fault_class_name(cls), a, to_millis(duration));
  } else {
    std::snprintf(buf, sizeof(buf), "  t=%9.3fms %-15s dur=%.1fms",
                  to_millis(at), fault_class_name(cls), to_millis(duration));
  }
  return buf;
}

ChaosEngine::ChaosEngine(net::SimNetwork& net, std::vector<NodeId> ids,
                         ChaosConfig cfg)
    : net_(net), ids_(std::move(ids)), cfg_(cfg), rng_(cfg.seed) {}

ChaosEngine::~ChaosEngine() {
  if (next_timer_) net_.loop().cancel(next_timer_);
  for (auto& [id, r] : reverts_) net_.loop().cancel(r.timer);
}

void ChaosEngine::start() {
  if (running_) return;
  running_ = true;
  schedule_next();
}

void ChaosEngine::schedule_next() {
  if (!running_) return;
  Time gap = std::max<Time>(
      millis(1), static_cast<Time>(rng_.exponential(
                     static_cast<double>(cfg_.mean_gap))));
  next_timer_ = net_.loop().schedule(gap, [this] {
    next_timer_ = 0;
    if (!running_) return;
    inject_one();
    schedule_next();
  });
}

FaultClass ChaosEngine::pick_class() {
  double total = 0.0;
  for (double w : cfg_.weights) total += w;
  double x = rng_.next_double() * total;
  for (std::size_t i = 0; i < static_cast<std::size_t>(FaultClass::kCount);
       ++i) {
    x -= cfg_.weights[i];
    if (x < 0.0) return static_cast<FaultClass>(i);
  }
  return FaultClass::kLinkCut;
}

std::vector<NodeId> ChaosEngine::alive() const {
  std::vector<NodeId> out;
  for (NodeId id : ids_) {
    if (down_.count(id) == 0) out.push_back(id);
  }
  return out;
}

NodeId ChaosEngine::pick_alive() {
  std::vector<NodeId> a = alive();
  if (a.empty()) return kInvalidNode;
  return a[rng_.next_below(a.size())];
}

std::pair<NodeId, NodeId> ChaosEngine::pick_pair() {
  std::vector<NodeId> a = alive();
  if (a.size() < 2) return {kInvalidNode, kInvalidNode};
  std::size_t i = rng_.next_below(a.size());
  std::size_t j = rng_.next_below(a.size() - 1);
  if (j >= i) ++j;
  return {a[i], a[j]};
}

void ChaosEngine::add_revert(Time after, std::function<void()> fn) {
  std::uint64_t rid = next_revert_id_++;
  Revert r;
  r.fn = std::move(fn);
  r.timer = net_.loop().schedule(after, [this, rid] {
    auto it = reverts_.find(rid);
    if (it == reverts_.end()) return;
    auto revert = std::move(it->second.fn);
    reverts_.erase(it);
    revert();
  });
  reverts_.emplace(rid, std::move(r));
}

void ChaosEngine::crash(NodeId id, Time duration) {
  down_.insert(id);
  if (on_crash_) on_crash_(id);
  net_.set_node_up(id, false);
  RC_INFO(kMod, "crash node %u for %.1fms", id, to_millis(duration));
  add_revert(duration, [this, id] { restart(id); });
}

void ChaosEngine::restart(NodeId id) {
  if (down_.count(id) == 0) return;
  down_.erase(id);
  net_.set_node_up(id, true);
  // Partition groups are built over the full node set, so a node restarting
  // into an active partition stays on its original side of the split.
  RC_INFO(kMod, "restart node %u", id);
  if (on_restart_) on_restart_(id);
}

void ChaosEngine::restart_shard(std::size_t shard) {
  if (shards_down_.count(shard) == 0) return;
  shards_down_.erase(shard);
  RC_INFO(kMod, "restart shard %lu", static_cast<unsigned long>(shard));
  if (on_shard_restart_) on_shard_restart_(shard);
}

bool ChaosEngine::inject_crash(NodeId id, Time duration) {
  if (down_.count(id)) return false;
  FaultEvent ev;
  ev.at = net_.now();
  ev.cls = FaultClass::kCrashRestart;
  ev.a = id;
  ev.duration = duration;
  crash(id, duration);
  schedule_.push_back(ev);
  return true;
}

bool ChaosEngine::inject_partition(std::vector<NodeId> group_a, Time duration) {
  if (!partition_groups_.empty() || group_a.empty()) return false;
  std::vector<NodeId> group_b;
  for (NodeId id : ids_) {
    if (std::find(group_a.begin(), group_a.end(), id) == group_a.end()) {
      group_b.push_back(id);
    }
  }
  if (group_b.empty()) return false;
  partition_groups_ = {std::move(group_a), std::move(group_b)};
  net_.partition(partition_groups_);
  FaultEvent ev;
  ev.at = net_.now();
  ev.cls = FaultClass::kPartition;
  ev.a = partition_groups_[0].front();
  ev.b = partition_groups_[1].front();
  ev.duration = duration;
  add_revert(duration, [this] {
    partition_groups_.clear();
    net_.heal_partition();
  });
  schedule_.push_back(ev);
  return true;
}

void ChaosEngine::inject_one() {
  FaultClass cls = pick_class();
  Time duration = std::max<Time>(
      millis(20), static_cast<Time>(rng_.exponential(
                      static_cast<double>(cfg_.mean_duration))));
  FaultEvent ev;
  ev.at = net_.now();
  ev.cls = cls;
  ev.duration = duration;
  bool injected = false;

  switch (cls) {
    case FaultClass::kCrashRestart: {
      if (ids_.size() - down_.size() > cfg_.min_alive) {
        NodeId id = pick_alive();
        if (id != kInvalidNode) {
          ev.a = id;
          crash(id, duration);
          injected = true;
        }
      }
      break;
    }
    case FaultClass::kPartition: {
      if (!partition_groups_.empty() || ids_.size() < 2) break;
      std::vector<NodeId> shuffled = ids_;
      for (std::size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1], shuffled[rng_.next_below(i)]);
      }
      std::size_t cut =
          1 + static_cast<std::size_t>(rng_.next_below(shuffled.size() - 1));
      partition_groups_ = {
          std::vector<NodeId>(shuffled.begin(), shuffled.begin() + cut),
          std::vector<NodeId>(shuffled.begin() + cut, shuffled.end())};
      net_.partition(partition_groups_);
      ev.a = partition_groups_[0].front();
      ev.b = partition_groups_[1].front();
      add_revert(duration, [this] {
        partition_groups_.clear();
        net_.heal_partition();
      });
      injected = true;
      break;
    }
    case FaultClass::kLinkCut: {
      auto [a, b] = pick_pair();
      if (a == kInvalidNode) break;
      ev.a = a;
      ev.b = b;
      net_.set_link_up(a, b, false);
      add_revert(duration, [this, a = a, b = b] { net_.set_link_up(a, b, true); });
      injected = true;
      break;
    }
    case FaultClass::kDropBurst: {
      auto [a, b] = pick_pair();
      if (a == kInvalidNode) break;
      ev.a = a;
      ev.b = b;
      ev.rate = 0.2 + 0.7 * rng_.next_double();
      net_.set_drop_rate(a, b, ev.rate);
      add_revert(duration, [this, a = a, b = b] {
        net_.set_drop_rate(a, b, net_.config().default_drop);
      });
      injected = true;
      break;
    }
    case FaultClass::kLatencyStorm: {
      auto [a, b] = pick_pair();
      if (a == kInvalidNode) break;
      ev.a = a;
      ev.b = b;
      Time lat = millis(1) + static_cast<Time>(rng_.next_below(millis(8)));
      Time jit = static_cast<Time>(rng_.next_below(millis(4)));
      net_.set_latency(a, b, lat, jit);
      add_revert(duration, [this, a = a, b = b] {
        net_.set_latency(a, b, net_.config().default_latency,
                         net_.config().default_jitter);
      });
      injected = true;
      break;
    }
    case FaultClass::kDuplicateBurst: {
      auto [a, b] = pick_pair();
      if (a == kInvalidNode) break;
      ev.a = a;
      ev.b = b;
      ev.rate = 0.1 + 0.4 * rng_.next_double();
      net_.set_duplicate_rate(a, b, ev.rate);
      add_revert(duration, [this, a = a, b = b] {
        net_.set_duplicate_rate(a, b, net_.config().default_duplicate);
      });
      injected = true;
      break;
    }
    case FaultClass::kCorruptBurst: {
      auto [a, b] = pick_pair();
      if (a == kInvalidNode) break;
      ev.a = a;
      ev.b = b;
      ev.rate = 0.05 + 0.25 * rng_.next_double();
      net_.set_corrupt_rate(a, b, ev.rate);
      add_revert(duration, [this, a = a, b = b] {
        net_.set_corrupt_rate(a, b, net_.config().default_corrupt);
      });
      injected = true;
      break;
    }
    case FaultClass::kReorderWindow: {
      auto [a, b] = pick_pair();
      if (a == kInvalidNode) break;
      ev.a = a;
      ev.b = b;
      // Reordering only bites with jitter, so the window also injects some.
      net_.set_preserve_order(a, b, false);
      net_.set_latency(a, b, net_.config().default_latency, millis(2));
      add_revert(duration, [this, a = a, b = b] {
        net_.set_preserve_order(a, b, net_.config().preserve_order);
        net_.set_latency(a, b, net_.config().default_latency,
                         net_.config().default_jitter);
      });
      injected = true;
      break;
    }
    case FaultClass::kRttInflate: {
      // Sustained congestion, not a blip: one-way latency inflates by a
      // multi-x factor for the whole fault. A fixed-RTO detector keeps
      // timing out and removing the (alive, just slow) peer; the adaptive
      // estimator should track the inflation instead.
      auto [a, b] = pick_pair();
      if (a == kInvalidNode) break;
      ev.a = a;
      ev.b = b;
      Time lat = net_.config().default_latency *
                 static_cast<Time>(3 + rng_.next_below(10));
      net_.set_latency(a, b, lat, lat / 4);
      add_revert(duration, [this, a = a, b = b] {
        net_.set_latency(a, b, net_.config().default_latency,
                         net_.config().default_jitter);
      });
      injected = true;
      break;
    }
    case FaultClass::kAsymLoss: {
      // Heavy loss in one direction only (a -> b); the reverse path stays
      // clean. Acks keep arriving for traffic b -> a, so naive detectors
      // that key liveness on "have I heard anything" are stressed by the
      // asymmetry.
      auto [a, b] = pick_pair();
      if (a == kInvalidNode) break;
      ev.a = a;
      ev.b = b;
      ev.rate = 0.3 + 0.6 * rng_.next_double();
      net_.set_drop_rate(a, b, ev.rate, /*bidirectional=*/false);
      add_revert(duration, [this, a = a, b = b] {
        net_.set_drop_rate(a, b, net_.config().default_drop,
                           /*bidirectional=*/false);
      });
      injected = true;
      break;
    }
    case FaultClass::kLinkFlap: {
      // The link toggles up/down on a short period — alive long enough to
      // ack sometimes, dead long enough to time out sometimes. This is the
      // probation step's target scenario.
      auto [a, b] = pick_pair();
      if (a == kInvalidNode) break;
      ev.a = a;
      ev.b = b;
      Time period = millis(2) + static_cast<Time>(rng_.next_below(millis(10)));
      ev.rate = to_millis(period);  // record the flap period for the schedule
      flap_link(a, b, /*down=*/true, period, net_.now() + duration);
      injected = true;
      break;
    }
    case FaultClass::kShardRestart: {
      // One shard dies CLUSTER-WIDE: the harness crash-stops that shard's
      // store and ring on every live node (power-cut model: unsynced WAL
      // tail lost), then the restart hook recovers each from disk and
      // re-founds the ring. Other shards keep serving throughout — the
      // scenario the per-shard durability split exists for.
      if (cfg_.n_shards == 0 || !on_shard_crash_ || !on_shard_restart_) break;
      std::vector<std::size_t> up_shards;
      for (std::size_t s = 0; s < cfg_.n_shards; ++s) {
        if (shards_down_.count(s) == 0) up_shards.push_back(s);
      }
      if (up_shards.empty()) break;
      const std::size_t s = up_shards[rng_.next_below(up_shards.size())];
      shards_down_.insert(s);
      ev.shard = s;
      RC_INFO(kMod, "crash shard %lu for %.1fms",
              static_cast<unsigned long>(s), to_millis(duration));
      on_shard_crash_(s);
      add_revert(duration, [this, s] { restart_shard(s); });
      injected = true;
      break;
    }
    case FaultClass::kClusterRestart: {
      // Total blackout: every node crash-stops (losing its unsynced WAL
      // tails), then the whole cluster restarts together and must rebuild
      // its state from disk alone — there is no surviving replica to sync
      // from. Skipped while any node is individually down so the single
      // revert cleanly owns the whole restart.
      if (!on_crash_ || !on_restart_) break;
      if (!down_.empty() || !shards_down_.empty()) break;
      for (NodeId id : ids_) {
        down_.insert(id);
        on_crash_(id);
        net_.set_node_up(id, false);
      }
      RC_INFO(kMod, "cluster restart: all %lu nodes down for %.1fms",
              static_cast<unsigned long>(ids_.size()), to_millis(duration));
      add_revert(duration, [this] {
        const std::set<NodeId> d = down_;
        for (NodeId id : d) restart(id);
      });
      injected = true;
      break;
    }
    case FaultClass::kCount:
      break;
  }

  if (injected) schedule_.push_back(ev);
}

void ChaosEngine::flap_link(NodeId a, NodeId b, bool down, Time period,
                            Time until) {
  // Invoked both by its own revert timer and by stop_and_heal's pending-fn
  // sweep: once the engine stops (or the fault expires) the link must end
  // in the up state.
  if (!running_ || net_.now() >= until) {
    net_.set_link_up(a, b, true);
    return;
  }
  net_.set_link_up(a, b, !down);
  add_revert(period, [this, a, b, down, period, until] {
    flap_link(a, b, !down, period, until);
  });
}

void ChaosEngine::stop_and_heal() {
  running_ = false;
  if (next_timer_) {
    net_.loop().cancel(next_timer_);
    next_timer_ = 0;
  }
  // Revert everything still active, in injection order.
  auto reverts = std::move(reverts_);
  reverts_.clear();
  for (auto& [id, r] : reverts) {
    net_.loop().cancel(r.timer);
    r.fn();
  }
  partition_groups_.clear();
  net_.heal_partition();
  std::set<NodeId> still_down = down_;
  for (NodeId id : still_down) restart(id);
  std::set<std::size_t> shards_still_down = shards_down_;
  for (std::size_t s : shards_still_down) restart_shard(s);
  // Belt and braces: no link overrides survive a heal.
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    for (std::size_t j = i + 1; j < ids_.size(); ++j) {
      net_.clear_link_overrides(ids_[i], ids_[j]);
    }
  }
}

std::set<FaultClass> ChaosEngine::classes_seen() const {
  std::set<FaultClass> out;
  for (const FaultEvent& ev : schedule_) out.insert(ev.cls);
  return out;
}

std::string ChaosEngine::describe_schedule() const {
  std::string out = "chaos seed=" + std::to_string(cfg_.seed) + ", " +
                    std::to_string(schedule_.size()) + " faults\n";
  for (const FaultEvent& ev : schedule_) {
    out += ev.describe();
    out += '\n';
  }
  return out;
}

}  // namespace raincore::testing
