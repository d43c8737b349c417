// Bench harness: runs the same multicast workload over Raincore or one of
// the baseline group-communication stacks and reports the §4.1 metrics —
// per-node task switches, network packets/bytes, and delivery latency.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baseline/broadcast_gc.h"
#include "baseline/sequencer_gc.h"
#include "baseline/two_phase_gc.h"
#include "common/stats.h"
#include "net/sim_network.h"
#include "testing/sim_cluster.h"

namespace raincore::bench {

enum class Stack { kRaincore, kBroadcast, kSequencer, kTwoPhase };

inline const char* stack_name(Stack s) {
  switch (s) {
    case Stack::kRaincore: return "raincore";
    case Stack::kBroadcast: return "bcast-unicast";
    case Stack::kSequencer: return "sequencer";
    case Stack::kTwoPhase: return "2pc";
  }
  return "?";
}

/// A cluster of N nodes all running the chosen stack, with uniform
/// multicast workload helpers and metric collection. Raincore runs as a
/// SimCluster ring; the baselines run on a plain SimNetwork.
class GcCluster {
 public:
  GcCluster(Stack stack, std::size_t n, session::SessionConfig scfg = {},
            net::SimNetConfig ncfg = {})
      : ids_(testing::node_ids(n)) {
    for (NodeId id : ids_) ts_baseline_[id] = 0;
    if (stack == Stack::kRaincore) {
      sim_ = std::make_unique<testing::SimCluster>(ids_, scfg, ncfg);
      for (NodeId id : ids_) {
        sim_->session(id).set_deliver_handler(
            [this, id](NodeId origin, const Slice& payload, session::Ordering) {
              on_deliver(id, origin, payload);
            });
      }
      return;
    }
    base_net_ = std::make_unique<net::SimNetwork>(ncfg);
    for (NodeId id : ids_) {
      auto& env = base_net_->add_node(id);
      std::unique_ptr<baseline::GroupComm>& gc = gcs_[id];
      switch (stack) {
        case Stack::kBroadcast:
          gc = std::make_unique<baseline::BroadcastGC>(env, ids_);
          break;
        case Stack::kSequencer:
          gc = std::make_unique<baseline::SequencerGC>(env, ids_);
          break;
        default:
          gc = std::make_unique<baseline::TwoPhaseGC>(env, ids_);
      }
      gc->set_deliver_handler([this, id](NodeId origin, const Slice& payload) {
        on_deliver(id, origin, payload);
      });
    }
  }

  /// Boots the cluster. For Raincore this forms the ring by join and exits
  /// the process if it does not converge; baselines are static and start
  /// instantly.
  void start() {
    if (!sim_) return;
    if (!sim_->bootstrap_via_join(seconds(30))) {
      std::fprintf(stderr, "FAIL: %zu-node Raincore ring did not converge\n",
                   ids_.size());
      std::exit(1);
    }
  }

  void run(Time d) { net().loop().run_for(d); }

  /// Multicasts a payload of `bytes` bytes stamped with the submit time.
  void multicast(NodeId from, std::size_t bytes) {
    ByteWriter w(bytes + 16);
    w.u64(next_msg_id_);
    w.i64(net().now());
    for (std::size_t i = w.size(); i < bytes; ++i) w.u8(0xab);
    submit_time_[next_msg_id_] = net().now();
    ++next_msg_id_;
    if (sim_) {
      sim_->session(from).multicast(w.take());
    } else {
      gcs_.at(from)->multicast(w.take());
    }
  }

  void on_deliver(NodeId at, NodeId, const Slice& payload) {
    (void)at;
    ++deliveries_;
    if (payload.size() >= 16) {
      ByteReader r(payload);
      std::uint64_t id = r.u64();
      Time sent = r.i64();
      auto& n = deliver_count_[id];
      ++n;
      if (n == ids_.size()) {
        // Message has reached every member: record full-delivery latency.
        latency_.record_time(net().now() - sent);
        deliver_count_.erase(id);
        submit_time_.erase(id);
      }
    }
  }

  /// Resets all measurement state (call after warmup).
  void reset_metrics() {
    net().reset_stats();
    deliveries_ = 0;
    latency_.reset();
    for (NodeId id : ids_) ts_baseline_[id] = task_switches_of(id);
  }

  std::uint64_t task_switches_of(NodeId id) const {
    return sim_ ? sim_->session(id).transport().task_switches().value()
                : gcs_.at(id)->task_switches().value();
  }

  /// Mean per-node task switches since reset_metrics().
  double mean_task_switches() const {
    double sum = 0;
    for (NodeId id : ids_) {
      sum += static_cast<double>(task_switches_of(id) - ts_baseline_.at(id));
    }
    return sum / static_cast<double>(ids_.size());
  }

  net::SimNetwork& net() { return sim_ ? sim_->net() : *base_net_; }
  const std::vector<NodeId>& ids() const { return ids_; }
  std::uint64_t deliveries() const { return deliveries_; }
  const Histogram& latency() const { return latency_; }
  session::SessionNode& session(NodeId id) { return sim_->session(id); }

 private:
  std::vector<NodeId> ids_;
  std::unique_ptr<testing::SimCluster> sim_;    // raincore
  std::unique_ptr<net::SimNetwork> base_net_;   // baselines
  std::map<NodeId, std::unique_ptr<baseline::GroupComm>> gcs_;
  std::map<NodeId, std::uint64_t> ts_baseline_;
  std::uint64_t next_msg_id_ = 1;
  std::uint64_t deliveries_ = 0;
  std::map<std::uint64_t, std::size_t> deliver_count_;
  std::map<std::uint64_t, Time> submit_time_;
  Histogram latency_;
};

/// Prints a header banner shared by all bench binaries.
inline void print_banner(const std::string& title, const std::string& paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

}  // namespace raincore::bench
