// Three ring-only members (SessionMux + one SessionNode each) on one
// UdpNetwork loop driven inline by the calling thread — raincored's ring
// without a data plane. Used by the `failover` workload and by the fault
// probe that closes the steady workloads.
//
// Load is open-loop: every member multicasts one 64-byte agreed message
// per millisecond, and each message is timed from its due time. Faults are
// crash-stops of member 3 through SessionMux::set_enabled, issued from a
// zero-delay event scheduled inside a run_exclusive callback so the
// token's position at the crash is known: run on a survivor, the victim
// does not hold the token and the failed pass detects it; run on the
// victim, the token dies with it and the 911 path regenerates it.
#pragma once

#include <array>
#include <memory>
#include <unordered_set>
#include <vector>

#include "bench_common.h"
#include "visit_tracker.h"
#include "net/udp_network.h"
#include "session/session_mux.h"

namespace perfbench {

/// Figures of the fault cycles run so far (one entry per counted cycle).
struct FaultFigures {
  std::vector<double> outage_ms;       ///< pass-failure cycles
  std::vector<double> token_regen_ms;  ///< token-loss cycles
  std::vector<double> rejoin_ms;       ///< pass-failure cycles
  std::vector<double> detect_ms;       ///< crash -> first survivor removal
  std::vector<double> regen_view_ms;   ///< crash -> regenerated view (token loss)
  std::vector<double> merge_ms;        ///< restart -> first survivor re-admits
  int pass_cycles = 0;
  int token_cycles = 0;
  /// Cycles whose detection path (read from the survivors' 911 and
  /// removal counters) did not match the kill phase; left out above.
  int flagged = 0;
};

class RingCluster {
 public:
  static constexpr std::size_t kMembers = 3;
  static constexpr std::size_t kVictim = 2;  ///< index of node 3
  static constexpr std::size_t kPayload = 64;

  explicit RingCluster(std::uint64_t seed);
  RingCluster(const RingCluster&) = delete;
  RingCluster& operator=(const RingCluster&) = delete;
  ~RingCluster();

  /// Founds every ring and polls (1 ms) until all views hold 3 members.
  bool converge(Time timeout);
  /// Runs the loop for `d`, in 1 ms slices.
  void run_for(Time d);

  void start_load();
  /// Stops the generators and runs until every survivor has delivered
  /// every survivor message; false on timeout.
  bool stop_load_and_drain(Time timeout);

  /// One crash/restart cycle of the victim. `victim_holds` selects the
  /// kill phase. Returns false (with the reason in r) if the cluster did
  /// not recover within the phase timeouts.
  bool cycle(bool victim_holds, FaultFigures& f, Result& r);

  /// Survivor-op accounting between open_window() and close_window():
  /// ops due in the window, refusals and completed self-deliveries.
  void open_window();
  void close_window();
  std::uint64_t window_attempted() const;
  std::uint64_t window_refused() const;
  /// Completed survivor ops in the window; their latencies are appended
  /// to `latencies`. False if a latency buffer overflowed.
  bool take_window(std::uint64_t& completed, std::vector<Time>& latencies) const;

  /// Agreed-order and no-loss checks over the whole run (after drain).
  void check(Result& r) const;

  /// Tracing toggles the benchmark's own spans and per-visit callbacks.
  void set_tracing(bool on);
  const SpanBuffer& spans() const { return spans_; }
  /// Token rotation intervals seen by the visit callbacks, ns.
  std::vector<double> rotations() const;
  metrics::Snapshot snapshot() const;

 private:
  struct Member {
    NodeId id = 0;
    net::NodeEnv* env = nullptr;
    std::unique_ptr<session::SessionMux> mux;
    session::SessionNode* ring = nullptr;
    bool up = true;
    // Generator.
    Time next_due = 0;
    std::uint64_t next_seq = 0;
    net::TimerId gen_timer = 0;
    // Receiver state.
    Time last_delivery = 0;
    Time max_gap = 0;
    std::uint64_t hash = kHashBasis;
    std::uint64_t delivered = 0;
    std::array<std::uint64_t, kMembers> expect{};  ///< next seq per origin
    std::unordered_set<std::uint64_t> victim_seen;
    std::uint64_t order_errors = 0;
    // Window accounting (own survivor ops).
    std::uint64_t win_attempted = 0;
    std::uint64_t win_refused = 0;
    std::uint64_t win_completed = 0;
    std::uint64_t own_submitted = 0;
    Samples lat;
    // Membership observations.
    Time removed_at = 0;
    Time shrunk_at = 0;
    Time merged_at = 0;
    VisitTracker visits;
  };

  void tick(std::size_t i);
  void submit(std::size_t i, Time due);
  void on_deliver(std::size_t i, NodeId origin, const Slice& p);
  void on_view(std::size_t i, const session::View& v);
  void crash_victim();
  void restart_victim();
  bool survivor(std::size_t i) const { return i != kVictim; }

  std::uint64_t seed_;
  bool tracing_ = false;
  bool observing_ = false;  ///< outage gap measurement armed
  bool window_ = false;
  Time win_open_ = 0;
  Time win_close_ = 0;
  Time founded_at_ = 0;  ///< when converge() founded the rings
  Time crashed_at_ = 0;
  Time restarted_at_ = 0;
  bool load_ = false;
  SpanBuffer spans_;
  net::UdpNetwork net_;
  std::array<Member, kMembers> m_;
};

}  // namespace perfbench
