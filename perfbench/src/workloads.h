// The three workloads and the fault probe. Each fills `r` with the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
#pragma once

#include <functional>
#include <string>

#include "bench_common.h"
#include "net/udp_network.h"
#include "ring_cluster.h"
#include "session/session_node.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Working directory inside the checkout (WAL files, span dumps).
  std::string work_dir;
  /// Process start, the origin of the first set-up's clock.
  Time process_start = 0;
};

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

/// Runs `setup` kSetupReps times, the first timed from process start.
/// Returns the median in seconds, or a negative value if a set-up failed.
double timed_setups(const RunArgs& a, const std::function<bool()>& setup);

/// A ring configured as raincored configures it (2 ms hold, 128 msgs /
/// 8 KiB per visit), with members 1..members eligible for discovery.
session::SessionConfig raincored_ring(std::size_t members);

/// Drives `net` on the calling thread, in 1 ms slices, for `d`.
void run_for(net::UdpNetwork& net, Time d);
/// Drives `net` until `done` holds, polling every 1 ms; false after
/// `timeout`.
bool run_until(net::UdpNetwork& net, Time timeout,
               const std::function<bool()>& done);

void run_mcast(const RunArgs& a, Result& r);
void run_session_table(const RunArgs& a, Result& r);
void run_failover(const RunArgs& a, Result& r);

/// Fault probe that closes the steady workloads: a fresh ring-only
/// 3-member cluster, as in failover, runs two pass-failure and two
/// token-loss cycles, alternating, so every run reports outage_ms,
/// token_regen_ms and rejoin_ms. These do not depend on the workload.
void run_fault_probe(const RunArgs& a, FaultFigures& f, Result& r);

/// Writes the fault metrics: end-to-end (untraced) or per-layer (traced).
void report_faults(const RunArgs& a, const FaultFigures& f, Result& r);

/// One measured window. Every figure is taken over the whole window.
struct Window {
  Time elapsed = 0;
  Time cpu = 0;  ///< process CPU, all threads
  std::uint64_t completed = 0;
  std::vector<Time> latencies;

  /// Starts the window's clocks at `from` and stops them at `to`.
  void span(const ProcSample& from, const ProcSample& to);
  double ops_per_s() const;
  double cpu_us_per_op() const;
  double lat_ms(double q) const;
};

/// ops_per_s, lat_p50_ms, cpu_us_per_op.
void report_window(const Window& w, Result& r);

/// Every per-layer metric, zero until a workload measures it: a layer the
/// workload bypasses reads 0.
void init_per_layer(Result& r);

/// Instruments read at both ends of a traced half.
struct LayerCounters {
  metrics::Snapshot snap;
  std::uint64_t allocs = 0;       ///< wire_stats()
  std::uint64_t copies = 0;
  std::uint64_t write_bytes = 0;  ///< ProcSample::write_bytes
  static LayerCounters take(metrics::Snapshot snap);
};
/// The per-layer metrics every workload reads alike: transport and session
/// counters per op, wire allocations and copies per op, token rotation and
/// hold overshoot from the visit spans, and the submit span's mean self
/// time as `submit_metric`.
void report_layers(const LayerCounters& from, const LayerCounters& to,
                   double ops, const std::vector<double>& rotations_ns,
                   std::size_t ring_size,
                   const std::vector<const SpanBuffer*>& bufs,
                   const std::string& submit_metric, Result& r);
/// Per-span-kind self times and the tracing overhead (traced minus
/// untraced half of the same run).
void report_trace(const Window& untraced, const Window& traced,
                  const std::vector<const SpanBuffer*>& bufs,
                  const std::string& dump_path, Result& r);

}  // namespace perfbench
