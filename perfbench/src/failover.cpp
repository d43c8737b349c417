// failover: repeated crash/restart of one member of a 3-member ring under
// open-loop load, alternating the two kill phases (see ring_cluster.h).
// Also hosts the short fault probe the steady workloads end with.
#include <algorithm>

#include "workloads.h"

namespace perfbench {

namespace {

const Time kConvergeTimeout = raincore::seconds(10);
const Time kWarmup = raincore::millis(300);
const Time kDrainTimeout = raincore::seconds(10);

/// A pass-failure plus a token-loss cycle take about 3.1 s; a run does a
/// fixed number of them, so every run weighs the two kinds alike.
constexpr double kPairSeconds = 2.5;

/// Runs `cycles` cycles alternating the kill phase, pass failure first;
/// false if the cluster failed to recover.
bool run_cycles(RingCluster& c, int cycles, FaultFigures& f, Result& r) {
  for (int n = 0; n < cycles; ++n) {
    if (!c.cycle(n % 2 == 1, f, r)) return false;
  }
  return true;
}

}  // namespace

void run_failover(const RunArgs& a, Result& r) {
  std::unique_ptr<RingCluster> c;
  const double setup_s = timed_setups(a, [&] {
    c.reset();
    c = std::make_unique<RingCluster>(a.seed);
    return c->converge(kConvergeTimeout);
  });
  if (setup_s < 0) {
    r.fail("failover: ring did not converge");
    return;
  }
  if (!check_thread_budget(0, r)) return;

  c->start_load();
  c->run_for(kWarmup);
  const int pairs = std::max(1, static_cast<int>(a.seconds / kPairSeconds));
  FaultFigures f;
  auto measure = [&](int n_pairs) {
    Window w;
    c->open_window();
    const ProcSample from = ProcSample::take();
    run_cycles(*c, 2 * n_pairs, f, r);
    const ProcSample to = ProcSample::take();
    c->close_window();
    w.span(from, to);
    if (!c->take_window(w.completed, w.latencies)) {
      r.fail("failover: latency buffer overflowed");
    }
    r.attempted += c->window_attempted();
    r.failed += c->window_refused();
    return w;
  };
  Window plain, traced;
  LayerCounters l0, l1;
  if (!a.trace) {
    plain = measure(pairs);
  } else {
    // Equal halves, so both see the same mix of cycles.
    plain = measure(std::max(1, pairs / 2));
    r.attempted = r.failed = 0;
    c->set_tracing(true);
    l0 = LayerCounters::take(c->snapshot());
    f = FaultFigures{};
    traced = measure(std::max(1, pairs / 2));
    l1 = LayerCounters::take(c->snapshot());
  }
  if (!r.correct) return;
  if (!c->stop_load_and_drain(kDrainTimeout)) {
    r.fail("failover: survivor messages did not drain");
  }
  c->check(r);

  if (!a.trace) {
    report_window(plain, r);
    r.set("setup_s", setup_s, "s");
  } else {
    init_per_layer(r);
    const double ops =
        static_cast<double>(std::max<std::uint64_t>(1, traced.completed));
    const std::vector<const SpanBuffer*> bufs = {&c->spans()};
    report_layers(l0, l1, ops, c->rotations(), RingCluster::kMembers, bufs,
                  "session.try_multicast_ns", r);
    report_trace(plain, traced, bufs, a.work_dir + "/spans-failover.csv", r);
  }
  report_faults(a, f, r);
}

void run_fault_probe(const RunArgs& a, FaultFigures& f, Result& r) {
  RingCluster c(a.seed);
  if (!c.converge(kConvergeTimeout)) {
    r.fail("fault probe: ring did not converge");
    return;
  }
  c.start_load();
  c.run_for(kWarmup);
  if (!run_cycles(c, 4, f, r)) return;
  if (!c.stop_load_and_drain(kDrainTimeout)) {
    r.fail("fault probe: survivor messages did not drain");
  }
  c.check(r);
}

void report_faults(const RunArgs& a, const FaultFigures& f, Result& r) {
  if (f.outage_ms.empty() || f.token_regen_ms.empty() || f.rejoin_ms.empty()) {
    r.fail("failover: no correctly classified cycle of each kind (" +
           std::to_string(f.flagged) + " flagged)");
  }
  if (!a.trace) {
    r.set("outage_ms", median(f.outage_ms), "ms");
    r.set("token_regen_ms", median(f.token_regen_ms), "ms");
    r.set("rejoin_ms", median(f.rejoin_ms), "ms");
    r.set("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    r.set("transport.detect_ms", median(f.detect_ms), "ms");
    r.set("session.regen_ms", median(f.regen_view_ms), "ms");
    r.set("session.merge_ms", median(f.merge_ms), "ms");
    r.set("failover.flagged_cycles", f.flagged, "count");
  }
}

}  // namespace perfbench
