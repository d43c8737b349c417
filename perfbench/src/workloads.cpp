#include "workloads.h"

#include "common/buffer.h"
#include "runtime/raincored_config.h"

namespace perfbench {

double timed_setups(const RunArgs& a, const std::function<bool()>& setup) {
  std::vector<double> s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Time t0 = rep == 0 ? a.process_start : mono_ns();
    if (!setup()) return -1.0;
    s.push_back(static_cast<double>(mono_ns() - t0) / 1e9);
  }
  return median(s);
}

session::SessionConfig raincored_ring(std::size_t members) {
  const runtime::RaincoredConfig rc;
  session::SessionConfig cfg;
  cfg.token_hold = rc.token_hold;
  cfg.max_batch_msgs = rc.max_batch_msgs;
  cfg.max_batch_bytes = rc.max_batch_bytes;
  for (std::size_t i = 1; i <= members; ++i) {
    cfg.eligible.push_back(static_cast<NodeId>(i));
  }
  return cfg;
}

void run_for(net::UdpNetwork& net, Time d) {
  const Time end = mono_ns() + d;
  while (mono_ns() < end) net.run_for(raincore::millis(1));
}

bool run_until(net::UdpNetwork& net, Time timeout,
               const std::function<bool()>& done) {
  const Time deadline = mono_ns() + timeout;
  while (!done()) {
    if (mono_ns() >= deadline) return false;
    net.run_for(raincore::millis(1));
  }
  return true;
}

void Window::span(const ProcSample& from, const ProcSample& to) {
  elapsed = to.wall - from.wall;
  cpu = to.cpu - from.cpu;
}

double Window::ops_per_s() const {
  return elapsed > 0 ? static_cast<double>(completed) * 1e9 /
                           static_cast<double>(elapsed)
                     : 0.0;
}

double Window::cpu_us_per_op() const {
  return completed ? static_cast<double>(cpu) / 1e3 /
                         static_cast<double>(completed)
                   : 0.0;
}

double Window::lat_ms(double q) const { return quantile_ms(latencies, q); }

void report_window(const Window& w, Result& r) {
  r.set("ops_per_s", w.ops_per_s(), "1/s");
  r.set("lat_p50_ms", w.lat_ms(0.50), "ms");
  r.set("cpu_us_per_op", w.cpu_us_per_op(), "us");
}

void init_per_layer(Result& r) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"runtime.io_cpu_us_per_op", "us"},
      {"runtime.worker_cpu_us_per_op", "us"},
      {"runtime.proxy_drops_per_op", "count"},
      {"net.hold_overshoot_us", "us"},
      {"transport.frames_per_op", "count"},
      {"transport.retries_per_op", "count"},
      {"transport.task_switches_per_op", "count"},
      {"transport.detect_ms", "ms"},
      {"session.rotation_ms", "ms"},
      {"session.msgs_per_batch", "count"},
      {"session.try_multicast_ns", "ns"},
      {"session.refused_per_op", "count"},
      {"session.regen_ms", "ms"},
      {"session.merge_ms", "ms"},
      {"data.put_ns", "ns"},
      {"data.apply_lag_ms", "ms"},
      {"data.applies_per_op", "count"},
      {"storage.fsyncs_per_op", "count"},
      {"storage.wal_bytes_per_op", "B"},
      {"common.allocs_per_op", "count"},
      {"common.copies_per_op", "count"},
      {"failover.flagged_cycles", "count"},
      {"lat_p90_ms", "ms"},
      {"lat_p99_ms", "ms"},
      {"trace.submit_self_ns", "ns"},
      {"trace.deliver_self_ns", "ns"},
      {"trace.visit_self_ns", "ns"},
      {"trace.crash_self_ns", "ns"},
      {"trace.restart_self_ns", "ns"},
      {"trace.spans", "count"},
      {"trace.overhead_cpu_us_per_op", "us"},
      {"trace.overhead_lat_p50_ms", "ms"},
  };
  for (const auto& [name, unit] : kLayers) r.set(name, 0.0, unit);
}

LayerCounters LayerCounters::take(metrics::Snapshot snap) {
  LayerCounters c;
  c.snap = std::move(snap);
  c.allocs = raincore::wire_stats().allocs.value();
  c.copies = raincore::wire_stats().copies.value();
  c.write_bytes = ProcSample::take().write_bytes;
  return c;
}

void report_layers(const LayerCounters& from, const LayerCounters& to,
                   double ops, const std::vector<double>& rotations_ns,
                   std::size_t ring_size,
                   const std::vector<const SpanBuffer*>& bufs,
                   const std::string& submit_metric, Result& r) {
  const metrics::Snapshot d = to.snap.diff(from.snap);
  auto per_op = [&](const char* counter) {
    return static_cast<double>(counter_sum(d, counter)) / ops;
  };
  r.set("transport.frames_per_op", per_op("transport.frames_out"), "count");
  r.set("transport.retries_per_op", per_op("transport.retries"), "count");
  r.set("transport.task_switches_per_op", per_op("transport.task_switches"),
        "count");
  const double batches =
      static_cast<double>(counter_sum(d, "session.batch.attached"));
  r.set("session.msgs_per_batch",
        batches > 0
            ? static_cast<double>(counter_sum(d, "session.batch.msgs")) / batches
            : 0.0,
        "count");
  r.set("session.refused_per_op", per_op("session.backpressure_stalls"),
        "count");
  r.set("common.allocs_per_op", static_cast<double>(to.allocs - from.allocs) / ops,
        "count");
  r.set("common.copies_per_op", static_cast<double>(to.copies - from.copies) / ops,
        "count");
  const double rot_ns = median(rotations_ns);
  const double hold_ns =
      static_cast<double>(runtime::RaincoredConfig{}.token_hold);
  r.set("session.rotation_ms", rot_ns / 1e6, "ms");
  r.set("net.hold_overshoot_us",
        (rot_ns / static_cast<double>(ring_size) - hold_ns) / 1e3, "us");
  const SpanTotals t = summarize(bufs);
  if (t.count.count(SpanKind::kSubmit)) {
    r.set(submit_metric,
          t.self_ns.at(SpanKind::kSubmit) /
              static_cast<double>(t.count.at(SpanKind::kSubmit)),
          "ns");
  }
}

void report_trace(const Window& untraced, const Window& traced,
                  const std::vector<const SpanBuffer*>& bufs,
                  const std::string& dump_path, Result& r) {
  r.set("lat_p90_ms", untraced.lat_ms(0.90), "ms");
  r.set("lat_p99_ms", untraced.lat_ms(0.99), "ms");
  const SpanTotals t = summarize(bufs);
  std::uint64_t spans = 0;
  for (const auto& [kind, n] : t.count) {
    spans += n;
    r.set(std::string("trace.") + span_name(kind) + "_self_ns",
          t.self_ns.at(kind) / static_cast<double>(n), "ns");
  }
  r.set("trace.spans", static_cast<double>(spans), "count");
  r.set("trace.overhead_cpu_us_per_op",
        traced.cpu_us_per_op() - untraced.cpu_us_per_op(), "us");
  r.set("trace.overhead_lat_p50_ms",
        traced.lat_ms(0.5) - untraced.lat_ms(0.5),
        "ms");
  write_spans(dump_path, bufs);
}

}  // namespace perfbench
