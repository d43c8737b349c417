// E12 — saturation sweep: offered load vs delivered throughput and latency
// for the batched sharded data plane, locating the knee.
//
// Token-hop batching moved the data path's ceiling from "msgs per visit"
// to "bytes per visit", and bounded send queues turned overload into
// explicit try_send refusals instead of unbounded queue growth. That makes
// the capacity question measurable: sweep the per-node offered rate upward
// and watch where refusals start and latency leaves the flat region.
//
// Method (same 12-node / K=4 harness as bench_shard's batched mode):
//   - production batch knobs (512 msgs / 256 KiB per visit), deadline off;
//   - producers inject `burst` messages per node per 1 ms tick through
//     try_send, counting refusals — offered rate = burst × 12k msgs/s;
//   - each point measures a fresh cluster: 0.5 s warm-up, 2 s window,
//     then a drain phase so throughput counts only window sends (see
//     bench_shard.cpp for the drain-measurement rationale);
//   - the KNEE is the highest offered rate whose refusal fraction stays
//     below 5% — beyond it the bounded queues are refusing steady-state
//     load, i.e. the ring is at capacity.
//
// The knee (not the peak) is the number to tune against: past it, extra
// offered load only converts into backpressure stalls and latency. README
// "Tuning the batch knobs" walks through using this output.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/util/bench_json.h"
#include "bench/util/gc_harness.h"
#include "testing/sim_cluster.h"

using namespace raincore;
using raincore::bench::print_banner;

namespace {

constexpr std::size_t kNodes = 12;
constexpr std::size_t kShards = 4;
constexpr data::Channel kBenchChannel = 7;
const Time kTokenHold = millis(2);
const Time kWarmup = millis(500);
const Time kWindow = seconds(2);
const Time kInjectEvery = millis(1);
constexpr double kKneeRefusalFrac = 0.05;

// Per-node messages per tick: offered aggregate = burst × 12k msgs/s. The
// top entries deliberately overshoot the plane's visit-budget ceiling
// (512 msgs/visit × ~40 visits/s/ring × 12 nodes × 4 rings ≈ 1 M msgs/s)
// so the knee is bracketed, not just approached.
constexpr int kBursts[] = {2, 4, 8, 16, 32, 64, 96, 128, 192};

struct Point {
  double offered;     // msgs/s aggregate attempted
  double throughput;  // msgs/s aggregate delivered (window sends only)
  double p50_ms;
  double p95_ms;
  double refusal_frac;  // refused / attempted during the window
  std::uint64_t delivered;
  std::uint64_t refused;
  metrics::Snapshot node1;
};

Point run_point(int burst) {
  session::SessionConfig scfg;
  scfg.token_hold = kTokenHold;
  scfg.max_batch_msgs = 512;
  scfg.max_batch_bytes = 256 << 10;
  testing::SimCluster c(testing::node_ids(kNodes), scfg, {},
                        testing::SimStack::sharded(kShards));
  net::SimNetwork& net = c.net();
  const std::vector<NodeId>& ids = c.ids();
  std::map<NodeId, std::uint64_t> delivered;
  Histogram latency;
  Time window_open = -1;
  Time last_counted = -1;

  for (NodeId id : ids) {
    for (std::size_t s = 0; s < kShards; ++s) {
      c.node(id).plane->channels(s).subscribe(
          kBenchChannel, [&, id](NodeId, const Slice& p, session::Ordering) {
            if (window_open < 0 || p.size() < 8) return;
            ByteReader r(p);
            const Time sent = static_cast<Time>(r.u64());
            if (sent < window_open) return;
            ++delivered[id];
            last_counted = net.now();
            latency.record_time(net.now() - sent);
          });
    }
  }

  if (!c.bootstrap(seconds(30))) {
    std::fprintf(stderr, "FAIL: %zu shard rings did not converge\n", kShards);
    std::exit(1);
  }

  // Refusals are counted only inside the window so the fraction matches the
  // window's attempted load.
  std::map<NodeId, std::uint64_t> seq;
  std::uint64_t attempted = 0, refused = 0;
  bool producing = true;
  std::vector<std::unique_ptr<std::function<void()>>> tickers;
  for (NodeId id : ids) {
    auto tick = std::make_unique<std::function<void()>>();
    std::function<void()>* self = tick.get();
    *tick = [&, id, burst, self] {
      if (!producing) return;
      data::ShardedDataPlane& plane = *c.node(id).plane;
      for (int b = 0; b < burst; ++b) {
        std::string key =
            "n" + std::to_string(id) + ":" + std::to_string(seq[id]++);
        std::size_t s = plane.router().shard_of(key);
        ByteWriter w(64);
        w.u64(static_cast<std::uint64_t>(net.now()));
        for (std::size_t pad = w.size(); pad < 64; ++pad) w.u8(0);
        const bool counted = window_open >= 0;
        if (counted) ++attempted;
        if (!plane.channels(s).try_send(kBenchChannel, w.take())) {
          if (counted) ++refused;
        }
      }
      c.node(id).mux->env().schedule(kInjectEvery, *self);
    };
    c.node(id).mux->env().schedule(kInjectEvery, *tick);
    tickers.push_back(std::move(tick));
  }

  net.loop().run_for(kWarmup);
  window_open = net.now();
  net.loop().run_for(kWindow);

  producing = false;
  auto count_total = [&] {
    std::uint64_t total = 0;
    for (NodeId id : ids) total += delivered[id];
    return total;
  };
  std::uint64_t total = count_total();
  for (int step = 0; step < 600; ++step) {
    net.loop().run_for(millis(200));
    const std::uint64_t now_total = count_total();
    if (now_total == total && step > 5) break;
    total = now_total;
  }
  total = count_total();
  const Time elapsed =
      (last_counted > window_open ? last_counted : net.now()) - window_open;
  window_open = -1;

  Point p;
  p.offered = static_cast<double>(burst) * kNodes *
              (1e9 / static_cast<double>(kInjectEvery));
  p.delivered = total;
  p.refused = refused;
  p.refusal_frac =
      attempted ? static_cast<double>(refused) / static_cast<double>(attempted)
                : 0.0;
  p.throughput = static_cast<double>(total) / kNodes / to_seconds(elapsed);
  p.p50_ms = latency.percentile(0.5) / 1e6;
  p.p95_ms = latency.percentile(0.95) / 1e6;
  p.node1 = c.node(1).mux->metrics_snapshot();
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  print_banner("Raincore bench E12: saturation sweep for the batched plane",
               "offered load vs throughput/latency — find the knee");

  std::printf(
      "\n12 nodes, K=%zu shards, 512 msgs / 256 KiB per visit, try_send "
      "producers.\nKnee = highest offered rate with refusal fraction < "
      "%.0f%%.\n\n",
      kShards, kKneeRefusalFrac * 100);
  std::printf("%14s | %14s %10s %10s %10s %10s\n", "offered msgs/s",
              "agg msgs/s", "p50 (ms)", "p95 (ms)", "refused %", "delivered");
  std::printf(
      "----------------------------------------------------------------------"
      "----\n");

  bench::JsonReport report("saturation");
  report.param("nodes", static_cast<double>(kNodes));
  report.param("shards", static_cast<double>(kShards));
  report.param("max_batch_msgs", 512);
  report.param("max_batch_bytes", static_cast<double>(256 << 10));
  report.param("window_s", to_seconds(kWindow));
  report.param("knee_refusal_frac", kKneeRefusalFrac);

  double knee_offered = 0, knee_throughput = 0, knee_p95 = 0;
  metrics::Snapshot knee_metrics;
  bool have_knee = false;
  for (int burst : kBursts) {
    Point p = run_point(burst);
    std::printf("%14.0f | %14.0f %10.1f %10.1f %9.1f%% %10llu\n", p.offered,
                p.throughput, p.p50_ms, p.p95_ms, p.refusal_frac * 100,
                static_cast<unsigned long long>(p.delivered));
    JsonValue row =
        bench::JsonReport::row("offered-" + std::to_string(burst) + "x12k");
    row.set("offered_msgs_per_s", JsonValue::number(p.offered));
    row.set("throughput_msgs_per_s", JsonValue::number(p.throughput));
    row.set("p50_ms", JsonValue::number(p.p50_ms));
    row.set("p95_ms", JsonValue::number(p.p95_ms));
    row.set("refusal_frac", JsonValue::number(p.refusal_frac));
    row.set("delivered", JsonValue::number(static_cast<double>(p.delivered)));
    row.set("refused", JsonValue::number(static_cast<double>(p.refused)));
    report.add(std::move(row));
    if (p.refusal_frac < kKneeRefusalFrac) {
      knee_offered = p.offered;
      knee_throughput = p.throughput;
      knee_p95 = p.p95_ms;
      knee_metrics = p.node1;
      have_knee = true;
    }
  }

  if (!have_knee) {
    std::fprintf(stderr,
                 "FAIL: even the lowest offered rate saw >= %.0f%% refusals\n",
                 kKneeRefusalFrac * 100);
    return 1;
  }

  std::printf(
      "\nknee: %.0f msgs/s offered sustained at %.0f msgs/s delivered "
      "(p95 %.1f ms)\n",
      knee_offered, knee_throughput, knee_p95);
  std::printf(
      "Past the knee the bounded queues refuse steady-state load — extra\n"
      "offered traffic converts into backpressure stalls, not throughput.\n");
  JsonValue knee = bench::JsonReport::row("knee");
  knee.set("offered_msgs_per_s", JsonValue::number(knee_offered));
  knee.set("throughput_msgs_per_s", JsonValue::number(knee_throughput));
  knee.set("p95_ms", JsonValue::number(knee_p95));
  report.add(std::move(knee));
  // Snapshot from the knee run: json_check asserts the batch/backpressure
  // instruments are live in this document.
  report.set_metrics(knee_metrics);

  bench::maybe_write_report(report, bench::json_path_from_args(argc, argv));
  return 0;
}
