// E10 — sharded data plane: aggregate multicast throughput vs shard count,
// with and without token-hop batching.
//
// One Raincore ring serialises all agreed traffic through a single
// circulating token, so a node's aggregate data throughput is capped at
// (members × msgs_per_visit) / token_roundtrip no matter how fast the
// links are. Two independent multipliers attack that bound:
//   - the sharded data plane (data/shard_router.h) runs K rings over ONE
//     shared transport per node, so K tokens circulate concurrently;
//   - token-hop batching (session/token.h AttachedBatch) lets each visit
//     drain a byte-bounded batch instead of a fixed handful of messages,
//     so one token hop carries two orders of magnitude more payload.
//
// The harness runs 12 simulated nodes in two modes per K ∈ {1, 2, 4}:
//   baseline — batching restricted to the pre-batching visit cap
//              (4 msgs/visit) under the historical 1 msg/ms/node load;
//   batched  — production knobs (512 msgs / 256 KiB per visit) under an
//              8× offered load, producers paced by try_send backpressure.
//
// Throughput counts only messages SENT inside the measured window (the
// send timestamp rides in the payload), so warm-up traffic delivered after
// the window opens no longer inflates the figure. Producers stop at window
// close and the run then drains until the window's sends are all delivered
// (or progress stops); throughput divides window sends by the time from
// window open to the last counted delivery, which converges on the true
// drain capacity for saturated modes and on the offered rate otherwise.
//
// Exit gates (deterministic sim: a regression is a code change, not noise):
//   - baseline 1→4 shard scaling ≥ 2.5×;
//   - batched K=4 throughput ≥ 10× the committed pre-batching baseline
//     (BENCH_PR6_shard.json) at equal-or-better p95.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "bench/util/bench_json.h"
#include "bench/util/gc_harness.h"
#include "testing/sim_cluster.h"

using namespace raincore;
using raincore::bench::print_banner;

namespace {

constexpr std::size_t kNodes = 12;
constexpr data::Channel kBenchChannel = 7;
const Time kTokenHold = millis(2);
const Time kWarmup = seconds(1);
const Time kWindow = seconds(4);

// Committed pre-batching 4-shard result (BENCH_PR6_shard.json, the seed
// this PR must beat ≥10× at equal-or-better p95).
constexpr double kPr6ThroughputMsgsPerS = 7620.0;
constexpr double kPr6P95Ms = 1810.035;

struct Mode {
  const char* name;
  std::size_t max_batch_msgs;
  std::size_t max_batch_bytes;
  int burst;        // messages injected per node per tick
  bool paced;       // pace producers with try_send (drop on backpressure)
};

// Baseline reproduces the pre-batching data path: every visit drains at
// most 4 single-message frames, offered load 12k msgs/s aggregate
// (saturating — the queue grows without bound, which is exactly what the
// old numbers measured).
constexpr Mode kBaseline{"baseline", 4, 1 << 20, 1, false};
// Batched: byte-bounded visits, 96k msgs/s aggregate offered, bounded
// queue with try_send pacing.
constexpr Mode kBatched{"batched", 512, 256 << 10, 8, true};

const Time kInjectEvery = millis(1);

struct Result {
  double throughput;  // delivered msgs/s, aggregate (all shards)
  double p50_ms;      // delivery latency, send → agreed delivery
  double p95_ms;
  std::uint64_t delivered;  // window-sent deliveries counted
  std::uint64_t refused;    // try_send backpressure refusals (paced mode)
  metrics::Snapshot node1;
};

Result run_shards(std::size_t k_shards, const Mode& mode) {
  session::SessionConfig scfg;
  scfg.token_hold = kTokenHold;
  scfg.max_batch_msgs = mode.max_batch_msgs;
  scfg.max_batch_bytes = mode.max_batch_bytes;
  testing::SimCluster c(testing::node_ids(kNodes), scfg, {},
                        testing::SimStack::sharded(k_shards));
  net::SimNetwork& net = c.net();
  const std::vector<NodeId>& ids = c.ids();
  std::map<NodeId, std::uint64_t> delivered;
  Histogram latency;
  // Only messages sent at/after window_open count — a delivery handler that
  // merely gates on "measuring" also counts the warm-up backlog flushed
  // after the window opens, inflating throughput (the pre-PR8 bug).
  Time window_open = -1;
  Time last_counted = -1;

  for (NodeId id : ids) {
    for (std::size_t s = 0; s < k_shards; ++s) {
      c.node(id).plane->channels(s).subscribe(
          kBenchChannel, [&, id](NodeId, const Slice& p, session::Ordering) {
            if (window_open < 0 || p.size() < 8) return;
            ByteReader r(p);
            const Time sent = static_cast<Time>(r.u64());
            if (sent < window_open) return;  // warm-up send: not measured
            ++delivered[id];
            last_counted = net.now();
            latency.record_time(net.now() - sent);
          });
    }
  }

  if (!c.bootstrap(seconds(30))) {
    std::fprintf(stderr, "FAIL: %zu shard rings did not converge\n", k_shards);
    std::exit(1);
  }

  // Producers: each node injects `burst` keyed messages per kInjectEvery;
  // the ShardRouter picks the owning ring, so load spreads across all K
  // tokens. Paced mode goes through try_send and counts refusals instead
  // of growing the queue without bound.
  // Tickers live in this vector (not self-referencing closures — a
  // std::function holding a shared_ptr to itself never frees).
  std::map<NodeId, std::uint64_t> seq;
  std::uint64_t refused = 0;
  bool producing = true;
  std::vector<std::unique_ptr<std::function<void()>>> tickers;
  for (NodeId id : ids) {
    auto tick = std::make_unique<std::function<void()>>();
    std::function<void()>* self = tick.get();
    *tick = [&, id, self] {
      if (!producing) return;
      data::ShardedDataPlane& plane = *c.node(id).plane;
      for (int b = 0; b < mode.burst; ++b) {
        std::string key =
            "n" + std::to_string(id) + ":" + std::to_string(seq[id]++);
        std::size_t s = plane.router().shard_of(key);
        ByteWriter w(64);
        w.u64(static_cast<std::uint64_t>(net.now()));
        for (std::size_t pad = w.size(); pad < 64; ++pad) w.u8(0);
        if (mode.paced) {
          if (!plane.channels(s).try_send(kBenchChannel, w.take())) ++refused;
        } else {
          plane.channels(s).send(kBenchChannel, w.take());
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

  // Drain: producers stop, the rings flush the window's sends. Terminate on
  // progress stall (deterministic sim, no loss: a stall means done) or a
  // generous cap for the deeply saturated single-shard baseline.
  producing = false;
  auto count_total = [&] {
    std::uint64_t total = 0;
    for (NodeId id : ids) total += delivered[id];
    return total;
  };
  std::uint64_t total = count_total();
  for (int step = 0; step < 600; ++step) {  // ≤ 120 s simulated drain
    net.loop().run_for(millis(200));
    const std::uint64_t now_total = count_total();
    if (now_total == total && step > 5) break;
    total = now_total;
  }
  total = count_total();
  const Time elapsed =
      (last_counted > window_open ? last_counted : net.now()) - window_open;
  window_open = -1;

  Result r;
  r.delivered = total;
  r.refused = refused;
  // Every message is delivered at all 12 nodes; dividing by kNodes turns
  // handler invocations back into messages.
  r.throughput = static_cast<double>(total) / kNodes / to_seconds(elapsed);
  r.p50_ms = latency.percentile(0.5) / 1e6;
  r.p95_ms = latency.percentile(0.95) / 1e6;
  r.node1 = c.node(1).mux->metrics_snapshot();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  print_banner("Raincore bench E10: sharded data plane throughput scaling",
               "K rings over one shared transport, with token-hop batching");

  std::printf("\n12 nodes, token hold %lld ms, %.0f s measured window.\n",
              static_cast<long long>(kTokenHold / kNanosPerMilli),
              to_seconds(kWindow));
  std::printf("baseline: %zu msgs/visit, 12k msgs/s offered (saturating)\n",
              kBaseline.max_batch_msgs);
  std::printf("batched:  %zu msgs / %zu KiB per visit, 96k msgs/s offered,\n",
              kBatched.max_batch_msgs, kBatched.max_batch_bytes >> 10);
  std::printf("          try_send-paced producers (bounded queues)\n\n");
  std::printf("%8s %7s | %14s %10s %10s %12s %10s\n", "mode", "shards",
              "agg msgs/s", "p50 (ms)", "p95 (ms)", "deliveries", "refused");
  std::printf(
      "---------------------------------------------------------------------"
      "-------\n");

  bench::JsonReport report("shard");
  report.param("nodes", static_cast<double>(kNodes));
  report.param("token_hold_ms",
               static_cast<double>(kTokenHold / kNanosPerMilli));
  report.param("baseline_msgs_per_visit",
               static_cast<double>(kBaseline.max_batch_msgs));
  report.param("batched_max_batch_msgs",
               static_cast<double>(kBatched.max_batch_msgs));
  report.param("batched_max_batch_bytes",
               static_cast<double>(kBatched.max_batch_bytes));
  report.param("window_s", to_seconds(kWindow));

  std::map<std::string, Result> results;
  for (const Mode* mode : {&kBaseline, &kBatched}) {
    for (std::size_t k : {1, 2, 4}) {
      Result r = run_shards(k, *mode);
      const std::string tag =
          std::string(mode->name) + "-" + std::to_string(k);
      results[tag] = r;
      std::printf("%8s %7zu | %14.0f %10.1f %10.1f %12llu %10llu\n",
                  mode->name, k, r.throughput, r.p50_ms, r.p95_ms,
                  static_cast<unsigned long long>(r.delivered),
                  static_cast<unsigned long long>(r.refused));
      JsonValue row = bench::JsonReport::row("shards-" + tag);
      row.set("throughput_msgs_per_s", JsonValue::number(r.throughput));
      row.set("p50_ms", JsonValue::number(r.p50_ms));
      row.set("p95_ms", JsonValue::number(r.p95_ms));
      row.set("delivered",
              JsonValue::number(static_cast<double>(r.delivered)));
      row.set("refused", JsonValue::number(static_cast<double>(r.refused)));
      report.add(std::move(row));
    }
  }

  const double scaling =
      results["baseline-4"].throughput / results["baseline-1"].throughput;
  const double batch_gain =
      results["batched-4"].throughput / kPr6ThroughputMsgsPerS;
  const double batched_p95 = results["batched-4"].p95_ms;
  std::printf("\nbaseline 1 -> 4 shard scaling: %.2fx (floor: 2.50x)\n",
              scaling);
  std::printf(
      "batched K=4 vs committed pre-batching baseline (%.0f msgs/s, "
      "p95 %.1f ms):\n  %.1fx throughput (floor: 10x), p95 %.1f ms\n",
      kPr6ThroughputMsgsPerS, kPr6P95Ms, batch_gain, batched_p95);
  JsonValue row = bench::JsonReport::row("scaling-1-to-4");
  row.set("factor", JsonValue::number(scaling));
  report.add(std::move(row));
  JsonValue gain = bench::JsonReport::row("batching-gain-vs-pr6");
  gain.set("factor", JsonValue::number(batch_gain));
  gain.set("pr6_throughput_msgs_per_s",
           JsonValue::number(kPr6ThroughputMsgsPerS));
  gain.set("pr6_p95_ms", JsonValue::number(kPr6P95Ms));
  gain.set("batched_p95_ms", JsonValue::number(batched_p95));
  report.add(std::move(gain));
  report.set_metrics(results["batched-4"].node1);

  bench::maybe_write_report(report, bench::json_path_from_args(argc, argv));

  std::printf("\nExpected shape: a single ring is token-bound — shards\n");
  std::printf("multiply circulating tokens, batching multiplies payload per\n");
  std::printf("hop, and the transport/port/failure detector stay singletons.\n");
  bool fail = false;
  if (scaling < 2.5) {
    std::fprintf(stderr, "FAIL: baseline scaling %.2fx below the 2.5x floor\n",
                 scaling);
    fail = true;
  }
  if (batch_gain < 10.0) {
    std::fprintf(stderr,
                 "FAIL: batched K=4 gain %.2fx below the 10x floor\n",
                 batch_gain);
    fail = true;
  }
  if (batched_p95 > kPr6P95Ms) {
    std::fprintf(stderr,
                 "FAIL: batched K=4 p95 %.1f ms above the committed "
                 "baseline %.1f ms\n",
                 batched_p95, kPr6P95Ms);
    fail = true;
  }
  return fail ? 1 : 0;
}
