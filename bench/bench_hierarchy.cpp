// E9 — the §5 hierarchical extension: flat ring vs hierarchy of rings.
//
// Paper (§5, future work): "the Group Communication Protocols are being
// extended ... the hierarchical design that extends the scalability of the
// protocol." In a flat ring the token roundtrip — and therefore multicast
// latency — grows linearly with cluster size N. With local rings of size k
// bridged by a leader ring, the critical path is two small rings instead of
// one big one.
#include <cstdio>
#include <cstdlib>
#include <map>

#include "bench/util/gc_harness.h"
#include "testing/sim_cluster.h"

using namespace raincore;
using raincore::bench::print_banner;

namespace {

struct Result {
  double p50_ms;
  double p95_ms;
  double ts_per_node;  // task switches per node per second
};

// Flat ring of n nodes: latency of multicast to all + task switches.
Result run_flat(std::size_t n, Time hold) {
  session::SessionConfig scfg;
  scfg.token_hold = hold;
  bench::GcCluster c(bench::Stack::kRaincore, n, scfg);
  c.start();
  c.run(seconds(2));
  c.reset_metrics();
  for (int i = 0; i < 60; ++i) {
    c.multicast(1 + (i % n), 64);
    c.run(millis(40));
  }
  c.run(seconds(3));
  Result r;
  r.p50_ms = c.latency().percentile(0.5) / 1e6;
  r.p95_ms = c.latency().percentile(0.95) / 1e6;
  r.ts_per_node = c.mean_task_switches() / to_seconds(seconds(60) / 10);
  return r;
}

// Hierarchy: n nodes in rings of `ring_size`.
Result run_hier(std::size_t n, std::size_t ring_size, Time hold) {
  session::HierarchyConfig cfg;
  cfg.session.token_hold = hold;
  for (NodeId base = 0; base < n; base += ring_size) {
    std::vector<NodeId> ring;
    for (NodeId k = 0; k < ring_size && base + k < n; ++k) {
      ring.push_back(100 + base + k);
    }
    cfg.rings.push_back(ring);
  }
  testing::SimCluster c(cfg);
  net::SimNetwork& net = c.net();

  Histogram latency;
  std::map<std::uint64_t, std::pair<Time, std::size_t>> track;
  for (NodeId id : c.ids()) {
    c.node(id).hier->set_deliver_handler([&, n](NodeId, const Slice& p) {
      if (p.size() < 8) return;
      ByteReader r(p);
      std::uint64_t mid = r.u64();
      auto& t = track[mid];
      if (++t.second == n) latency.record_time(net.now() - t.first);
    });
  }
  // Converge both levels: every local ring, and the leaders' global ring.
  if (!c.bootstrap(seconds(40))) {
    std::fprintf(stderr, "FAIL: %zu-node hierarchy did not converge\n", n);
    std::exit(1);
  }

  // Both rings share one transport per node — count it once.
  std::map<NodeId, std::uint64_t> ts_base;
  auto task_switches = [&](NodeId id) {
    return c.node(id).hier->mux().transport().task_switches().value();
  };
  for (NodeId id : c.ids()) ts_base[id] = task_switches(id);
  Time t0 = net.now();

  std::uint64_t mid = 1;
  const std::vector<NodeId>& ids = c.ids();
  for (int i = 0; i < 60; ++i) {
    NodeId from = ids[i % ids.size()];
    ByteWriter w(64);
    w.u64(mid);
    for (std::size_t b = w.size(); b < 64; ++b) w.u8(0);
    track[mid] = {net.now(), 0};
    ++mid;
    c.node(from).hier->multicast(w.take());
    net.loop().run_for(millis(40));
  }
  net.loop().run_for(seconds(3));

  double ts_sum = 0;
  for (NodeId id : c.ids()) {
    ts_sum += static_cast<double>(task_switches(id) - ts_base[id]);
  }
  Result r;
  r.p50_ms = latency.percentile(0.5) / 1e6;
  r.p95_ms = latency.percentile(0.95) / 1e6;
  r.ts_per_node =
      ts_sum / static_cast<double>(ids.size()) / to_seconds(net.now() - t0);
  return r;
}

}  // namespace

int main() {
  print_banner("Raincore bench E9: flat ring vs hierarchical rings",
               "IPPS'01 paper §5 (hierarchical scalability extension)");

  const Time hold = millis(5);
  std::printf("\nMulticast-to-ALL latency and per-node GC wake-ups, 60 msgs,\n");
  std::printf("token hold %lld ms, hierarchy uses local rings of 4 nodes.\n\n",
              static_cast<long long>(hold / kNanosPerMilli));
  std::printf("%6s | %-12s %10s %10s %12s\n", "N", "topology", "p50 (ms)",
              "p95 (ms)", "ts/node/s");
  std::printf("------------------------------------------------------------\n");

  for (std::size_t n : {8, 16, 32, 64}) {
    Result flat = run_flat(n, hold);
    std::printf("%6zu | %-12s %10.1f %10.1f %12.1f\n", n, "flat-ring",
                flat.p50_ms, flat.p95_ms, flat.ts_per_node);
    Result hier = run_hier(n, 4, hold);
    std::printf("%6zu | %-12s %10.1f %10.1f %12.1f\n\n", n, "hier-4",
                hier.p50_ms, hier.p95_ms, hier.ts_per_node);
  }

  std::printf("Expected shape: flat latency grows ~linearly with N (token\n");
  std::printf("roundtrip = N*hold); hierarchical latency stays near the cost\n");
  std::printf("of two small rings (local + leader ring), at the price of\n");
  std::printf("extra per-leader wake-ups and per-origin-only FIFO ordering\n");
  std::printf("across rings.\n");
  return 0;
}
