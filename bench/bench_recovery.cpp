// E6 — §2.3 token-recovery convergence.
//
// Paper claim: "Raincore uses an aggressive failure detection protocol that
// achieves fast failure detection convergence time" and the 911 protocol
// regenerates a lost token "within a finite amount of time", with exactly
// one node winning the regeneration right.
//
// The current token holder is killed at a random phase of the ring; we
// measure the time until the survivors again agree on the shrunken
// membership with a circulating token, and verify regeneration uniqueness.
#include <cstdio>
#include <cstdlib>

#include "bench/util/gc_harness.h"
#include "testing/sim_cluster.h"

using namespace raincore;
using namespace raincore::bench;

namespace {

struct Trial {
  Time convergence;
  int regenerations;
  bool ok;
};

Trial run_trial(std::size_t n, Time hungry_timeout, std::uint64_t seed) {
  session::SessionConfig scfg;
  scfg.token_hold = millis(5);
  scfg.hungry_timeout = hungry_timeout;
  net::SimNetConfig ncfg;
  ncfg.seed = seed;
  testing::SimCluster c(testing::node_ids(n), scfg, ncfg);
  if (!c.bootstrap_via_join(seconds(30))) {
    std::fprintf(stderr, "FAIL: %zu-node ring did not converge\n", n);
    std::exit(1);
  }
  // Let it run a pseudo-random extra time so the token is at a random node.
  c.run(millis(1 + static_cast<Time>(seed % 97)));

  // Kill the holder (or the node about to receive it).
  NodeId victim = 0;
  for (NodeId id : c.ids()) {
    if (c.session(id).holds_token()) victim = id;
  }
  if (victim == 0) victim = c.ids()[seed % n];
  c.crash(victim);
  Time start = c.net().now();

  std::vector<NodeId> survivors = c.ids();
  std::erase(survivors, victim);
  Time deadline = start + seconds(30);
  while (c.net().now() < deadline && !c.converged(survivors)) c.run(millis(1));

  Trial t;
  t.ok = c.converged(survivors);
  t.convergence = c.net().now() - start;
  t.regenerations = 0;
  for (NodeId id : c.ids()) {
    if (id == victim) continue;
    t.regenerations +=
        static_cast<int>(c.session(id).stats().regenerations.value());
  }
  return t;
}

}  // namespace

int main() {
  print_banner("Raincore bench E6: 911 token-recovery convergence",
               "IPPS'01 paper §2.3 (fast detection, unique regeneration)");

  std::printf("\nThe token holder is killed at a random ring phase; we measure\n");
  std::printf("time until survivors agree on the new membership with a live\n");
  std::printf("token. 10 trials per configuration.\n\n");
  std::printf("%4s %16s | %12s %12s %12s | %8s %6s\n", "N", "hungry timeout",
              "mean (ms)", "p95 (ms)", "max (ms)", "regens", "ok");
  std::printf("----------------------------------------------------------------"
              "-----------\n");

  for (std::size_t n : {2, 4, 8, 16}) {
    for (Time timeout : {millis(200), millis(500), millis(800)}) {
      Histogram h;
      int total_regens = 0;
      int ok = 0;
      const int kTrials = 10;
      for (int trial = 0; trial < kTrials; ++trial) {
        Trial t = run_trial(n, timeout, 1000 + trial * 131 + n * 7);
        if (t.ok) {
          ++ok;
          h.record_time(t.convergence);
        }
        total_regens += t.regenerations;
      }
      std::printf("%4zu %13lld ms | %12.1f %12.1f %12.1f | %8.1f %4d/%d\n", n,
                  static_cast<long long>(timeout / kNanosPerMilli),
                  h.mean() / 1e6, h.percentile(0.95) / 1e6, h.max() / 1e6,
                  static_cast<double>(total_regens) / kTrials, ok, kTrials);
    }
  }

  std::printf("\nExpected shape (paper): convergence is dominated by either the\n");
  std::printf("failure-on-delivery chain (holder's predecessor notices, ~RTO *\n");
  std::printf("attempts) or the HUNGRY timeout + one 911 round when the token\n");
  std::printf("died in flight; ~1 regeneration per loss (uniqueness).\n");
  return 0;
}
