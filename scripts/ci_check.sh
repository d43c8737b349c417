#!/usr/bin/env bash
# CI gate: builds an AddressSanitizer tree and a ThreadSanitizer tree, both
# with -Werror (a new compiler warning fails the gate before any test
# runs), and drives the chaos harness and the sanitizer-sensitive suites.
#
# Usage: scripts/ci_check.sh [asan-build-dir] [tsan-build-dir]
#   asan-build-dir  defaults to <repo>/build-asan (configured on demand)
#   tsan-build-dir  defaults to <repo>/build-tsan (configured on demand)
#
# Under ASAN, one suite per configuration of the chaos harness
# (testing::ChaosCluster, src/testing/chaos_cluster.h):
#   - single-ring app stack: the bench_chaos sweep (seeds 1..50, every
#     invariant checker armed), then a lossy-link soak — 5% uniform base
#     loss, RTT-inflation and link-flap faults, the adaptive detector —
#     that fails if the ground-truth oracle counts more false removals (a
#     node removed while its process was alive) than SOAK_FALSE_RM_BUDGET;
#   - multi-ring stack: the `shard` label (25-seed multi-ring sweep,
#     bench_shard scaling gate) and the `batching` label (its 25-seed sweep
#     with batching enabled, batch-codec fuzzers over aliased sub-views,
#     knob-equivalence properties);
#   - durable sharded stack: the `durability` label (WAL format/torn-tail
#     tests, restart-storm sweep seeds 1..25 with zero acked-write losses
#     and zero phantom resurrections, the bench_durability WAL gate) and
#     the `reshard` label (three migration fault schedules x 9 seeds, the
#     bench_reshard 4->8 resize gate).
# The `perf` label (allocation/copy budgets of the zero-copy wire path)
# also runs under ASAN: a use-after-free in an aliased datagram view, a
# frame mutated while shared, or a regression back to per-retry copies
# fails here.
#
# The TSAN tree closes the gate: the `runtime`-labelled suite (timer queue
# + loop parity, SPSC stress, cross-thread eventfd posts, live ThreadedNode
# clusters, the udp_cluster smoke, the kill -9 raincored harness), since
# ASAN and TSAN cannot share one build. Any data race in the
# I/O-thread/worker handoff fails here.
#
# Environment:
#   CHAOS_ROUNDS=50 CHAOS_MS=3000 CHAOS_NODES=5 CHAOS_SEED=1  sweep shape
#   SOAK_ROUNDS=10 SOAK_MS=2000 SOAK_SEED=301                 soak shape
#   SOAK_LOSS=0.05 SOAK_FALSE_RM_BUDGET=12                    soak gate
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build-asan}"
TSAN_BUILD="${2:-$ROOT/build-tsan}"
ROUNDS="${CHAOS_ROUNDS:-50}"
MS="${CHAOS_MS:-3000}"
NODES="${CHAOS_NODES:-5}"
SEED="${CHAOS_SEED:-1}"
SOAK_ROUNDS="${SOAK_ROUNDS:-10}"
SOAK_MS="${SOAK_MS:-2000}"
SOAK_SEED="${SOAK_SEED:-301}"
SOAK_LOSS="${SOAK_LOSS:-0.05}"
SOAK_FALSE_RM_BUDGET="${SOAK_FALSE_RM_BUDGET:-12}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== configure + build (ASAN) in $BUILD"
cmake -B "$BUILD" -S "$ROOT" -DRAINCORE_ASAN=ON -DCMAKE_CXX_FLAGS=-Werror
# Targets by suite: app-stack sweep + soak; perf; multi-ring (shard,
# batching); durable stack (durability, reshard).
cmake --build "$BUILD" -j"$JOBS" --target bench_chaos wire_perf_test \
    shard_test bench_shard bench_json_check \
    batching_test fuzz_robustness_test property_test bench_saturation \
    storage_test durability_test bench_durability reshard_test bench_reshard

echo "== chaos sweep: $ROUNDS rounds x ${MS}ms, $NODES nodes, seeds $SEED.."
"$BUILD/bench/bench_chaos" "$ROUNDS" "$MS" "$NODES" "$SEED"

echo "== lossy-link soak: $SOAK_ROUNDS rounds x ${SOAK_MS}ms at ${SOAK_LOSS} loss," \
     "adaptive detector, false-removal budget $SOAK_FALSE_RM_BUDGET"
"$BUILD/bench/bench_chaos" "$SOAK_ROUNDS" "$SOAK_MS" "$NODES" "$SOAK_SEED" \
    --loss="$SOAK_LOSS" --adaptive \
    --false-removal-budget="$SOAK_FALSE_RM_BUDGET"

echo "== perf label under ASAN (allocation/copy budgets, encode-once)"
ctest --test-dir "$BUILD" -L perf --output-on-failure

echo "== shard label under ASAN (multi-ring runtime, sharded data plane," \
     "25-seed multi-ring chaos sweep, bench_shard 2.5x scaling gate)"
ctest --test-dir "$BUILD" -L shard --output-on-failure

echo "== durability label under ASAN (WAL format/torn-tail tests," \
     "restart-storm sweep seeds 1..25 with a zero acked-write-loss and" \
     "zero phantom-resurrection budget, bench_durability 0.6x WAL gate)"
ctest --test-dir "$BUILD" -L durability --output-on-failure

echo "== reshard label under ASAN (versioned-router property tests and the" \
     "live-migration chaos sweeps: kill source mid-snapshot, kill dest" \
     "before CUTOVER, partition during unfreeze — 9 seeds each, zero" \
     "acked-write-loss and zero double-apply oracles, plus the" \
     "bench_reshard 4->8 resize p99-blip gate)"
ctest --test-dir "$BUILD" -L reshard --output-on-failure

echo "== batching label under ASAN (batch-codec fuzzers over aliased" \
     "sub-views, formation/deferral/backpressure tests, knob-equivalence" \
     "properties, 25-seed chaos sweep with batching enabled)"
ctest --test-dir "$BUILD" -L batching --output-on-failure

echo "== configure + build (TSAN) in $TSAN_BUILD"
cmake -B "$TSAN_BUILD" -S "$ROOT" -DRAINCORE_TSAN=ON -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$TSAN_BUILD" -j"$JOBS" --target real_time_loop_test \
    runtime_test udp_cluster raincored cluster_harness

echo "== runtime label under TSAN (loop semantics, SPSC handoff, threaded" \
     "nodes on kernel UDP, udp_cluster smoke, raincored kill -9 harness)"
ctest --test-dir "$TSAN_BUILD" -L runtime --output-on-failure

echo "== ci_check OK"
