#!/usr/bin/env bash
# Runs the JSON-emitting bench suite with fixed seeds and assembles the
# per-bench raincore.bench.v1 documents into one suite file — the perf
# trail that successive changes diff against (the committed BENCH_*.json
# documents at the repo root; see CHANGES.md for the trajectory).
#
# Usage: bench/run_suite.sh [build-dir] [output-file]
#   build-dir    defaults to <repo>/build (must already be built)
#   output-file  defaults to a fresh <build-dir>/bench_suite-<UTC time>.json;
#                committed documents are only written when named explicitly
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
OUT="${2:-$BUILD/bench_suite-$(date -u +%Y%m%dT%H%M%SZ).json}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

if [ ! -d "$BUILD/bench" ]; then
  echo "error: $BUILD/bench not found — build the tree first" >&2
  echo "  cmake -B build -S $ROOT && cmake --build build -j" >&2
  exit 1
fi

run() {
  echo "== $*" >&2
  "$@" >&2
}

# Fixed seeds / fixed workloads throughout: bench_chaos pins its base seed,
# the sim benches all derive from SimNetConfig's default seed, and gbench
# gets an explicit min time so run duration does not depend on machine load.
run "$BUILD/bench/bench_micro" --benchmark_min_time=0.05 \
    "--json=$TMP/bench_micro.json"
run "$BUILD/bench/bench_latency" "--json=$TMP/bench_latency.json"
run "$BUILD/bench/bench_network_overhead" \
    "--json=$TMP/bench_network_overhead.json"
run "$BUILD/bench/bench_chaos" 3 1500 5 1 "--json=$TMP/bench_chaos.json"
run "$BUILD/bench/bench_shard" "--json=$TMP/bench_shard.json"
# Saturation knee for the batched plane (see README "Tuning the batch
# knobs"): sweeps offered load over the same K=4 harness.
run "$BUILD/bench/bench_saturation" "--json=$TMP/bench_saturation.json"
# Full-size durability run: phase A at steady state, phase B up to the
# 10k-entry replay floor (the bench exits non-zero if either gate fails).
run "$BUILD/bench/bench_durability" "--json=$TMP/bench_durability.json"
# Elastic resize under load: 4 nodes grow K=4 -> K=8 mid-run; gates zero
# acked-op loss and bounds the migration-window p99 blip at 5x steady.
run "$BUILD/bench/bench_reshard" "--json=$TMP/bench_reshard.json"
# Process-mode runtime: 4 threaded nodes over kernel UDP loopback, epoll +
# worker threads. Wall-clock, so this row moves with machine load; its own
# gates (2x the committed sim K=4 baseline at equal-or-better p95) still
# apply.
run "$BUILD/bench/bench_runtime" "--json=$TMP/bench_runtime.json"

# Assemble: {"schema": "raincore.bench.suite.v1", "runs": {name: doc, ...}}
{
  printf '{"schema":"raincore.bench.suite.v1","runs":{'
  first=1
  for f in "$TMP"/*.json; do
    name="$(basename "$f" .json)"
    [ "$first" -eq 1 ] || printf ','
    first=0
    printf '"%s":' "$name"
    tr -d '\n' < "$f"
  done
  printf '}}\n'
} > "$OUT"

echo "wrote $OUT" >&2
