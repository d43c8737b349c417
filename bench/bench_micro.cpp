// E8 — engineering micro-benchmarks (google-benchmark): serialization,
// simulator event throughput, transport round trips, a full token-ring
// protocol cycle, and the replicated map's per-key apply. These quantify the
// substrate itself, making the sim-based numbers in E1–E7 interpretable.
//
// --json=PATH additionally emits the runs as a raincore.bench.v1 document
// (one result row per benchmark run) via a collecting reporter.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/util/bench_json.h"
#include "bench/util/gc_harness.h"
#include "session/token.h"
#include "testing/sim_cluster.h"
#include "transport/transport.h"

using namespace raincore;

namespace {

void BM_TokenSerialize(benchmark::State& state) {
  session::Token t;
  t.lineage = 42;
  t.seq = 12345;
  t.view_id = 7;
  for (NodeId i = 1; i <= 8; ++i) t.ring.push_back(i);
  for (int i = 0; i < state.range(0); ++i) {
    session::BatchBuilder b(1 + (i % 8), 0, i, false);
    b.add(Slice::copy(Bytes(128, 0xcd)));
    t.batches.push_back(b.finish(8));
  }
  for (auto _ : state) {
    Slice b = t.encode();
    benchmark::DoNotOptimize(b);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TokenSerialize)->Arg(0)->Arg(16)->Arg(128);

void BM_TokenDeserialize(benchmark::State& state) {
  session::Token t;
  t.lineage = 42;
  for (NodeId i = 1; i <= 8; ++i) t.ring.push_back(i);
  for (int i = 0; i < state.range(0); ++i) {
    session::BatchBuilder b(1, 0, i, false);
    b.add(Slice::copy(Bytes(128, 0xcd)));
    t.batches.push_back(b.finish(8));
  }
  Slice b = t.encode();
  for (auto _ : state) {
    ByteReader r(b);
    session::Token out;
    bool ok = session::Token::deserialize(r, out);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TokenDeserialize)->Arg(0)->Arg(16)->Arg(128);

void BM_EventLoopSchedule(benchmark::State& state) {
  net::EventLoop loop;
  for (auto _ : state) {
    loop.schedule(1000, [] {});
    loop.step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventLoopSchedule);

void BM_SimNetworkDatagram(benchmark::State& state) {
  net::SimNetwork net;
  auto& a = net.add_node(1);
  net.add_node(2).set_receiver([](net::Datagram&&) {});
  Bytes payload(state.range(0), 0xee);
  for (auto _ : state) {
    a.send(net::Address{2, 0}, payload, 0);
    net.loop().run_for(micros(200));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimNetworkDatagram)->Arg(64)->Arg(1024);

void BM_TransportRoundTrip(benchmark::State& state) {
  net::SimNetwork net;
  auto& e1 = net.add_node(1);
  auto& e2 = net.add_node(2);
  transport::ReliableTransport t1(e1), t2(e2);
  t2.set_message_handler([](NodeId, Slice) {});
  for (auto _ : state) {
    bool done = false;
    t1.send(2, Bytes(64, 0x11),
            [&](transport::TransferId, NodeId) { done = true; });
    while (!done) net.loop().step();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransportRoundTrip);

void BM_TokenRingFullRotation(benchmark::State& state) {
  const std::size_t n = state.range(0);
  session::SessionConfig scfg;
  scfg.token_hold = 0;  // rotate as fast as the wire allows
  bench::GcCluster c(bench::Stack::kRaincore, n, scfg);
  c.start();
  c.run(seconds(1));
  std::uint64_t before = c.session(1).stats().tokens_received.value();
  for (auto _ : state) {
    std::uint64_t target = before + 1;
    while (c.session(1).stats().tokens_received.value() < target) {
      c.net().loop().step();
    }
    before = target;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TokenRingFullRotation)->Arg(2)->Arg(8)->Arg(32);

/// Wire-buffer cost of the steady-state token hot path: allocations and
/// payload copies charged to wire_stats() per token hop, on a ring of N
/// with one 128-byte multicast submitted per rotation. The per-hop figures
/// land in the JSON rows as user counters — the perf trail that the
/// zero-copy acceptance criterion diffs across PRs.
void BM_TokenHopWire(benchmark::State& state) {
  const std::size_t n = state.range(0);
  session::SessionConfig scfg;
  scfg.token_hold = 0;  // rotate as fast as the wire allows
  bench::GcCluster c(bench::Stack::kRaincore, n, scfg);
  c.start();
  c.run(seconds(1));
  auto hops = [&c] {
    std::uint64_t total = 0;
    for (NodeId id : c.ids()) {
      total += c.session(id).stats().tokens_passed.value();
    }
    return total;
  };
  WireStats& ws = wire_stats();
  const std::uint64_t hops0 = hops();
  const std::uint64_t allocs0 = ws.allocs.value();
  const std::uint64_t copies0 = ws.copies.value();
  const std::uint64_t bytes0 = ws.bytes_copied.value();
  for (auto _ : state) {
    c.multicast(1, 128);
    const std::uint64_t target = hops() + n;  // one full rotation
    while (hops() < target) c.net().loop().step();
  }
  const double dh = static_cast<double>(hops() - hops0);
  state.counters["wire_allocs_per_hop"] =
      static_cast<double>(ws.allocs.value() - allocs0) / dh;
  state.counters["wire_copies_per_hop"] =
      static_cast<double>(ws.copies.value() - copies0) / dh;
  state.counters["wire_bytes_copied_per_hop"] =
      static_cast<double>(ws.bytes_copied.value() - bytes0) / dh;
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TokenHopWire)->Arg(4)->Arg(8);

/// Map apply, the "map apply" row of the per-layer ledger: wall ns per put
/// or erase applied to one ReplicatedMap replica holding `live` keys of
/// ~100-byte values (session-table's record shape), without and with a
/// bound ShardStore journaling every apply. The writes are a peer's, the
/// case of all but one replica of every op. Records enter through
/// apply_migration_chunk, the public apply entry: the same slot update,
/// journal record and change event as a delivered put/erase, behind the
/// LWW guard. Each 1024-record batch erases the 512 oldest live keys and
/// puts 512 absent ones, so the live count holds. Only the apply is timed:
/// encoding the batch and the WAL fdatasync after it are not (the store
/// never compacts here; compaction is the storage layer's row).
void BM_MapApply(benchmark::State& state) {
  const std::size_t live = static_cast<std::size_t>(state.range(0));
  const bool durable = state.range(1) != 0;
  constexpr std::size_t kBatch = 1024;
  const std::size_t pool = live + live / 2;
  testing::SimStack stack = testing::SimStack::sharded(1);
  stack.map_channel = 1;
  // Removes the store directory after the cluster (declared below) closes.
  struct TempDir {
    std::filesystem::path path;
    ~TempDir() {
      if (!path.empty()) std::filesystem::remove_all(path);
    }
  } dir;
  if (durable) {
    dir.path = std::filesystem::temp_directory_path() /
               ("raincore-bm-map-apply-" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir.path);
    stack.storage.dir = dir.path.string();
    stack.storage.snapshot_every = 0;
  }
  testing::SimCluster c({1}, {}, {}, stack);
  if (!c.bootstrap()) {
    state.SkipWithError("single-node cluster did not form");
    return;
  }
  data::ReplicatedMap& m = c.node(1).smap->shard(0);
  std::uint64_t changes = 0;
  m.set_change_handler(
      [&changes](const std::string&, const std::optional<std::string>&,
                 NodeId) { ++changes; });
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < pool; ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "s%06zu", i);
    keys.emplace_back(buf);
  }
  const std::string value(100, 'v');
  std::uint64_t lamport = 0;
  ByteWriter w(64);
  auto record = [&](bool tomb, std::size_t i) {
    w.u8(tomb ? 1 : 0);
    w.str(keys[i % pool]);
    if (!tomb) w.str(value);
    w.u64(++lamport);
    w.u32(2);  // a peer's write: no own-write ledger note
  };
  auto apply = [&](std::uint32_t records) {
    ByteWriter chunk(8 + w.view().size());
    chunk.u32(records);
    chunk.raw(w.view().data(), w.view().size());
    const Bytes bytes = chunk.take();
    w.clear();
    ByteReader r(bytes);
    const auto t0 = std::chrono::steady_clock::now();
    m.apply_migration_chunk(r);
    return std::chrono::steady_clock::now() - t0;
  };
  for (std::size_t i = 0; i < live; ++i) record(false, i);
  apply(static_cast<std::uint32_t>(live));
  std::size_t head = 0;  // oldest live key
  std::chrono::nanoseconds timed{0};
  std::uint64_t applies = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kBatch / 2; ++i) {
      record(true, head + i);
      record(false, head + live + i);
    }
    head += kBatch / 2;
    const auto dt = apply(kBatch);
    timed += dt;
    applies += kBatch;
    state.SetIterationTime(std::chrono::duration<double>(dt).count());
    if (durable) c.node(1).plane->flush_storage();
  }
  benchmark::DoNotOptimize(changes);
  if (m.size() != live) state.SkipWithError("live count drifted");
  state.counters["ns_per_apply"] =
      static_cast<double>(timed.count()) / static_cast<double>(applies);
  state.SetItemsProcessed(static_cast<std::int64_t>(applies));
}
BENCHMARK(BM_MapApply)
    ->ArgNames({"live", "store"})
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->Args({12288, 0})
    ->Args({12288, 1})
    ->UseManualTime();

/// Console reporter that also captures every finished run so the main below
/// can re-emit them in the raincore.bench.v1 schema (google-benchmark's own
/// JSON has a different shape; downstream tooling only speaks ours). Wraps
/// the display reporter rather than acting as gbench's "file reporter",
/// which would demand --benchmark_out.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CollectingReporter(bench::JsonReport& report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      JsonValue row = bench::JsonReport::row(run.benchmark_name());
      row.set("iterations",
              JsonValue::number(static_cast<double>(run.iterations)));
      row.set("real_time_s", JsonValue::number(run.real_accumulated_time));
      row.set("cpu_time_s", JsonValue::number(run.cpu_accumulated_time));
      for (const auto& [name, counter] : run.counters) {
        row.set(name, JsonValue::number(counter.value));
      }
      report_.add(std::move(row));
    }
  }

 private:
  bench::JsonReport& report_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = bench::json_path_from_args(argc, argv);
  // Strip our flag before google-benchmark sees it (it rejects unknowns).
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--json=", 0) != 0) argv[kept++] = argv[i];
  }
  argc = kept;

  bench::JsonReport report("bench_micro");
  CollectingReporter collector(report);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks(&collector);
  benchmark::Shutdown();

  bench::maybe_write_report(report, json_path);
  return 0;
}
