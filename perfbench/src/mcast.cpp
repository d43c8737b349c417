// mcast-64B: the threaded runtime at the smallest message size.
//
// Two ThreadedNodes with one ring each (2 x (I/O thread + worker) = 4
// threads) on kernel loopback UDP, configured as raincored configures them
// (2 ms hold, 128 msgs / 8 KiB per visit, no journal). Each node keeps 64
// agreed 64-byte multicasts outstanding: its worker resubmits from the
// delivery callback when it sees its own message delivered. An op
// completes at the origin's agreed self-delivery.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <future>
#include <memory>

#include "common/buffer.h"
#include "runtime/raincored_config.h"
#include "runtime/threaded_node.h"
#include "visit_tracker.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kNodes = 2;
constexpr std::size_t kOutstanding = 64;
constexpr std::size_t kPayload = 64;
const Time kWarmup = raincore::millis(500);
const Time kDrainTimeout = raincore::seconds(10);
const Time kConvergeTimeout = raincore::seconds(10);

/// Shared switches, written by the main thread, read by the workers.
struct Control {
  std::atomic<bool> producing{false};
  std::atomic<bool> tracing{false};
  std::atomic<Time> win_open{INT64_MAX};
  std::atomic<Time> win_close{INT64_MAX};
};

/// One member. Everything but the atomics is touched only by the node's
/// worker thread while it runs, and by the main thread after stop().
struct Member {
  std::unique_ptr<runtime::ThreadedNode> node;
  NodeId id = 0;
  std::uint64_t seed = 0;
  // Sender.
  std::uint64_t next_seq = 0;
  std::atomic<std::uint64_t> submitted{0};
  // Receiver.
  std::array<std::atomic<std::uint64_t>, kNodes> expect{};
  std::uint64_t hash = kHashBasis;
  std::uint64_t delivered = 0;
  std::uint64_t order_errors = 0;
  // Window.
  std::uint64_t win_attempted = 0;
  std::uint64_t win_refused = 0;
  std::uint64_t win_completed = 0;
  Samples lat;
  // Tracing.
  SpanBuffer spans;
  VisitTracker visits;
};

void submit(Member& m, Control& c, session::SessionNode& ring) {
  raincore::Bytes b(kPayload, 0);
  const std::uint64_t seq = m.next_seq;
  const Time now = mono_ns();
  std::memcpy(b.data(), &seq, 8);
  std::memcpy(b.data() + 8, &now, 8);
  for (std::size_t k = 16; k < kPayload; ++k) {
    b[k] = static_cast<std::uint8_t>(m.seed >> ((k % 8) * 8));
  }
  const bool tracing = c.tracing.load(std::memory_order_relaxed);
  const int sp = tracing ? m.spans.open(SpanKind::kSubmit, m.id, m.id, seq) : -1;
  const bool ok = ring.try_multicast(std::move(b)).has_value();
  if (tracing) m.spans.close(sp);
  const bool in_window = now >= c.win_open.load(std::memory_order_relaxed) &&
                         now <= c.win_close.load(std::memory_order_relaxed);
  if (in_window) ++m.win_attempted;
  if (ok) {
    ++m.next_seq;
    m.submitted.store(m.next_seq, std::memory_order_release);
    return;
  }
  // Backpressure refusal: a failed op; retry the slot a tick later.
  if (in_window) ++m.win_refused;
  ring.env().schedule(raincore::millis(1), [&m, &c, &ring] {
    if (c.producing.load(std::memory_order_relaxed)) submit(m, c, ring);
  });
}

void on_deliver(Member& m, Control& c, session::SessionNode& ring,
                NodeId origin, const Slice& p) {
  const Time now = mono_ns();
  if (p.size() != kPayload || origin < 1 || origin > kNodes) {
    ++m.order_errors;
    return;
  }
  std::uint64_t seq = 0;
  Time sent = 0;
  std::memcpy(&seq, p.data(), 8);
  std::memcpy(&sent, p.data() + 8, 8);
  const bool tracing = c.tracing.load(std::memory_order_relaxed);
  const int sp =
      tracing ? m.spans.open(SpanKind::kDeliver, m.id, origin, seq) : -1;
  auto& expect = m.expect[origin - 1];
  if (seq != expect.load(std::memory_order_relaxed)) ++m.order_errors;
  expect.store(seq + 1, std::memory_order_release);
  m.hash = mix(mix(m.hash, origin), seq);
  ++m.delivered;
  if (origin == m.id) {
    if (now >= c.win_open.load(std::memory_order_relaxed) &&
        now <= c.win_close.load(std::memory_order_relaxed)) {
      ++m.win_completed;
      m.lat.add(now - sent);
    }
    if (c.producing.load(std::memory_order_relaxed)) submit(m, c, ring);
  }
  if (tracing) m.spans.close(sp);
}

/// Builds, starts and converges the two-node cluster.
bool build(std::array<Member, kNodes>& ms, Control& c, std::uint64_t seed) {
  for (std::size_t i = 0; i < kNodes; ++i) {
    runtime::RaincoredConfig rc;
    rc.node = static_cast<NodeId>(i + 1);
    rc.shards = 1;
    for (std::size_t j = 0; j < kNodes; ++j) {
      if (j != i) rc.peers.push_back({static_cast<NodeId>(j + 1), "127.0.0.1", 0});
    }
    runtime::ThreadedNodeConfig cfg = rc.to_node_config();
    cfg.storage.dir.clear();  // no journal
    ms[i].id = rc.node;
    ms[i].seed = seed;
    ms[i].node = std::make_unique<runtime::ThreadedNode>(cfg);
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    for (std::size_t j = 0; j < kNodes; ++j) {
      if (i != j) ms[i].node->add_peer(ms[j].id, 0, "127.0.0.1", ms[j].node->port(0));
    }
    Member& m = ms[i];
    session::SessionNode& ring = m.node->ring_unsafe(0);
    ring.set_deliver_handler(
        [&m, &c, &ring](NodeId origin, const Slice& p, session::Ordering) {
          on_deliver(m, c, ring, origin, p);
        });
  }
  for (Member& m : ms) m.node->start();
  for (Member& m : ms) m.node->found_all();
  const Time deadline = mono_ns() + kConvergeTimeout;
  while (mono_ns() < deadline) {
    bool all = true;
    for (Member& m : ms) all = all && m.node->all_converged(kNodes);
    if (all) return true;
    sleep_ns(raincore::millis(1));
  }
  return false;
}

/// Layer counters plus the summed CPU time of the I/O threads and the
/// workers, each read on its own thread.
struct RuntimeSample {
  LayerCounters counters;
  Time io_cpu = 0;
  Time worker_cpu = 0;
};

RuntimeSample sample_layers(std::array<Member, kNodes>& ms) {
  RuntimeSample s;
  metrics::Snapshot snap;
  for (Member& m : ms) {
    std::promise<Time> io;
    m.node->io_loop().post([&io] { io.set_value(thread_cpu_ns()); });
    s.io_cpu += io.get_future().get();
    m.node->run_on_shard(0, [&s](session::SessionNode&) {
      s.worker_cpu += thread_cpu_ns();
    });
    snap.merge(m.node->metrics_snapshot());
  }
  s.counters = LayerCounters::take(std::move(snap));
  return s;
}

Window measure(std::array<Member, kNodes>& ms, Control& c, Time len,
               Result& r) {
  for (Member& m : ms) {
    m.node->run_on_shard(0, [&m](session::SessionNode&) {
      m.win_attempted = m.win_refused = m.win_completed = 0;
      m.lat.clear();
    });
  }
  Window w;
  const ProcSample from = ProcSample::take();
  c.win_close.store(INT64_MAX);
  c.win_open.store(from.wall);
  sleep_ns(len);
  const ProcSample to = ProcSample::take();
  c.win_close.store(to.wall);
  w.span(from, to);
  for (Member& m : ms) {
    m.node->run_on_shard(0, [&](session::SessionNode&) {
      w.completed += m.win_completed;
      m.lat.append_to(w.latencies);
      if (m.lat.full()) r.fail("mcast-64B: latency buffer overflowed");
    });
  }
  return w;
}

}  // namespace

void run_mcast(const RunArgs& a, Result& r) {
  Control c;
  std::array<Member, kNodes> ms;
  const double setup_s = timed_setups(a, [&] {
    for (Member& m : ms) m.node.reset();
    return build(ms, c, a.seed);
  });
  if (setup_s < 0) {
    r.fail("mcast-64B: rings did not converge");
    return;
  }
  if (!check_thread_budget(1, r)) return;

  c.producing.store(true);
  for (Member& m : ms) {
    m.node->post_to_shard(0, [&m, &c](session::SessionNode& ring) {
      for (std::size_t k = 0; k < kOutstanding; ++k) submit(m, c, ring);
    });
  }
  sleep_ns(kWarmup);

  const Time len = static_cast<Time>(a.seconds * 1e9);
  Window plain, traced;
  RuntimeSample l0, l1;
  if (!a.trace) {
    plain = measure(ms, c, len, r);
  } else {
    // Untraced then traced half of one run: the difference is the
    // tracing overhead.
    plain = measure(ms, c, len / 2, r);
    c.tracing.store(true);
    for (Member& m : ms) {
      m.node->run_on_shard(0, [&m](session::SessionNode& ring) {
        m.visits.start(ring, m.spans);
      });
    }
    l0 = sample_layers(ms);
    traced = measure(ms, c, len / 2, r);
    l1 = sample_layers(ms);
    for (Member& m : ms) {
      m.node->run_on_shard(0, [&m](session::SessionNode&) { m.visits.stop(); });
    }
    c.tracing.store(false);
  }

  // Drain: every submitted op delivered at every node.
  c.producing.store(false);
  const Time deadline = mono_ns() + kDrainTimeout;
  bool drained = false;
  while (!drained && mono_ns() < deadline) {
    drained = true;
    for (Member& m : ms) {
      for (std::size_t o = 0; o < kNodes; ++o) {
        drained = drained && m.expect[o].load(std::memory_order_acquire) ==
                                 ms[o].submitted.load(std::memory_order_acquire);
      }
    }
    if (!drained) sleep_ns(raincore::millis(1));
  }
  for (Member& m : ms) m.node->stop();

  // Correctness: same delivery sequence everywhere, each op exactly once.
  if (!drained) r.fail("mcast-64B: submitted ops were not all delivered");
  for (const Member& m : ms) {
    if (m.order_errors) r.fail("mcast-64B: out-of-order or duplicate delivery");
  }
  if (ms[0].hash != ms[1].hash || ms[0].delivered != ms[1].delivered) {
    r.fail("mcast-64B: nodes delivered different sequences");
  }

  for (const Member& m : ms) {
    r.attempted += m.win_attempted;
    r.failed += m.win_refused;
  }
  if (!a.trace) {
    report_window(plain, r);
    r.set("setup_s", setup_s, "s");
  } else {
    init_per_layer(r);
    const double ops =
        static_cast<double>(std::max<std::uint64_t>(1, traced.completed));
    const metrics::Snapshot d = l1.counters.snap.diff(l0.counters.snap);
    r.set("runtime.io_cpu_us_per_op",
          static_cast<double>(l1.io_cpu - l0.io_cpu) / 1e3 / ops, "us");
    r.set("runtime.worker_cpu_us_per_op",
          static_cast<double>(l1.worker_cpu - l0.worker_cpu) / 1e3 / ops, "us");
    r.set("runtime.proxy_drops_per_op",
          static_cast<double>(counter_sum(d, "runtime.proxy.cmd_dropped") +
                              counter_sum(d, "runtime.proxy.inbound_dropped") +
                              counter_sum(d, "runtime.proxy.event_dropped")) /
              ops,
          "count");
    std::vector<double> rot;
    for (const Member& m : ms) m.visits.rotations(kNodes, rot);
    const std::vector<const SpanBuffer*> bufs = {&ms[0].spans, &ms[1].spans};
    report_layers(l0.counters, l1.counters, ops, rot, kNodes, bufs,
                  "session.try_multicast_ns", r);
    report_trace(plain, traced, bufs, a.work_dir + "/spans-mcast-64B.csv", r);
  }

  FaultFigures f;
  run_fault_probe(a, f, r);
  report_faults(a, f, r);
}

}  // namespace perfbench
