// session-table: the Rainwall/VIP state-sharing path.
//
// Three members on one UdpNetwork loop (driven inline by the main thread),
// each a SessionMux + ShardedDataPlane with K=2 rings + ShardedMap with a
// WAL per shard (default fsync_every). Set-up loads 4096 live sessions of
// ~100-byte records per member; the measured load then keeps 32 put/erase
// ops outstanding per member over 6144 session slots, so the live count
// hovers at 4096. An op completes at the origin's own apply.
#include <algorithm>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <unordered_map>

#include "data/shard_router.h"
#include "net/udp_network.h"
#include "visit_tracker.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kNodes = 3;
constexpr std::size_t kShards = 2;
constexpr std::size_t kLive = 4096;
constexpr std::size_t kSlots = 6144;  // live share settles at 2/3 = 4096
constexpr std::size_t kOutstanding = 32;
constexpr std::size_t kValueBytes = 100;
constexpr data::Channel kMapChannel = 1;
const Time kWarmup = raincore::millis(500);
const Time kPhaseTimeout = raincore::seconds(30);
/// Quiet time after the last wholesale table adoption before loading.
const Time kQuiet = raincore::millis(30);

struct Op {
  std::uint64_t seq = 0;
  Time submitted = 0;
};

struct Member {
  NodeId id = 0;
  std::unique_ptr<session::SessionMux> mux;
  std::unique_ptr<data::ShardedDataPlane> plane;
  std::unique_ptr<data::ShardedMap> map;
  // Client state for this member's own sessions.
  std::vector<std::string> keys;
  std::vector<std::optional<std::string>> model;  ///< intended final state
  std::unordered_map<std::string, std::deque<Op>> pending;  ///< per-key FIFO
  std::size_t outstanding = 0;
  std::size_t loaded = 0;  ///< set-up puts issued
  std::uint64_t next_seq = 0;
  std::mt19937_64 rng;
  // Replica state.
  std::uint64_t applies = 0;
  std::uint64_t stray = 0;  ///< own applies with no pending op
  // Window.
  std::uint64_t win_attempted = 0;
  std::uint64_t win_completed = 0;
  Samples lat;
  VisitTracker visits[kShards];
};

class Table {
 public:
  Table(const RunArgs& a, const std::string& dir) : a_(a) {
    const session::SessionConfig cfg = raincored_ring(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      Member& m = m_[i];
      m.id = static_cast<NodeId>(i + 1);
      m.rng.seed(a.seed * 1000003u + m.id);
      net::NodeEnv& env = net_.add_node(m.id);
      m.mux = std::make_unique<session::SessionMux>(env, cfg.transport);
      raincore::storage::StorageConfig st;
      st.dir = dir + "/node" + std::to_string(m.id);
      m.plane = std::make_unique<data::ShardedDataPlane>(*m.mux, kShards, cfg,
                                                         0, st);
      m.map = std::make_unique<data::ShardedMap>(*m.plane, kMapChannel);
      m.map->set_change_handler(
          [this, i](const std::string& key,
                    const std::optional<std::string>& value, NodeId origin) {
            on_change(i, key, value, origin);
          });
      for (std::size_t s = 0; s < kSlots; ++s) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "n%u:%05zu", m.id, s);
        m.keys.emplace_back(buf);
      }
      m.model.assign(kSlots, std::nullopt);
    }
  }

  ~Table() {
    for (Member& m : m_) m.plane->flush_storage();
  }

  bool converge() {
    for (Member& m : m_) {
      if (!m.plane->open_storage()) return false;
      m.plane->found_all();
    }
    // Each member-gaining view change makes the lowest surviving member
    // multicast a RECONCILE of its table, which every replica adopts
    // wholesale. Loading only starts once those have landed: a put ordered
    // before a reconcile would be wiped and re-asserted, applying twice.
    return run_until(net_, kPhaseTimeout, [this] {
      for (const Member& m : m_) {
        if (!m.plane->all_converged(kNodes) || !m.map->synced()) return false;
      }
      return mono_ns() - last_wholesale_ >= kQuiet;
    });
  }

  /// Loads kLive sessions per member, closed loop, until every replica
  /// holds all of them.
  bool load() {
    loading_ = true;
    for (std::size_t i = 0; i < kNodes; ++i) refill(i);
    const bool ok = run_until(net_, kPhaseTimeout, [this] {
      for (const Member& m : m_) {
        if (m.outstanding || m.map->size() != kNodes * kLive) return false;
      }
      return true;
    });
    loading_ = false;
    return ok;
  }

  void start_load() {
    producing_ = true;
    for (Member& m : m_) m.applies = 0;
    ops_base_ = total_submitted();
    for (std::size_t i = 0; i < kNodes; ++i) refill(i);
  }

  Window measure(Time len, Result& r) {
    for (Member& m : m_) {
      m.win_attempted = m.win_completed = 0;
      m.lat.clear();
    }
    Window w;
    const ProcSample from = ProcSample::take();
    win_open_ = from.wall;
    win_close_ = INT64_MAX;
    perfbench::run_for(net_, len);
    const ProcSample to = ProcSample::take();
    win_close_ = to.wall;
    w.span(from, to);
    for (Member& m : m_) {
      w.completed += m.win_completed;
      m.lat.append_to(w.latencies);
      if (m.lat.full()) r.fail("session-table: latency buffer overflowed");
    }
    return w;
  }

  bool drain() {
    producing_ = false;
    return run_until(net_, kPhaseTimeout, [this] {
      const std::uint64_t ops = total_submitted() - ops_base_;
      for (const Member& m : m_) {
        if (m.outstanding || m.applies != ops) return false;
      }
      return true;
    });
  }

  /// Replicas byte-identical and equal to the clients' intended state;
  /// exactly one apply per op per replica.
  void check(Result& r) const {
    for (const Member& m : m_) {
      if (m.stray) r.fail("session-table: apply without a pending op");
    }
    for (std::size_t s = 0; s < kShards; ++s) {
      const auto& ref = m_[0].map->shard(s).contents();
      for (std::size_t i = 1; i < kNodes; ++i) {
        if (m_[i].map->shard(s).contents() != ref) {
          r.fail("session-table: replicas differ on shard " + std::to_string(s));
        }
      }
    }
    std::size_t expected = 0;
    for (const Member& owner : m_) {
      for (std::size_t s = 0; s < kSlots; ++s) {
        if (!owner.model[s]) continue;
        ++expected;
        if (m_[0].map->get(owner.keys[s]) != owner.model[s]) {
          r.fail("session-table: table differs from the submitted ops");
          return;
        }
      }
    }
    if (m_[0].map->size() != expected) {
      r.fail("session-table: table holds keys nobody wrote");
    }
  }

  double applies_per_op() const {
    const double ops = static_cast<double>(total_submitted() - ops_base_);
    double applies = 0;
    for (const Member& m : m_) applies += static_cast<double>(m.applies);
    return ops > 0 ? applies / ops : 0.0;
  }

  std::uint64_t attempted() const {
    std::uint64_t n = 0;
    for (const Member& m : m_) n += m.win_attempted;
    return n;
  }

  void set_tracing(bool on) {
    tracing_ = on;
    for (Member& m : m_) {
      for (std::size_t s = 0; s < kShards; ++s) {
        if (on) {
          m.visits[s].start(m.plane->ring(s), spans_);
        } else {
          m.visits[s].stop();
        }
      }
    }
  }

  /// Session, transport and storage instruments of every member.
  metrics::Snapshot snapshot() const {
    metrics::Snapshot s;
    for (const Member& m : m_) {
      s.merge(m.mux->metrics_snapshot());
      s.merge(m.plane->storage_snapshot());
    }
    return s;
  }
  std::vector<double> rotations() const {
    std::vector<double> out;
    for (const Member& m : m_) {
      for (const VisitTracker& v : m.visits) v.rotations(kNodes, out);
    }
    return out;
  }
  const SpanBuffer& spans() const { return spans_; }
  std::vector<double> apply_lags_ms() const {
    std::vector<double> out;
    for (const auto& [id, t] : apply_times_) {
      if (t.count == kNodes) {
        out.push_back(static_cast<double>(t.last - t.origin) / 1e6);
      }
    }
    return out;
  }

  void run_for(Time d) { perfbench::run_for(net_, d); }

 private:
  struct ApplyTimes {
    Time origin = 0;
    Time last = 0;
    std::size_t count = 0;
  };

  std::uint64_t total_submitted() const {
    std::uint64_t n = 0;
    for (const Member& m : m_) n += m.next_seq;
    return n;
  }

  void refill(std::size_t i) {
    Member& m = m_[i];
    while (m.outstanding < kOutstanding) {
      if (loading_) {
        if (m.loaded == kLive) return;
        issue(i, m.loaded++, false);
      } else if (producing_) {
        const std::size_t slot = m.rng() % kSlots;
        const bool erase = m.model[slot] && (m.rng() & 1);
        issue(i, slot, erase);
      } else {
        return;
      }
    }
  }

  void issue(std::size_t i, std::size_t slot, bool erase) {
    Member& m = m_[i];
    const std::string& key = m.keys[slot];
    const std::uint64_t seq = m.next_seq++;
    const Time now = mono_ns();
    m.pending[key].push_back(Op{seq, now});
    ++m.outstanding;
    if (now >= win_open_ && now <= win_close_) ++m.win_attempted;
    const int sp =
        tracing_ ? spans_.open(SpanKind::kSubmit, m.id, m.id, seq) : -1;
    if (erase) {
      m.model[slot].reset();
      m.map->erase(key);
    } else {
      std::string value = "op:" + std::to_string(m.id) + ":" +
                          std::to_string(seq) + ":";
      std::uint64_t x = a_.seed ^ (seq * 0x9E3779B97F4A7C15ull);
      while (value.size() < kValueBytes) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        value.push_back(static_cast<char>('a' + (x >> 59)));
      }
      m.model[slot] = value;
      m.map->put(key, value);
    }
    if (tracing_) spans_.close(sp);
  }

  void on_change(std::size_t i, const std::string& key,
                 const std::optional<std::string>& value, NodeId origin) {
    Member& m = m_[i];
    const Time now = mono_ns();
    if (key.empty()) {
      last_wholesale_ = now;  // snapshot / reconcile adoption, not an op
      return;
    }
    const int sp = tracing_ ? spans_.open(SpanKind::kDeliver, m.id, origin, 0)
                            : -1;
    ++m.applies;
    if (tracing_ && value) {
      // "op:<origin>:<seq>:" identifies a put across replicas.
      const std::uint64_t id = std::hash<std::string>{}(value->substr(0, 24));
      ApplyTimes& t = apply_times_[id];
      ++t.count;
      if (origin == m.id) t.origin = now;
      if (now > t.last) t.last = now;
    }
    if (origin == m.id) {
      auto it = m.pending.find(key);
      if (it == m.pending.end() || it->second.empty()) {
        ++m.stray;

      } else {
        const Op op = it->second.front();
        it->second.pop_front();
        if (it->second.empty()) m.pending.erase(it);
        --m.outstanding;
        if (now >= win_open_ && now <= win_close_) {
          ++m.win_completed;
          m.lat.add(now - op.submitted);
        }
        refill(i);
      }
    }
    if (tracing_) spans_.close(sp);
  }

  const RunArgs& a_;
  bool loading_ = false;
  bool producing_ = false;
  bool tracing_ = false;
  Time last_wholesale_ = 0;
  Time win_open_ = INT64_MAX;
  Time win_close_ = INT64_MAX;
  std::uint64_t ops_base_ = 0;
  SpanBuffer spans_;
  std::unordered_map<std::uint64_t, ApplyTimes> apply_times_;
  net::UdpNetwork net_;
  std::array<Member, kNodes> m_;
};

}  // namespace

void run_session_table(const RunArgs& a, Result& r) {
  namespace fs = std::filesystem;
  std::unique_ptr<Table> t;
  int rep = 0;
  const double setup_s = timed_setups(a, [&] {
    const std::string dir = a.work_dir + "/table-rep" + std::to_string(rep++);
    t.reset();
    fs::remove_all(dir);
    t = std::make_unique<Table>(a, dir);
    return t->converge() && t->load();
  });
  if (setup_s < 0) {
    r.fail("session-table: rings did not converge or sessions did not load");
    return;
  }
  if (!check_thread_budget(0, r)) return;

  t->start_load();
  t->run_for(kWarmup);
  const Time len = static_cast<Time>(a.seconds * 1e9);
  Window plain, traced;
  LayerCounters l0, l1;
  if (!a.trace) {
    plain = t->measure(len, r);
  } else {
    plain = t->measure(len / 2, r);
    t->set_tracing(true);
    l0 = LayerCounters::take(t->snapshot());
    traced = t->measure(len / 2, r);
    l1 = LayerCounters::take(t->snapshot());
    t->set_tracing(false);
  }
  r.attempted = t->attempted();
  if (!t->drain()) r.fail("session-table: ops did not drain");
  t->check(r);
  const double applies = t->applies_per_op();
  if (applies != static_cast<double>(kNodes)) {
    r.fail("session-table: applies per op is not 3");
  }

  if (!a.trace) {
    report_window(plain, r);
    r.set("setup_s", setup_s, "s");
  } else {
    init_per_layer(r);
    const double ops =
        static_cast<double>(std::max<std::uint64_t>(1, traced.completed));
    const metrics::Snapshot d = l1.snap.diff(l0.snap);
    r.set("data.applies_per_op", applies, "count");
    r.set("data.apply_lag_ms", median(t->apply_lags_ms()), "ms");
    r.set("storage.fsyncs_per_op",
          static_cast<double>(counter_sum(d, "storage.wal.fsyncs")) / ops,
          "count");
    r.set("storage.wal_bytes_per_op",
          static_cast<double>(l1.write_bytes - l0.write_bytes) / ops, "B");
    const std::vector<const SpanBuffer*> bufs = {&t->spans()};
    report_layers(l0, l1, ops, t->rotations(), kNodes, bufs, "data.put_ns", r);
    report_trace(plain, traced, bufs, a.work_dir + "/spans-session-table.csv", r);
  }
  t.reset();
  for (int k = 0; k < rep; ++k) {
    fs::remove_all(a.work_dir + "/table-rep" + std::to_string(k));
  }

  FaultFigures f;
  run_fault_probe(a, f, r);
  report_faults(a, f, r);
}

}  // namespace perfbench
