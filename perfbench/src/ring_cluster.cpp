#include "ring_cluster.h"

#include <algorithm>
#include <cstring>

#include "workloads.h"

namespace perfbench {

namespace {

const Time kTick = raincore::millis(1);
/// Steady time before each crash, long enough that most ops of a run see
/// no outage.
const Time kSettle = raincore::millis(500);
/// Least delay between detection and restart.
const Time kRestartDelay = raincore::millis(200);
/// Phase timeouts: far above the 2 s fail-over the paper promises.
const Time kPhaseTimeout = raincore::seconds(5);

}  // namespace

RingCluster::RingCluster(std::uint64_t seed) : seed_(seed) {
  const session::SessionConfig cfg = raincored_ring(kMembers);
  for (std::size_t i = 0; i < kMembers; ++i) {
    Member& mb = m_[i];
    mb.id = static_cast<NodeId>(i + 1);
    mb.env = &net_.add_node(mb.id);
    mb.mux = std::make_unique<session::SessionMux>(*mb.env, cfg.transport);
    mb.ring = &mb.mux->create_ring(0, cfg);
    mb.ring->set_deliver_handler(
        [this, i](NodeId origin, const Slice& p, session::Ordering) {
          on_deliver(i, origin, p);
        });
    mb.ring->set_view_handler(
        [this, i](const session::View& v) { on_view(i, v); });
    mb.ring->set_removal_handler([this, i](NodeId peer) {
      if (peer == m_[kVictim].id && m_[i].removed_at == 0 && crashed_at_) {
        m_[i].removed_at = mono_ns();
      }
    });
  }
}

RingCluster::~RingCluster() {
  for (Member& mb : m_) {
    if (mb.gen_timer) mb.env->cancel(mb.gen_timer);
    if (mb.ring->started()) mb.ring->stop();
  }
}

void RingCluster::run_for(Time d) { perfbench::run_for(net_, d); }


bool RingCluster::converge(Time timeout) {
  founded_at_ = mono_ns();
  for (Member& mb : m_) mb.ring->found();
  return run_until(net_, timeout, [this] {
    for (const Member& mb : m_) {
      if (mb.ring->view().members.size() != kMembers) return false;
    }
    return true;
  });
}

// --- Load ------------------------------------------------------------------

void RingCluster::start_load() {
  load_ = true;
  const Time now = mono_ns();
  for (std::size_t i = 0; i < kMembers; ++i) {
    m_[i].next_due = now + kTick;
    m_[i].gen_timer = m_[i].env->schedule(kTick, [this, i] { tick(i); });
  }
}

void RingCluster::tick(std::size_t i) {
  Member& mb = m_[i];
  mb.gen_timer = 0;
  if (!load_) return;
  const Time now = mono_ns();
  if (!mb.up) {
    mb.next_due = now + kTick;
  } else {
    while (mb.next_due <= now) {
      submit(i, mb.next_due);
      mb.next_due += kTick;
    }
  }
  mb.gen_timer = mb.env->schedule(kTick, [this, i] { tick(i); });
}

void RingCluster::submit(std::size_t i, Time due) {
  Member& mb = m_[i];
  raincore::Bytes b(kPayload, 0);
  const std::uint64_t seq = mb.next_seq;
  std::memcpy(b.data(), &seq, 8);
  std::memcpy(b.data() + 8, &due, 8);
  for (std::size_t k = 16; k < kPayload; ++k) {
    b[k] = static_cast<std::uint8_t>(seed_ >> ((k % 8) * 8));
  }
  const int sp = tracing_ ? spans_.open(SpanKind::kSubmit, mb.id, mb.id, seq)
                          : -1;
  const bool ok = mb.ring->try_multicast(std::move(b)).has_value();
  if (tracing_) spans_.close(sp);
  const bool counted = survivor(i) && window_ && due >= win_open_;
  if (ok) {
    ++mb.next_seq;
    if (survivor(i)) ++mb.own_submitted;
  }
  if (counted) {
    ++mb.win_attempted;
    if (!ok) ++mb.win_refused;
  }
}

bool RingCluster::stop_load_and_drain(Time timeout) {
  load_ = false;
  return run_until(net_, timeout, [this] {
    for (std::size_t i = 0; i < kMembers; ++i) {
      if (!survivor(i)) continue;
      for (std::size_t o = 0; o < kMembers; ++o) {
        if (survivor(o) && m_[i].expect[o] != m_[o].own_submitted) {
          return false;
        }
      }
    }
    return m_[0].delivered == m_[1].delivered &&
           m_[0].hash == m_[1].hash;
  });
}

// --- Delivery and membership -----------------------------------------------

void RingCluster::on_deliver(std::size_t i, NodeId origin, const Slice& p) {
  Member& mb = m_[i];
  const Time now = mono_ns();
  if (p.size() != kPayload || origin < 1 || origin > kMembers) {
    ++mb.order_errors;
    return;
  }
  std::uint64_t seq = 0;
  Time due = 0;
  std::memcpy(&seq, p.data(), 8);
  std::memcpy(&due, p.data() + 8, 8);
  const int sp =
      tracing_ ? spans_.open(SpanKind::kDeliver, mb.id, origin, seq) : -1;
  const std::size_t o = origin - 1;
  if (survivor(i)) {
    if (observing_) mb.max_gap = std::max(mb.max_gap, now - mb.last_delivery);
    mb.last_delivery = now;
    mb.hash = mix(mix(mb.hash, origin), seq);
    ++mb.delivered;
    if (survivor(o)) {
      // Survivor streams: FIFO and exactly once.
      if (seq != mb.expect[o]) ++mb.order_errors;
      mb.expect[o] = seq + 1;
    } else if (!mb.victim_seen.insert(seq).second) {
      ++mb.order_errors;  // a victim message delivered twice
    }
    if (o == i && window_ && now <= win_close_) {
      ++mb.win_completed;
      mb.lat.add(now - due);
    }
  }
  if (tracing_) spans_.close(sp);
}

void RingCluster::on_view(std::size_t i, const session::View& v) {
  Member& mb = m_[i];
  if (!survivor(i) || !crashed_at_) return;
  const bool has_victim = v.has(m_[kVictim].id);
  const Time now = mono_ns();
  if (!has_victim && mb.shrunk_at == 0) mb.shrunk_at = now;
  if (has_victim && restarted_at_ && mb.merged_at == 0) mb.merged_at = now;
}

void RingCluster::crash_victim() {
  Member& v = m_[kVictim];
  const int sp = tracing_ ? spans_.open(SpanKind::kCrash, v.id, 0, 0) : -1;
  crashed_at_ = mono_ns();
  v.mux->set_enabled(false);
  v.up = false;
  v.visits.stop();
  if (tracing_) spans_.close(sp);
}

void RingCluster::restart_victim() {
  Member& v = m_[kVictim];
  const int sp = tracing_ ? spans_.open(SpanKind::kRestart, v.id, 0, 0) : -1;
  restarted_at_ = mono_ns();
  v.mux->set_enabled(true);
  v.ring->found();
  v.up = true;
  v.next_due = restarted_at_ + kTick;
  if (tracing_) {
    spans_.close(sp);
    v.visits.start(*v.ring, spans_);
  }
}

bool RingCluster::cycle(bool victim_holds, FaultFigures& f, Result& r) {
  run_for(kSettle);
  for (Member& mb : m_) {
    mb.removed_at = mb.shrunk_at = mb.merged_at = 0;
    mb.max_gap = 0;
  }
  crashed_at_ = restarted_at_ = 0;
  std::array<std::uint64_t, kMembers> regen0{}, removals0{};
  for (std::size_t i = 0; i < kMembers; ++i) {
    regen0[i] = m_[i].ring->stats().regenerations.value();
    removals0[i] = m_[i].ring->stats().removals.value();
  }

  // The crash runs from a zero-delay event queued while `holder` is
  // EATING, so the token is at `holder` when the victim dies.
  Member& holder = m_[victim_holds ? kVictim : 0];
  bool crash_done = false;
  holder.ring->run_exclusive([this, &holder, &crash_done] {
    holder.env->schedule(0, [this, &crash_done] {
      observing_ = true;
      crash_victim();
      crash_done = true;
    });
  });
  if (!run_until(net_, kPhaseTimeout, [&] { return crash_done; })) {
    r.fail("failover: crash callback never ran");
    return false;
  }

  // Detection: every survivor adopts a view without the victim, then
  // delivers again, which closes the outage gap.
  const bool detected = run_until(net_, kPhaseTimeout, [this] {
    for (std::size_t i = 0; i < kMembers; ++i) {
      if (!survivor(i)) continue;
      if (m_[i].shrunk_at == 0 || m_[i].last_delivery <= m_[i].shrunk_at) {
        return false;
      }
    }
    return true;
  });
  observing_ = false;
  if (!detected) {
    r.fail("failover: survivors did not recover after the crash");
    return false;
  }
  Time outage = 0, first_removal = 0, first_shrink = 0;
  std::uint64_t regen = 0, removals = 0;
  for (std::size_t i = 0; i < kMembers; ++i) {
    if (!survivor(i)) continue;
    outage = std::max(outage, m_[i].max_gap);
    if (m_[i].removed_at &&
        (first_removal == 0 || m_[i].removed_at < first_removal)) {
      first_removal = m_[i].removed_at;
    }
    if (first_shrink == 0 || m_[i].shrunk_at < first_shrink) {
      first_shrink = m_[i].shrunk_at;
    }
    regen += m_[i].ring->stats().regenerations.value() - regen0[i];
    removals += m_[i].ring->stats().removals.value() - removals0[i];
  }
  // Classify by the path the survivors actually took.
  const bool took_token_path = regen > 0;
  const bool took_pass_path = regen == 0 && removals > 0;
  const bool matches = victim_holds ? took_token_path : took_pass_path;

  // Restart and wait for every view to hold 3 again. The survivors invite
  // the victim back from their BODYODOR adverts, which repeat every
  // bodyodor_interval from the moment the rings were founded. Restarting
  // halfway between two adverts keeps rejoin_ms from flipping between a
  // short and a long wait when the rest of the schedule shifts a little.
  const Time period = m_[0].ring->config().bodyodor_interval;
  const Time earliest = mono_ns() + kRestartDelay - founded_at_ - period / 2;
  const Time restart_at =
      founded_at_ + period / 2 + (earliest + period - 1) / period * period;
  run_for(restart_at - mono_ns());
  restart_victim();
  if (!run_until(net_, kPhaseTimeout, [this] {
        for (const Member& mb : m_) {
          if (mb.ring->view().members.size() != kMembers) return false;
        }
        return true;
      })) {
    r.fail("failover: victim did not rejoin");
    return false;
  }
  const Time rejoined = mono_ns();
  Time first_merge = 0;
  for (std::size_t i = 0; i < kMembers; ++i) {
    if (!survivor(i) || m_[i].merged_at == 0) continue;
    if (first_merge == 0 || m_[i].merged_at < first_merge) {
      first_merge = m_[i].merged_at;
    }
  }

  if (!matches) {
    ++f.flagged;
    return true;
  }
  const double ms = 1e6;
  if (victim_holds) {
    ++f.token_cycles;
    f.token_regen_ms.push_back(static_cast<double>(outage) / ms);
    f.regen_view_ms.push_back(static_cast<double>(first_shrink - crashed_at_) /
                              ms);
  } else {
    ++f.pass_cycles;
    f.outage_ms.push_back(static_cast<double>(outage) / ms);
    f.rejoin_ms.push_back(static_cast<double>(rejoined - restarted_at_) / ms);
    if (first_removal) {
      f.detect_ms.push_back(static_cast<double>(first_removal - crashed_at_) /
                            ms);
    }
  }
  if (first_merge) {
    f.merge_ms.push_back(static_cast<double>(first_merge - restarted_at_) / ms);
  }
  return true;
}

// --- Window accounting -----------------------------------------------------

void RingCluster::open_window() {
  for (Member& mb : m_) {
    mb.win_attempted = mb.win_refused = mb.win_completed = 0;
    mb.lat.clear();
  }
  win_open_ = mono_ns();
  win_close_ = INT64_MAX;
  window_ = true;
}

void RingCluster::close_window() { win_close_ = mono_ns(); }

std::uint64_t RingCluster::window_attempted() const {
  std::uint64_t n = 0;
  for (const Member& mb : m_) n += mb.win_attempted;
  return n;
}

std::uint64_t RingCluster::window_refused() const {
  std::uint64_t n = 0;
  for (const Member& mb : m_) n += mb.win_refused;
  return n;
}

bool RingCluster::take_window(std::uint64_t& completed,
                              std::vector<Time>& latencies) const {
  bool ok = true;
  for (const Member& mb : m_) {
    completed += mb.win_completed;
    mb.lat.append_to(latencies);
    ok = ok && !mb.lat.full();
  }
  return ok;
}

void RingCluster::check(Result& r) const {
  const Member& a = m_[0];
  const Member& b = m_[1];
  if (a.order_errors || b.order_errors) {
    r.fail("failover: survivors saw out-of-order or duplicate deliveries");
  }
  if (a.delivered != b.delivered || a.hash != b.hash) {
    r.fail("failover: survivors delivered different sequences");
  }
  for (std::size_t i = 0; i < kMembers; ++i) {
    if (!survivor(i)) continue;
    for (std::size_t o = 0; o < kMembers; ++o) {
      if (survivor(o) && m_[i].expect[o] != m_[o].own_submitted) {
        r.fail("failover: a survivor message was lost");
        return;
      }
    }
  }
}

// --- Tracing ---------------------------------------------------------------

void RingCluster::set_tracing(bool on) {
  tracing_ = on;
  for (Member& mb : m_) {
    if (on && mb.up) {
      mb.visits.start(*mb.ring, spans_);
    } else {
      mb.visits.stop();
    }
  }
}

std::vector<double> RingCluster::rotations() const {
  std::vector<double> out;
  for (const Member& mb : m_) mb.visits.rotations(kMembers, out);
  return out;
}

metrics::Snapshot RingCluster::snapshot() const {
  metrics::Snapshot s;
  for (const Member& mb : m_) s.merge(mb.mux->metrics_snapshot());
  return s;
}

}  // namespace perfbench
