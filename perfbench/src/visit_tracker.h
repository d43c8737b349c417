// Token-visit probe: keeps one run_exclusive callback queued on a ring so
// it runs once per token visit, recording the visit as a span. The gap
// between two visits at one member is one token rotation.
//
// Every call must come from the ring's own thread.
#pragma once

#include <cstdint>
#include <vector>

#include "bench_common.h"
#include "session/session_node.h"

namespace perfbench {

class VisitTracker {
 public:
  void start(session::SessionNode& ring, SpanBuffer& spans) {
    arm(ring, spans, ++gen_);
  }
  void stop() { ++gen_; }
  /// Intervals between consecutive visits that both saw a view of
  /// `ring_size` members, ns.
  void rotations(std::size_t ring_size, std::vector<double>& out) const {
    for (std::size_t k = 1; k < visits_.size(); ++k) {
      if (visits_[k].members == ring_size &&
          visits_[k - 1].members == ring_size) {
        out.push_back(static_cast<double>(visits_[k].at - visits_[k - 1].at));
      }
    }
  }

 private:
  void arm(session::SessionNode& ring, SpanBuffer& spans, std::uint64_t g) {
    if (g != gen_ || !ring.started()) return;
    const Time tick = raincore::millis(1);
    if (ring.holds_token()) {
      // Still inside the visit that ran the last callback.
      ring.env().schedule(tick, [this, &ring, &spans, g] { arm(ring, spans, g); });
      return;
    }
    ring.run_exclusive([this, &ring, &spans, g, tick] {
      if (g != gen_) return;
      const Time t = mono_ns();
      visits_.push_back(Visit{t, ring.view().members.size()});
      spans.add(SpanKind::kVisit, ring.id(), t, mono_ns());
      ring.env().schedule(ring.config().token_hold + tick,
                          [this, &ring, &spans, g] { arm(ring, spans, g); });
    });
  }

  struct Visit {
    Time at = 0;
    std::size_t members = 0;
  };
  std::uint64_t gen_ = 0;
  std::vector<Visit> visits_;
};

}  // namespace perfbench
