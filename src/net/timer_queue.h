// Timer store behind both Scheduler implementations: the virtual-time
// EventLoop and the epoll RealTimeLoop.
//
// One binary min-heap of (deadline, submission seq) entries plus the set of
// live ids. schedule is O(log n); next_deadline() — the epoll timeout, read
// on every real-time loop iteration, and the next virtual instant in the
// simulator — is O(1), because cancel and fire pop dead ids off the top so
// the top is always live. Dead ids below the top wait until they surface,
// and the heap drops them all at once when they outnumber the live timers.
//
// Firing semantics (the Scheduler contract): due timers fire in (deadline,
// seq) order, a handler may cancel a timer that is due in the same pass (it
// will not run), and a handler may schedule a zero-delay timer, which runs
// in the same pass after every timer already due at that instant.
//
// Not thread-safe: the owning loop thread is the only caller.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "net/scheduler.h"

namespace raincore::net {

class TimerQueue {
 public:
  TimerQueue() = default;
  TimerQueue(const TimerQueue&) = delete;
  TimerQueue& operator=(const TimerQueue&) = delete;

  /// Registers fn to fire at `when` (absolute; callers clamp to now).
  TimerId schedule_at(Time when, EventFn fn);

  /// Drops a pending timer. Returns false for stale/unknown ids.
  bool cancel(TimerId id);

  /// Earliest live deadline, or -1 when no timer is live. O(1).
  Time next_deadline() const { return heap_.empty() ? -1 : heap_.front().when; }

  /// Fires the timer at next_deadline(). Requires pending() > 0.
  void fire_next();

  /// Fires every timer with deadline <= now, in (deadline, seq) order,
  /// including timers handlers schedule for instants <= now. Returns the
  /// number fired.
  std::size_t advance(Time now);

  std::size_t pending() const { return live_.size(); }

 private:
  struct Entry {
    Time when;
    std::uint64_t seq;  // tie-break: FIFO among same-instant timers
    TimerId id;
    EventFn fn;
  };
  /// Heap order (std heap algorithms build a max-heap, so "less" is later).
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// Pops cancelled entries off the top so next_deadline() reads a live one.
  void drop_dead_top();

  std::vector<Entry> heap_;
  std::unordered_set<TimerId> live_;  // scheduled, not yet fired or cancelled
  std::uint64_t next_seq_ = 0;
  TimerId next_id_ = 1;
};

}  // namespace raincore::net
