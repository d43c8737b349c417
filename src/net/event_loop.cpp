#include "net/event_loop.h"

namespace raincore::net {

TimerId EventLoop::schedule_at(Time when, EventFn fn) {
  if (when < now()) when = now();
  return timers_.schedule_at(when, std::move(fn));
}

bool EventLoop::step() {
  Time next = timers_.next_deadline();
  if (next < 0) return false;
  clock_.advance_to(next);
  timers_.fire_next();
  return true;
}

void EventLoop::run_until(Time deadline) {
  for (Time next = timers_.next_deadline(); next >= 0 && next <= deadline;
       next = timers_.next_deadline()) {
    clock_.advance_to(next);
    timers_.fire_next();
  }
  clock_.advance_to(deadline);
}

bool EventLoop::idle() const { return pending() == 0; }

}  // namespace raincore::net
