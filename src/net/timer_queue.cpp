#include "net/timer_queue.h"

#include <algorithm>
#include <utility>

namespace raincore::net {

TimerId TimerQueue::schedule_at(Time when, EventFn fn) {
  TimerId id = next_id_++;
  heap_.push_back(Entry{when, next_seq_++, id, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  live_.insert(id);
  return id;
}

bool TimerQueue::cancel(TimerId id) {
  if (live_.erase(id) == 0) return false;
  if (heap_.size() > 2 * live_.size() + 64) {
    // Mostly cancelled: drop every dead entry (and its closure) at once.
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [&](const Entry& e) { return !live_.count(e.id); }),
                heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), Later{});
  } else {
    drop_dead_top();
  }
  return true;
}

void TimerQueue::drop_dead_top() {
  while (!heap_.empty() && !live_.count(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

void TimerQueue::fire_next() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  EventFn fn = std::move(heap_.back().fn);
  live_.erase(heap_.back().id);
  heap_.pop_back();
  drop_dead_top();  // handlers may read next_deadline()
  fn();
}

std::size_t TimerQueue::advance(Time now) {
  std::size_t fired = 0;
  for (Time next = next_deadline(); next >= 0 && next <= now;
       next = next_deadline()) {
    fire_next();
    ++fired;
  }
  return fired;
}

}  // namespace raincore::net
