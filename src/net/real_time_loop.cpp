#include "net/real_time_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <ctime>
#include <stdexcept>

namespace raincore::net {

namespace {

constexpr int kMaxEpollEvents = 64;

}  // namespace

RealTimeLoop::RealTimeLoop() {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw std::runtime_error("epoll_create1 failed");
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    close(epoll_fd_);
    throw std::runtime_error("eventfd failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;  // level-triggered: the counter stays readable until
                        // drained, so a wake between iterations is never lost
  ev.data.fd = wake_fd_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    close(wake_fd_);
    close(epoll_fd_);
    throw std::runtime_error("epoll_ctl(wake_fd) failed");
  }
}

RealTimeLoop::~RealTimeLoop() {
  if (wake_fd_ >= 0) close(wake_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

TimerId RealTimeLoop::schedule_at(Time when, EventFn fn) {
  Time t = now();
  if (when < t) when = t;
  return timers_.schedule_at(when, std::move(fn));
}

void RealTimeLoop::post(EventFn fn) {
  {
    std::lock_guard<std::mutex> lk(post_mu_);
    posted_.push_back(std::move(fn));
  }
  wake();
}

void RealTimeLoop::wake() {
  std::uint64_t one = 1;
  // A full eventfd counter (~2^64) cannot happen here; short write means
  // the loop is already guaranteed awake.
  [[maybe_unused]] ssize_t n = write(wake_fd_, &one, sizeof(one));
}

void RealTimeLoop::drain_posted() {
  std::vector<EventFn> batch;
  {
    std::lock_guard<std::mutex> lk(post_mu_);
    batch.swap(posted_);
  }
  for (EventFn& fn : batch) fn();
}

void RealTimeLoop::watch_fd(int fd, FdFn on_ready) {
  bool existing = fd_handlers_.count(fd) > 0;
  fd_handlers_[fd] = std::move(on_ready);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.fd = fd;
  int op = existing ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  if (epoll_ctl(epoll_fd_, op, fd, &ev) != 0) {
    fd_handlers_.erase(fd);
    throw std::runtime_error("epoll_ctl(watch_fd) failed");
  }
}

void RealTimeLoop::unwatch_fd(int fd) {
  if (fd_handlers_.erase(fd) == 0) return;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

bool RealTimeLoop::iterate(Time deadline) {
  if (stop_.load(std::memory_order_acquire)) return false;

  drain_posted();
  if (service_) service_();
  timers_.advance(now());

  // Block until the earliest of: next timer, run_for deadline, an fd
  // becoming readable, or an eventfd wake from post()/stop().
  Time next = timers_.next_deadline();
  if (deadline >= 0 && (next < 0 || deadline < next)) next = deadline;
  // The timeout is nanosecond-exact (epoll_pwait2), so a timer set a
  // fraction of a millisecond ahead does not wait for a whole-ms wake-up.
  timespec timeout{};
  if (next >= 0) {
    const Time gap = std::max<Time>(next - now(), 0);
    timeout.tv_sec = static_cast<std::time_t>(gap / kNanosPerSec);
    timeout.tv_nsec = static_cast<long>(gap % kNanosPerSec);
  }

  epoll_event events[kMaxEpollEvents];
  int n = epoll_pwait2(epoll_fd_, events, kMaxEpollEvents,
                       next < 0 ? nullptr : &timeout, nullptr);
  if (n < 0 && errno != EINTR) throw std::runtime_error("epoll_pwait2 failed");

  for (int i = 0; i < n; ++i) {
    int fd = events[i].data.fd;
    if (fd == wake_fd_) {
      std::uint64_t count = 0;
      while (read(wake_fd_, &count, sizeof(count)) > 0) {
      }
      continue;
    }
    auto it = fd_handlers_.find(fd);
    if (it == fd_handlers_.end()) continue;  // unwatched by an earlier handler
    FdFn handler = it->second;  // copy: the handler may unwatch itself
    handler(events[i].events);
  }

  drain_posted();
  if (service_) service_();
  timers_.advance(now());
  return !stop_.load(std::memory_order_acquire);
}

void RealTimeLoop::run() {
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  while (iterate(-1)) {
  }
  drain_posted();
  running_.store(false, std::memory_order_release);
}

void RealTimeLoop::run_for(Time d) {
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  Time deadline = now() + d;
  while (now() < deadline && iterate(deadline)) {
  }
  drain_posted();
  timers_.advance(now());
  running_.store(false, std::memory_order_release);
}

void RealTimeLoop::stop() {
  stop_.store(true, std::memory_order_release);
  wake();
}

}  // namespace raincore::net
