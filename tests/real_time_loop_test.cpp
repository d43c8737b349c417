// Real-time loop semantics: timer-queue firing order, cancel-while-firing
// and its O(1) earliest deadline against a brute-force scan, sub-ms timer
// lateness, scheduling-contract parity between the virtual-time EventLoop
// and the epoll RealTimeLoop (the same test body runs against both), the
// eventfd wakeup path under concurrent cross-thread posts, and the SPSC
// handoff queue. ctest -L runtime
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "common/spsc_queue.h"
#include "net/event_loop.h"
#include "net/real_time_loop.h"
#include "net/timer_queue.h"

using namespace raincore;

// --- TimerQueue (driven directly with a synthetic clock) ---------------------

TEST(TimerWheelTest, FiresInDeadlineThenSubmissionOrder) {
  net::TimerQueue timers;
  std::vector<int> order;
  timers.schedule_at(millis(5), [&] { order.push_back(5); });
  timers.schedule_at(millis(3), [&] { order.push_back(3); });
  timers.schedule_at(millis(3), [&] { order.push_back(4); });  // FIFO at 3ms
  EXPECT_EQ(timers.pending(), 3u);
  EXPECT_EQ(timers.next_deadline(), millis(3));
  EXPECT_EQ(timers.advance(millis(10)), 3u);
  EXPECT_EQ(order, (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(timers.pending(), 0u);
  EXPECT_EQ(timers.next_deadline(), -1);
}

TEST(TimerWheelTest, CancelWhileFiring) {
  net::TimerQueue timers;
  std::vector<int> order;
  net::TimerId victim = 0;
  // Both deadlines are collected into one firing batch; the first handler
  // cancels the second, which must then not run.
  timers.schedule_at(millis(1), [&] {
    order.push_back(1);
    EXPECT_TRUE(timers.cancel(victim));
  });
  victim = timers.schedule_at(millis(1), [&] { order.push_back(99); });
  EXPECT_EQ(timers.advance(millis(2)), 1u);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(timers.pending(), 0u);
  // The id is stale now.
  EXPECT_FALSE(timers.cancel(victim));
}

TEST(TimerWheelTest, ZeroDelayFromHandlerFiresInSamePass) {
  net::TimerQueue timers;
  std::vector<int> order;
  timers.schedule_at(millis(1), [&] {
    order.push_back(1);
    timers.schedule_at(millis(1), [&] { order.push_back(2); });
  });
  // One advance() call runs both: the nested timer is already due.
  EXPECT_EQ(timers.advance(millis(2)), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TimerWheelTest, WrapsPastOneRevolution) {
  // Far-apart deadlines fire in order, each on the first advance that
  // reaches it.
  net::TimerQueue timers;
  std::vector<int> order;
  timers.schedule_at(millis(2), [&] { order.push_back(2); });
  timers.schedule_at(millis(10), [&] { order.push_back(10); });
  timers.schedule_at(millis(21), [&] { order.push_back(21); });
  EXPECT_EQ(timers.advance(millis(5)), 1u);  // only the 2ms timer is due
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_EQ(timers.advance(millis(30)), 2u);
  EXPECT_EQ(order, (std::vector<int>{2, 10, 21}));
}

TEST(TimerWheelTest, NextDeadlineMatchesBruteForceScan) {
  // Seeded random schedule/cancel/advance sequences — handlers that
  // schedule (zero-delay included) and cancel while firing, and bursts that
  // cancel most of a large set so the dead entries are dropped in bulk:
  // after every step next_deadline() must equal a scan of the live
  // deadlines, nothing due may be left pending, and timers fire in
  // (deadline, submission) order.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    net::TimerQueue timers;
    std::map<net::TimerId, Time> live;
    std::vector<net::TimerId> ids;
    Time now = 0;
    std::pair<Time, net::TimerId> last_fired{-1, 0};
    auto brute = [&] {
      Time best = -1;
      for (const auto& [id, when] : live) {
        if (best < 0 || when < best) best = when;
      }
      return best;
    };
    auto cancel_random = [&] {
      if (ids.empty()) return;
      const net::TimerId id = ids[rng() % ids.size()];
      const bool was_live = live.erase(id) > 0;
      EXPECT_EQ(timers.cancel(id), was_live) << "seed " << seed;
    };
    std::function<void(Time)> add = [&](Time when) {
      auto id = std::make_shared<net::TimerId>(0);
      *id = timers.schedule_at(when, [&, id, when] {
        EXPECT_LE(when, now) << "seed " << seed << ": fired early";
        EXPECT_LT(last_fired, std::make_pair(when, *id)) << "seed " << seed;
        last_fired = {when, *id};
        EXPECT_EQ(live.erase(*id), 1u) << "seed " << seed;
        switch (rng() % 8) {
          case 0: add(now + static_cast<Time>(rng() % millis(3))); break;
          case 1: add(now); break;
          case 2: cancel_random(); break;
          default: break;
        }
      });
      live[*id] = when;
      ids.push_back(*id);
    };
    for (int step = 0; step < 2000; ++step) {
      const auto op = rng() % 10;
      if (op < 5) {
        add(now + static_cast<Time>(rng() % millis(40)));
      } else if (op < 7) {
        cancel_random();
      } else if (op == 9 && rng() % 5 == 0) {
        for (int i = 0; i < 150; ++i) {
          add(now + static_cast<Time>(rng() % millis(40)));
        }
        while (live.size() > 5) {
          auto it = std::next(live.begin(),
                              static_cast<long>(rng() % live.size()));
          ASSERT_TRUE(timers.cancel(it->first)) << "seed " << seed;
          live.erase(it);
          ASSERT_EQ(timers.next_deadline(), brute()) << "seed " << seed;
        }
      } else {
        now += static_cast<Time>(rng() % micros(2500));
        timers.advance(now);
        for (const auto& [id, when] : live) {
          ASSERT_GT(when, now) << "seed " << seed << ": due timer left";
        }
      }
      ASSERT_EQ(timers.next_deadline(), brute()) << "seed " << seed;
      ASSERT_EQ(timers.pending(), live.size()) << "seed " << seed;
    }
  }
}

// --- Scheduling-contract parity ----------------------------------------------

// The body every Scheduler implementation must satisfy identically: FIFO
// among equal deadlines, cancel-while-firing honoured, and zero-delay
// timers scheduled from handlers running in the same pass, before any
// later deadline. Delays are widely spaced so the real-time run cannot
// collapse two deadlines into one wake-up even on a loaded machine.
void scheduling_contract_body(net::Scheduler& s,
                              const std::function<void()>& run_all) {
  std::vector<int> order;
  net::TimerId victim = 0;
  s.schedule(millis(250), [&] { order.push_back(2); });
  s.schedule(millis(10), [&] {
    order.push_back(1);
    s.schedule(0, [&] { order.push_back(10); });
    s.schedule(0, [&] { order.push_back(11); });
    s.cancel(victim);
  });
  s.schedule(millis(10), [&] { order.push_back(12); });
  victim = s.schedule(millis(10), [&] { order.push_back(99); });
  run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 12, 10, 11, 2}));
}

TEST(SchedulerParityTest, VirtualLoopContract) {
  net::EventLoop loop;
  scheduling_contract_body(loop, [&] { loop.run_for(seconds(1)); });
}

TEST(SchedulerParityTest, RealTimeLoopContract) {
  net::RealTimeLoop loop;
  scheduling_contract_body(loop, [&] {
    // Run (on this thread) until the queue drains or far past the last
    // deadline.
    const auto t0 = std::chrono::steady_clock::now();
    while (loop.pending() > 0 &&
           std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10)) {
      loop.run_for(millis(50));
    }
  });
}

TEST(RealTimeLoopTest, SubMillisecondTimersFireOnTime) {
  // The epoll timeout carries the deadline to the nanosecond: a timer set
  // 300 us ahead must not wait for a whole-millisecond wake-up, which makes
  // it at least ~700 us late. The best median of up to three 20-timer
  // rounds is judged, so one round disturbed by a busy host cannot fail a
  // loop that wakes on time.
  Time best = -1;
  for (int round = 0; round < 3 && (best < 0 || best >= micros(500)); ++round) {
    net::RealTimeLoop loop;
    std::vector<Time> lateness;
    std::function<void()> arm = [&] {
      const Time due = loop.now() + micros(300);
      loop.schedule_at(due, [&, due] {
        lateness.push_back(loop.now() - due);
        if (lateness.size() < 20) {
          arm();
        } else {
          loop.stop();
        }
      });
    };
    arm();
    loop.run_for(seconds(10));
    ASSERT_EQ(lateness.size(), 20u);
    std::sort(lateness.begin(), lateness.end());
    const Time median = lateness[lateness.size() / 2];
    if (best < 0 || median < best) best = median;
  }
  EXPECT_LT(best, micros(500)) << "best median lateness " << best << " ns";
}

// --- Cross-thread post / eventfd wakeup --------------------------------------

TEST(RealTimeLoopTest, ConcurrentCrossThreadPosts) {
  net::RealTimeLoop loop;
  std::atomic<int> ran{0};
  std::thread runner([&] { loop.run(); });

  constexpr int kThreads = 4;
  constexpr int kPostsPerThread = 500;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPostsPerThread; ++i) {
        loop.post([&] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& p : producers) p.join();

  const auto t0 = std::chrono::steady_clock::now();
  while (ran.load() < kThreads * kPostsPerThread &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  loop.stop();
  runner.join();
  EXPECT_EQ(ran.load(), kThreads * kPostsPerThread);
}

TEST(RealTimeLoopTest, NotifyWakesServiceHandler) {
  net::RealTimeLoop loop;
  SpscQueue<int> inbox(64);
  std::atomic<int> sum{0};
  loop.set_service_handler([&] {
    int v;
    while (inbox.try_pop(v)) sum.fetch_add(v, std::memory_order_relaxed);
  });
  std::thread runner([&] { loop.run(); });
  std::thread producer([&] {
    for (int i = 1; i <= 100; ++i) {
      while (!inbox.try_push(int{i})) std::this_thread::yield();
      loop.notify();
    }
  });
  producer.join();
  const auto t0 = std::chrono::steady_clock::now();
  while (sum.load() < 5050 &&
         std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  loop.stop();
  runner.join();
  EXPECT_EQ(sum.load(), 5050);
}

// --- SPSC queue ---------------------------------------------------------------

TEST(SpscQueueTest, OrderedSingleThread) {
  SpscQueue<int> q(4);
  EXPECT_EQ(q.size_approx(), 0u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(int{i}));
  EXPECT_FALSE(q.try_push(5));  // full at its (pow2) capacity
  int v = -1;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.try_pop(v));
}

TEST(SpscQueueTest, TwoThreadStressKeepsEveryItem) {
  SpscQueue<std::uint64_t> q(128);
  constexpr std::uint64_t kItems = 200000;
  std::uint64_t got = 0, expect_next = 0;
  std::thread consumer([&] {
    std::uint64_t v;
    while (got < kItems) {
      if (q.try_pop(v)) {
        ASSERT_EQ(v, expect_next);  // FIFO, nothing lost or duplicated
        ++expect_next;
        ++got;
      }
    }
  });
  for (std::uint64_t i = 0; i < kItems; ++i) {
    while (!q.try_push(std::uint64_t{i})) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_EQ(got, kItems);
}
