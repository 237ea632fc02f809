// Synchronization primitives for simulated processes: sleeps, broadcast
// conditions (grace periods, completion barriers), a FIFO mutex, and
// WhenAll, a join over a WaitGroup (concurrency.h).
//
// All resumptions are funneled through the Scheduler rather than resumed
// inline, which keeps notification order FIFO-deterministic and avoids
// reentrancy into the notifier's frame.
#pragma once

#include <cassert>
#include <coroutine>
#include <deque>
#include <vector>

#include "common/types.h"
#include "sim/concurrency.h"
#include "sim/scheduler.h"
#include "sim/task.h"

namespace gvfs::sim {

/// co_await Sleep(sched, d) — suspends the current process for d simulated
/// time.
class Sleep {
 public:
  Sleep(Scheduler& sched, Duration d) : sched_(sched), duration_(d) {}
  bool await_ready() const noexcept { return duration_ <= 0; }
  void await_suspend(std::coroutine_handle<> h) {
    sched_.After(duration_, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}

 private:
  Scheduler& sched_;
  Duration duration_;
};

/// Broadcast condition: NotifyAll resumes every process currently waiting.
/// There is no predicate; callers loop (`while (!pred) co_await cond.Wait()`).
class Condition {
 public:
  explicit Condition(Scheduler& sched) : sched_(sched) {}

  auto Wait() {
    struct Awaiter {
      Condition* cond;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { cond->waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  void NotifyAll() {
    std::vector<std::coroutine_handle<>> to_wake;
    to_wake.swap(waiters_);
    for (auto h : to_wake) {
      sched_.At(sched_.Now(), [h] { h.resume(); });
    }
  }

  std::size_t WaiterCount() const { return waiters_.size(); }

 private:
  Scheduler& sched_;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// FIFO mutex for simulated processes.
class Mutex {
 public:
  explicit Mutex(Scheduler& sched) : sched_(sched) {}

  auto Lock() {
    struct Awaiter {
      Mutex* m;
      bool await_ready() const noexcept { return false; }
      bool await_suspend(std::coroutine_handle<> h) {
        if (!m->locked_) {
          m->locked_ = true;
          return false;  // acquired without suspending
        }
        m->waiters_.push_back(h);
        return true;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  void Unlock() {
    assert(locked_);
    if (waiters_.empty()) {
      locked_ = false;
      return;
    }
    auto h = waiters_.front();
    waiters_.pop_front();
    // Lock ownership transfers directly to the next waiter.
    sched_.At(sched_.Now(), [h] { h.resume(); });
  }

  bool locked() const { return locked_; }

 private:
  Scheduler& sched_;
  bool locked_ = false;
  std::deque<std::coroutine_handle<>> waiters_;
};

/// Runs every task concurrently (as detached processes) and completes when
/// all have finished.
inline Task<void> WhenAll(Scheduler& sched, std::vector<Task<void>> tasks) {
  WaitGroup group(sched);
  for (auto& task : tasks) group.Spawn(std::move(task));
  co_await group.Wait();
}

}  // namespace gvfs::sim
