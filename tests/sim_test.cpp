// Tests for the coroutine simulation kernel.
//
// NOTE: coroutine lambdas must not capture (the closure dies before the
// frame); every coroutine here takes its state via parameters.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "sim/scheduler.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace gvfs::sim {
namespace {

TEST(SchedulerTest, EventsRunInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.At(Seconds(3), [&] { order.push_back(3); });
  sched.At(Seconds(1), [&] { order.push_back(1); });
  sched.At(Seconds(2), [&] { order.push_back(2); });
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.Now(), Seconds(3));
}

TEST(SchedulerTest, TiesAreFifo) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.At(Seconds(1), [&order, i] { order.push_back(i); });
  }
  sched.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SchedulerTest, EventsCanScheduleMoreEvents) {
  Scheduler sched;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) sched.After(Seconds(1), tick);
  };
  sched.After(Seconds(1), tick);
  sched.Run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sched.Now(), Seconds(5));
}

TEST(SchedulerTest, PastEventsClampToNow) {
  Scheduler sched;
  SimTime fired_at = -1;
  sched.At(Seconds(5), [&] {
    sched.At(Seconds(1), [&] { fired_at = sched.Now(); });  // in the past
  });
  sched.Run();
  EXPECT_EQ(fired_at, Seconds(5));
}

TEST(SchedulerTest, RunUntilAdvancesClock) {
  Scheduler sched;
  int fired = 0;
  sched.At(Seconds(1), [&] { ++fired; });
  sched.At(Seconds(10), [&] { ++fired; });
  sched.RunUntil(Seconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.Now(), Seconds(5));
  EXPECT_EQ(sched.PendingEvents(), 1u);
}

TEST(SchedulerTest, MaxEventsLimit) {
  Scheduler sched;
  std::function<void()> loop = [&] { sched.After(1, loop); };
  sched.After(1, loop);
  auto processed = sched.Run(100);
  EXPECT_EQ(processed, 100u);
}

Task<int> ReturnFive(bool* started) {
  *started = true;
  co_return 5;
}

Task<void> AwaitInto(Task<int> task, int* out) { *out = co_await std::move(task); }

TEST(TaskTest, LazyStart) {
  Scheduler sched;
  bool started = false;
  auto t = ReturnFive(&started);
  EXPECT_FALSE(started);  // lazy: not started until awaited
  int result = 0;
  Spawn(AwaitInto(std::move(t), &result));
  sched.Run();
  EXPECT_TRUE(started);
  EXPECT_EQ(result, 5);
}

Task<int> Leaf() { co_return 2; }
Task<int> Mid() { co_return 1 + co_await Leaf(); }
Task<int> Outer() { co_return 1 + co_await Mid(); }

TEST(TaskTest, NestedAwaitChains) {
  Scheduler sched;
  int result = 0;
  Spawn(AwaitInto(Outer(), &result));
  sched.Run();
  EXPECT_EQ(result, 4);
}

Task<void> SleepThenRecord(Scheduler* sched, Duration d, SimTime* woke) {
  co_await Sleep(*sched, d);
  *woke = sched->Now();
}

TEST(TaskTest, SleepAdvancesVirtualTime) {
  Scheduler sched;
  SimTime woke = -1;
  Spawn(SleepThenRecord(&sched, Seconds(7), &woke));
  sched.Run();
  EXPECT_EQ(woke, Seconds(7));
}

Task<void> ZeroSleep(Scheduler* sched, bool* done) {
  co_await Sleep(*sched, 0);
  *done = true;
}

TEST(TaskTest, ZeroSleepDoesNotSuspend) {
  Scheduler sched;
  bool done = false;
  Spawn(ZeroSleep(&sched, &done));
  // Spawn runs eagerly; zero-length sleep is ready immediately.
  EXPECT_TRUE(done);
}

Task<void> TickProcess(Scheduler* sched, std::string name, Duration step,
                       std::vector<std::string>* trace) {
  for (int i = 0; i < 3; ++i) {
    co_await Sleep(*sched, step);
    trace->push_back(name);
  }
}

TEST(TaskTest, InterleavedProcesses) {
  Scheduler sched;
  std::vector<std::string> trace;
  Spawn(TickProcess(&sched, "a", Seconds(2), &trace));
  Spawn(TickProcess(&sched, "b", Seconds(3), &trace));
  sched.Run();
  // a wakes at 2,4,6; b at 3,6,9. At t=6, b's wake was scheduled at t=3,
  // a's at t=4, so b resumes first (FIFO by scheduling order).
  EXPECT_EQ(trace, (std::vector<std::string>{"a", "b", "a", "b", "a", "b"}));
}

Task<int> Thrower() {
  throw std::runtime_error("bad");
  co_return 0;
}

Task<void> CatchFromThrower(bool* caught) {
  try {
    (void)co_await Thrower();
  } catch (const std::runtime_error&) {
    *caught = true;
  }
}

TEST(TaskTest, ExceptionPropagatesToAwaiter) {
  Scheduler sched;
  bool caught = false;
  Spawn(CatchFromThrower(&caught));
  sched.Run();
  EXPECT_TRUE(caught);
}

Task<void> WaitCondition(Condition* cond, int* woke) {
  co_await cond->Wait();
  ++*woke;
}

TEST(ConditionTest, NotifyAllWakesEveryWaiter) {
  Scheduler sched;
  Condition cond(sched);
  int woke = 0;
  for (int i = 0; i < 4; ++i) Spawn(WaitCondition(&cond, &woke));
  EXPECT_EQ(cond.WaiterCount(), 4u);
  sched.At(Seconds(1), [&] { cond.NotifyAll(); });
  sched.Run();
  EXPECT_EQ(woke, 4);
}

TEST(ConditionTest, NotifyWithNoWaitersIsNoop) {
  Scheduler sched;
  Condition cond(sched);
  cond.NotifyAll();
  sched.Run();
  EXPECT_EQ(cond.WaiterCount(), 0u);
}

Task<void> CriticalSection(Scheduler* sched, Mutex* mu, int* in_critical,
                           int* max_in_critical) {
  co_await mu->Lock();
  ++*in_critical;
  *max_in_critical = std::max(*max_in_critical, *in_critical);
  co_await Sleep(*sched, Seconds(1));
  --*in_critical;
  mu->Unlock();
}

TEST(MutexTest, ProvidesMutualExclusion) {
  Scheduler sched;
  Mutex mu(sched);
  int in_critical = 0;
  int max_in_critical = 0;
  for (int i = 0; i < 5; ++i) {
    Spawn(CriticalSection(&sched, &mu, &in_critical, &max_in_critical));
  }
  sched.Run();
  EXPECT_EQ(max_in_critical, 1);
  EXPECT_EQ(sched.Now(), Seconds(5));  // fully serialized
  EXPECT_FALSE(mu.locked());
}

Task<void> LockAndRecord(Scheduler* sched, Mutex* mu, int id, std::vector<int>* order) {
  co_await mu->Lock();
  order->push_back(id);
  co_await Sleep(*sched, Seconds(1));
  mu->Unlock();
}

TEST(MutexTest, FifoOrder) {
  Scheduler sched;
  Mutex mu(sched);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) Spawn(LockAndRecord(&sched, &mu, i, &order));
  sched.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

Task<void> SleepSecondsThenCount(Scheduler* sched, int secs, int* done) {
  co_await Sleep(*sched, Seconds(secs));
  ++*done;
}

Task<void> JoinAll(Scheduler* sched, std::vector<Task<void>> tasks, bool* all_done,
                   int* done) {
  co_await WhenAll(*sched, std::move(tasks));
  *all_done = true;
  EXPECT_EQ(*done, 3);
}

TEST(WhenAllTest, WaitsForAllTasks) {
  Scheduler sched;
  std::vector<Task<void>> tasks;
  int done = 0;
  for (int i = 1; i <= 3; ++i) tasks.push_back(SleepSecondsThenCount(&sched, i, &done));
  bool all_done = false;
  Spawn(JoinAll(&sched, std::move(tasks), &all_done, &done));
  sched.Run();
  EXPECT_TRUE(all_done);
  EXPECT_EQ(sched.Now(), Seconds(3));  // parallel, not serial
}

Task<void> JoinEmpty(Scheduler* sched, bool* done) {
  co_await WhenAll(*sched, {});
  *done = true;
}

TEST(WhenAllTest, EmptyVectorCompletesImmediately) {
  Scheduler sched;
  bool done = false;
  Spawn(JoinEmpty(&sched, &done));
  sched.Run();
  EXPECT_TRUE(done);
}

// --- Scheduler order parity ------------------------------------------------
// The production scheduler is a 4-ary heap merged with a FIFO ready ring and
// a tombstoning Cancel. The reference below is the obviously-correct model:
// run the armed event with the smallest (time, seq), O(n^2) and proud of it.
// Feeding both the same deterministic workload — nested posts, bursts of
// same-timestamp events, interleaved cancels — and demanding the exact same
// execution order is the golden proof that the fast structures changed
// nothing observable.

class ReferenceScheduler {
 public:
  std::size_t At(SimTime t, std::function<void()> fn) {
    events_.push_back(Ev{t < now_ ? now_ : t, next_seq_++, true, std::move(fn)});
    return events_.size() - 1;
  }

  bool Cancel(std::size_t id) {
    if (id >= events_.size() || !events_[id].armed) return false;
    events_[id].armed = false;
    return true;
  }

  std::uint64_t RunAll() {
    std::uint64_t processed = 0;
    for (;;) {
      std::size_t best = events_.size();
      for (std::size_t i = 0; i < events_.size(); ++i) {
        const Ev& e = events_[i];
        if (!e.armed) continue;
        if (best == events_.size() || e.t < events_[best].t ||
            (e.t == events_[best].t && e.seq < events_[best].seq)) {
          best = i;
        }
      }
      if (best == events_.size()) return processed;
      events_[best].armed = false;
      now_ = events_[best].t;
      events_[best].fn();  // may append to events_
      ++processed;
    }
  }

  SimTime Now() const { return now_; }

 private:
  struct Ev {
    SimTime t;
    std::uint64_t seq;
    bool armed;
    std::function<void()> fn;
  };
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<Ev> events_;
};

// Workload script derived purely from the event id, so both schedulers see
// byte-identical behaviour regardless of internal structure: each executed
// event may spawn children (often at the *same* timestamp, stressing the
// ready ring against the heap) and may cancel an earlier event (sometimes
// one already run — both sides must agree Cancel fails).
struct ParityWorkload {
  static constexpr std::uint32_t kMaxEvents = 4000;

  template <typename Sched, typename Handle>
  void RunEvent(std::uint32_t id, Sched* sched, std::vector<Handle>* handles,
                std::vector<std::uint32_t>* order,
                std::vector<bool>* cancel_results) {
    order->push_back(id);
    const std::uint64_t h = MixHash64(id);
    // 1–2 children per event: supercritical, so the workload always reaches
    // the kMaxEvents cap instead of a lineage fizzling out early.
    const std::uint32_t children = static_cast<std::uint32_t>(1 + h % 2);
    for (std::uint32_t c = 0; c < children; ++c) {
      if (next_id >= kMaxEvents) break;
      // Half the children land at the current timestamp (ready-ring path),
      // half a short hop into the future (heap path).
      const Duration delay =
          (h >> (8 + 4 * c)) % 2 == 0
              ? 0
              : static_cast<Duration>(1 + (h >> (16 + 4 * c)) % 5);
      Post(sched, handles, order, cancel_results, delay);
    }
    if (h % 7 == 0 && id > 0) {
      const std::uint32_t victim =
          id - static_cast<std::uint32_t>(1 + (h >> 32) % id);
      cancel_results->push_back(sched->Cancel((*handles)[victim]));
    }
  }

  template <typename Sched, typename Handle>
  void Post(Sched* sched, std::vector<Handle>* handles,
            std::vector<std::uint32_t>* order,
            std::vector<bool>* cancel_results, Duration delay) {
    const std::uint32_t id = next_id++;
    handles->push_back(sched->After(delay, [this, id, sched, handles, order,
                                            cancel_results] {
      RunEvent(id, sched, handles, order, cancel_results);
    }));
  }

  std::uint32_t next_id = 0;
};

// ReferenceScheduler lacks After(); adapt it to the workload's interface.
struct ReferenceAdapter {
  std::size_t After(Duration d, std::function<void()> fn) {
    return ref.At(ref.Now() + d, std::move(fn));
  }
  bool Cancel(std::size_t id) { return ref.Cancel(id); }
  ReferenceScheduler ref;
};

TEST(SchedulerParityTest, GoldenOrderMatchesReferenceModel) {
  // Seed both sides with identical bursts: clusters of events at equal
  // timestamps, posted out of order.
  std::vector<std::uint32_t> real_order, ref_order;
  std::vector<bool> real_cancels, ref_cancels;

  Scheduler sched;
  std::vector<EventId> real_handles;
  ParityWorkload real_wl;
  for (int burst = 0; burst < 8; ++burst) {
    for (int i = 0; i < 5; ++i) {
      real_wl.Post(&sched, &real_handles, &real_order, &real_cancels,
                   static_cast<Duration>((burst * 3) % 7));
    }
  }
  const std::uint64_t real_processed = sched.Run();

  ReferenceAdapter ref;
  std::vector<std::size_t> ref_handles;
  ParityWorkload ref_wl;
  for (int burst = 0; burst < 8; ++burst) {
    for (int i = 0; i < 5; ++i) {
      ref_wl.Post(&ref, &ref_handles, &ref_order, &ref_cancels,
                  static_cast<Duration>((burst * 3) % 7));
    }
  }
  const std::uint64_t ref_processed = ref.ref.RunAll();

  ASSERT_GT(real_order.size(), 100u) << "workload degenerated";
  EXPECT_EQ(real_order, ref_order);
  EXPECT_EQ(real_cancels, ref_cancels);
  EXPECT_EQ(real_processed, ref_processed);
  EXPECT_EQ(sched.Now(), ref.ref.Now());
  EXPECT_TRUE(sched.Idle());
}

TEST(SchedulerStressTest, InterleavedPostCancelAtEqualTimestamps) {
  // 100 events all at t=5; every third is cancelled before the clock moves,
  // and event 10 cancels a later same-timestamp event (40) from inside its
  // callback. Survivors must run in exact post (seq) order.
  Scheduler sched;
  std::vector<EventId> ids;
  std::vector<int> order;
  bool cancelled_40 = false;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sched.At(Seconds(5), [&, i] {
      order.push_back(i);
      // Event 10 cancels a later event at the SAME timestamp: it must
      // vanish even though its queue node is already due.
      if (i == 10) cancelled_40 = sched.Cancel(ids[40]);
    }));
  }
  for (int i = 0; i < 100; i += 3) {
    EXPECT_TRUE(sched.Cancel(ids[static_cast<std::size_t>(i)]));
    EXPECT_FALSE(sched.Cancel(ids[static_cast<std::size_t>(i)]))
        << "double cancel must fail";
  }

  sched.Run();
  EXPECT_TRUE(cancelled_40);

  std::vector<int> expected;
  for (int i = 0; i < 100; ++i) {
    if (i % 3 != 0 && i != 40) expected.push_back(i);
  }
  EXPECT_EQ(order, expected);
  EXPECT_EQ(sched.Now(), Seconds(5));
  EXPECT_TRUE(sched.Idle());
}

TEST(SchedulerStressTest, ReadyRingGrowsWhileWrapped) {
  // Force the ready ring to grow while its head is mid-buffer and the live
  // span wraps the physical end: pop a few events first, then burst-post
  // far past the initial capacity from inside a callback.
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    sched.At(0, [&order, i] { order.push_back(i); });
  }
  sched.Run(2);  // head advances; ring storage now starts mid-buffer
  sched.At(0, [&] {
    for (int i = 100; i < 200; ++i) {
      sched.At(0, [&order, i] { order.push_back(i); });
    }
  });
  sched.Run();

  std::vector<int> expected = {0, 1, 2};
  for (int i = 100; i < 200; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
  EXPECT_TRUE(sched.Idle());
}

}  // namespace
}  // namespace gvfs::sim
