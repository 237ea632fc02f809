// Lazy coroutine Task<T> used for every simulated process.
//
// Tasks are started by co_awaiting them (symmetric transfer) or by
// sim::Spawn() for detached top-level processes. Completion resumes the
// awaiting coroutine directly; timing is introduced only by explicit
// awaitables (Scheduler-driven sleeps, network transfers, sync primitives),
// so pure computation takes zero simulated time.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <optional>
#include <utility>
#include <vector>

namespace gvfs::sim {

template <typename T>
class Task;

namespace detail {

/// Size-bucketed freelist for coroutine frames. Every simulated RPC spawns
/// and destroys a handful of frames, and the working-set of frame sizes is a
/// few dozen distinct values, so recycling them removes one malloc/free pair
/// per frame from the hot path. Single-threaded by design, like the rest of
/// the simulator. Frames above the pooled range fall through to operator new.
struct FrameArena {
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kMaxPooled = 2048;
  static constexpr std::size_t kBuckets = kMaxPooled / kGranule;

  static std::vector<void*>* Pools() {
    // Never destroyed, so pooled frames stay reachable at exit: a static
    // array's destructor would free the lists before LeakSanitizer's exit
    // scan, which then reported every pooled frame as leaked.
    static auto* pools = new std::vector<void*>[kBuckets];
    return pools;
  }

  static void* Alloc(std::size_t n) {
    const std::size_t bucket = (n + kGranule - 1) / kGranule;
    if (bucket == 0 || bucket > kBuckets) return ::operator new(n);
    std::vector<void*>& pool = Pools()[bucket - 1];
    if (!pool.empty()) {
      void* p = pool.back();
      pool.pop_back();
      return p;
    }
    return ::operator new(bucket * kGranule);
  }

  static void Free(void* p, std::size_t n) {
    const std::size_t bucket = (n + kGranule - 1) / kGranule;
    if (bucket == 0 || bucket > kBuckets) {
      ::operator delete(p);
      return;
    }
    Pools()[bucket - 1].push_back(p);
  }
};

template <typename T>
struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;
  /// Set by Spawn: the frame owns itself and self-destroys at completion
  /// (no Task object is left to destroy it).
  bool detached = false;

  // Route coroutine-frame storage through the freelist. The compiler calls
  // these on the promise type when allocating/freeing the whole frame.
  static void* operator new(std::size_t n) { return FrameArena::Alloc(n); }
  static void operator delete(void* p, std::size_t n) {
    FrameArena::Free(p, n);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      auto& p = h.promise();
      if (p.detached) {
        // Detached processes may not leak exceptions (same contract the old
        // RunDetached wrapper enforced by rethrowing into a noexcept frame).
        if (p.exception) std::terminate();
        h.destroy();
        return std::noop_coroutine();
      }
      auto cont = p.continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { exception = std::current_exception(); }
};

}  // namespace detail

/// A lazily-started coroutine returning T. Move-only; the Task owns the
/// coroutine frame and destroys it when the Task is destroyed.
template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase<T> {
    std::optional<T> value;
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_value(T v) { value.emplace(std::move(v)); }
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      Destroy();
      handle_ = std::exchange(o.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }

  struct Awaiter {
    std::coroutine_handle<promise_type> handle;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
      handle.promise().continuation = cont;
      return handle;  // start the task
    }
    T await_resume() {
      auto& p = handle.promise();
      // gvfs-lint: allow(throw-in-protocol): the one sanctioned rethrow — propagates a child task's stored exception across the coroutine boundary instead of losing it
      if (p.exception) std::rethrow_exception(p.exception);
      assert(p.value.has_value());
      return std::move(*p.value);
    }
  };

  Awaiter operator co_await() && {
    assert(handle_);
    return Awaiter{handle_};
  }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase<void> {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() {}
  };

  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, {})) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      Destroy();
      handle_ = std::exchange(o.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }

  struct Awaiter {
    std::coroutine_handle<promise_type> handle;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
      handle.promise().continuation = cont;
      return handle;
    }
    void await_resume() {
      if (handle.promise().exception) {
        // gvfs-lint: allow(throw-in-protocol): same sanctioned rethrow as Task<T>, for the void specialization
        std::rethrow_exception(handle.promise().exception);
      }
    }
  };

  Awaiter operator co_await() && {
    assert(handle_);
    return Awaiter{handle_};
  }

  /// Transfers frame ownership out of the Task (used by Spawn).
  std::coroutine_handle<promise_type> Release() {
    return std::exchange(handle_, {});
  }

 private:
  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

/// Starts a task as a detached top-level simulated process. The task begins
/// executing immediately (until its first suspension point). The frame owns
/// itself from here on and self-destroys at completion — no wrapper
/// coroutine, no extra allocation.
inline void Spawn(Task<void> task) {
  auto h = task.Release();
  assert(h);
  h.promise().detached = true;
  h.resume();
}

}  // namespace gvfs::sim
