// EventFn: the scheduler's callback type. A move-only callable with inline
// storage sized for every capture set the simulator's hot paths create —
// coroutine-handle resumptions, RPC reply timeout closures, and whole-Packet
// delivery closures all fit — so posting an event performs no heap
// allocation. Larger callables fall back to the heap transparently.
//
// This replaces std::function in the event queue: std::function's inline
// buffer (16 bytes in libstdc++) spills every capture beyond a single
// pointer, which put two mallocs on the path of every simulated packet.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace gvfs::sim {

class EventFn {
 public:
  /// Sized so a packet-delivery closure ([this, Packet]) stays inline.
  static constexpr std::size_t kInlineSize = 64;

  EventFn() = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor): callable adaptor
    if constexpr (kInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  EventFn(EventFn&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, o.storage_);
      o.ops_ = nullptr;
    }
  }

  EventFn& operator=(EventFn&& o) noexcept {
    if (this != &o) {
      Reset();
      ops_ = o.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, o.storage_);
        o.ops_ = nullptr;
      }
    }
    return *this;
  }

  /// Direct assignment from a callable: constructs in place, skipping the
  /// temporary-EventFn + relocate round trip (one indirect call + up to 64
  /// bytes of copying per scheduled event on the hot path).
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventFn& operator=(F&& f) {
    Reset();
    if constexpr (kInline<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { Reset(); }

  /// Destroys the held callable (used by Scheduler::Cancel to release
  /// captured resources immediately, long before the tombstone is popped).
  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src);  // move-construct into dst, destroy src
    void (*destroy)(void*);
  };

  template <typename D>
  static constexpr bool kInline = sizeof(D) <= kInlineSize &&
                                  alignof(D) <= alignof(std::max_align_t) &&
                                  std::is_nothrow_move_constructible_v<D>;

  template <typename D>
  static D* InlineAt(void* p) {
    return std::launder(reinterpret_cast<D*>(p));
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* p) { (*InlineAt<D>(p))(); },
      [](void* dst, void* src) {
        D* s = InlineAt<D>(src);
        ::new (dst) D(std::move(*s));
        s->~D();
      },
      [](void* p) { InlineAt<D>(p)->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* p) { (**InlineAt<D*>(p))(); },
      // The stored D* is trivially destructible; relocation just copies it.
      [](void* dst, void* src) { ::new (dst) D*(*InlineAt<D*>(src)); },
      [](void* p) { delete *InlineAt<D*>(p); },
  };

  alignas(std::max_align_t) std::byte storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace gvfs::sim
