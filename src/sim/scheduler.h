// Discrete-event scheduler: the single-threaded virtual-time core of the
// simulator. Every simulated activity (application processes, RPC transfers,
// cache-consistency pollers, delegation callbacks) is driven by events queued
// here. Ties at the same timestamp run in FIFO order, so runs are fully
// deterministic: execution order is the total order (time, seq), where seq is
// the post sequence number.
//
// Hot-path structure (this is the innermost loop of every benchmark):
//   - a 4-ary implicit min-heap of 24-byte (time, seq, slot) nodes — shallower
//     than a binary heap and far cheaper to sift than a std::priority_queue of
//     closures, since callbacks never move during sifting;
//   - a slab of EventFn slots with a freelist, so callback storage is
//     recycled rather than allocated per event (EventFn itself keeps captures
//     inline; see callback.h);
//   - a FIFO ready queue for events posted at the current timestamp (the
//     overwhelmingly common "resume this coroutine now" case from RPC
//     replies, Condition, and Mutex), which bypasses heap sifting entirely.
//     Ordering against same-timestamp heap events is preserved by comparing
//     (time, seq) across both structures before every pop.
//
// Events can be cancelled (Cancel(EventId)): the callback is destroyed
// immediately and the queue node becomes a tombstone that is skipped — and
// does not advance the clock — when it surfaces. This lets RPC reply
// timeouts vanish on completion instead of lingering as no-op events.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.h"
#include "sim/callback.h"

namespace gvfs::sim {

/// Handle to a scheduled event. Default-constructed ids are null; a handle
/// becomes stale (Cancel returns false) once its event has run or been
/// cancelled.
class EventId {
 public:
  EventId() = default;
  bool valid() const { return gen_ != 0; }

 private:
  friend class Scheduler;
  EventId(std::uint32_t slot, std::uint32_t gen) : slot_(slot), gen_(gen) {}
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Current simulated time.
  SimTime Now() const { return now_; }

  /// Stable pointer to the clock, for components (e.g. MemFs timestamps)
  /// that need to read the current time without holding the scheduler.
  const SimTime* NowPtr() const { return &now_; }

  /// Schedules fn to run at absolute simulated time t (>= Now()).
  /// Returns a handle usable with Cancel().
  template <typename F>
  EventId At(SimTime t, F&& fn) {
    return Post(t < now_ ? now_ : t, std::forward<F>(fn));
  }

  /// Schedules fn to run after duration d.
  template <typename F>
  EventId After(Duration d, F&& fn) {
    return At(now_ + d, std::forward<F>(fn));
  }

  /// Cancels a pending event: its callback is destroyed now and it will
  /// never run. Returns false if the handle is null, stale, or already ran.
  bool Cancel(EventId id) {
    if (!id.valid() || id.slot_ >= slot_count_) return false;
    Slot& slot = SlotAt(id.slot_);
    if (slot.gen != id.gen_ || !slot.armed) return false;
    slot.armed = false;
    slot.fn.Reset();
    --live_;
    return true;
  }

  /// Runs events until the queue drains or max_events is hit.
  /// Returns the number of events processed (cancelled events don't count).
  std::uint64_t Run(std::uint64_t max_events = UINT64_MAX) {
    std::uint64_t processed = 0;
    while (processed < max_events && Step()) ++processed;
    return processed;
  }

  /// Runs all events with timestamp <= t, then advances the clock to t.
  void RunUntil(SimTime t) {
    SimTime next;
    while (PeekTime(&next) && next <= t) Step();
    if (now_ < t) now_ = t;
  }

  bool Idle() const { return live_ == 0; }
  std::size_t PendingEvents() const { return live_; }

 private:
  /// Queue node: 24 bytes, trivially copyable. `slot` indexes the slab.
  struct Node {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  struct Slot {
    EventFn fn;
    std::uint32_t gen = 1;
    bool armed = false;
  };

  static bool Before(const Node& a, const Node& b) {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }

  template <typename F>
  EventId Post(SimTime t, F&& fn) {
    std::uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
    } else {
      idx = slot_count_;
      if ((idx >> kChunkShift) == chunks_.size()) {
        chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
      }
      ++slot_count_;
    }
    Slot& slot = SlotAt(idx);
    slot.fn = std::forward<F>(fn);  // constructed in place in the slot
    slot.armed = true;
    const std::uint64_t seq = next_seq_++;
    // Events posted for "now" keep FIFO order by construction, so they skip
    // heap sifting; the pop path merges the two structures by (time, seq).
    if (t <= now_) {
      ready_.Push(Node{now_, seq, idx});
    } else {
      HeapPush(Node{t, seq, idx});
    }
    ++live_;
    return EventId(idx, slot.gen);
  }

  /// Pops the globally next node (ready vs. heap merged by (time, seq)).
  /// Pre: at least one node is queued.
  Node PopNode() {
    if (!ready_.Empty() &&
        (heap_.empty() || !Before(heap_.front(), ready_.Front()))) {
      Node n = ready_.Front();
      ready_.Pop();
      return n;
    }
    Node n = heap_.front();
    HeapPop();
    return n;
  }

  void FreeSlot(std::uint32_t idx) {
    Slot& slot = SlotAt(idx);
    if (++slot.gen == 0) slot.gen = 1;  // 0 is the null-handle generation
    free_.push_back(idx);
  }

  /// Runs the next live event; skips tombstones. False when nothing is left.
  bool Step() {
    while (!ready_.Empty() || !heap_.empty()) {
      Node node = PopNode();
      Slot& slot = SlotAt(node.slot);
      if (!slot.armed) {  // cancelled: free the tombstone, leave the clock
        FreeSlot(node.slot);
        continue;
      }
      slot.armed = false;
      --live_;
      now_ = node.time;
      // Chunked slot storage is address-stable, so the callback runs in
      // place (no relocate). The slot is released only afterwards: a Post
      // from inside the callback can never reuse the executing storage.
      slot.fn();
      slot.fn.Reset();
      FreeSlot(node.slot);
      return true;
    }
    return false;
  }

  /// Time of the next live event, purging leading tombstones. False if none.
  bool PeekTime(SimTime* t) {
    while (!ready_.Empty() || !heap_.empty()) {
      const Node* next;
      if (!ready_.Empty() &&
          (heap_.empty() || !Before(heap_.front(), ready_.Front()))) {
        next = &ready_.Front();
      } else {
        next = &heap_.front();
      }
      if (SlotAt(next->slot).armed) {
        *t = next->time;
        return true;
      }
      Node node = PopNode();
      FreeSlot(node.slot);
    }
    return false;
  }

  // 4-ary implicit heap over (time, seq), hole-sifted to halve the copies.
  void HeapPush(Node n) {
    heap_.push_back(n);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!Before(n, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = n;
  }

  void HeapPop() {
    const Node last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return;
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = (i << 2) + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = first + 4 < n ? first + 4 : n;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (Before(heap_[c], heap_[best])) best = c;
      }
      if (!Before(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }

  /// FIFO of queue nodes as a power-of-2 ring buffer. The ready queue sees a
  /// push and a pop per same-timestamp event (the most frequent scheduler
  /// operation after heap sifting), and a flat ring does each in a handful of
  /// instructions — no std::deque block map to chase.
  class NodeRing {
   public:
    bool Empty() const { return head_ == tail_; }
    const Node& Front() const { return ring_[head_ & mask_]; }
    void Pop() { ++head_; }

    void Push(const Node& n) {
      if (tail_ - head_ == ring_.size()) Grow();
      ring_[tail_ & mask_] = n;
      ++tail_;
    }

   private:
    void Grow() {
      const std::size_t cap = ring_.empty() ? 16 : ring_.size() * 2;
      std::vector<Node> next(cap);
      std::size_t n = 0;
      for (std::size_t i = head_; i != tail_; ++i, ++n) {
        next[n] = ring_[i & mask_];
      }
      ring_ = std::move(next);
      mask_ = cap - 1;
      head_ = 0;
      tail_ = n;
    }

    std::vector<Node> ring_;
    std::size_t mask_ = 0;
    std::size_t head_ = 0;  // monotonically increasing; masked on access
    std::size_t tail_ = 0;
  };

  // Slot slab: fixed-size chunks, so slot addresses never move. Growth never
  // relocates existing EventFns, and Step can run callbacks in place.
  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  Slot& SlotAt(std::uint32_t idx) {
    return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::vector<Node> heap_;
  NodeRing ready_;  // events due at now_, in seq (FIFO) order
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t slot_count_ = 0;
  std::vector<std::uint32_t> free_;
};

}  // namespace gvfs::sim
