// Discrete-event simulation engine.
//
// A single global event queue in virtual time drives everything: message
// deliveries, process resumptions, load-balance timers, retransmission
// checks.  Events at equal timestamps run in scheduling order (a
// monotonically increasing sequence number breaks ties), which makes every
// run bit-reproducible.
//
// The queue allocates nothing per event.  Each scheduled closure is built
// in place in a fixed-size slot of a chunked slab; slots never move, and
// freed ones are reused.  A binary heap of plain {at, seq, slot} keys
// orders the events by (at, seq), and each slot records its key's heap
// position, so a pending event can be cancelled in O(log n).
#pragma once

#include <sanitizer/asan_interface.h>

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "ivy/base/check.h"
#include "ivy/base/chunked_array.h"
#include "ivy/base/types.h"
#include "ivy/sim/cost_model.h"

namespace ivy::sim {

/// Names one scheduled event, for Simulator::cancel.  A default Timer
/// names none.
struct Timer {
  std::uint32_t slot = UINT32_MAX;
  std::uint64_t seq = 0;
};

class Simulator {
 public:
  /// Bytes an event's closure may take.  The largest, RemoteOp::reply's,
  /// holds `this`, a 112-byte net::Message and a 32-byte callback.
  static constexpr std::size_t kSlotBytes = 160;

  explicit Simulator(CostModel costs = {}) : costs_(costs) {}
  /// Destroys the closures of events still pending.
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] Time now() const noexcept { return now_; }
  [[nodiscard]] const CostModel& costs() const noexcept { return costs_; }

  /// Schedules `fn` at absolute virtual time `at` (>= now).
  template <typename F>
  Timer schedule_at(Time at, F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kSlotBytes,
                  "an event closure must fit Simulator::kSlotBytes");
    static_assert(alignof(Fn) <= alignof(std::max_align_t));
    IVY_CHECK_GE(at, now_);
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_.at(slot);
    ::new (static_cast<void*>(s.storage)) Fn(std::forward<F>(fn));
    s.finish = &finish_closure<Fn>;
    const Key key{at, next_seq_++, slot};
    heap_.push_back(key);
    sift_up(heap_.size() - 1, key);
    return Timer{slot, key.seq};
  }

  /// Schedules `fn` `delay` nanoseconds from now.
  template <typename F>
  Timer schedule_after(Time delay, F&& fn) {
    IVY_CHECK_GE(delay, 0);
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  /// Removes a pending event and destroys its closure unrun.  Returns
  /// false, doing nothing, if the event already ran, is running, or was
  /// already cancelled (its slot may since hold a newer event).
  bool cancel(Timer timer);

  /// Runs events until the queue is empty.  Returns the final time.
  Time run_until_idle() {
    while (step()) {
    }
    return now_;
  }

  /// Runs events while `keep_going()` is true and events remain.
  template <typename Pred>
  Time run_while(Pred&& keep_going) {
    while (keep_going() && step()) {
    }
    return now_;
  }

  /// Executes the next event.  Returns false if the queue was empty.
  bool step() {
    if (heap_.empty()) return false;
    const Key top = heap_.front();
    erase_key(0);
    IVY_CHECK_GE(top.at, now_);
    now_ = top.at;
    ++executed_;
    // The slot stays taken while its closure runs, so events scheduled
    // meanwhile cannot overwrite it.
    Slot& s = slots_.at(top.slot);
    s.finish(s.storage, /*run=*/true);
    release_slot(top.slot);
    return true;
  }

  [[nodiscard]] bool idle() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return executed_;
  }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;

  struct Slot {
    /// Runs the closure in `storage` if `run`, then destroys it.
    void (*finish)(void* storage, bool run) = nullptr;
    /// Index of this slot's key in heap_, or kNone.
    std::uint32_t heap_pos = kNone;
    /// The next free slot while this one is free, or kNone.
    std::uint32_t next_free = kNone;
    alignas(std::max_align_t) unsigned char storage[kSlotBytes];
  };

  struct Key {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  template <typename Fn>
  static void finish_closure(void* storage, bool run) {
    Fn& fn = *std::launder(static_cast<Fn*>(storage));
    if (run) fn();
    fn.~Fn();
  }

  static bool before(const Key& a, const Key& b) noexcept {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }

  std::uint32_t acquire_slot() {
    if (free_head_ == kNone) return slot_count_++;
    const std::uint32_t slot = free_head_;
    Slot& s = slots_.at(slot);
    free_head_ = s.next_free;
    ASAN_UNPOISON_MEMORY_REGION(s.storage, kSlotBytes);
    return slot;
  }

  /// Frees a slot whose closure was destroyed.  Under ASan its storage is
  /// poisoned until reused, so a stale access to the closure is caught.
  void release_slot(std::uint32_t slot) {
    Slot& s = slots_.at(slot);
    ASAN_POISON_MEMORY_REGION(s.storage, kSlotBytes);
    s.next_free = free_head_;
    free_head_ = slot;
  }

  void place(std::size_t i, const Key& key) {
    heap_[i] = key;
    slots_.at(key.slot).heap_pos = static_cast<std::uint32_t>(i);
  }

  void sift_up(std::size_t i, const Key key) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(key, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, key);
  }

  void sift_down(std::size_t i, const Key key) {
    const std::size_t n = heap_.size();
    for (std::size_t child = 2 * i + 1; child < n; child = 2 * i + 1) {
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], key)) break;
      place(i, heap_[child]);
      i = child;
    }
    place(i, key);
  }

  /// Removes the key at heap index `i`; its slot stays taken.
  void erase_key(std::size_t i) {
    slots_.at(heap_[i].slot).heap_pos = kNone;
    const Key last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;
    if (i > 0 && before(last, heap_[(i - 1) / 2])) {
      sift_up(i, last);
    } else {
      sift_down(i, last);
    }
  }

  CostModel costs_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Key> heap_;
  ChunkedArray<Slot, 64> slots_{Slot{}};
  std::uint32_t slot_count_ = 0;
  std::uint32_t free_head_ = kNone;
};

}  // namespace ivy::sim
