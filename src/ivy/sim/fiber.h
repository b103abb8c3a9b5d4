// Stackful coroutines — the execution vehicle for IVY lightweight
// processes.
//
// The paper's processes are "lightweight": they share one address space
// and a context switch costs a few procedure calls.  We realize them as
// fibers driven by the single-threaded simulator, each switch a user-space
// register save and jump with no system call.  A fiber runs host code
// (the application kernel) until it performs an operation that must be
// serialized with the rest of the simulated machine — a page fault, an
// eventcount wait, an explicit yield — at which point it switches back to
// the scheduler, carrying a YieldReason.
//
// The whole simulation is single-threaded, so fibers are cooperatively
// scheduled and runs are deterministic.
#pragma once

#include <csetjmp>
#include <cstddef>
#include <functional>
#include <memory>
#include <ucontext.h>

#include "ivy/base/types.h"

namespace ivy::sim {

/// Why a fiber handed control back to the scheduler.
enum class YieldReason : std::uint8_t {
  kRunning,   ///< not yielded (internal initial state)
  kBlocked,   ///< waiting on an external completion (fault, eventcount)
  kQuantum,   ///< voluntary preemption point; still runnable
  kFinished,  ///< fiber body returned
};

/// A stackful coroutine.  Non-copyable, non-movable (the running context
/// stores pointers into the object).
class Fiber {
 public:
  using Body = std::function<void()>;

  explicit Fiber(Body body);
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switches from the scheduler into the fiber; returns the reason the
  /// fiber yielded.  Must not be called from inside any fiber, and must
  /// not be called again after kFinished.
  YieldReason resume();

  /// Yields from inside the currently running fiber back to its resumer.
  /// kFinished is reserved for internal use.
  static void yield(YieldReason reason);

  /// The fiber currently executing, or nullptr when the scheduler runs.
  [[nodiscard]] static Fiber* current() noexcept;

  [[nodiscard]] bool finished() const noexcept {
    return last_reason_ == YieldReason::kFinished;
  }
  [[nodiscard]] YieldReason last_reason() const noexcept {
    return last_reason_;
  }

  /// Accumulates virtual CPU time consumed since the last yield.  The
  /// scheduler drains this when the fiber yields and advances the node
  /// clock, so all externally visible actions carry exact timestamps.
  void charge(Time t) noexcept { pending_charge_ += t; }
  [[nodiscard]] Time take_charge() noexcept {
    Time t = pending_charge_;
    pending_charge_ = 0;
    return t;
  }
  [[nodiscard]] Time pending_charge() const noexcept { return pending_charge_; }

  /// Host stack bytes per fiber.  Their lowest whole page is a PROT_NONE
  /// guard, so an overflow faults instead of corrupting the heap.
  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;

 private:
  static void trampoline();
  /// Jumps back into the resume() that entered this fiber.
  /// `fake_stack_save` is null when this fiber will never run again.
  [[noreturn]] void jump_to_resumer(void** fake_stack_save);
  /// AddressSanitizer bookkeeping on arrival in this fiber.
  void arrived(void* fake_stack);

  Body body_;
  std::unique_ptr<std::byte[]> block_;  ///< holds the guard and the stack
  std::byte* guard_ = nullptr;          ///< PROT_NONE page below the stack
  ucontext_t first_frame_{};    ///< the trampoline's; entered once
  std::jmp_buf fiber_jmp_{};    ///< where a suspended fiber continues
  std::jmp_buf resumer_jmp_{};  ///< where the running fiber's resume() returns
  // AddressSanitizer's view of the two stacks; unused in other builds.
  void* fiber_fake_stack_ = nullptr;
  void* resumer_fake_stack_ = nullptr;
  const void* resumer_stack_bottom_ = nullptr;
  std::size_t resumer_stack_size_ = 0;
  YieldReason last_reason_ = YieldReason::kRunning;
  Time pending_charge_ = 0;
  bool started_ = false;
};

}  // namespace ivy::sim
