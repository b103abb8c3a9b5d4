// A switch is _setjmp/_longjmp, which keep no signal mask, so it makes
// no system call.  Under _FORTIFY_SOURCE glibc turns _longjmp into
// __longjmp_chk, which aborts any jump to a stack pointer below the
// current one ("longjmp causes uninitialized stack frame"), and a fiber's
// stack lies below the stack that resumes it.  This file makes no
// fortified buffer call, so switching fortification off here loses no
// check.  The #undef must precede every #include.
#undef _FORTIFY_SOURCE

#include "ivy/sim/fiber.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>

#include "ivy/base/check.h"

#if defined(__SANITIZE_ADDRESS__)
#define IVY_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define IVY_FIBER_ASAN 1
#endif
#endif
#ifdef IVY_FIBER_ASAN
#include <sanitizer/common_interface_defs.h>
#endif

namespace ivy::sim {
namespace {

// The simulation is single-threaded; `thread_local` keeps the door open
// for running independent simulators on different host threads.
thread_local Fiber* g_current_fiber = nullptr;
thread_local Fiber* g_starting_fiber = nullptr;

std::size_t page_bytes() {
  static const auto bytes = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return bytes;
}

// AddressSanitizer must hear of every stack switch, or the no-return
// hook in its _longjmp takes a fiber stack for part of the thread stack.
// `bottom` and `size` name the stack being entered; `fake_stack_save`
// keeps the stack being left, or is null when that stack is done.
void start_switch([[maybe_unused]] void** fake_stack_save,
                  [[maybe_unused]] const void* bottom,
                  [[maybe_unused]] std::size_t size) {
#ifdef IVY_FIBER_ASAN
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#endif
}

// Called on arrival; `bottom_old`/`size_old` receive the stack just left.
void finish_switch([[maybe_unused]] void* fake_stack_save,
                   [[maybe_unused]] const void** bottom_old,
                   [[maybe_unused]] std::size_t* size_old) {
#ifdef IVY_FIBER_ASAN
  __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#endif
}

}  // namespace

Fiber::Fiber(Body body)
    : body_(std::move(body)), block_(new std::byte[kDefaultStackBytes]) {
  IVY_CHECK(body_ != nullptr);
  // The guard is the block's lowest whole page, so an overflow faults
  // there instead of running into the heap below.  The block is a plain
  // heap allocation, not a mapping of its own: a freed stack stays in the
  // heap, where the next Runtime's tables reuse it without faulting in
  // fresh pages.
  const std::size_t page = page_bytes();
  const auto base = reinterpret_cast<std::uintptr_t>(block_.get());
  guard_ = block_.get() + (page - base % page) % page;
  IVY_CHECK_EQ(mprotect(guard_, page, PROT_NONE), 0);
  std::byte* const stack = guard_ + page;
  IVY_CHECK_EQ(getcontext(&first_frame_), 0);
  first_frame_.uc_stack.ss_sp = stack;
  first_frame_.uc_stack.ss_size =
      static_cast<std::size_t>(block_.get() + kDefaultStackBytes - stack);
  first_frame_.uc_link = nullptr;  // fibers never fall off the trampoline
  // makecontext only passes int arguments portably, so the fiber pointer
  // travels through g_starting_fiber instead (safe: resume() sets it
  // immediately before entering, single-threaded per simulator).
  makecontext(&first_frame_,
              reinterpret_cast<void (*)()>(&Fiber::trampoline), 0);
}

Fiber::~Fiber() {
  // Destroying a live fiber would leak whatever its stack owns.  All
  // call sites join processes before teardown; enforce it.
  IVY_CHECK_MSG(!started_ || finished(),
                "fiber destroyed while suspended mid-execution");
  // The heap may write anywhere in the block once it takes it back.
  IVY_CHECK_EQ(mprotect(guard_, page_bytes(), PROT_READ | PROT_WRITE), 0);
}

void Fiber::trampoline() {
  Fiber* self = g_starting_fiber;
  g_starting_fiber = nullptr;
  IVY_CHECK(self != nullptr);
  self->arrived(nullptr);
  self->body_();
  // Returning from the body means the lightweight process terminated.
  self->last_reason_ = YieldReason::kFinished;
  g_current_fiber = nullptr;
  self->jump_to_resumer(nullptr);
}

void Fiber::arrived(void* fake_stack) {
  finish_switch(fake_stack, &resumer_stack_bottom_, &resumer_stack_size_);
}

void Fiber::jump_to_resumer(void** fake_stack_save) {
  start_switch(fake_stack_save, resumer_stack_bottom_, resumer_stack_size_);
  _longjmp(resumer_jmp_, 1);
}

YieldReason Fiber::resume() {
  IVY_CHECK_MSG(g_current_fiber == nullptr,
                "resume() called from inside a fiber");
  IVY_CHECK_MSG(!finished(), "resume() on a finished fiber");
  g_current_fiber = this;
  last_reason_ = YieldReason::kRunning;
  // Saved on every resume: the resumer's host stack depth may differ each
  // time (a migrated process is dispatched by another node's scheduler).
  if (_setjmp(resumer_jmp_) == 0) {
    start_switch(&resumer_fake_stack_, first_frame_.uc_stack.ss_sp,
                 first_frame_.uc_stack.ss_size);
    if (started_) _longjmp(fiber_jmp_, 1);
    started_ = true;
    g_starting_fiber = this;
    setcontext(&first_frame_);
    IVY_UNREACHABLE("setcontext into a new fiber failed");
  }
  finish_switch(resumer_fake_stack_, nullptr, nullptr);
  IVY_CHECK_MSG(last_reason_ != YieldReason::kRunning,
                "fiber switched out without a yield reason");
  return last_reason_;
}

void Fiber::yield(YieldReason reason) {
  Fiber* self = g_current_fiber;
  IVY_CHECK_MSG(self != nullptr, "yield() outside any fiber");
  IVY_CHECK(reason != YieldReason::kRunning);
  self->last_reason_ = reason;
  g_current_fiber = nullptr;
  if (_setjmp(self->fiber_jmp_) == 0) {
    self->jump_to_resumer(&self->fiber_fake_stack_);
  }
  // resume() has set g_current_fiber back to this fiber.
  self->arrived(self->fiber_fake_stack_);
}

Fiber* Fiber::current() noexcept { return g_current_fiber; }

}  // namespace ivy::sim
