// Blocking shared-virtual-memory access from inside a process.
//
// This is the moral equivalent of the MMU + fault-handler path: every
// reference checks the local page table (one mem_ref of virtual time);
// a miss charges the fault-handler overhead, blocks the process, and lets
// the memory mapping manager run the coherence protocol.  Access can be
// revoked between the grant and the process actually running again, so
// the ensure loop re-checks.
#pragma once

#include <cstring>
#include <span>

#include "ivy/proc/scheduler.h"

namespace ivy::proc {

/// Ensures `want` access to the page holding `addr`..`addr+len` (may span
/// pages).  Must be called from inside a process.
void ensure_access(SvmAddr addr, std::size_t len, svm::Access want);

/// Typed read at `addr`.  T must be trivially copyable.
template <typename T>
[[nodiscard]] T svm_read(SvmAddr addr) {
  static_assert(std::is_trivially_copyable_v<T>);
  ensure_access(addr, sizeof(T), svm::Access::kRead);
  T value;
  Scheduler::current_scheduler()->svm().read_bytes(
      addr, std::as_writable_bytes(std::span(&value, 1)));
  return value;
}

/// Typed write at `addr`.
template <typename T>
void svm_write(SvmAddr addr, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  ensure_access(addr, sizeof(T), svm::Access::kWrite);
  Scheduler::current_scheduler()->svm().write_bytes(
      addr, std::as_bytes(std::span(&value, 1)));
}

/// Charges `units` of application compute to the running process.
void charge_compute(std::int64_t units);

/// Schedules `fn` at the running process's *current* virtual time (the
/// dispatch time plus CPU consumed so far).  Used by primitives that must
/// emit messages mid-execution (e.g. eventcount wakeups) without waiting
/// for the next yield.
void defer_from_fiber(std::function<void()> fn);

/// Synchronous remote operation from inside a process: sends the request,
/// blocks the process, returns the reply.
[[nodiscard]] net::Message blocking_request(NodeId dst, net::MsgKind kind,
                                            std::any payload,
                                            std::uint32_t wire_bytes);

}  // namespace ivy::proc
