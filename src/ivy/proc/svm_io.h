// Blocking shared-virtual-memory access from inside a process.
//
// This is the moral equivalent of the MMU + fault-handler path: every
// reference checks the local page table (one mem_ref of virtual time per
// page, one Svm::reference per page); a miss charges the fault-handler
// overhead, blocks the process, and lets the memory mapping manager run
// the coherence protocol.  Access can be revoked between the grant and the
// process actually running again, so the fault loop re-checks.  As with
// the MMU, a hit costs the host next to nothing: a one-page hit is inline
// here, one rights check on one entry of the node's translation cache
// (Svm::reference), while a miss and a reference that spans pages go out
// of line to the loops in svm_io.cc.  Either way the data moves through
// the frame returned.
#pragma once

#include <cstring>
#include <span>

#include "ivy/proc/scheduler.h"

namespace ivy::proc {

namespace detail {

/// ensure_access's one-page miss: faults until `page` is held, then
/// returns its frame bytes from `off`.  The hit already charged mem_ref.
std::span<std::byte> access_after_miss(Scheduler* sched, PageId page,
                                       std::size_t off, svm::Access want);
/// ensure_access for a reference that spans pages.
std::span<std::byte> access_spanning(Scheduler* sched, SvmAddr addr,
                                     std::size_t len, svm::Access want);

}  // namespace detail

/// Ensures `want` access to every page of `addr`..`addr+len` at once and
/// returns the frame bytes from `addr` to the end of its page.  Must be
/// called from inside a process.  Forced inline, as are svm_read and
/// svm_write: GCC's size limits would otherwise leave an out-of-line copy
/// in the large kernels, and every hit would pay the call.
[[gnu::always_inline]] inline std::span<std::byte> ensure_access(
    SvmAddr addr, std::size_t len, svm::Access want) {
  Scheduler* sched = Scheduler::current_scheduler();
  IVY_CHECK_MSG(sched != nullptr, "SVM access outside a process");
  IVY_CHECK_GT(len, 0u);
  svm::Svm& svm = sched->svm();
  const svm::Geometry& geo = svm.geometry();
  const PageId page = geo.page_of(addr);
  const std::size_t off = geo.offset_of(addr);
  if (len > geo.page_size - off) {
    return detail::access_spanning(sched, addr, len, want);
  }
  // The rights check itself is the memory reference cost.
  Scheduler::charge_current(sched->simulator().costs().mem_ref);
  std::byte* frame = svm.reference(page, want);
  if (frame == nullptr) [[unlikely]] {
    return detail::access_after_miss(sched, page, off, want);
  }
  return {frame + off, geo.page_size - off};
}

/// Ensures `want` access to the page holding `addr` without touching its
/// frame: a process's first touch of its stack page, whose body runs on
/// a host stack.  Charges like a one-page ensure_access.
void claim_access(SvmAddr addr, svm::Access want);

/// Copy of a reference that spans pages: `head` is what ensure_access
/// returned for it; the rest comes from the frames of the later pages.
void read_spanning(SvmAddr addr, std::span<const std::byte> head,
                   std::span<std::byte> out);
void write_spanning(SvmAddr addr, std::span<std::byte> head,
                    std::span<const std::byte> in);

/// Typed read at `addr`.  T must be trivially copyable.
template <typename T>
[[nodiscard, gnu::always_inline]] inline T svm_read(SvmAddr addr) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  const std::span<std::byte> head =
      ensure_access(addr, sizeof(T), svm::Access::kRead);
  if (head.size() >= sizeof(T)) {
    std::memcpy(&value, head.data(), sizeof(T));
  } else {
    read_spanning(addr, head, std::as_writable_bytes(std::span(&value, 1)));
  }
  return value;
}

/// Typed write at `addr`.
template <typename T>
[[gnu::always_inline]] inline void svm_write(SvmAddr addr, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::span<std::byte> head =
      ensure_access(addr, sizeof(T), svm::Access::kWrite);
  if (head.size() >= sizeof(T)) {
    std::memcpy(head.data(), &value, sizeof(T));
  } else {
    write_spanning(addr, head, std::as_bytes(std::span(&value, 1)));
  }
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
                                            net::Payload payload);

}  // namespace ivy::proc
