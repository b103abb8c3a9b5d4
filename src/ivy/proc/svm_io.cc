#include "ivy/proc/svm_io.h"

#include <algorithm>
#include <optional>

namespace ivy::proc {

namespace {

/// A miss: charges the fault-handler overhead and blocks the running
/// process until a fault for `want` access to `page` completes.  The
/// caller re-checks: the grant may be revoked before the process runs.
void fault(Scheduler* sched, svm::Svm& svm, PageId page, svm::Access want) {
  Scheduler::charge_current(sched->simulator().costs().fault_handler);
  Pcb* pcb = Scheduler::current_pcb();
  const auto issue = [sched, &svm, page, want, pcb] {
    svm.request_access(page, want, [sched, pcb] { sched->make_ready(*pcb); });
  };
  // The post-block closure holds only a reference to `issue`, so it fits
  // std::function's inline buffer.  This stack frame outlives the call:
  // the dispatcher schedules the post-block event before the dispatch
  // that could resume the process, and at no later time.
  Scheduler::block_current([&issue] { issue(); });
}

}  // namespace

namespace detail {

std::span<std::byte> access_after_miss(Scheduler* sched, PageId page,
                                       std::size_t off, svm::Access want) {
  svm::Svm& svm = sched->svm();
  std::byte* frame = nullptr;
  do {
    fault(sched, svm, page, want);
  } while ((frame = svm.reference(page, want)) == nullptr);
  return {frame + off, svm.geometry().page_size - off};
}

std::span<std::byte> access_spanning(Scheduler* sched, SvmAddr addr,
                                     std::size_t len, svm::Access want) {
  svm::Svm& svm = sched->svm();
  const svm::Geometry& geo = svm.geometry();
  const Time mem_ref = sched->simulator().costs().mem_ref;
  const PageId first = geo.page_of(addr);
  const PageId last = geo.page_of(addr + len - 1);
  const std::size_t off = geo.offset_of(addr);
  for (;;) {
    bool faulted = false;
    for (PageId page = first; page <= last; ++page) {
      // The rights check itself is the memory reference cost.
      Scheduler::charge_current(mem_ref);
      while (svm.reference(page, want) == nullptr) {
        faulted = true;
        fault(sched, svm, page, want);
      }
    }
    // An access spanning pages is atomic only if every page was held
    // without an intervening block; any fault may have cost us an
    // earlier page of the span, and so may a later page's frame, when
    // materializing it evicted an earlier one.  Verify the whole run
    // again.
    bool held = !faulted;
    for (PageId page = first; held && page <= last; ++page) {
      held = svm.has_access(page, want);
    }
    if (held) return {svm.frames().peek(first) + off, geo.page_size - off};
  }
}

}  // namespace detail

void claim_access(SvmAddr addr, svm::Access want) {
  Scheduler* sched = Scheduler::current_scheduler();
  IVY_CHECK_MSG(sched != nullptr, "SVM access outside a process");
  svm::Svm& svm = sched->svm();
  const PageId page = svm.geometry().page_of(addr);
  Scheduler::charge_current(sched->simulator().costs().mem_ref);
  while (!svm.claim(page, want)) fault(sched, svm, page, want);
}

namespace {

/// Calls `copy(frame, done, n)` for each page after the first of the held
/// reference at `addr`: `n` bytes at `frame`, `done` bytes into the
/// reference.  ensure_access touched these frames, so this only peeks.
template <typename Copy>
void for_later_pages(SvmAddr addr, std::size_t done, std::size_t len,
                     Copy copy) {
  svm::Svm& svm = Scheduler::current_scheduler()->svm();
  const std::size_t page_size = svm.geometry().page_size;
  for (; done < len; done += page_size) {
    std::byte* frame = svm.frames().peek(svm.geometry().page_of(addr + done));
    IVY_CHECK(frame != nullptr);
    copy(frame, done, std::min(len - done, page_size));
  }
}

}  // namespace

void read_spanning(SvmAddr addr, std::span<const std::byte> head,
                   std::span<std::byte> out) {
  std::memcpy(out.data(), head.data(), head.size());
  for_later_pages(addr, head.size(), out.size(),
                  [out](const std::byte* frame, std::size_t done,
                        std::size_t n) {
                    std::memcpy(out.data() + done, frame, n);
                  });
}

void write_spanning(SvmAddr addr, std::span<std::byte> head,
                    std::span<const std::byte> in) {
  std::memcpy(head.data(), in.data(), head.size());
  for_later_pages(addr, head.size(), in.size(),
                  [in](std::byte* frame, std::size_t done, std::size_t n) {
                    std::memcpy(frame, in.data() + done, n);
                  });
}

void charge_compute(std::int64_t units) {
  Scheduler* sched = Scheduler::current_scheduler();
  IVY_CHECK_MSG(sched != nullptr, "charge_compute outside a process");
  const sim::CostModel& costs = sched->simulator().costs();
  Scheduler::charge_current(units * costs.compute_unit);
  // Compute-charge points are safe preemption points: no sync-primitive
  // page manipulation is in flight here, so letting queued events (page
  // requests, invalidations) interleave is exactly what the real machine
  // would do during a long computation.
  if (Scheduler::current_pcb()->fiber->pending_charge() >=
      costs.preempt_quantum) {
    sim::Fiber::yield(sim::YieldReason::kQuantum);
  }
}

void defer_from_fiber(std::function<void()> fn) {
  Scheduler* sched = Scheduler::current_scheduler();
  Pcb* pcb = Scheduler::current_pcb();
  IVY_CHECK_MSG(pcb != nullptr, "defer_from_fiber outside a process");
  sim::Simulator& sim = sched->simulator();
  sim.schedule_at(sim.now() + pcb->fiber->pending_charge(), std::move(fn));
}

net::Message blocking_request(NodeId dst, net::MsgKind kind,
                              net::Payload payload) {
  Scheduler* sched = Scheduler::current_scheduler();
  Pcb* pcb = Scheduler::current_pcb();
  IVY_CHECK_MSG(pcb != nullptr, "blocking_request outside a process");
  // The locals live on the fiber stack, which stays alive while blocked.
  std::optional<net::Message> result;
  Scheduler::block_current([sched, pcb, dst, kind, &result,
                            payload = std::move(payload)]() mutable {
    sched->rpc().request(dst, kind, std::move(payload),
                         [sched, pcb, &result](net::Message&& reply) {
                           result = std::move(reply);
                           sched->make_ready(*pcb);
                         });
  });
  IVY_CHECK(result.has_value());
  return std::move(*result);
}

}  // namespace ivy::proc
