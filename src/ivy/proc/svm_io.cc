#include "ivy/proc/svm_io.h"

#include <optional>

namespace ivy::proc {

void ensure_access(SvmAddr addr, std::size_t len, svm::Access want) {
  Scheduler* sched = Scheduler::current_scheduler();
  IVY_CHECK_MSG(sched != nullptr, "SVM access outside a process");
  svm::Svm& svm = sched->svm();
  const svm::Geometry& geo = svm.geometry();
  IVY_CHECK_GT(len, 0u);

  const PageId first = geo.page_of(addr);
  const PageId last = geo.page_of(addr + len - 1);
  for (;;) {
    bool faulted = false;
    for (PageId page = first; page <= last; ++page) {
      // The rights check itself is the memory reference cost.
      Scheduler::charge_current(sched->simulator().costs().mem_ref);
      while (!svm.has_access(page, want)) {
        faulted = true;
        Scheduler::charge_current(sched->simulator().costs().fault_handler);
        Pcb* pcb = Scheduler::current_pcb();
        Scheduler::block_current([sched, &svm, page, want, pcb] {
          svm.request_access(page, want,
                             [sched, pcb] { sched->make_ready(*pcb); });
        });
        // Re-check: the grant may have been revoked before we ran again.
      }
      // The access happened; release any post-fault hold on the page.
      svm.consume_grace(page);
    }
    // An access spanning pages is atomic only if every page was held
    // without an intervening block; any fault may have cost us an
    // earlier page of the span, so verify the whole run again.
    if (!faulted || first == last) return;
  }
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

net::Message blocking_request(NodeId dst, net::MsgKind kind, std::any payload,
                              std::uint32_t wire_bytes) {
  Scheduler* sched = Scheduler::current_scheduler();
  Pcb* pcb = Scheduler::current_pcb();
  IVY_CHECK_MSG(pcb != nullptr, "blocking_request outside a process");
  // The locals live on the fiber stack, which stays alive while blocked.
  std::optional<net::Message> result;
  Scheduler::block_current([sched, pcb, dst, kind,
                            payload = std::move(payload), wire_bytes,
                            &result]() mutable {
    sched->rpc().request(dst, kind, std::move(payload), wire_bytes,
                         [sched, pcb, &result](net::Message&& reply) {
                           result = std::move(reply);
                           sched->make_ready(*pcb);
                         });
  });
  IVY_CHECK(result.has_value());
  return std::move(*result);
}

}  // namespace ivy::proc
