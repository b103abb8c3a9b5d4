#include "ivy/sync/svm_lock.h"

#include "ivy/proc/svm_io.h"

namespace ivy::sync {
namespace {

constexpr SvmAddr kWordOff = 0;
constexpr SvmAddr kNWaitersOff = 8;
constexpr SvmAddr kRecordsOff = SvmLock::kHeaderBytes;

}  // namespace

void SvmLock::acquire_page() {
  proc::Scheduler* sched = proc::Scheduler::current_scheduler();
  IVY_CHECK_MSG(sched != nullptr, "lock op outside a process");
  proc::ensure_access(base_, kHeaderBytes, svm::Access::kWrite);
  const Time tas = sched->simulator().costs().test_and_set;
  proc::Scheduler::charge_current(tas);
  sched->emit({.kind = proc::EventKind::kSpinCharged, .span = tas});
}

bool SvmLock::try_lock() {
  proc::Scheduler* sched = proc::Scheduler::current_scheduler();
  acquire_page();
  if (proc::svm_read<std::uint64_t>(base_ + kWordOff) != 0) {
    sched->emit({.kind = proc::EventKind::kLockSpun});
    return false;
  }
  proc::svm_write<std::uint64_t>(base_ + kWordOff, 1);
  sched->emit({.kind = proc::EventKind::kLockAcquired});
  return true;
}

void SvmLock::lock() {
  proc::Scheduler* sched = proc::Scheduler::current_scheduler();
  const std::size_t cap = capacity(sched->svm().geometry().page_size);
  const PageId page = sched->svm().geometry().page_of(base_);
  Time wait_start = 0;
  bool contended = false;
  for (;;) {
    if (try_lock()) {
      if (contended) {
        // Contended path only: uncontended acquisitions would flood the
        // histogram with zeros and hide the tail that matters.
        sched->emit({.kind = proc::EventKind::kLockWaited, .id = page,
                     .start = wait_start});
      }
      return;
    }
    if (!contended) {
      contended = true;
      wait_start = sched->simulator().now();
      sched->emit({.kind = proc::EventKind::kLockBlocked, .id = page});
    }
    // Enqueue and sleep until an unlock wakes us; then contend again.
    const auto nwaiters = proc::svm_read<std::uint32_t>(base_ + kNWaitersOff);
    IVY_CHECK_MSG(nwaiters < cap, "lock waiter overflow (page too small)");
    proc::Pcb* pcb = proc::Scheduler::current_pcb();
    WaitRecord rec{pcb->id.home, pcb->id.pcb_index, pcb->id.serial,
                   pcb->block_epoch + 1};
    proc::svm_write<WaitRecord>(
        base_ + kRecordsOff + nwaiters * sizeof(WaitRecord), rec);
    proc::svm_write<std::uint32_t>(base_ + kNWaitersOff, nwaiters + 1);
    proc::Scheduler::block_current(nullptr);
  }
}

void SvmLock::unlock() {
  proc::Scheduler* sched = proc::Scheduler::current_scheduler();
  acquire_page();
  IVY_CHECK_MSG(proc::svm_read<std::uint64_t>(base_ + kWordOff) == 1,
                "unlock of a free lock");
  proc::svm_write<std::uint64_t>(base_ + kWordOff, 0);

  const auto nwaiters = proc::svm_read<std::uint32_t>(base_ + kNWaitersOff);
  if (nwaiters == 0) return;
  // FIFO handoff attempt: wake the oldest waiter, shift the rest down.
  const auto first = proc::svm_read<WaitRecord>(base_ + kRecordsOff);
  for (std::uint32_t i = 1; i < nwaiters; ++i) {
    const auto rec = proc::svm_read<WaitRecord>(base_ + kRecordsOff +
                                                i * sizeof(WaitRecord));
    proc::svm_write<WaitRecord>(
        base_ + kRecordsOff + (i - 1) * sizeof(WaitRecord), rec);
  }
  proc::svm_write<std::uint32_t>(base_ + kNWaitersOff, nwaiters - 1);

  const ProcId pid{first.home, first.pcb_index, first.serial};
  const std::uint32_t epoch = first.epoch;
  proc::defer_from_fiber([sched, pid, epoch] { sched->resume(pid, epoch); });
}

}  // namespace ivy::sync
