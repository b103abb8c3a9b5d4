#include "ivy/sync/eventcount.h"

#include <vector>

#include "ivy/proc/svm_io.h"

namespace ivy::sync {
namespace {

// Layout offsets within the eventcount page.
constexpr SvmAddr kValueOff = 0;
constexpr SvmAddr kNWaitersOff = 8;
constexpr SvmAddr kRecordsOff = Eventcount::kHeaderBytes;

}  // namespace

void Eventcount::acquire() {
  proc::Scheduler* sched = proc::Scheduler::current_scheduler();
  IVY_CHECK_MSG(sched != nullptr, "eventcount op outside a process");
  // Write access to the whole structure (all linked pages), then the
  // test-and-set the paper uses for atomicity (two 68000 instructions).
  proc::ensure_access(base_, sched->svm().geometry().page_size * pages_,
                      svm::Access::kWrite);
  proc::Scheduler::charge_current(sched->simulator().costs().test_and_set);
  // Pin the page for the duration of the (non-blocking) manipulation.
  (void)sched->svm().usable_frame(sched->svm().geometry().page_of(base_));
}

void Eventcount::init() {
  acquire();
  proc::svm_write<std::int64_t>(base_ + kValueOff, 0);
  proc::svm_write<std::uint32_t>(base_ + kNWaitersOff, 0);
}

std::int64_t Eventcount::read() {
  proc::ensure_access(base_, sizeof(std::int64_t), svm::Access::kRead);
  return proc::svm_read<std::int64_t>(base_ + kValueOff);
}

void Eventcount::advance() {
  proc::Scheduler* sched = proc::Scheduler::current_scheduler();
  acquire();
  const auto value = proc::svm_read<std::int64_t>(base_ + kValueOff) + 1;
  proc::svm_write<std::int64_t>(base_ + kValueOff, value);
  sched->emit({.kind = proc::EventKind::kEcAdvanced,
               .id = sched->svm().geometry().page_of(base_), .value = value});

  // Wake every waiter whose target is reached; compact the array.
  auto nwaiters = proc::svm_read<std::uint32_t>(base_ + kNWaitersOff);
  std::vector<WaitRecord> waking;
  std::uint32_t kept = 0;
  for (std::uint32_t i = 0; i < nwaiters; ++i) {
    const SvmAddr rec_addr = base_ + kRecordsOff + i * sizeof(WaitRecord);
    const auto rec = proc::svm_read<WaitRecord>(rec_addr);
    if (rec.target <= value) {
      waking.push_back(rec);
    } else {
      if (kept != i) {
        proc::svm_write<WaitRecord>(
            base_ + kRecordsOff + kept * sizeof(WaitRecord), rec);
      }
      ++kept;
    }
  }
  proc::svm_write<std::uint32_t>(base_ + kNWaitersOff, kept);

  for (const WaitRecord& rec : waking) {
    const ProcId pid{rec.home, rec.pcb_index, rec.serial};
    const std::uint32_t epoch = rec.epoch;
    // Wakeups leave this node at the advancing process's current virtual
    // time; Scheduler::resume routes locally or via kRemoteResume.
    proc::defer_from_fiber(
        [sched, pid, epoch] { sched->resume(pid, epoch); });
  }
}

void Eventcount::wait(std::int64_t value) {
  proc::Scheduler* sched = proc::Scheduler::current_scheduler();
  acquire();
  if (proc::svm_read<std::int64_t>(base_ + kValueOff) >= value) return;

  const PageId page = sched->svm().geometry().page_of(base_);
  const Time wait_start = sched->simulator().now();
  sched->emit({.kind = proc::EventKind::kEcBlocked, .id = page});
  const auto nwaiters = proc::svm_read<std::uint32_t>(base_ + kNWaitersOff);
  IVY_CHECK_MSG(nwaiters < capacity(sched->svm().geometry().page_size, pages_),
                "eventcount waiter overflow (page too small)");
  proc::Pcb* pcb = proc::Scheduler::current_pcb();
  WaitRecord rec;
  rec.home = pcb->id.home;
  rec.pcb_index = pcb->id.pcb_index;
  rec.serial = pcb->id.serial;
  rec.epoch = pcb->block_epoch + 1;  // the epoch of the upcoming block
  rec.target = value;
  proc::svm_write<WaitRecord>(
      base_ + kRecordsOff + nwaiters * sizeof(WaitRecord), rec);
  proc::svm_write<std::uint32_t>(base_ + kNWaitersOff, nwaiters + 1);

  // No blocking point separates the record write from this yield, so
  // an advancer can only observe the record once we are suspended.
  proc::Scheduler::block_current(nullptr);
  // Only advance() ends this block (resume is epoch-guarded), and only
  // once the value reached the target, which it never leaves (the value
  // is monotone): no re-check, so a woken waiter does not fault the page
  // back in.
  sched->emit({.kind = proc::EventKind::kEcWoken, .id = page, .value = value,
               .start = wait_start});
}

}  // namespace ivy::sync
