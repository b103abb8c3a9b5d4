// Scheduler::emit — the single point where proc and sync transitions reach
// the counters, histograms, tracer and profiler.
#include "ivy/proc/scheduler.h"
#include "ivy/prof/prof.h"
#include "ivy/trace/trace.h"

namespace ivy::proc {

void Scheduler::emit(const Event& e) {
  using TK = trace::EventKind;
  trace::Tracer* const tr = stats_.tracer();
  prof::Profiler* const pf = stats_.prof();
  const Time now = sim_.now();
  switch (e.kind) {
    case EventKind::kSpawned:
      stats_.bump(node_, Counter::kProcSpawns);
      if (tr) tr->record(node_, TK::kProcSpawn, e.id);
      if (pf) {
        pf->charge_busy(node_, e.start, e.start + e.span,
                        prof::Cat::kSchedOverhead);
      }
      break;
    case EventKind::kContextSwitch:
      stats_.bump(node_, Counter::kContextSwitches);
      break;
    case EventKind::kDispatched:
      if (pf) {
        pf->commit_dispatch(node_, now, e.span, e.fiber_charge, e.svm_charge);
      }
      break;
    case EventKind::kFinished:
      if (tr) tr->record(node_, TK::kProcFinish, e.id);
      break;
    case EventKind::kSpinCharged:
      if (pf) pf->note_fiber_charge(node_, e.span, prof::Cat::kLockSpin);
      break;
    case EventKind::kStalled:
      if (pf) {
        pf->charge_busy(node_, e.start, e.start + e.span, prof::Cat::kDisk);
      }
      break;
    case EventKind::kRemoteWakeup:
      stats_.bump(node_, Counter::kEcRemoteWakeups);
      break;
    case EventKind::kMigrateAsked:
      // One migrate-ask in flight per node, so the wait key is constant.
      if (pf) {
        pf->begin_wait(node_, prof::Cat::kMigration, prof::Domain::kMigrate,
                       0, now, e.peer);
      }
      break;
    case EventKind::kMigratedIn:
      // The migration latency is ask-to-install: PCB + stack pages
      // crossing the ring dominate it.
      stats_.record_latency(node_, Hist::kMigration, now - e.start);
      if (tr) {
        tr->record_span(node_, TK::kMigrateIn, e.start, now - e.start, e.id,
                        e.peer);
      }
      [[fallthrough]];
    case EventKind::kMigrateDenied:
      if (pf) pf->end_wait(node_, prof::Domain::kMigrate, 0, now);
      break;
    case EventKind::kMigrationRefused:
      stats_.bump(node_, Counter::kMigrationRejects);
      break;
    case EventKind::kMigratedOut:
      stats_.bump(node_, Counter::kMigrations);
      if (tr) tr->record(node_, TK::kMigrateOut, e.id, e.peer);
      break;
    case EventKind::kEcAdvanced:
      stats_.bump(node_, Counter::kEcAdvances);
      if (tr) {
        tr->record(node_, TK::kEcAdvance, e.id,
                   static_cast<std::uint64_t>(e.value));
      }
      break;
    case EventKind::kEcBlocked:
      stats_.bump(node_, Counter::kEcWaits);
      if (pf) {
        pf->begin_wait(node_, prof::Cat::kSyncWait, prof::Domain::kSync, e.id,
                       now);
      }
      break;
    case EventKind::kEcWoken:
      stats_.record_latency(node_, Hist::kEcWait, now - e.start);
      if (tr) {
        tr->record_span(node_, TK::kEcWait, e.start, now - e.start, e.id,
                        static_cast<std::uint64_t>(e.value));
      }
      if (pf) pf->end_wait(node_, prof::Domain::kSync, e.id, now);
      break;
    case EventKind::kLockSpun:
      stats_.bump(node_, Counter::kLockSpins);
      break;
    case EventKind::kLockAcquired:
      stats_.bump(node_, Counter::kLockAcquisitions);
      break;
    case EventKind::kLockBlocked:
      if (pf) {
        pf->begin_wait(node_, prof::Cat::kLockWait, prof::Domain::kLock, e.id,
                       now);
      }
      break;
    case EventKind::kLockWaited:
      stats_.record_latency(node_, Hist::kLockWait, now - e.start);
      if (tr) {
        tr->record_span(node_, TK::kLockWait, e.start, now - e.start, e.id);
      }
      if (pf) pf->end_wait(node_, prof::Domain::kLock, e.id, now);
      break;
  }
}

}  // namespace ivy::proc
