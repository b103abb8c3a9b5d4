// Svm::emit — the single point where svm transitions reach the counters,
// histograms, tracer, profiler and event sink.
#include "ivy/svm/event.h"

#include <iterator>

#include "ivy/prof/prof.h"
#include "ivy/svm/svm.h"
#include "ivy/trace/trace.h"

namespace ivy::svm {

const char* to_string(EventKind kind) {
  static constexpr const char* kNames[] = {
      "fault_start",        "disk_fault",       "local_upgrade",
      "fault_complete",     "disk_restore",     "disk_restored",
      "paged_out",          "copy_evicted",     "forward",
      "read_served",        "write_served",     "grant_resent",
      "grant_reoffered",    "copy_received",    "ownership_gained",
      "ownership_released", "transfer_aborted", "page_detached",
      "invalidate_start",   "invalidate_done",  "copy_dropped"};
  static_assert(std::size(kNames) ==
                static_cast<std::size_t>(EventKind::kCount));
  const auto i = static_cast<std::size_t>(kind);
  return i < std::size(kNames) ? kNames[i] : "?";
}

void Svm::emit(Event e) {
  using TK = trace::EventKind;
  e.node = self_;
  trace::Tracer* const tr = stats_.tracer();
  prof::Profiler* const pf = stats_.prof();
  const Time now = sim_.now();
  const bool write = e.level == Access::kWrite;
  switch (e.kind) {
    case EventKind::kDiskFault:
      stats_.bump(self_, Counter::kLocalFaultHits);
      [[fallthrough]];
    case EventKind::kFaultStart:
      stats_.bump(self_, write ? Counter::kWriteFaults : Counter::kReadFaults);
      // The fault starts in its locate leg; serving and invalidation
      // retag the wait as the critical path advances.
      if (pf) {
        pf->begin_wait(self_,
                       write ? prof::Cat::kWriteFaultLocate
                             : prof::Cat::kReadFaultLocate,
                       prof::Domain::kPageFault, e.page, now);
      }
      break;
    case EventKind::kLocalUpgrade:
      stats_.bump(self_, Counter::kLocalFaultHits);
      break;
    case EventKind::kFaultComplete:
      // Tolerant for kNil holds, which never began a wait and time
      // themselves at their own events.
      if (pf) pf->end_wait(self_, prof::Domain::kPageFault, e.page, now);
      if (e.level == Access::kNil) break;
      stats_.record_latency(self_, Hist::kFaultResolution, now - e.start);
      if (tr) {
        tr->record_span(self_, write ? TK::kWriteFault : TK::kReadFault,
                        e.start, now - e.start, e.page);
      }
      break;
    case EventKind::kDiskRestore:
      if (tr) tr->record(self_, TK::kDiskFault, e.page);
      // Upserts: a fault that peeled into a disk restore moves its wait.
      if (pf) {
        pf->begin_wait(self_, prof::Cat::kDisk, prof::Domain::kPageFault,
                       e.page, now);
      }
      break;
    case EventKind::kDiskRestored:
      stats_.record_latency(self_, Hist::kDiskStall, now - e.start);
      if (tr) {
        tr->record_span(self_, TK::kDiskRead, e.start, now - e.start, e.page);
      }
      break;
    case EventKind::kPagedOut:
      stats_.bump(self_, Counter::kEvictions);
      if (tr && e.body == Body::kShipped) {
        tr->record(self_, TK::kDiskWrite, e.page);
      }
      if (tr) tr->record(self_, TK::kEviction, e.page, 1);
      break;
    case EventKind::kCopyEvicted:
      stats_.bump(self_, Counter::kEvictions);
      if (tr) tr->record(self_, TK::kEviction, e.page, 0);
      break;
    case EventKind::kForward:
      if (pf) pf->note_hop(e.peer, e.page);
      if (tr) tr->record(self_, TK::kForward, e.page, e.peer);
      break;
    case EventKind::kReadServed:
    case EventKind::kWriteServed:
    case EventKind::kGrantResent:
      if (e.body == Body::kShipped) {
        stats_.bump(self_, Counter::kPageTransfers);
        if (tr) tr->record(self_, TK::kPageSent, e.page, e.peer);
      } else if (e.kind == EventKind::kWriteServed) {
        stats_.bump(self_, Counter::kBodylessUpgrades);
      }
      // The requester's fault reached its server: the wait moves to the
      // transfer leg (the profiler is global, so the server may retag it).
      if (pf) {
        pf->retag_wait(e.peer, prof::Domain::kPageFault, e.page,
                       e.kind == EventKind::kReadServed
                           ? prof::Cat::kReadFaultTransfer
                           : prof::Cat::kWriteFaultTransfer,
                       now);
      }
      break;
    case EventKind::kGrantReoffered:
      stats_.bump(self_, Counter::kGrantReoffers);
      break;
    case EventKind::kOwnershipGained:
      // One count per completed transfer, charged to the grantor (a
      // migration adopt to the adopter), where the serving side counted.
      stats_.bump(e.peer == kNoNode ? self_ : e.peer,
                  Counter::kOwnershipTransfers);
      if (tr) {
        tr->record(self_, TK::kOwnershipGained, e.page,
                   e.peer == kNoNode ? kMaxNodes : e.peer);
      }
      break;
    case EventKind::kOwnershipReleased:
      if (tr) {
        tr->record_span(self_, TK::kOwnershipLost, e.start, now - e.start,
                        e.page, e.peer);
      }
      break;
    case EventKind::kPageDetached:
      if (e.body == Body::kElided) {
        stats_.bump(self_, Counter::kBodylessUpgrades);
      }
      break;
    case EventKind::kInvalidateStart:
      stats_.bump(self_, Counter::kInvalidationsSent,
                  static_cast<std::uint64_t>(e.copies));
      if (multicast_round(e.copies)) {
        stats_.bump(self_, Counter::kInvalidateMulticasts);
      }
      // A fault waiting on this page reached its invalidation leg (the
      // leg keeps the wait's read/write family; other waits are left).
      if (pf) pf->fault_leg(self_, e.page, prof::FaultLeg::kInvalidate, now);
      break;
    case EventKind::kInvalidateDone:
      stats_.record_latency(self_, Hist::kInvalidateRound, now - e.start);
      if (tr) {
        tr->record_span(self_, TK::kInvalidateSent, e.start, now - e.start,
                        e.page, static_cast<std::uint64_t>(e.copies));
      }
      break;
    case EventKind::kCopyDropped:
      if (tr) tr->record(self_, TK::kInvalidateRecv, e.page, e.peer);
      break;
    case EventKind::kCopyReceived:
    case EventKind::kTransferAborted:
    case EventKind::kCount:
      break;
  }
  if (sink_ == nullptr) return;
  // Looked up only for an armed sink: lookup() touches the frame's
  // recency.  A never-materialized zero page has no image.
  if (e.body != Body::kNone) {
    if (const std::byte* bytes = pool_.lookup(e.page)) {
      e.image = std::span(bytes, options_.geo.page_size);
    }
  }
  sink_->on_event(e);
}

}  // namespace ivy::svm
