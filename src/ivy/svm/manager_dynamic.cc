// Dynamic distributed manager: no managers at all.  Every node keeps a
// probOwner hint per page and fault requests chase the hints; hints are
// rewritten as ownership moves, so chains stay short (Li & Hudak bound
// the total forwarding cost).
//
// Hint updates (paper: "whenever a processor receives an invalidation
// request, relinquishes ownership of the page, or forwards a page fault
// request"):
//   - invalidation: probOwner := new owner          (Svm::on_invalidate)
//   - relinquish:   probOwner := requester          (Manager::serve_write)
//   - forward:      probOwner := requester, for *write* faults — the
//     requester is the owner-to-be.  See the class comment in manager.h
//     for why read-fault forwards leave the hint unchanged here: pointing
//     hints at a node that never becomes owner breaks the
//     "hints point forward in ownership time" invariant that guarantees
//     chains terminate.
#include "ivy/svm/manager.h"

namespace ivy::svm {

void DynamicDistributedManager::route_initial(PageId page,
                                              net::MsgKind kind) {
  const NodeId dst = svm_.table().at(page).prob_owner;
  IVY_CHECK_NE(dst, svm_.self());
  send_fault(dst, page, kind);
}

void DynamicDistributedManager::route_request(net::Message&& msg,
                                              PageId page) {
  PageEntry& entry = svm_.table().at(page);
  if (svm_.options().distributed_copysets &&
      msg.kind == net::MsgKind::kReadFault &&
      entry.access != Access::kNil && svm_.frames().resident(page)) {
    // Distribution of copy sets: a copy holder serves the read itself
    // and remembers the reader as its child in the copy tree.
    entry.copyset.add(msg.origin);
    const net::GrantPayload grant{
        .page = page, .body = svm_.snapshot(page), .version = entry.version};
    svm_.emit({.kind = EventKind::kReadServed, .page = page, .peer = msg.origin,
               .version = entry.version, .body = Body::kShipped});
    svm_.rpc().reply_to(msg, grant);
    return;
  }
  const NodeId next = entry.prob_owner;
  IVY_CHECK_NE(next, svm_.self());
  // next == msg.origin is possible for retransmitted or duplicated
  // requests whose era the hints already passed; the origin's dispatch recognizes
  // its own request and re-issues along its fresher hint.
  if (msg.kind == net::MsgKind::kWriteFault && next != msg.origin) {
    entry.prob_owner = msg.origin;
  }
  forward(std::move(msg), page, next);
}

}  // namespace ivy::svm
