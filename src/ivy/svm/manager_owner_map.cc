// Owner-map managers: the improved centralized manager (paper §"Shared
// Virtual Memory Mapping", Li & Hudak's improved variant) and the fixed
// distributed manager ("every processor [is given] a predetermined set of
// pages to manage ... responsible for the pages specified by the fixed
// mapping function H").  They are one algorithm with a different
// manager_of(p): the configured manager node, or H(p) = p mod N.
//
// The manager of p keeps owner[p]; copysets stay with the owners, so the
// manager forwards a fault in one hop and needs no confirmation: for a
// write fault it eagerly records the requester as the new owner at
// forward time.  The map therefore names the owner-to-be at the tail of
// the page's writer order, and each writer's request waits in its
// predecessor's deferred queue until the predecessor's ownership
// arrives — the serialization the original algorithm achieved with
// manager-side locks.
#include "ivy/svm/manager.h"

namespace ivy::svm {

OwnerMapManager::OwnerMapManager(Svm& svm, bool distributed)
    : Manager(svm), distributed_(distributed) {
  // Full-size map on a managing node; only the entries with
  // manager_of(p) == self are used.
  if (distributed_ || svm.self() == svm.options().manager_node) {
    map_.assign(svm.geometry().num_pages,
                Ownership{svm.options().initial_owner});
  }
}

void OwnerMapManager::record_owner(PageId page, NodeId owner) {
  Ownership& rec = map_[page];
  if (rec.owner == owner) return;
  rec.prev = rec.owner;
  rec.owner = owner;
}

NodeId OwnerMapManager::manage(PageId page, net::MsgKind kind,
                               NodeId origin) {
  IVY_CHECK_EQ(manager_of(page), svm_.self());
  const Ownership rec = map_[page];
  // A request from the node the map already names is a re-issue: its
  // first request bounced or its grant proved stale.  It still belongs
  // behind the writer recorded before it, so forward it along that
  // history — never along its own hint, which can point back here and
  // cycle manager -> node -> manager.  kNoNode (no history) lets the
  // caller fall back to the hint.
  const NodeId target = rec.owner == origin ? rec.prev : rec.owner;
  if (kind == net::MsgKind::kWriteFault) record_owner(page, origin);
  return target;
}

void OwnerMapManager::route_initial(PageId page, net::MsgKind kind) {
  const NodeId mgr = manager_of(page);
  if (mgr != svm_.self()) {
    send_fault(mgr, page, kind);
    return;
  }
  // The manager is the faulting processor: consult the map locally.
  NodeId owner = manage(page, kind, svm_.self());
  if (owner == kNoNode || owner == svm_.self()) {
    owner = svm_.table().at(page).prob_owner;
  }
  IVY_CHECK_NE(owner, svm_.self());
  send_fault(owner, page, kind);
}

void OwnerMapManager::route_request(net::Message&& msg, PageId page) {
  NodeId next = kNoNode;
  if (manager_of(page) == svm_.self()) {
    next = manage(page, msg.kind, msg.origin);
    if (next == kNoNode) next = std::any_cast<FaultPayload>(msg.payload).hint;
    if (next == svm_.self() || next == kNoNode) {
      // The map (or the requester's hint) points at us, but we are not
      // the owner — stale bookkeeping after an aborted transfer.  Chase
      // our own hint instead.
      next = svm_.table().at(page).prob_owner;
    }
  } else {
    // The request reached a node that relinquished before it arrived (a
    // retransmitted duplicate, or a re-issue routed along the ownership
    // history); chase the hint, which points forward in ownership time.
    // It may equal msg.origin (stale routing); the origin re-issues.
    next = svm_.table().at(page).prob_owner;
  }
  forward(std::move(msg), page, next);
}

void OwnerMapManager::hand_off(net::Message&& msg, PageId page,
                               NodeId new_owner) {
  // At the page's manager the hand-off is the manager's forward: the map
  // records a write faulter as the new tail, and the request goes to the
  // tail before it, where the replay after the ack would have sent it.
  // Passing it to new_owner without the map would leave the map stale,
  // and the re-issue rule would then route later requests along a
  // history that never happened.
  NodeId next = new_owner;
  if (manager_of(page) == svm_.self()) {
    const NodeId tail = manage(page, msg.kind, msg.origin);
    if (tail != kNoNode && tail != svm_.self()) next = tail;
  }
  forward(std::move(msg), page, next);
}

void OwnerMapManager::note_write_grant(PageId page, NodeId new_owner) {
  if (manager_of(page) == svm_.self()) record_owner(page, new_owner);
}

}  // namespace ivy::svm
