// Coherence manager strategies.
//
// All of the paper's algorithms use write-invalidate with a single
// (moving) owner per page; they differ only in how a faulting processor
// *locates* the owner:
//
//   - improved centralized manager: ask the manager node, which keeps an
//     owner map and forwards the request; the owner answers directly and
//     keeps the copyset, so no confirmation to the manager is needed.
//   - fixed distributed manager: identical, but the manager of page p is
//     H(p) = p mod N, spreading the bottleneck.
//   - dynamic distributed manager: no managers; each node chases its
//     probOwner hint, and hints are compressed as requests flow.
//   - broadcast manager: every fault is a ring broadcast; the owner
//     replies, everyone else ignores (baseline for the ablation).
//
// The owner-side mechanics — serving read copies, transferring ownership
// with the copyset, invalidation, deferring requests that arrive while a
// node is itself mid-fault on the page — are shared here in Manager.
#pragma once

#include <memory>

#include "ivy/net/message.h"
#include "ivy/svm/svm.h"

namespace ivy::svm {

class Manager {
 public:
  static std::unique_ptr<Manager> create(Svm& svm);
  virtual ~Manager() = default;

  /// Client side: initiate a fault for `page` at level `want`.  The local
  /// PageEntry already has fault_in_progress set; completion goes through
  /// Svm::complete_fault().
  void start_fault(PageId page, Access want);

  /// Server side: a kReadFault/kWriteFault request arrived (possibly
  /// forwarded, possibly replayed from the deferred queue).
  void on_fault_request(net::Message&& msg);

 protected:
  explicit Manager(Svm& svm) : svm_(svm) {}

  /// Routes the initial request of a fault this node cannot satisfy
  /// locally.  `kind` is kReadFault or kWriteFault.
  virtual void route_initial(PageId page, net::MsgKind kind) = 0;

  /// Routes a received request this node cannot serve (it is not the
  /// owner and has no fault in progress for the page).
  virtual void route_request(net::Message&& msg, PageId page) = 0;

  // --- shared owner-side mechanics ---------------------------------------

  /// Serves a read fault at the owner: downgrade to read access, add the
  /// requester to the copyset, reply with a copy.
  void serve_read(net::Message&& msg, PageId page);

  /// Serves a write fault at the owner: bump version, relinquish
  /// ownership and access, reply with page + copyset.
  void serve_write(net::Message&& msg, PageId page);

  /// Requester side: a grant reply arrived.
  void on_grant(net::Message&& reply);

  /// Owner-side local write upgrade (owner already, needs invalidation
  /// and/or disk restore only).  Returns true when handled locally.
  bool try_local_write_upgrade(PageId page);

  /// Bookkeeping hook invoked after serving a write fault (ownership
  /// handed to `new_owner`); centralized/fixed managers refresh their
  /// owner maps here.
  virtual void note_write_grant(PageId page, NodeId new_owner);

  /// A request reached this node while its grant of `page` to
  /// `new_owner` is on the ring: passes it on behind the grant instead
  /// of holding it until the ack.  The default forwards to `new_owner`;
  /// the owner-map managers route through their map at the page's
  /// manager.
  virtual void hand_off(net::Message&& msg, PageId page, NodeId new_owner);

  /// Locates the owner with the remote-operation module's any-reply
  /// broadcast — the fallback when hint chains degenerate into cycles.
  void broadcast_locate(PageId page, net::MsgKind kind);

  /// Forwards a request this node cannot serve to `next`, reporting the
  /// routing hop (kForward) first.
  void forward(net::Message&& msg, PageId page, NodeId next);

  /// Re-drives an in-progress fault after its request bounced or its
  /// grant proved stale.  Handles the case where ownership arrived
  /// through a side channel (absorbed duplicate) in the meantime.
  void retry_fault(PageId page, net::MsgKind kind);

  /// Builds and sends the fault request for this node's outstanding
  /// fault, wiring the reply into on_grant().
  void send_fault(NodeId dst, PageId page, net::MsgKind kind);

  /// Failure callback attached to every fault request.  Retransmission
  /// makes individual frame losses survivable, but a lost *grant* whose
  /// request was then cancelled leaves eagerly-updated owner maps and
  /// probOwner hints pointing at a node that never became owner; requests
  /// routed by that state can cycle without ever reaching the true owner,
  /// and the origin's retransmissions are re-forwarded into the same
  /// cycle.  When the rpc layer gives up, the routing state is presumed
  /// poisoned and the fault escalates to a broadcast locate, which
  /// consults no routing state at all.  Bounded per fault by
  /// PageEntry::lost_retries; exhausting the bound aborts the run.
  [[nodiscard]] rpc::RemoteOp::FailureCallback relocate_on_failure(
      PageId page);

  Svm& svm_;
};

/// Owner-map manager: the improved centralized manager and the fixed
/// distributed manager, which differ only in manager_of(p).  The manager
/// of p keeps owner[p]; on a write fault it forwards the request and
/// eagerly records the requester as the new owner, so no confirmation
/// round-trip exists.
class OwnerMapManager final : public Manager {
 public:
  /// `distributed`: manager_of(p) = H(p) = p mod N (fixed distributed
  /// manager); otherwise every page is managed by options().manager_node.
  OwnerMapManager(Svm& svm, bool distributed);

 protected:
  void route_initial(PageId page, net::MsgKind kind) override;
  void route_request(net::Message&& msg, PageId page) override;
  void note_write_grant(PageId page, NodeId new_owner) override;
  void hand_off(net::Message&& msg, PageId page, NodeId new_owner) override;

 private:
  /// owner[p] plus the owner it replaced: the ownership history a
  /// re-issued request from the recorded owner is routed along.
  struct Ownership {
    NodeId owner = kNoNode;
    NodeId prev = kNoNode;
  };

  [[nodiscard]] NodeId manager_of(PageId page) const {
    return distributed_ ? static_cast<NodeId>(page % svm_.nodes())
                        : svm_.options().manager_node;
  }
  /// Manager bookkeeping: picks the forward target (kNoNode when the map
  /// has no answer) and updates the owner map for write faults.
  NodeId manage(PageId page, net::MsgKind kind, NodeId origin);
  void record_owner(PageId page, NodeId owner);

  const bool distributed_;
  std::vector<Ownership> map_;  ///< populated only on managing nodes
};

/// Dynamic distributed manager: chase probOwner hints; forwarding a
/// *write* fault rewrites the hint to the requester (the owner-to-be).
///
/// Deviation note: the paper says probOwner is updated on *every*
/// forward.  We update it only on write-fault forwards; a read requester
/// never becomes an owner, and pointing hints at it can (in an
/// event-driven implementation that defers requests at faulting nodes)
/// route a node's own retried request back to itself.  Read forwards
/// leaving the hint untouched costs at most extra hops along ownership
/// history and preserves the termination invariant the tests check.
class DynamicDistributedManager final : public Manager {
 public:
  explicit DynamicDistributedManager(Svm& svm) : Manager(svm) {}

 protected:
  void route_initial(PageId page, net::MsgKind kind) override;
  void route_request(net::Message&& msg, PageId page) override;
};

/// Broadcast manager: the paper's "reply from any receiving processor"
/// broadcast locates the owner in one round at the cost of interrupting
/// every node on every fault.
class BroadcastManager final : public Manager {
 public:
  explicit BroadcastManager(Svm& svm) : Manager(svm) {}

 protected:
  void route_initial(PageId page, net::MsgKind kind) override;
  void route_request(net::Message&& msg, PageId page) override;
};

}  // namespace ivy::svm
