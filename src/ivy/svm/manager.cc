// Shared owner-side mechanics of all coherence managers.
#include "ivy/svm/manager.h"

#include <utility>

#include "ivy/base/log.h"

namespace ivy::svm {
namespace {
/// Broadcast-locate escalations allowed per fault before declaring the
/// owner unreachable and aborting the run.
constexpr int kMaxFaultRelocates = 8;
}  // namespace

std::unique_ptr<Manager> Manager::create(Svm& svm) {
  switch (svm.options().manager) {
    case ManagerKind::kCentralized:
      return std::make_unique<OwnerMapManager>(svm, /*distributed=*/false);
    case ManagerKind::kFixedDistributed:
      return std::make_unique<OwnerMapManager>(svm, /*distributed=*/true);
    case ManagerKind::kDynamicDistributed:
      return std::make_unique<DynamicDistributedManager>(svm);
    case ManagerKind::kBroadcast:
      return std::make_unique<BroadcastManager>(svm);
  }
  IVY_UNREACHABLE("bad manager kind");
}

void Manager::start_fault(PageId page, Access want) {
  if (want == Access::kWrite && try_local_write_upgrade(page)) return;
  const PageEntry& entry = svm_.table().at(page);
  IVY_CHECK_MSG(!entry.owned, "remote fault on owned page " << page);
  route_initial(page, want == Access::kRead ? net::MsgKind::kReadFault
                                            : net::MsgKind::kWriteFault);
}

bool Manager::try_local_write_upgrade(PageId page) {
  PageEntry& entry = svm_.table().at(page);
  if (!entry.owned) return false;
  // The on-disk case was peeled off as a disk fault before reaching here.
  IVY_CHECK(!entry.on_disk);
  IVY_CHECK(entry.access != Access::kNil);
  svm_.emit({.kind = EventKind::kLocalUpgrade, .page = page});
  ++entry.version;
  svm_.invalidate_for_write(page);
  return true;
}

void Manager::on_fault_request(net::Message&& msg) {
  const auto payload = std::get<net::FaultPayload>(msg.payload);
  const PageId page = payload.page;
  PageEntry& entry = svm_.table().at(page);

  if (msg.origin == svm_.self()) {
    // Our own request ghosted back to us: a stale hint somewhere routes
    // toward us instead of the real owner.  If the fault is still
    // pending, abandon the bounced request and retry — first along our
    // own (possibly fresher) hint, then, if the hints have degenerated
    // into a cycle, by locating the owner with a broadcast.  A
    // superseded request's reply, if it ever arrives, is absorbed by the
    // orphan machinery.
    svm_.rpc().ignore(msg);
    // Only the *current* request's bounce triggers a retry: a stale
    // duplicate of an already-superseded request can still be circulating
    // (fault-injected delays make this common) and must not cancel a
    // healthy in-flight successor.
    if (entry.fault_in_progress && entry.fault_level != Access::kNil &&
        msg.rpc_id == entry.fault_rpc) {
      svm_.rpc().cancel(entry.fault_rpc);
      ++entry.bounce_count;
      retry_fault(page, entry.fault_level == Access::kWrite
                            ? net::MsgKind::kWriteFault
                            : net::MsgKind::kReadFault);
    }
    return;
  }
  if (svm_.resend_pending_grant(msg)) return;
  if (payload.broadcast && !entry.owned) {
    // Broadcast probe at a non-owner: every node (including the owner)
    // received its own copy; ours carries no information.
    svm_.rpc().ignore(msg);
    return;
  }
  if (payload.held && !entry.owned) {
    // A probe this node held as a busy owner, replayed after the page
    // moved on (or passed on by such a node): forward it toward the
    // current owner whether or not this node is busy.  The owner's rpc
    // layer recognises a copy it already served or holds; waiting here
    // instead could serve the request a second time once this node
    // regains the page.
    forward(std::move(msg), page, entry.prob_owner);
    return;
  }
  if (entry.busy() &&
      (entry.owned || entry.fault_level == Access::kWrite ||
       msg.kind == net::MsgKind::kWriteFault)) {
    // Mid fault, in post-fault grace, or holding a pending ownership
    // transfer: hold the request and replay it once the page settles —
    // no timer.  Under the dynamic manager this is the paper's
    // distributed queue: a write faulter holds the requests its forwarded
    // request's probOwner rewrites sent its way.  Only owners and
    // owners-to-be hold: a read request at a node whose own fault (or
    // grace) is a read is routed at once, as an idle node would — that
    // node will hold no token to serve it with, and holding it there
    // chains every concurrent reader's wait behind the others'.  A
    // broadcast probe reaches here only at an owner, and its held copy
    // becomes the request's only live copy.
    if (payload.broadcast) {
      net::FaultPayload held = payload;
      held.broadcast = false;
      held.held = true;
      msg.payload = held;
    }
    // Once the grant of a pending transfer is on the ring, pass the
    // request on at once instead of after the grant-ack round trip.  Ring
    // FIFO puts it behind the grant and ahead of requests sent later, so
    // the new owner meets requests in arrival order.  A copy that came
    // back from that node stays held until the ack, so nothing ping-pongs
    // when the grant is lost or refused.
    const NodeId to = svm_.granted_to(page);
    if (to != kNoNode && to != msg.src) {
      hand_off(std::move(msg), page, to);
      return;
    }
    svm_.defer_request(page, std::move(msg));
    return;
  }
  if (entry.owned) {
    if (entry.on_disk) {
      // Serving requires the image; restore first, then replay.
      svm_.defer_request(page, std::move(msg));
      svm_.begin_disk_restore(page);
      return;
    }
    if (msg.kind == net::MsgKind::kReadFault) {
      serve_read(std::move(msg), page);
    } else {
      serve_write(std::move(msg), page);
    }
    return;
  }
  route_request(std::move(msg), page);
}

void Manager::serve_read(net::Message&& msg, PageId page) {
  PageEntry& entry = svm_.table().at(page);
  IVY_CHECK(entry.owned && !entry.on_disk);
  // Granting a read copy forces the owner itself down to read access.
  entry.access = Access::kRead;
  entry.copyset.add(msg.origin);

  // A read fault always wants the data.
  const net::GrantPayload grant{
      .page = page, .body = svm_.snapshot(page), .version = entry.version};
  svm_.emit({.kind = EventKind::kReadServed, .page = page, .peer = msg.origin,
             .version = entry.version, .body = Body::kShipped});
  svm_.rpc().reply_to(msg, grant);
}

void Manager::serve_write(net::Message&& msg, PageId page) {
  const auto payload = std::get<net::FaultPayload>(msg.payload);
  PageEntry& entry = svm_.table().at(page);
  IVY_CHECK(entry.owned && !entry.on_disk);

  // Version-checked before the bump: the requester's copy is reusable
  // only if it was granted under this very ownership era.  A copy from
  // an older era (the copyset travelled through detaches that bumped the
  // version) may be content-stale relative to what a strict reading of
  // the protocol allows — ship the body then.
  const bool requester_copy_valid =
      payload.has_copy && entry.copyset.contains(msg.origin) &&
      payload.copy_version == entry.version;
  ++entry.version;
  // Two-phase relinquish: keep the token and the data until the new
  // owner's kGrantAck; requests for the page are held meanwhile, and pass
  // to the new owner once the grant is on the ring (see
  // on_fault_request).  A valid copy makes it an in-place upgrade: only
  // the 32-byte header travels.
  note_write_grant(page, msg.origin);
  const net::GrantPayload grant = svm_.begin_pending_transfer(
      page, msg.origin, entry.version, requester_copy_valid);
  svm_.rpc().reply_to(msg, grant, [this, page, version = entry.version] {
    svm_.note_grant_sent(page, version);
  });
  // A bodyless grant still puts the held image at stake: the requester's
  // surviving copy must match it.
  svm_.emit({.kind = EventKind::kWriteServed, .page = page, .peer = msg.origin,
             .version = entry.version,
             .body = requester_copy_valid ? Body::kElided : Body::kShipped});
}

void Manager::on_grant(net::Message&& reply) {
  const auto grant = std::get<net::GrantPayload>(reply.payload);
  const PageId page = grant.page;
  PageEntry& entry = svm_.table().at(page);
  // complete_fault cancels the fault's request, so a reply that outlives
  // its fault reaches the orphan handler, never this callback.
  IVY_CHECK(entry.fault_in_progress && entry.fault_level != Access::kNil);
  if (grant.write_grant) {
    // One rule judges every write grant; one not adopted is retried.
    if (!svm_.absorb_grant(grant, reply.src, /*answers_fault=*/true)) {
      retry_fault(page, net::MsgKind::kWriteFault);
    }
    return;
  }
  if (grant.version < entry.version) {
    // The copy was invalidated while the (retransmitted) grant was in
    // flight; the data is stale.  Retry the fault.
    IVY_DEBUG() << "node " << svm_.self() << " rejects stale read grant of"
                << " page " << page;
    retry_fault(page, net::MsgKind::kReadFault);
    return;
  }
  svm_.install_body(page, grant.body);
  entry.access = Access::kRead;
  entry.version = grant.version;
  entry.prob_owner = reply.src;  // we now know the owner
  svm_.emit({.kind = EventKind::kCopyReceived, .page = page,
             .peer = reply.src, .version = grant.version,
             .body = Body::kShipped});
  svm_.complete_fault(page);
}

void Manager::note_write_grant(PageId, NodeId) {}

void Manager::hand_off(net::Message&& msg, PageId page, NodeId new_owner) {
  forward(std::move(msg), page, new_owner);
}

void Manager::forward(net::Message&& msg, PageId page, NodeId next) {
  const bool write = msg.kind == net::MsgKind::kWriteFault;
  svm_.emit({.kind = EventKind::kForward, .page = page, .peer = msg.origin,
             .level = write ? Access::kWrite : Access::kRead});
  svm_.rpc().forward(std::move(msg), next);
}

void Manager::retry_fault(PageId page, net::MsgKind kind) {
  PageEntry& entry = svm_.table().at(page);
  IVY_CHECK(entry.fault_in_progress);
  if (entry.owned) {
    // Ownership arrived through an absorbed duplicate while this fault's
    // own request was still in flight: finish locally.
    const Access want =
        kind == net::MsgKind::kWriteFault ? Access::kWrite : Access::kRead;
    if (satisfies(entry.access, want)) {
      svm_.complete_fault(page);
      return;
    }
    ++entry.version;
    svm_.invalidate_for_write(page);
    return;
  }
  if (entry.bounce_count >= 2 && svm_.nodes() > 1) {
    broadcast_locate(page, kind);
  } else {
    route_initial(page, kind);
  }
}

net::FaultPayload Manager::fault_request(PageId page, bool broadcast) {
  const PageEntry& entry = svm_.table().at(page);
  return {.page = page, .has_copy = entry.access == Access::kRead,
          .hint = entry.prob_owner, .broadcast = broadcast,
          .copy_version = entry.version};
}

void Manager::broadcast_locate(PageId page, net::MsgKind kind) {
  // A locate runs only after the hints failed (the request bounced, or
  // was lost to poisoned routing state), so it retries briskly.
  svm_.table().at(page).fault_rpc = svm_.rpc().broadcast(
      kind, fault_request(page, true), rpc::BcastReply::kAny,
      [this](net::Message&& reply) { on_grant(std::move(reply)); }, nullptr,
      ms(50), relocate_on_failure(page));
}

void Manager::send_fault(NodeId dst, PageId page, net::MsgKind kind) {
  svm_.table().at(page).fault_rpc = svm_.rpc().request(
      dst, kind, fault_request(page, false),
      [this](net::Message&& reply) { on_grant(std::move(reply)); },
      /*timeout=*/0, relocate_on_failure(page));
}

rpc::RemoteOp::FailureCallback Manager::relocate_on_failure(PageId page) {
  return [this, page](const rpc::RequestFailure& failure) {
    PageEntry& entry = svm_.table().at(page);
    if (!entry.fault_in_progress || entry.fault_level == Access::kNil ||
        entry.fault_rpc != failure.rpc_id) {
      return;  // the fault already moved on (retried or completed)
    }
    ++entry.lost_retries;
    IVY_CHECK_MSG(entry.lost_retries <= kMaxFaultRelocates,
                  "node " << svm_.self() << " cannot reach the owner of page "
                          << page << " after " << entry.lost_retries
                          << " locate rounds — unrecoverable fault load");
    IVY_DEBUG() << "node " << svm_.self() << " fault request for page " << page
                << " exhausted retransmissions; relocating the owner by"
                << " broadcast (round " << entry.lost_retries << ")";
    // Skip straight past hint chasing: whatever routing state swallowed
    // this request would swallow its successor too.
    entry.bounce_count = 2;
    retry_fault(page, entry.fault_level == Access::kWrite
                          ? net::MsgKind::kWriteFault
                          : net::MsgKind::kReadFault);
  };
}

}  // namespace ivy::svm
