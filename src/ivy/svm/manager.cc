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
  const auto payload = std::any_cast<FaultPayload>(msg.payload);
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
      FaultPayload held = payload;
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

  GrantPayload grant;
  grant.page = page;
  grant.version = entry.version;
  grant.write_grant = false;
  grant.body = svm_.snapshot(page);  // a read fault always wants the data
  svm_.emit({.kind = EventKind::kReadServed, .page = page, .peer = msg.origin,
             .version = entry.version, .body = Body::kShipped});
  svm_.rpc().reply_to(msg, grant, grant.wire_bytes());
}

void Manager::serve_write(net::Message&& msg, PageId page) {
  const auto payload = std::any_cast<FaultPayload>(msg.payload);
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
  GrantPayload grant;
  grant.page = page;
  grant.version = entry.version;
  grant.write_grant = true;
  grant.copyset = entry.copyset;
  grant.copyset.remove(msg.origin);
  // A valid copy makes it an in-place upgrade: only the 32-byte header
  // travels.
  if (!requester_copy_valid) grant.body = svm_.snapshot(page);

  // Two-phase relinquish: keep the token and the data until the new
  // owner's kGrantAck; requests for the page are held meanwhile, and pass
  // to the new owner once the grant is on the ring (see
  // on_fault_request).
  note_write_grant(page, msg.origin);
  svm_.rpc().reply_to(msg, grant, grant.wire_bytes(),
                      [this, page, version = entry.version] {
                        svm_.note_grant_sent(page, version);
                      });
  svm_.begin_pending_transfer(page, msg.origin, entry.version,
                              requester_copy_valid);
  // A bodyless grant still puts the held image at stake: the requester's
  // surviving copy must match it.
  svm_.emit({.kind = EventKind::kWriteServed, .page = page, .peer = msg.origin,
             .version = entry.version,
             .body = requester_copy_valid ? Body::kElided : Body::kShipped});
}

void Manager::on_grant(net::Message&& reply) {
  const auto grant = std::any_cast<GrantPayload>(reply.payload);
  const PageId page = grant.page;
  PageEntry& entry = svm_.table().at(page);
  if (!entry.fault_in_progress || entry.fault_level == Access::kNil) {
    // No requester fault is waiting for this grant (the fault completed
    // through another path, or the fault-in-progress marker belongs to a
    // disk restore / pending outbound transfer).  If the grant carries
    // the ownership token, absorb or abort it — never drop it.
    svm_.absorb_grant(grant, reply.src);
    return;
  }

  if (!grant.write_grant) {
    if (grant.version < entry.version) {
      // The copy was invalidated while the (retransmitted) grant was in
      // flight; the data is stale.  Retry the fault.
      IVY_DEBUG() << "node " << svm_.self() << " rejects stale read grant of"
                  << " page " << page;
      retry_fault(page, net::MsgKind::kReadFault);
      return;
    }
    if (grant.body == nullptr && !svm_.frames().resident(page)) {
      // Bodyless grant assuming a local copy we no longer hold (it was
      // invalidated or evicted while the request was in flight — the
      // server judged a stale has_copy hint).  The data never travelled;
      // re-request it.
      IVY_DEBUG() << "node " << svm_.self() << " lacks the copy a bodyless"
                  << " read grant of page " << page << " assumed; retrying";
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
    return;
  }

  if (grant.version <= entry.version) {
    if (entry.accepted_unconfirmed(grant.version)) {
      // Duplicate of a grant this node already accepted (the old owner
      // re-sent it under a fresh rpc id before our ack landed).  Re-ack
      // the acceptance — a reject could overtake the original accept and
      // abort a confirmed transfer, leaving two owners.
      svm_.send_grant_ack(reply.src, page, grant.version, /*accept=*/true);
      retry_fault(page, net::MsgKind::kWriteFault);
      return;
    }
    // Stale ownership era.  Abort the transfer (the old owner resumes)
    // and chase the live owner again.
    IVY_DEBUG() << "node " << svm_.self() << " rejects stale write grant of"
                << " page " << page << " v" << grant.version << " from "
                << reply.src;
    svm_.send_grant_ack(reply.src, page, grant.version, /*accept=*/false);
    retry_fault(page, net::MsgKind::kWriteFault);
    return;
  }
  if (grant.body == nullptr && !svm_.frames().resident(page)) {
    // Bodyless ownership grant, but the local copy it assumed is gone
    // (invalidated or evicted mid-flight).  Abort the transfer — the old
    // owner still holds the data — and re-request; the retry advertises
    // has_copy=false, so the next grant ships the body.
    IVY_DEBUG() << "node " << svm_.self() << " lacks the copy a bodyless"
                << " write grant of page " << page << " assumed; retrying";
    svm_.send_grant_ack(reply.src, page, grant.version, /*accept=*/false);
    retry_fault(page, net::MsgKind::kWriteFault);
    return;
  }
  IVY_DEBUG() << "node " << svm_.self() << " accepts grant of page " << page
              << " v" << grant.version << " from " << reply.src;
  svm_.send_grant_ack(reply.src, page, grant.version, /*accept=*/true);
  entry.owned = true;
  entry.version = grant.version;
  // Merge rather than overwrite: with distributed copysets this node may
  // itself have served readers, who must be invalidated with the rest.
  entry.copyset |= grant.copyset;
  entry.copyset.remove(svm_.self());
  entry.prob_owner = svm_.self();
  svm_.install_body(page, grant.body);
  svm_.emit({.kind = EventKind::kOwnershipGained, .page = page,
             .peer = reply.src, .version = grant.version,
             .body = grant.body != nullptr ? Body::kShipped : Body::kElided});
  svm_.invalidate_for_write(page);
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

void Manager::broadcast_locate(PageId page, net::MsgKind kind) {
  PageEntry& entry = svm_.table().at(page);
  FaultPayload payload;
  payload.page = page;
  payload.has_copy = entry.access == Access::kRead;
  payload.hint = entry.prob_owner;
  payload.broadcast = true;
  payload.copy_version = entry.version;
  // A locate runs only after the hints failed (the request bounced, or
  // was lost to poisoned routing state), so it retries briskly.
  entry.fault_rpc = svm_.rpc().broadcast(
      kind, payload, FaultPayload::kWireBytes, rpc::BcastReply::kAny,
      [this](net::Message&& reply) { on_grant(std::move(reply)); }, nullptr,
      ms(50), relocate_on_failure(page));
}

void Manager::send_fault(NodeId dst, PageId page, net::MsgKind kind) {
  PageEntry& entry = svm_.table().at(page);
  FaultPayload payload;
  payload.page = page;
  payload.has_copy = entry.access == Access::kRead;
  payload.hint = entry.prob_owner;
  payload.copy_version = entry.version;
  entry.fault_rpc = svm_.rpc().request(
      dst, kind, payload, FaultPayload::kWireBytes,
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
