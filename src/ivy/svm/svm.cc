#include "ivy/svm/svm.h"

#include <cstring>
#include <memory>
#include <utility>

#include "ivy/base/log.h"
#include "ivy/sim/fiber.h"
#include "ivy/svm/manager.h"

namespace ivy::svm {

const char* to_string(ManagerKind kind) {
  switch (kind) {
    case ManagerKind::kCentralized: return "centralized";
    case ManagerKind::kFixedDistributed: return "fixed_distributed";
    case ManagerKind::kDynamicDistributed: return "dynamic_distributed";
    case ManagerKind::kBroadcast: return "broadcast";
  }
  return "?";
}

Svm::Svm(sim::Simulator& sim, rpc::RemoteOp& rpc, Stats& stats, NodeId self,
         NodeId num_nodes, const SvmOptions& options)
    : sim_(sim),
      rpc_(rpc),
      stats_(stats),
      self_(self),
      nodes_(num_nodes),
      options_(options),
      sink_(options.sink),
      table_(options.geo, options.initial_owner, self),
      pool_(self, options.geo.page_size, options.frames_per_node,
            options.replacement, options.seed),
      disk_(stats, sim.costs(), self) {
  IVY_CHECK_LT(self, num_nodes);
  IVY_CHECK_LT(options.initial_owner, num_nodes);
  IVY_CHECK_LT(options.manager_node, num_nodes);

  pool_.set_evict_callback([this](PageId page, std::span<const std::byte> b) {
    return on_evict(page, b);
  });
  manager_ = Manager::create(*this);

  auto to_manager = [this](net::Message&& msg) {
    manager_->on_fault_request(std::move(msg));
  };
  rpc_.set_handler(net::MsgKind::kReadFault, to_manager);
  rpc_.set_handler(net::MsgKind::kWriteFault, to_manager);
  // Ownership is a conserved token: a grant that raced past its (already
  // answered) request must be absorbed, not dropped.
  auto orphan = [this](net::Message&& msg) {
    absorb_grant(std::get<net::GrantPayload>(msg.payload), msg.src);
  };
  rpc_.set_orphan_reply_handler(net::MsgKind::kReadFault, orphan);
  rpc_.set_orphan_reply_handler(net::MsgKind::kWriteFault, orphan);
  auto invalidate = [this](net::Message&& msg) {
    on_invalidate(std::move(msg));
  };
  rpc_.set_handler(net::MsgKind::kInvalidate, invalidate);
  rpc_.set_handler(net::MsgKind::kInvalidateBcast, invalidate);
  rpc_.set_handler(net::MsgKind::kGrantAck, [this](net::Message&& msg) {
    on_grant_ack(std::move(msg));
  });
  rpc_.set_handler(net::MsgKind::kGrantPush, [this](net::Message&& msg) {
    on_grant_push(std::move(msg));
  });
}

Svm::~Svm() = default;

void Svm::request_access(PageId page, Access want,
                         std::function<void()> done) {
  IVY_CHECK(want != Access::kNil);
  PageEntry& entry = table_.at(page);
  if (satisfies(entry.access, want)) {
    done();
    return;
  }
  table_.queues(page).local_waiters.push_back(
      LocalWaiter{want, std::move(done)});
  if (entry.fault_in_progress) {
    // A fault for this page is already in flight; the waiter queues on
    // it.  If the level is insufficient the drain loop re-requests.
    return;
  }
  entry.fault_in_progress = true;
  entry.fault_level = want;
  entry.fault_start = sim_.now();
  if (entry.owned && entry.on_disk) {
    // Owner's image was paged out: a plain disk fault, no protocol.
    emit({.kind = EventKind::kDiskFault, .page = page, .level = want});
    entry.fault_in_progress = false;  // begin_disk_restore re-arms it
    begin_disk_restore(page);
    return;
  }
  emit({.kind = EventKind::kFaultStart, .page = page, .level = want});
  manager_->start_fault(page, want);
}

bool Svm::claim(PageId page, Access want) {
  PageEntry& entry = table_.at(page);
  if (!satisfies(entry.access, want)) return false;
  if (entry.grace > 0) consume_grace(page, entry);
  return true;
}

void Svm::read_bytes(SvmAddr addr, std::span<std::byte> out) {
  const Geometry& geo = options_.geo;
  std::size_t done = 0;
  while (done < out.size()) {
    const SvmAddr a = addr + done;
    const PageId page = geo.page_of(a);
    const std::size_t off = geo.offset_of(a);
    const std::size_t chunk = std::min(out.size() - done, geo.page_size - off);
    const PageEntry& entry = table_.at(page);
    IVY_CHECK_MSG(satisfies(entry.access, Access::kRead),
                  "read without access: node " << self_ << " page " << page);
    const std::byte* frame = usable_frame(page);
    std::memcpy(out.data() + done, frame + off, chunk);
    done += chunk;
  }
}

void Svm::write_bytes(SvmAddr addr, std::span<const std::byte> in) {
  const Geometry& geo = options_.geo;
  std::size_t done = 0;
  while (done < in.size()) {
    const SvmAddr a = addr + done;
    const PageId page = geo.page_of(a);
    const std::size_t off = geo.offset_of(a);
    const std::size_t chunk = std::min(in.size() - done, geo.page_size - off);
    PageEntry& entry = table_.at(page);
    IVY_CHECK_MSG(satisfies(entry.access, Access::kWrite),
                  "write without access: node " << self_ << " page " << page);
    std::byte* frame = usable_frame(page);
    std::memcpy(frame + off, in.data() + done, chunk);
    entry.disk_current = false;
    done += chunk;
  }
}

std::byte* Svm::zero_frame(PageId page) {
  // Lazily materialize a zero page: only the owner of a never-touched,
  // never-spilled page may be here.
  const PageEntry& entry = table_.at(page);
  IVY_CHECK_MSG(entry.owned && !entry.on_disk,
                "no frame for accessible page " << page << " on node "
                                                << self_);
  return pool_.acquire(page);
}

void Svm::begin_disk_restore(PageId page) {
  PageEntry& entry = table_.at(page);
  IVY_CHECK(entry.owned && entry.on_disk);
  IVY_CHECK(!entry.fault_in_progress);
  entry.fault_in_progress = true;
  entry.fault_level = Access::kNil;
  entry.fault_start = sim_.now();
  emit({.kind = EventKind::kDiskRestore, .page = page});
  // Under the integrated scheduler a page-in blocks only the processes
  // that wait for the page; the CPU runs on.
  if (options_.disk_io_stalls_node) book_disk(sim_.costs().disk_io);
  sim_.schedule_after(sim_.costs().disk_io, [this, page] {
    PageEntry& e = table_.at(page);
    IVY_CHECK(e.owned && e.on_disk);
    std::byte* bytes = pool_.acquire(page);
    disk_.read(page, std::span<std::byte>(bytes, options_.geo.page_size));
    // The image stays on disk: until the frame is written, evicting it
    // again costs nothing.
    e.on_disk = false;
    e.disk_current = true;
    e.access = e.copyset.empty() ? Access::kWrite : Access::kRead;
    // Reported at IO completion, not at schedule time, which would
    // timestamp the stall before it happened.
    emit({.kind = EventKind::kDiskRestored, .page = page,
          .start = sim_.now() - sim_.costs().disk_io});
    complete_fault(page);
  });
}

net::PageBody Svm::snapshot(PageId page) {
  const std::byte* bytes = usable_frame(page);
  return std::make_shared<const std::vector<std::byte>>(
      bytes, bytes + options_.geo.page_size);
}

void Svm::install_body(PageId page, const net::PageBody& body) {
  if (body == nullptr) {
    // Ownership-only grant: we promised we still hold a valid copy.
    IVY_CHECK_MSG(pool_.resident(page),
                  "bodyless grant but no local copy of page " << page);
    return;
  }
  IVY_CHECK_EQ(body->size(), options_.geo.page_size);
  std::byte* bytes = pool_.acquire(page);
  std::memcpy(bytes, body->data(), body->size());
}

void Svm::complete_fault(PageId page) {
  PageEntry& entry = table_.at(page);
  IVY_CHECK(entry.fault_in_progress);
  const Access level = entry.fault_level;
  entry.fault_in_progress = false;
  entry.fault_level = Access::kNil;
  entry.bounce_count = 0;
  entry.lost_retries = 0;
  // kNil marks protocol-internal holds (disk restore, outbound transfer).
  emit({.kind = EventKind::kFaultComplete, .page = page,
        .start = entry.fault_start, .level = level});
  if (level != Access::kNil) {
    // The fault may have ended through an absorbed grant while its own
    // request was still out.  Retire that request: left outstanding it
    // retransmits past the fault's end, and its reply would be taken for
    // the grant of this node's next fault on the page.  A reply that
    // still arrives goes to the orphan absorber.
    rpc_.cancel(entry.fault_rpc);
  }

  auto waiters = table_.take(page, &PageQueues::local_waiters);
  int satisfied = 0;
  for (LocalWaiter& w : waiters) {
    if (satisfies(entry.access, w.want)) {
      ++satisfied;
      w.resume();
    } else {
      // Fault completed below the waiter's level (e.g. read grant while a
      // writer queued behind it): start the next fault.
      request_access(page, w.want, std::move(w.resume));
    }
  }
  if (satisfied > 0) {
    // Hold deferred remote requests until each satisfied waiter performed
    // its access (Svm::reference consumes the grace); see
    // PageEntry::grace.
    entry.grace = satisfied;
    // Liveness backstop: if the granted processes never touch the page
    // (e.g. one migrated away first), release the hold after a bounded
    // delay rather than starving remote requesters.
    sim_.schedule_after(50 * sim_.costs().context_switch, [this, page] {
      PageEntry& e = table_.at(page);
      if (e.grace > 0 && !e.fault_in_progress) {
        e.grace = 0;
        replay_deferred(page);
      }
    });
    return;
  }
  replay_deferred(page);
}

void Svm::consume_grace(PageId page, PageEntry& entry) {
  if (--entry.grace == 0 && !entry.fault_in_progress) {
    // Replay as a follow-up event, not synchronously: we are inside the
    // running process's access sequence, and serving a deferred write
    // request here would revoke the page mid-"instruction".
    sim_.schedule_at(sim_.now(), [this, page] {
      const PageEntry& e = table_.at(page);
      if (!e.busy()) replay_deferred(page);
    });
  }
}

void Svm::replay_deferred(PageId page) {
  auto deferred = table_.take(page, &PageQueues::deferred_requests);
  for (net::Message& msg : deferred) {
    manager_->on_fault_request(std::move(msg));
  }
}

void Svm::defer_request(PageId page, net::Message&& msg) {
  IVY_DEBUG() << "node " << self_ << " defers " << net::to_string(msg.kind)
              << " from " << msg.origin << " for page " << page;
  table_.queues(page).deferred_requests.push_back(std::move(msg));
}

void Svm::invalidate_copies(PageId page, std::function<void()> done) {
  // Copy everything needed out of the entry up front: the event sink
  // and the ack continuations below are callouts that may change the
  // entry before the round completes.
  const NodeSet copyset = table_.at(page).copyset;
  const std::uint64_t version = table_.at(page).version;
  if (copyset.empty()) {
    done();
    return;
  }
  IVY_CHECK(!copyset.contains(self_));  // owner never in its own copyset
  const int copies = copyset.count();
  emit({.kind = EventKind::kInvalidateStart, .page = page, .version = version,
        .copies = copies});
  // Wrap the continuation so the full invalidation round (request out to
  // last ack in) is timed, whichever reply scheme runs it.
  done = [this, page, copies, version, start = sim_.now(),
          done = std::move(done)] {
    emit({.kind = EventKind::kInvalidateDone, .page = page, .version = version,
          .start = start, .copies = copies});
    done();
  };
  const net::InvalidatePayload payload{page, self_, version, copyset};

  if (!multicast_round(copies)) {
    // A single holder: a unicast is already one frame.
    NodeId member = kNoNode;
    copyset.for_each([&](NodeId n) { member = n; });
    rpc_.request(member, net::MsgKind::kInvalidate, payload,
                 [done = std::move(done)](net::Message&&) { done(); });
    return;
  }

  // One frame on the ring for the whole copyset (token-ring multicast
  // costs one rotation), acknowledged by the actual holders only.  The
  // broadcast_invalidation variant puts a true broadcast frame on the
  // wire (every station copies it) but still completes on the holders'
  // acks — bystander acks no longer pad Hist::kInvalidateRound.
  rpc_.multicast(copyset,
                 options_.broadcast_invalidation
                     ? net::MsgKind::kInvalidateBcast
                     : net::MsgKind::kInvalidate,
                 payload,
                 [done = std::move(done)](std::vector<net::Message>&&) {
                   done();
                 },
                 /*timeout=*/0, /*on_fail=*/nullptr,
                 /*deliver_to_all=*/options_.broadcast_invalidation);
}

void Svm::invalidate_for_write(PageId page) {
  invalidate_copies(page, [this, page, ver = table_.at(page).version] {
    PageEntry& e = table_.at(page);
    // Commit only if the round is still current: a newer round (a
    // duplicate grant can start one), a completed fault or a grant-away
    // supersede it — restoring write access would fork the writer token.
    if (!e.owned || e.version != ver || !e.fault_in_progress) return;
    e.copyset.clear();
    e.access = Access::kWrite;
    complete_fault(page);
  });
}

void Svm::on_invalidate(net::Message&& msg) {
  const auto payload = std::get<net::InvalidatePayload>(msg.payload);
  if (!payload.copyset.contains(self_)) {
    // A bystander of the round (a broadcast frame every station copies):
    // apply nothing and send no ack.  An ack here would count toward the
    // round's expected replies and could complete it before a real holder
    // was invalidated — a transient stale read.
    rpc_.ignore(msg);
    return;
  }
  PageEntry& entry = table_.at(payload.page);
  // The owner never receives a valid invalidation for its own page, and
  // a copy at version >= the invalidation's was granted by a newer owner
  // state; both mean a stale retransmission.  Acknowledge regardless so
  // the invalidator can finish.
  if (!entry.owned && payload.version > entry.version) {
    entry.access = Access::kNil;
    entry.version = payload.version;
    entry.prob_owner = payload.new_owner;
    pool_.release(payload.page);
    emit({.kind = EventKind::kCopyDropped, .page = payload.page,
          .peer = payload.new_owner, .version = payload.version});
    if (options_.distributed_copysets && !entry.copyset.empty()) {
      // This copy served readers of its own (distributed copysets): the
      // invalidation recurses down the tree; acknowledge upward only
      // once every child acknowledged.
      const auto pending = rpc::RemoteOp::reply_later(msg);
      invalidate_copies(payload.page, [this, pending, page = payload.page] {
        table_.at(page).copyset.clear();
        rpc_.reply(pending, net::AckPayload{page});
      });
      return;
    }
  }
  rpc_.reply_to(msg, net::AckPayload{payload.page});
}

bool Svm::absorb_grant(const net::GrantPayload& grant, NodeId from,
                       bool answers_fault) {
  if (!grant.write_grant) return false;  // read copies carry no resource
  PageEntry& entry = table_.at(grant.page);
  if (table_.accepted_unconfirmed(grant.page, grant.version)) {
    // Duplicate of a grant this node already accepted.  Re-ack the
    // acceptance but install nothing — the first copy did.  Rejecting
    // instead could overtake the original accept (delay faults reorder
    // traffic) and abort a transfer the old owner must finalize.
    IVY_DEBUG() << "node " << self_ << " re-acks accepted grant of page "
                << grant.page << " v" << grant.version;
    send_grant_ack(from, grant.page, grant.version, /*accept=*/true);
    return false;
  }
  if (pending_transfers_.contains(grant.page) ||
      (entry.fault_in_progress && entry.fault_level == Access::kNil) ||
      grant.version <= entry.version ||
      (grant.body == nullptr && !pool_.resident(grant.page))) {
    // Stale, colliding with a protocol-internal state (outbound transfer
    // or disk restore), or bodyless without a surviving local copy:
    // abort the transfer — the old owner still holds the page and data.
    IVY_DEBUG() << "node " << self_ << " rejects grant of page "
                << grant.page << " v" << grant.version << " from " << from;
    send_grant_ack(from, grant.page, grant.version, /*accept=*/false);
    return false;
  }
  IVY_DEBUG() << "node " << self_ << " adopts grant of page " << grant.page
              << " v" << grant.version << " from " << from;
  send_grant_ack(from, grant.page, grant.version, /*accept=*/true);
  entry.owned = true;
  entry.version = grant.version;
  entry.copyset |= grant.copyset;  // keep our own served readers too
  entry.copyset.remove(self_);
  entry.prob_owner = self_;
  drop_disk_image(grant.page);
  install_body(grant.page, grant.body);
  // The answer to this node's own write fault takes write access only
  // once its invalidation round ends (invalidate_for_write).
  if (!answers_fault) {
    entry.access = entry.copyset.empty() ? Access::kWrite : Access::kRead;
  }
  emit({.kind = EventKind::kOwnershipGained, .page = grant.page, .peer = from,
        .version = grant.version,
        .body = grant.body != nullptr ? Body::kShipped : Body::kElided});
  if (answers_fault) {
    invalidate_for_write(grant.page);
  } else if (entry.access != Access::kWrite) {
    // Invalidate the inherited readers even without local write intent:
    // the grant's version was bumped at detach, so surviving copies from
    // the previous ownership era would sit below the owner's version
    // forever (the next writer would invalidate them anyway, but a page
    // can settle in this skewed state and read as a lost invalidation).
    if (!entry.fault_in_progress) {
      // Hold the page busy for the round (like a disk restore) so a
      // concurrent local upgrade cannot start a colliding round.
      entry.fault_in_progress = true;
      entry.fault_level = Access::kNil;
      entry.fault_start = sim_.now();
    } else if (entry.fault_level == Access::kWrite) {
      ++entry.version;  // the local write starts a new version
    }
    invalidate_for_write(grant.page);
  } else if (entry.fault_in_progress) {
    // The adopted ownership satisfies our own outstanding fault: finish
    // it now, or our re-issued request would chase a chain ending here.
    complete_fault(grant.page);
  }
  return true;
}

net::GrantPayload Svm::begin_pending_transfer(PageId page, NodeId to,
                                              std::uint64_t version,
                                              bool bodyless) {
  PageEntry& entry = table_.at(page);
  IVY_CHECK(entry.owned);
  IVY_CHECK(!entry.fault_in_progress);
  PendingTransfer& pending = pending_transfers_[page] = PendingTransfer{
      .to = to, .version = version, .bodyless = bodyless};
  net::GrantPayload grant = write_grant(page, pending);
  // Hold the token (and the data) until the new owner confirms; defer
  // every request meanwhile via the fault-in-progress machinery.
  entry.access = Access::kNil;
  entry.fault_in_progress = true;
  entry.fault_level = Access::kNil;
  entry.fault_start = sim_.now();
  IVY_DEBUG() << "node " << self_ << " holds page " << page
              << " pending transfer to " << to << " v" << version;
  arm_reoffer(page, pending);
  return grant;
}

net::GrantPayload Svm::write_grant(PageId page, const PendingTransfer& pending) {
  net::GrantPayload grant{.page = page, .copyset = table_.at(page).copyset,
                          .version = pending.version, .write_grant = true};
  grant.copyset.remove(pending.to);
  // A bodyless grant stays bodyless on every resend and re-offer: the
  // target's read copy is pinned by its outstanding fault (busy pages
  // never evict), and absorb_grant rejects the grant if the copy is
  // somehow gone, so the retry re-faults with has_copy=false.
  if (!pending.bodyless) grant.body = snapshot(page);
  return grant;
}

void Svm::note_grant_sent(PageId page, std::uint64_t version) {
  auto it = pending_transfers_.find(page);
  if (it == pending_transfers_.end() || it->second.version != version) return;
  it->second.grant_sent = true;
  // The requests held so far follow the grant at once
  // (Manager::on_fault_request hands them off).
  replay_deferred(page);
}

NodeId Svm::granted_to(PageId page) const {
  auto it = pending_transfers_.find(page);
  return it != pending_transfers_.end() && it->second.grant_sent
             ? it->second.to
             : kNoNode;
}

void Svm::arm_reoffer(PageId page, PendingTransfer& pending) {
  // Quiet period before re-offering: long enough that the requester's own
  // retransmissions (which make the old owner resend the grant) have had
  // every chance first.
  const Time wait = 4 * rpc_.request_timeout();
  pending.reoffer = sim_.schedule_after(
      wait, [this, page, version = pending.version] {
        auto it = pending_transfers_.find(page);
        if (it == pending_transfers_.end() || it->second.version != version) {
          return;  // settled (on_grant_ack cancels the timer first)
        }
        if (!it->second.push_in_flight) push_pending_grant(page);
        arm_reoffer(page, it->second);
      });
}

void Svm::push_pending_grant(PageId page) {
  auto it = pending_transfers_.find(page);
  IVY_CHECK(it != pending_transfers_.end());
  PendingTransfer& pending = it->second;
  const net::GrantPayload grant = write_grant(page, pending);
  pending.push_in_flight = true;
  emit({.kind = EventKind::kGrantReoffered, .page = page, .peer = pending.to,
        .version = pending.version});
  IVY_DEBUG() << "node " << self_ << " re-offers unacked grant of page "
              << page << " v" << pending.version << " to " << pending.to;
  const auto clear = [this, page, version = pending.version] {
    auto i = pending_transfers_.find(page);
    if (i != pending_transfers_.end() && i->second.version == version) {
      i->second.push_in_flight = false;
    }
  };
  rpc_.request(pending.to, net::MsgKind::kGrantPush, grant,
               [clear](net::Message&&) { clear(); },
               /*timeout=*/0, [clear](const rpc::RequestFailure&) { clear(); });
}

void Svm::on_grant_push(net::Message&& msg) {
  const auto grant = std::get<net::GrantPayload>(msg.payload);
  // absorb_grant adopts or rejects the offer and sends the kGrantAck that
  // settles the pusher's pending transfer; the push reply itself only
  // confirms delivery.
  absorb_grant(grant, msg.origin);
  rpc_.reply_to(msg, net::AckPayload{grant.page});
}

void Svm::send_grant_ack(NodeId to, PageId page, std::uint64_t version,
                         bool accept) {
  if (accept) {
    // Remember the acceptance until the old owner confirms it processed
    // the ack (the request's reply): duplicates of this grant arriving
    // meanwhile must be re-acked accept, never rejected.  Bounded as a
    // backstop against a terminally-failed ack (a re-offered grant will
    // re-drive the handshake in that case).
    auto& set = table_.queues(page).unconfirmed_accepts;
    if (std::find(set.begin(), set.end(), version) == set.end()) {
      set.push_back(version);
      if (set.size() > 8) set.erase(set.begin());
    }
  }
  rpc_.request(to, net::MsgKind::kGrantAck,
               net::GrantAckPayload{page, version, accept},
               [this, page, version, accept](net::Message&&) {
                 if (accept) table_.confirm_accept(page, version);
               },
               /*timeout=*/0,
               [](const rpc::RequestFailure&) {
                 // Terminal ack loss: keep the version marked; the old
                 // owner's grant re-offer restarts the handshake.
               });
}

void Svm::on_grant_ack(net::Message&& msg) {
  const auto ack = std::get<net::GrantAckPayload>(msg.payload);
  auto it = pending_transfers_.find(ack.page);
  if (it == pending_transfers_.end() || it->second.version != ack.version) {
    // Duplicate ack for an already-settled transfer.
    IVY_DEBUG() << "node " << self_ << " ignores settled grant-ack for page "
                << ack.page << " v" << ack.version << " accept=" << ack.accept;
    rpc_.reply_to(msg, net::AckPayload{ack.page});
    return;
  }
  IVY_DEBUG() << "node " << self_ << " grant-ack for page " << ack.page
              << " v" << ack.version << " accept=" << ack.accept << " from "
              << msg.origin;
  PageEntry& entry = table_.at(ack.page);
  IVY_CHECK_MSG(entry.owned && entry.fault_in_progress,
                "grant-ack state: node " << self_ << " page " << ack.page
                    << " owned=" << entry.owned << " fip="
                    << entry.fault_in_progress << " lvl="
                    << static_cast<int>(entry.fault_level) << " acc="
                    << to_string(entry.access) << " ver=" << entry.version
                    << " ackver=" << ack.version << " accept="
                    << ack.accept << " to=" << it->second.to);
  if (ack.accept) {
    // Transfer landed: fully relinquish.
    entry.owned = false;
    entry.copyset.clear();
    entry.prob_owner = it->second.to;
    pool_.release(ack.page);
    drop_disk_image(ack.page);
    emit({.kind = EventKind::kOwnershipReleased, .page = ack.page,
          .peer = it->second.to, .version = ack.version,
          .start = entry.fault_start});
  } else {
    // Transfer aborted (receiver found the grant stale): resume
    // ownership; the frame and copyset were never touched.
    entry.access = entry.copyset.empty() ? Access::kWrite : Access::kRead;
    emit({.kind = EventKind::kTransferAborted, .page = ack.page,
          .peer = it->second.to, .version = ack.version});
  }
  // Settled: the re-offer timer could only find the transfer gone.
  const bool cancelled = sim_.cancel(it->second.reoffer);
  IVY_CHECK(cancelled);
  pending_transfers_.erase(it);
  rpc_.reply_to(msg, net::AckPayload{ack.page});
  complete_fault(ack.page);  // replay everything deferred meanwhile
}

bool Svm::resend_pending_grant(const net::Message& msg) {
  if (msg.kind != net::MsgKind::kWriteFault) return false;
  const auto payload = std::get<net::FaultPayload>(msg.payload);
  auto it = pending_transfers_.find(payload.page);
  if (it == pending_transfers_.end() || it->second.to != msg.origin) {
    return false;
  }
  // The grant (or its cached resend) was lost; rebuild it from the held
  // state.
  const net::GrantPayload grant = write_grant(payload.page, it->second);
  IVY_DEBUG() << "node " << self_ << " resends pending grant of page "
              << payload.page << " v" << it->second.version << " to "
              << msg.origin << (it->second.bodyless ? " (bodyless)" : "");
  emit({.kind = EventKind::kGrantResent, .page = payload.page,
        .peer = msg.origin, .version = it->second.version,
        .body = it->second.bodyless ? Body::kElided : Body::kShipped});
  rpc_.reply_to(msg, grant);
  return true;
}

PageTransfer Svm::detach_page(PageId page, NodeId new_owner, bool with_body) {
  PageEntry& entry = table_.at(page);
  IVY_CHECK_MSG(entry.owned, "detach of non-owned page " << page);
  IVY_CHECK_MSG(!entry.fault_in_progress,
                "detach during fault on page " << page);
  PageTransfer transfer;
  transfer.page = page;
  transfer.copyset = entry.copyset;
  ++entry.version;  // ownership changes bump the version
  transfer.version = entry.version;
  if (with_body) {
    if (!entry.on_disk && entry.copyset.contains(new_owner)) {
      // The receiver holds a valid read copy: copyset membership at the
      // owner implies content-current (an owner with a non-empty copyset
      // cannot have written).  Move ownership without the kilobyte.
      transfer.body_elided = true;
    } else {
      if (entry.on_disk) {
        std::byte* bytes = pool_.acquire(page);
        disk_.read(page, std::span<std::byte>(bytes, options_.geo.page_size));
        book_disk(sim_.costs().disk_io);
      }
      transfer.body = snapshot(page);
    }
  }
  entry.owned = false;
  entry.access = Access::kNil;
  drop_disk_image(page);
  entry.copyset.clear();
  entry.prob_owner = new_owner;
  // Reported before the frame goes: the sink checksums the shipped image.
  emit({.kind = EventKind::kPageDetached, .page = page, .peer = new_owner,
        .version = transfer.version,
        .body = !with_body             ? Body::kNone
                : transfer.body_elided ? Body::kElided
                                       : Body::kShipped});
  pool_.release(page);
  return transfer;
}

void Svm::adopt_page(const PageTransfer& transfer) {
  PageEntry& entry = table_.at(transfer.page);
  IVY_CHECK(!entry.owned);
  IVY_CHECK(!entry.fault_in_progress);
  entry.owned = true;
  entry.version = transfer.version;
  entry.copyset = transfer.copyset;
  entry.copyset.remove(self_);
  drop_disk_image(transfer.page);
  entry.prob_owner = self_;
  if (transfer.body != nullptr) {
    install_body(transfer.page, transfer.body);
  } else if (transfer.body_elided) {
    // The donor elided the body because this node holds a valid copy.
    IVY_CHECK_MSG(pool_.resident(transfer.page),
                  "elided transfer body but no local copy of page "
                      << transfer.page);
  }
  entry.access = entry.copyset.empty() ? Access::kWrite : Access::kRead;
  emit({.kind = EventKind::kOwnershipGained, .page = transfer.page,
        .version = transfer.version,
        .body = transfer.body != nullptr ? Body::kShipped
                : transfer.body_elided   ? Body::kElided
                                         : Body::kNone});
}

mem::FramePool::EvictAction Svm::on_evict(PageId page,
                                          std::span<const std::byte> bytes) {
  PageEntry& entry = table_.at(page);
  if (entry.busy()) return mem::FramePool::EvictAction::kSkip;
  if (entry.owned) {
    // Only a modified page is written: a clean one's image is on disk.
    const bool write = !entry.disk_current;
    if (write) {
      disk_.write(page, bytes);
      book_disk(sim_.costs().disk_io);
    }
    entry.on_disk = true;
    entry.disk_current = false;
    entry.access = Access::kNil;
    emit({.kind = EventKind::kPagedOut, .page = page,
          .body = write ? Body::kShipped : Body::kElided});
    return mem::FramePool::EvictAction::kWriteToDisk;
  }
  entry.access = Access::kNil;
  emit({.kind = EventKind::kCopyEvicted, .page = page});
  return mem::FramePool::EvictAction::kDrop;
}

void Svm::book_disk(Time t) {
  if (options_.disk_io_stalls_node && sim::Fiber::current() == nullptr &&
      stall_hook_) {
    stall_hook_(t);
  } else {
    pending_charge_ += t;
  }
}

void Svm::drop_disk_image(PageId page) {
  PageEntry& entry = table_.at(page);
  disk_.discard(page);
  entry.on_disk = false;
  entry.disk_current = false;
}

}  // namespace ivy::svm
