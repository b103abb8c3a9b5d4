#include "ivy/rpc/remote_op.h"

#include <algorithm>
#include <utility>

#include "ivy/base/check.h"
#include "ivy/base/log.h"

namespace ivy::rpc {

namespace {

/// Absolute ceiling on the backoff wait: keeps recovery after a long
/// partition bounded instead of letting waits double without end.
constexpr Time kBackoffCap = sec(4);

/// Bound on the duplicate-reply suppression set (mirrors the done-cache
/// philosophy: bounded memory, graceful degradation to the orphan path).
constexpr std::size_t kRepliedCacheCapacity = 4096;

}  // namespace

RemoteOp::RemoteOp(sim::Simulator& sim, net::Ring& ring, Stats& stats,
                   NodeId self)
    : sim_(sim), ring_(ring), stats_(stats), self_(self),
      // rpc ids are globally unique: node id in the top bits.
      next_rpc_id_((static_cast<std::uint64_t>(self) << 40) + 1),
      origin_marks_(ring.nodes()),
      // Per-node jitter stream; only retransmissions draw from it.
      backoff_rng_(0xb0ff'0000'0000ULL ^ (static_cast<std::uint64_t>(self))) {
  ring_.set_handler(self, [this](net::Message&& msg) {
    on_message(std::move(msg));
  });
}

std::uint64_t RemoteOp::request(NodeId dst, net::MsgKind kind,
                                net::Payload payload, ReplyCallback on_reply,
                                Time timeout, FailureCallback on_fail) {
  IVY_CHECK(on_reply != nullptr);
  IVY_CHECK_NE(dst, self_);
  return launch(new_request(dst, kind, std::move(payload)),
                {.on_reply = std::move(on_reply),
                 .on_fail = std::move(on_fail),
                 .timeout = timeout});
}

std::uint64_t RemoteOp::broadcast(net::MsgKind kind, net::Payload payload,
                                  BcastReply scheme, ReplyCallback on_first,
                                  AllRepliesCallback on_all, Time timeout,
                                  FailureCallback on_fail) {
  net::Message msg = new_request(kBroadcast, kind, std::move(payload));
  switch (scheme) {
    case BcastReply::kNone: {
      IVY_CHECK(on_first == nullptr && on_all == nullptr);
      const std::uint64_t id = msg.rpc_id;
      transmit(std::move(msg));
      return id;
    }
    case BcastReply::kAny:
      IVY_CHECK(on_first != nullptr && on_all == nullptr);
      return launch(std::move(msg), {.on_reply = std::move(on_first),
                                     .on_fail = std::move(on_fail),
                                     .timeout = timeout});
    case BcastReply::kAll:
      IVY_CHECK(on_first == nullptr && on_all != nullptr);
      IVY_CHECK_GT(ring_.nodes(), 1u);
      return launch(std::move(msg), {.on_all = std::move(on_all),
                                     .on_fail = std::move(on_fail),
                                     .expected_replies = ring_.nodes() - 1,
                                     .timeout = timeout});
  }
  IVY_UNREACHABLE("unknown broadcast reply scheme");
}

std::uint64_t RemoteOp::multicast(NodeSet targets, net::MsgKind kind,
                                  net::Payload payload,
                                  AllRepliesCallback on_all, Time timeout,
                                  FailureCallback on_fail,
                                  bool deliver_to_all) {
  IVY_CHECK(on_all != nullptr);
  IVY_CHECK(!targets.empty());
  IVY_CHECK(!targets.contains(self_));
  net::Message msg = new_request(deliver_to_all ? kBroadcast : kMulticast,
                                 kind, std::move(payload));
  msg.mcast = targets;
  const auto expected = static_cast<std::uint32_t>(targets.count());
  return launch(std::move(msg), {.on_all = std::move(on_all),
                                 .on_fail = std::move(on_fail),
                                 .expected_replies = expected,
                                 .timeout = timeout});
}

net::Message RemoteOp::new_request(NodeId dst, net::MsgKind kind,
                                   net::Payload payload) {
  const std::uint32_t bytes = net::wire_bytes(payload);
  return {.src = self_, .dst = dst, .kind = kind, .rpc_id = next_rpc_id_++,
          .origin = self_, .payload = std::move(payload), .wire_bytes = bytes};
}

std::uint64_t RemoteOp::launch(net::Message msg, Outstanding out) {
  const std::uint64_t id = msg.rpc_id;
  out.original = msg;
  out.first_sent = sim_.now();
  out.last_sent = out.first_sent;
  outstanding_.emplace(id, std::move(out));
  emit({.kind = EventKind::kRequestSent, .rpc_id = id, .peer = msg.dst});
  transmit(std::move(msg));
  arm_retransmit_timer();
  return id;
}

void RemoteOp::set_handler(net::MsgKind kind, ServerHandler handler) {
  IVY_CHECK(handler != nullptr);
  const std::size_t i = net::kind_index(kind);
  IVY_CHECK_LT(i, net::kMsgKinds);
  handlers_[i] = std::move(handler);
}

void RemoteOp::reply_to(const net::Message& req, net::Payload payload,
                        SentCallback on_sent) {
  reply(reply_later(req), std::move(payload), std::move(on_sent));
}

void RemoteOp::reply(const PendingReply& pending, net::Payload payload,
                     SentCallback on_sent) {
  const std::uint64_t key = dedup_key(pending.origin, pending.rpc_id);
  in_progress_.erase(key);
  // Cache the reply so a retransmission can be answered without
  // re-executing the operation ("resend replies only when necessary").
  done_cache_.push_back(DoneEntry{key, payload, pending.kind, pending.origin,
                                  pending.attempt});
  std::uint64_t& high = origin_marks_[pending.origin].done_high;
  high = std::max(high, pending.rpc_id);
  while (done_cache_.size() > done_cache_capacity_) evict_done_front();

  const std::uint32_t bytes = net::wire_bytes(payload);
  net::Message msg{.src = self_, .dst = pending.origin, .kind = pending.kind,
                   .rpc_id = pending.rpc_id, .origin = pending.origin,
                   .is_reply = true, .payload = std::move(payload),
                   .wire_bytes = bytes};
  emit({.kind = EventKind::kReplySent, .rpc_id = pending.rpc_id,
        .peer = pending.origin, .msg = pending.kind});
  // Model the server-side software time before the reply hits the wire.
  sim_.schedule_after(sim_.costs().fault_server,
                      [this, m = std::move(msg),
                       on_sent = std::move(on_sent)]() mutable {
                        transmit(std::move(m));
                        if (on_sent) on_sent();
                      });
}

void RemoteOp::evict_done_front() {
  const DoneEntry& old = done_cache_.front();
  // Remember the highest evicted rpc id per origin: a duplicate at or
  // below the watermark may silently re-execute (see the idempotence
  // contract in the header).
  const std::uint64_t rpc =
      old.key ^ (static_cast<std::uint64_t>(old.origin) << 48);
  std::uint64_t& wm = origin_marks_[old.origin].evicted;
  wm = std::max(wm, rpc);
  emit({.kind = EventKind::kDoneEvicted});
  done_cache_.pop_front();
}

void RemoteOp::set_done_cache_capacity(std::size_t capacity) {
  done_cache_capacity_ = capacity;
  while (done_cache_.size() > done_cache_capacity_) evict_done_front();
}

void RemoteOp::ignore(const net::Message& req) {
  in_progress_.erase(dedup_key(req.origin, req.rpc_id));
}

void RemoteOp::cancel(std::uint64_t rpc_id) {
  if (outstanding_.erase(rpc_id) > 0) {
    emit({.kind = EventKind::kCancelled, .rpc_id = rpc_id});
  }
}

void RemoteOp::forward(net::Message&& req, NodeId next) {
  IVY_CHECK_NE(next, self_);
  // Forwarders do not answer; clear the duplicate marker so a client
  // retransmission is forwarded again (forwarding must be idempotent).
  in_progress_.erase(dedup_key(req.origin, req.rpc_id));
  emit({.kind = EventKind::kForwarded});
  req.src = self_;
  req.dst = next;
  transmit(std::move(req));
}

void RemoteOp::on_message(net::Message&& msg) {
  if (hint_consumer_) hint_consumer_(msg.src, msg.load_hint);
  if (msg.is_reply) {
    handle_reply(std::move(msg));
  } else {
    handle_request(std::move(msg));
  }
}

void RemoteOp::transmit(net::Message msg) {
  if (hint_provider_) msg.load_hint = hint_provider_();
  ring_.send(std::move(msg));
}

void RemoteOp::set_orphan_reply_handler(net::MsgKind kind,
                                        ServerHandler handler) {
  IVY_CHECK(handler != nullptr);
  const std::size_t i = net::kind_index(kind);
  IVY_CHECK_LT(i, net::kMsgKinds);
  orphan_handlers_[i] = std::move(handler);
}

void RemoteOp::handle_reply(net::Message&& msg) {
  const std::uint64_t rkey = reply_key(msg.src, msg.rpc_id);
  if (replied_.contains(rkey)) {
    // Exact duplicate (fault-injected duplication, or a cached resend
    // crossing the first copy) of a reply this node already processed.
    // Acting on it again could contradict the first decision — e.g. the
    // orphan absorber re-judging a grant it already acked.
    return;
  }
  auto it = outstanding_.find(msg.rpc_id);
  if (it == outstanding_.end()) {
    note_replied(rkey);
    emit({.kind = EventKind::kOrphanReply, .rpc_id = msg.rpc_id,
          .peer = msg.src});
    // Late duplicate.  Give resource-bearing replies a chance to be
    // absorbed; drop the rest.
    if (const std::size_t i = net::kind_index(msg.kind);
        i < net::kMsgKinds && orphan_handlers_[i]) {
      orphan_handlers_[i](std::move(msg));
    }
    return;
  }
  Outstanding& out = it->second;
  // kAll broadcast: one reply per peer; duplicates from the same peer
  // (reply resends) must not double-count.
  if (out.on_all &&
      std::any_of(out.replies.begin(), out.replies.end(),
                  [&](const net::Message& m) { return m.src == msg.src; })) {
    return;
  }
  note_replied(rkey);
  const Event done{.kind = EventKind::kReplyReceived, .rpc_id = msg.rpc_id,
                   .peer = out.on_all ? kBroadcast : msg.src,
                   .msg = out.original.kind, .start = out.first_sent};
  if (out.on_all) {
    out.replies.push_back(std::move(msg));
    if (out.replies.size() < out.expected_replies) return;
  }
  Outstanding finished = std::move(out);
  outstanding_.erase(it);
  emit(done);
  if (finished.on_all) {
    finished.on_all(std::move(finished.replies));
  } else {
    finished.on_reply(std::move(msg));
  }
}

void RemoteOp::note_replied(std::uint64_t key) {
  replied_.insert(key);
  replied_order_.push_back(key);
  if (replied_order_.size() > kRepliedCacheCapacity) {
    replied_.erase(replied_order_.front());
    replied_order_.pop_front();
  }
}

void RemoteOp::handle_request(net::Message&& msg) {
  const std::uint64_t key = dedup_key(msg.origin, msg.rpc_id);
  // Completed before?  Only a retransmission — a higher attempt than the
  // one answered — means the reply was lost; resend the cached reply to
  // it.  Any other copy trails the one served and is dropped.  An id above
  // every id cached from its origin was never answered: no scan.
  if (msg.rpc_id <= origin_marks_[msg.origin].done_high) {
    for (DoneEntry& done : done_cache_) {
      if (done.key != key) continue;
      if (msg.attempt <= done.attempt) return;
      done.attempt = msg.attempt;
      emit({.kind = EventKind::kReplyResent, .rpc_id = msg.rpc_id,
            .peer = done.origin});
      transmit({.src = self_, .dst = done.origin, .kind = done.kind,
                .rpc_id = msg.rpc_id, .origin = done.origin,
                .is_reply = true, .payload = done.payload,
                .wire_bytes = net::wire_bytes(done.payload)});
      return;
    }
  }
  // Still being served?  The reply is on its way; drop the duplicate.
  if (!in_progress_.insert(key).second) return;

  // Heuristic re-execution detector: rpc ids are per-origin monotone, so
  // a "new" request at or below the origin's eviction watermark is old
  // enough to be a duplicate whose cached reply was evicted.
  if (msg.rpc_id <= origin_marks_[msg.origin].evicted) {
    emit({.kind = EventKind::kDupReexecuted});
  }

  const std::size_t i = net::kind_index(msg.kind);
  IVY_CHECK_MSG(i < net::kMsgKinds && handlers_[i] != nullptr,
                "node " << self_ << " has no handler for "
                        << net::to_string(msg.kind));
  handlers_[i](std::move(msg));
}

void RemoteOp::arm_retransmit_timer() {
  if (timer_armed_ || outstanding_.empty()) return;
  timer_armed_ = true;
  sim_.schedule_after(check_interval_, [this] {
    timer_armed_ = false;
    retransmit_scan();
    arm_retransmit_timer();  // keep checking while requests are pending
  });
}

void RemoteOp::retransmit_scan() {
  const Time now = sim_.now();
  std::vector<std::uint64_t> failed;
  for (auto& [id, out] : outstanding_) {
    const Time base = out.timeout != 0 ? out.timeout : request_timeout_;
    // First retransmit fires at the base timeout; later ones wait the
    // backed-off (jittered) interval computed after the previous send.
    const Time wait = out.backoff_wait != 0 ? out.backoff_wait : base;
    if (now - out.last_sent < wait) continue;
    if (out.retransmits >= max_retransmits_) {
      failed.push_back(id);
      continue;
    }
    ++out.retransmits;
    IVY_DEBUG() << "node " << self_ << " retransmits rpc " << id << " ("
                << net::to_string(out.original.kind) << ") attempt "
                << out.retransmits;
    emit({.kind = EventKind::kRetransmitted, .rpc_id = id,
          .peer = out.original.dst, .msg = out.original.kind,
          .attempt = out.retransmits});
    out.backoff_wait = next_backoff(wait);
    out.last_sent = now;
    out.original.attempt = out.retransmits;
    transmit(out.original);  // copy; payload shared_ptr bodies stay cheap
  }
  // Failures are surfaced after the scan: the callbacks may issue new
  // requests, which would invalidate the iteration above.
  for (const std::uint64_t id : failed) {
    auto it = outstanding_.find(id);
    if (it == outstanding_.end()) continue;
    Outstanding out = std::move(it->second);
    outstanding_.erase(it);
    fail_request(id, std::move(out));
  }
}

Time RemoteOp::next_backoff(Time prev) {
  const Time doubled = prev >= kBackoffCap / 2 ? kBackoffCap : prev * 2;
  // +-25% jitter, deterministic per node: spreads retransmissions of
  // nodes that lost frames in the same window.
  const Time quarter = std::max<Time>(doubled / 4, 1);
  return doubled - quarter +
         static_cast<Time>(
             backoff_rng_.below(static_cast<std::uint64_t>(2 * quarter)));
}

void RemoteOp::fail_request(std::uint64_t id, Outstanding&& out) {
  emit({.kind = EventKind::kFailed, .rpc_id = id, .peer = out.original.dst});
  RequestFailure failure;
  failure.rpc_id = id;
  failure.kind = out.original.kind;
  failure.dst = out.original.dst;
  failure.attempts = out.retransmits + 1;  // the original send counts
  failure.first_sent = out.first_sent;
  IVY_WARN() << "node " << self_ << " rpc " << id << " ("
             << net::to_string(failure.kind) << " -> "
             << (failure.dst >= kMulticast ? -1
                                           : static_cast<int>(failure.dst))
             << ") failed after " << failure.attempts << " attempts";
  if (out.on_fail) {
    out.on_fail(failure);
    return;
  }
  if (failure_handler_) {
    failure_handler_(failure);
    return;
  }
  IVY_CHECK_MSG(false, "node " << self_ << " rpc " << id << " ("
                               << net::to_string(failure.kind)
                               << ") exhausted its retransmission budget "
                                  "with no failure handler installed");
}

}  // namespace ivy::rpc
