#include "ivy/rpc/remote_op.h"

#include <algorithm>
#include <utility>

#include "ivy/base/check.h"
#include "ivy/base/log.h"
#include "ivy/prof/prof.h"
#include "ivy/trace/trace.h"

namespace ivy::rpc {

namespace {

/// Absolute ceiling on the backoff wait: keeps recovery after a long
/// partition bounded instead of letting waits double without end.
constexpr Time kBackoffCap = sec(4);

/// Bound on the duplicate-reply suppression set (mirrors the done-cache
/// philosophy: bounded memory, graceful degradation to the orphan path).
constexpr std::size_t kRepliedCacheCapacity = 4096;

/// Trace-event destination argument: the fan-out sentinels (broadcast,
/// multicast) all render as kMaxNodes.
constexpr NodeId event_dst(NodeId dst) {
  return dst >= kMulticast ? kMaxNodes : dst;
}

}  // namespace

RemoteOp::RemoteOp(sim::Simulator& sim, net::Ring& ring, Stats& stats,
                   NodeId self)
    : sim_(sim), ring_(ring), stats_(stats), self_(self),
      // rpc ids are globally unique: node id in the top bits.
      next_rpc_id_((static_cast<std::uint64_t>(self) << 40) + 1),
      // Per-node jitter stream; only retransmissions draw from it.
      backoff_rng_(0xb0ff'0000'0000ULL ^ (static_cast<std::uint64_t>(self))) {
  ring_.set_handler(self, [this](net::Message&& msg) {
    on_message(std::move(msg));
  });
}

std::uint64_t RemoteOp::request(NodeId dst, net::MsgKind kind,
                                std::any payload, std::uint32_t wire_bytes,
                                ReplyCallback on_reply, Time timeout,
                                FailureCallback on_fail) {
  IVY_CHECK(on_reply != nullptr);
  IVY_CHECK_NE(dst, self_);
  net::Message msg;
  msg.src = self_;
  msg.dst = dst;
  msg.kind = kind;
  msg.rpc_id = next_rpc_id_++;
  msg.origin = self_;
  msg.payload = std::move(payload);
  msg.wire_bytes = wire_bytes;

  Outstanding out;
  out.original = msg;
  out.on_reply = std::move(on_reply);
  out.on_fail = std::move(on_fail);
  out.expected_replies = 1;
  out.first_sent = sim_.now();
  out.last_sent = out.first_sent;
  out.timeout = timeout;
  const std::uint64_t id = msg.rpc_id;
  outstanding_.emplace(id, std::move(out));
  IVY_EVT(stats_, record(self_, trace::EventKind::kRpcRequest, id, dst));
  transmit(std::move(msg));
  arm_retransmit_timer();
  return id;
}

std::uint64_t RemoteOp::broadcast(net::MsgKind kind, std::any payload,
                                  std::uint32_t wire_bytes, BcastReply scheme,
                                  ReplyCallback on_first,
                                  AllRepliesCallback on_all, Time timeout,
                                  FailureCallback on_fail) {
  net::Message msg;
  msg.src = self_;
  msg.dst = kBroadcast;
  msg.kind = kind;
  msg.rpc_id = next_rpc_id_++;
  msg.origin = self_;
  msg.payload = std::move(payload);
  msg.wire_bytes = wire_bytes;
  const std::uint64_t id = msg.rpc_id;

  switch (scheme) {
    case BcastReply::kNone:
      IVY_CHECK(on_first == nullptr && on_all == nullptr);
      transmit(std::move(msg));
      return id;
    case BcastReply::kAny: {
      IVY_CHECK(on_first != nullptr && on_all == nullptr);
      Outstanding out;
      out.original = msg;
      out.on_reply = std::move(on_first);
      out.on_fail = std::move(on_fail);
      out.expected_replies = 1;
      out.first_sent = sim_.now();
      out.last_sent = out.first_sent;
      out.timeout = timeout;
      outstanding_.emplace(id, std::move(out));
      break;
    }
    case BcastReply::kAll: {
      IVY_CHECK(on_first == nullptr && on_all != nullptr);
      IVY_CHECK_GT(ring_.nodes(), 1u);
      Outstanding out;
      out.original = msg;
      out.on_all = std::move(on_all);
      out.on_fail = std::move(on_fail);
      out.expected_replies = ring_.nodes() - 1;
      out.first_sent = sim_.now();
      out.last_sent = out.first_sent;
      out.timeout = timeout;
      outstanding_.emplace(id, std::move(out));
      break;
    }
  }
  IVY_EVT(stats_,
          record(self_, trace::EventKind::kRpcRequest, id, kMaxNodes));
  transmit(std::move(msg));
  arm_retransmit_timer();
  return id;
}

std::uint64_t RemoteOp::multicast(NodeSet targets, net::MsgKind kind,
                                  std::any payload, std::uint32_t wire_bytes,
                                  AllRepliesCallback on_all, Time timeout,
                                  FailureCallback on_fail,
                                  bool deliver_to_all) {
  IVY_CHECK(on_all != nullptr);
  IVY_CHECK(!targets.empty());
  IVY_CHECK(!targets.contains(self_));
  net::Message msg;
  msg.src = self_;
  msg.dst = deliver_to_all ? kBroadcast : kMulticast;
  msg.mcast = targets;
  msg.kind = kind;
  msg.rpc_id = next_rpc_id_++;
  msg.origin = self_;
  msg.payload = std::move(payload);
  msg.wire_bytes = wire_bytes;
  const std::uint64_t id = msg.rpc_id;

  Outstanding out;
  out.original = msg;
  out.on_all = std::move(on_all);
  out.on_fail = std::move(on_fail);
  out.expected_replies = static_cast<std::uint32_t>(targets.count());
  out.first_sent = sim_.now();
  out.last_sent = out.first_sent;
  out.timeout = timeout;
  outstanding_.emplace(id, std::move(out));
  IVY_EVT(stats_,
          record(self_, trace::EventKind::kRpcRequest, id, kMaxNodes));
  transmit(std::move(msg));
  arm_retransmit_timer();
  return id;
}

void RemoteOp::set_handler(net::MsgKind kind, ServerHandler handler) {
  IVY_CHECK(handler != nullptr);
  handlers_[kind] = std::move(handler);
}

void RemoteOp::reply_to(const net::Message& req, std::any payload,
                        std::uint32_t wire_bytes, SentCallback on_sent) {
  reply(reply_later(req), std::move(payload), wire_bytes, std::move(on_sent));
}

void RemoteOp::reply(const PendingReply& pending, std::any payload,
                     std::uint32_t wire_bytes, SentCallback on_sent) {
  const std::uint64_t key = dedup_key(pending.origin, pending.rpc_id);
  in_progress_.erase(key);
  // Cache the reply so a retransmission can be answered without
  // re-executing the operation ("resend replies only when necessary").
  done_cache_.push_back(DoneEntry{key, payload, wire_bytes, pending.kind,
                                  pending.origin, pending.attempt});
  while (done_cache_.size() > done_cache_capacity_) evict_done_front();

  net::Message msg;
  msg.src = self_;
  msg.dst = pending.origin;
  msg.kind = pending.kind;
  msg.rpc_id = pending.rpc_id;
  msg.origin = pending.origin;
  msg.is_reply = true;
  msg.payload = std::move(payload);
  msg.wire_bytes = wire_bytes;
  IVY_EVT(stats_, record(self_, trace::EventKind::kRpcReplySent,
                         pending.rpc_id, pending.origin));
  // The server-side software time is manager-duty work; as the lowest
  // priority wait it only surfaces when the node is otherwise idle (a
  // busy node's own charges already cover the span).
  IVY_PROF(stats_, begin_wait(self_, prof::Cat::kManagerService,
                              prof::Domain::kService, pending.rpc_id,
                              sim_.now(),
                              static_cast<std::uint64_t>(pending.kind)));
  IVY_PROF(stats_, end_wait(self_, prof::Domain::kService, pending.rpc_id,
                            sim_.now() + sim_.costs().fault_server));
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
  std::uint64_t& wm = evicted_watermark_[old.origin];
  wm = std::max(wm, rpc);
  stats_.bump(self_, Counter::kDoneCacheEvictions);
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
    IVY_EVT(stats_, record(self_, trace::EventKind::kRpcCancel, rpc_id, 0));
    IVY_PROF(stats_,
             end_wait(self_, prof::Domain::kRpc, rpc_id, sim_.now()));
  }
}

void RemoteOp::forward(net::Message&& req, NodeId next) {
  IVY_CHECK_NE(next, self_);
  // Forwarders do not answer; clear the duplicate marker so a client
  // retransmission is forwarded again (forwarding must be idempotent).
  in_progress_.erase(dedup_key(req.origin, req.rpc_id));
  stats_.bump(self_, Counter::kForwards);
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
  orphan_handlers_[kind] = std::move(handler);
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
    IVY_EVT(stats_, record(self_, trace::EventKind::kRpcOrphan, msg.rpc_id,
                           msg.src));
    // Late duplicate.  Give resource-bearing replies a chance to be
    // absorbed; drop the rest.
    if (auto oh = orphan_handlers_.find(msg.kind);
        oh != orphan_handlers_.end()) {
      oh->second(std::move(msg));
    }
    return;
  }
  Outstanding& out = it->second;
  const Time first_sent = out.first_sent;
  const auto kind_arg =
      static_cast<std::uint64_t>(out.original.kind);
  if (out.on_all) {
    // kAll broadcast: one reply per peer; duplicates from the same peer
    // (reply resends) must not double-count.
    const bool seen = std::any_of(
        out.replies.begin(), out.replies.end(),
        [&](const net::Message& m) { return m.src == msg.src; });
    if (seen) return;
    note_replied(rkey);
    out.replies.push_back(std::move(msg));
    if (out.replies.size() < out.expected_replies) return;
    auto cb = std::move(out.on_all);
    auto replies = std::move(out.replies);
    outstanding_.erase(it);
    IVY_PROF(stats_,
             end_wait(self_, prof::Domain::kRpc, msg.rpc_id, sim_.now()));
    record_round_trip(kind_arg, first_sent, kBroadcast);
    cb(std::move(replies));
    return;
  }
  note_replied(rkey);
  const NodeId server = msg.src;
  auto cb = std::move(out.on_reply);
  outstanding_.erase(it);
  IVY_PROF(stats_,
           end_wait(self_, prof::Domain::kRpc, msg.rpc_id, sim_.now()));
  record_round_trip(kind_arg, first_sent, server);
  cb(std::move(msg));
}

void RemoteOp::note_replied(std::uint64_t key) {
  replied_.insert(key);
  replied_order_.push_back(key);
  if (replied_order_.size() > kRepliedCacheCapacity) {
    replied_.erase(replied_order_.front());
    replied_order_.pop_front();
  }
}

void RemoteOp::record_round_trip(std::uint64_t kind_arg, Time first_sent,
                                 NodeId server) {
  const Time rtt = sim_.now() - first_sent;
  stats_.record_latency(self_, Hist::kRemoteOpRoundTrip, rtt);
  IVY_EVT(stats_,
          record_span(self_, trace::EventKind::kRemoteOp, first_sent, rtt,
                      kind_arg, server == kBroadcast ? kMaxNodes : server));
}

void RemoteOp::handle_request(net::Message&& msg) {
  const std::uint64_t key = dedup_key(msg.origin, msg.rpc_id);
  // Completed before?  Only a retransmission — a higher attempt than the
  // one answered — means the reply was lost; resend the cached reply to
  // it.  Any other copy trails the one served and is dropped.
  for (DoneEntry& done : done_cache_) {
    if (done.key == key) {
      if (msg.attempt <= done.attempt) return;
      done.attempt = msg.attempt;
      stats_.bump(self_, Counter::kReplyResends);
      net::Message rep;
      rep.src = self_;
      rep.dst = done.origin;
      rep.kind = done.kind;
      rep.rpc_id = msg.rpc_id;
      rep.origin = done.origin;
      rep.is_reply = true;
      rep.payload = done.payload;
      rep.wire_bytes = done.wire_bytes;
      IVY_EVT(stats_, record(self_, trace::EventKind::kRpcReplySent,
                             rep.rpc_id, rep.origin));
      transmit(std::move(rep));
      return;
    }
  }
  // Still being served?  The reply is on its way; drop the duplicate.
  if (!in_progress_.emplace(key, true).second) return;

  // Heuristic re-execution detector: rpc ids are per-origin monotone, so
  // a "new" request at or below the origin's eviction watermark is old
  // enough to be a duplicate whose cached reply was evicted.
  if (auto wm = evicted_watermark_.find(msg.origin);
      wm != evicted_watermark_.end() && msg.rpc_id <= wm->second) {
    stats_.bump(self_, Counter::kDupReexecutions);
  }

  auto it = handlers_.find(msg.kind);
  IVY_CHECK_MSG(it != handlers_.end(),
                "node " << self_ << " has no handler for "
                        << net::to_string(msg.kind));
  it->second(std::move(msg));
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
    stats_.bump(self_, Counter::kRetransmissions);
    IVY_EVT(stats_,
            record(self_, trace::EventKind::kRetransmit,
                   static_cast<std::uint64_t>(out.original.kind),
                   event_dst(out.original.dst)));
    if (out.retransmits >= 2) {
      stats_.bump(self_, Counter::kRpcBackoffs);
      IVY_EVT(stats_, record(self_, trace::EventKind::kRpcBackoff, id,
                             out.retransmits));
      // From the second retransmit on, the doubling wait dominates the
      // request latency; charge it as backoff rather than the fault leg.
      IVY_PROF(stats_,
               begin_wait(self_, prof::Cat::kBackoff, prof::Domain::kRpc, id,
                          now,
                          static_cast<std::uint64_t>(out.original.kind)));
    }
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
  stats_.bump(self_, Counter::kRpcFailures);
  IVY_PROF(stats_, end_wait(self_, prof::Domain::kRpc, id, sim_.now()));
  IVY_EVT(stats_, record(self_, trace::EventKind::kRpcFailed, id,
                         event_dst(out.original.dst)));
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
