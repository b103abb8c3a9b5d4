// IVY's "remote operation" module — a simple request/reply mechanism
// with the three features the paper calls out:
//
//  1. Broadcast/multicast requests with three reply schemes: a reply from
//     *any* receiver (used to locate page owners), replies from *all*
//     receivers (used for invalidation), and *no* reply (used for
//     scheduling hints).
//  2. Request forwarding: node 1 asks node 2, node 2 forwards to node 3,
//     ... node k performs the operation and replies directly to node 1
//     with no intermediate replies — the mechanism that makes the dynamic
//     distributed manager's probOwner chains cheap.
//  3. A retransmission protocol that "resends replies only when
//     necessary": clients retransmit unanswered requests from a
//     half-second periodic check, mirroring the null-process checking in
//     the paper, and number each send (Message::attempt).  Servers
//     remember completed requests with the highest attempt they answered
//     and repeat the cached reply only to a higher attempt — a
//     retransmission, which means the client lost the reply.  Any other
//     copy of an answered request (a forwarded or held probe trailing the
//     copy that was served, a duplicated frame) is dropped, like a copy
//     of a request still being served.  Retransmissions back off
//     exponentially (with deterministic jitter) and give up after a cap,
//     surfacing a terminal RequestFailure instead of retrying forever.
//
// Idempotence contract: the done-cache that suppresses duplicate
// execution is *bounded* (see set_done_cache_capacity).  If a duplicate
// request arrives after its cached reply was evicted, the server
// re-executes the handler.  Handlers must therefore either be naturally
// idempotent (read-only probes, forwards) or tolerate re-execution via
// protocol-level recovery (orphan-reply absorption returns a
// re-granted page to its owner).  Eviction is observable through
// Counter::kDoneCacheEvictions, and suspected re-executions through
// Counter::kDupReexecutions.
//
// One RemoteOp instance exists per node.  Server handlers run as
// simulator events at message-delivery time (IVY's handlers ran at
// interrupt level); a handler may answer immediately, defer the reply by
// keeping a PendingReply handle (used by per-page request queues), or
// forward the request.  No entry point takes a byte count: new_request()
// and reply() stamp Message::wire_bytes from the net::Payload, whose
// sizes are stated once, in net/payload.h.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ivy/base/rng.h"
#include "ivy/base/stats.h"
#include "ivy/net/ring.h"

namespace ivy::rpc {

/// Handle for replying to a request after the handler returned.
struct PendingReply {
  NodeId origin = kNoNode;
  std::uint64_t rpc_id = 0;
  net::MsgKind kind = net::MsgKind::kInvalid;
  std::uint32_t attempt = 0;  ///< send attempt being answered
};

/// Terminal outcome of a request that exhausted its retransmission
/// budget (only possible under fault injection or a genuine partition).
struct RequestFailure {
  std::uint64_t rpc_id = 0;
  net::MsgKind kind = net::MsgKind::kInvalid;
  NodeId dst = kNoNode;  ///< kBroadcast for broadcast requests
  std::uint32_t attempts = 0;
  Time first_sent = 0;
};

enum class BcastReply : std::uint8_t { kAny, kAll, kNone };

/// One record per remote-operation transition.  Each is reported once, by
/// RemoteOp::emit (event.cc), the only rpc code that feeds the counters,
/// histograms, tracer and profiler.  DESIGN.md §2 maps kinds to consumers.
enum class EventKind : std::uint8_t {
  // client side (peer = the request's destination)
  kRequestSent,    ///< the first send of a request
  kReplyReceived,  ///< the request completed; start = first send, peer =
                   ///  the server (kBroadcast: the last reply of a round)
  kRetransmitted,  ///< re-sent unanswered; attempt = resends so far
  kFailed,         ///< given up at the retransmission cap
  kCancelled,      ///< abandoned while outstanding
  kOrphanReply,    ///< a reply from peer matched no outstanding request
  // server side (peer = the requester)
  kReplySent,      ///< answered; the reply leaves after fault_server
  kReplyResent,    ///< a cached reply resent to a retransmission
  kForwarded,      ///< passed on without a reply
  kDoneEvicted,    ///< a cached reply left the done-cache
  kDupReexecuted,  ///< a request at or below the eviction watermark runs
};

struct Event {
  EventKind kind = EventKind::kRequestSent;
  std::uint64_t rpc_id = 0;
  NodeId peer = kNoNode;
  net::MsgKind msg = net::MsgKind::kInvalid;
  Time start = 0;
  std::uint32_t attempt = 0;
};

class RemoteOp {
 public:
  /// on_reply receives the reply message (payload set by the server).
  using ReplyCallback = std::function<void(net::Message&&)>;
  /// on_all receives every reply of a kAll broadcast, in arrival order.
  using AllRepliesCallback = std::function<void(std::vector<net::Message>&&)>;
  /// Server handler; reply via reply_to()/reply_later() or forward().
  using ServerHandler = std::function<void(net::Message&&)>;
  /// Invoked when a request fails terminally at the retransmission cap.
  using FailureCallback = std::function<void(const RequestFailure&)>;

  RemoteOp(sim::Simulator& sim, net::Ring& ring, Stats& stats, NodeId self);

  RemoteOp(const RemoteOp&) = delete;
  RemoteOp& operator=(const RemoteOp&) = delete;

  [[nodiscard]] NodeId self() const noexcept { return self_; }

  // --- client side -----------------------------------------------------

  /// Sends a request to `dst`; `on_reply` fires exactly once.  `timeout`
  /// overrides the node's retransmission timeout for this request
  /// (0 = use the default).  `on_fail` (optional) fires instead of
  /// `on_reply` if the retransmission cap is reached; without one the
  /// node-level failure handler runs, and without that the run aborts.
  std::uint64_t request(NodeId dst, net::MsgKind kind, net::Payload payload,
                        ReplyCallback on_reply, Time timeout = 0,
                        FailureCallback on_fail = nullptr);

  /// Broadcasts a request.  For kAny, `on_reply` fires once with the
  /// first reply; for kNone neither callback may be given.
  std::uint64_t broadcast(net::MsgKind kind, net::Payload payload,
                          BcastReply scheme, ReplyCallback on_first = nullptr,
                          AllRepliesCallback on_all = nullptr,
                          Time timeout = 0, FailureCallback on_fail = nullptr);

  /// Multicasts a request to `targets` as ONE ring frame and waits for a
  /// reply from every target (the kAll scheme restricted to the copyset).
  /// `targets` must be non-empty and must not include this node.  With
  /// `deliver_to_all` the frame is a true ring broadcast (every station
  /// copies it) but still only `targets.count()` replies complete the
  /// round — receivers outside `targets` are expected to ignore() it.
  std::uint64_t multicast(NodeSet targets, net::MsgKind kind,
                          net::Payload payload, AllRepliesCallback on_all,
                          Time timeout = 0, FailureCallback on_fail = nullptr,
                          bool deliver_to_all = false);

  /// Abandons an outstanding request: no callback will fire and no
  /// retransmissions will be sent.  A reply that still arrives is routed
  /// to the orphan handler of its kind (so resource-bearing replies are
  /// not lost).  No-op if the request already completed.
  void cancel(std::uint64_t rpc_id);

  // --- server side -------------------------------------------------------

  void set_handler(net::MsgKind kind, ServerHandler handler);

  /// Handler for replies whose request is no longer outstanding (a
  /// duplicate answered by a different server after the first reply won).
  /// Without one, such replies are dropped — fine for idempotent data,
  /// wrong for replies that carry a resource (page ownership).
  void set_orphan_reply_handler(net::MsgKind kind, ServerHandler handler);

  /// Continuation run when a reply frame is handed to the ring.
  using SentCallback = std::function<void()>;

  /// Replies to `req` immediately (charges server handling time first).
  /// `on_sent` (optional) runs as the reply frame goes on the ring.
  void reply_to(const net::Message& req, net::Payload payload,
                SentCallback on_sent = nullptr);

  /// Captures a deferred-reply handle; the handler returns without
  /// answering and some later event calls reply().
  [[nodiscard]] static PendingReply reply_later(const net::Message& req) {
    return PendingReply{req.origin, req.rpc_id, req.kind, req.attempt};
  }
  void reply(const PendingReply& pending, net::Payload payload,
             SentCallback on_sent = nullptr);

  /// Declares that this node will never answer `req` (e.g. a broadcast
  /// owner probe received by a non-owner).  Clears the duplicate marker
  /// so a retransmission is evaluated afresh.
  void ignore(const net::Message& req);

  /// Forwards `req` to `next` without replying; the eventual server
  /// replies straight to the originator.
  void forward(net::Message&& req, NodeId next);

  // --- load hints ---------------------------------------------------------

  /// Provider of this node's one-byte load hint, packed into every
  /// outgoing message.
  void set_load_hint_provider(std::function<std::uint8_t()> provider) {
    hint_provider_ = std::move(provider);
  }
  /// Consumer invoked for the hint on every incoming message.
  void set_load_hint_consumer(
      std::function<void(NodeId, std::uint8_t)> consumer) {
    hint_consumer_ = std::move(consumer);
  }

  // --- retransmission ------------------------------------------------------

  void set_request_timeout(Time timeout) { request_timeout_ = timeout; }
  [[nodiscard]] Time request_timeout() const { return request_timeout_; }
  void set_check_interval(Time interval) { check_interval_ = interval; }
  /// Retransmissions allowed per request before it fails terminally.
  void set_max_retransmits(std::uint32_t cap) { max_retransmits_ = cap; }
  /// Node-level handler for terminal request failures (requests without a
  /// per-request on_fail).  Without one, a terminal failure aborts the
  /// run with diagnostics — a protocol under test should never hit the
  /// cap silently.
  void set_failure_handler(FailureCallback handler) {
    failure_handler_ = std::move(handler);
  }
  /// Shrinks (or grows) the done-cache; exposed so tests can force
  /// eviction-induced re-execution with little traffic.
  void set_done_cache_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t outstanding_requests() const {
    return outstanding_.size();
  }
  /// Requests accepted but not yet answered by this node's server side
  /// (deferred replies included).  Zero at quiescence.
  [[nodiscard]] std::size_t pending_serves() const {
    return in_progress_.size();
  }

  /// Entry point wired to the ring.
  void on_message(net::Message&& msg);

 private:
  struct Outstanding {
    net::Message original{};  ///< kept for retransmission
    ReplyCallback on_reply{};
    AllRepliesCallback on_all{};
    FailureCallback on_fail{};
    std::vector<net::Message> replies{};  ///< kAll accumulation
    std::uint32_t expected_replies = 1;
    std::uint32_t retransmits = 0;  ///< resends so far (0 = first send only)
    Time first_sent = 0;  ///< for round-trip latency accounting
    Time last_sent = 0;
    Time timeout = 0;       ///< 0 = node default
    Time backoff_wait = 0;  ///< current wait before the next retransmit
  };

  struct DoneEntry {
    std::uint64_t key = 0;
    net::Payload payload;
    net::MsgKind kind = net::MsgKind::kInvalid;
    NodeId origin = kNoNode;
    std::uint32_t attempt = 0;  ///< highest send attempt answered
  };

  /// Reports a transition to every consumer (event.cc).
  void emit(const Event& e);
  /// A fresh request from this node, under a new rpc id.
  net::Message new_request(NodeId dst, net::MsgKind kind,
                           net::Payload payload);
  /// Registers `out` as the request's client state and sends it.
  std::uint64_t launch(net::Message msg, Outstanding out);
  void transmit(net::Message msg);
  void handle_reply(net::Message&& msg);
  void handle_request(net::Message&& msg);
  void arm_retransmit_timer();
  void retransmit_scan();
  void fail_request(std::uint64_t id, Outstanding&& out);
  /// Wait before the retransmit after one that waited `prev`: doubled,
  /// capped, with deterministic +-25% jitter.
  Time next_backoff(Time prev);
  void evict_done_front();
  /// Marks a (server, rpc) reply as processed for duplicate suppression.
  void note_replied(std::uint64_t key);
  static std::uint64_t dedup_key(NodeId origin, std::uint64_t rpc_id) {
    return (static_cast<std::uint64_t>(origin) << 48) ^ rpc_id;
  }

  sim::Simulator& sim_;
  net::Ring& ring_;
  Stats& stats_;
  NodeId self_;

  std::uint64_t next_rpc_id_;
  std::unordered_map<std::uint64_t, Outstanding> outstanding_;
  /// Indexed by net::kind_index: dispatch reads an array, not a hash.
  std::array<ServerHandler, net::kMsgKinds> handlers_{};
  std::array<ServerHandler, net::kMsgKinds> orphan_handlers_{};

  // Duplicate-request suppression: in-progress set + bounded cache of
  // completed replies ("resend replies only when necessary").
  std::unordered_set<std::uint64_t> in_progress_;
  std::deque<DoneEntry> done_cache_;
  std::size_t done_cache_capacity_ = 1024;
  /// Per origin node (NodeId is dense), two rpc ids, 0 for none (every
  /// id is at least 1).  `done_high`: the highest ever cached; a request
  /// above it has no entry, so it skips the done-cache scan.  `evicted`:
  /// the highest evicted from the done-cache; a duplicate below (or at)
  /// it *may* be a re-execution of an evicted entry (exact detection is
  /// impossible once the key is gone).  One vector, one allocation.
  struct OriginMarks {
    std::uint64_t done_high = 0;
    std::uint64_t evicted = 0;
  };
  std::vector<OriginMarks> origin_marks_;

  // Duplicate-reply suppression: every (rpc_id, server) reply is
  // processed at most once.  Without it a fault-duplicated reply frame
  // is handed to the orphan machinery a second time, which can issue a
  // contradictory decision for a resource it already accepted, and a
  // duplicated kAll reply double-decrements the remaining-reply count.
  // Bounded like the done-cache; an evicted entry degrades gracefully to
  // the orphan path.
  std::deque<std::uint64_t> replied_order_;
  std::unordered_set<std::uint64_t> replied_;
  static std::uint64_t reply_key(NodeId server, std::uint64_t rpc_id) {
    return (static_cast<std::uint64_t>(server) << 56) ^ rpc_id;
  }

  std::function<std::uint8_t()> hint_provider_;
  std::function<void(NodeId, std::uint8_t)> hint_consumer_;

  // Generous default: page requests can legitimately queue behind long
  // defer chains under write contention; duplicates are correctness-safe
  // (orphan absorption) but wasteful.  Drop tests dial this down.
  Time request_timeout_ = sec(2);
  Time check_interval_ = ms(500);  // "every half second"
  std::uint32_t max_retransmits_ = 16;
  FailureCallback failure_handler_;
  /// Jitter stream for backoff; seeded from the node id only, so runs
  /// that never retransmit draw nothing and stay bit-identical.
  Rng backoff_rng_;
  bool timer_armed_ = false;
};

}  // namespace ivy::rpc
