#include "ivy/net/ring.h"

#include <utility>

#include "ivy/base/check.h"
#include "ivy/base/log.h"

namespace ivy::net {

const char* to_string(MsgKind kind) {
  for (const MsgKindName& k : kMsgKindNames) {
    if (k.kind == kind) return k.name;
  }
  return "unknown";
}

Ring::Ring(sim::Simulator& sim, Stats& stats, NodeId nodes)
    : sim_(sim), stats_(stats), handlers_(nodes) {
  IVY_CHECK_GT(nodes, 0u);
  IVY_CHECK_LE(nodes, kMaxNodes);
}

void Ring::set_handler(NodeId node, Handler handler) {
  IVY_CHECK_LT(node, handlers_.size());
  handlers_[node] = std::move(handler);
}

void Ring::send(Message msg) {
  IVY_CHECK_LT(msg.src, handlers_.size());
  const bool broadcast = msg.dst == kBroadcast;
  const bool multicast = msg.dst == kMulticast;
  if (!broadcast && !multicast) IVY_CHECK_LT(msg.dst, handlers_.size());
  if (multicast) {
    IVY_CHECK(!msg.mcast.empty());
    IVY_CHECK(!msg.mcast.contains(msg.src));
  }

  const auto& costs = sim_.costs();
  // Serialize on the shared medium.
  const Time start = std::max(sim_.now(), busy_until_);
  const Time duration = costs.transmit_time(msg.wire_bytes);
  busy_until_ = start + duration;
  const Time arrival = busy_until_ + costs.msg_latency;

  // The span covers the frame's time on the wire (queueing excluded).
  emit({.kind = EventKind::kFrameSent, .node = msg.src, .peer = msg.dst,
        .msg = msg.kind, .wire_bytes = msg.wire_bytes, .start = start,
        .span = duration});

  if (drop_hook_ && drop_hook_(msg)) {
    IVY_DEBUG() << "ring drop " << to_string(msg.kind) << " " << msg.src
                << "->" << (broadcast ? -1 : static_cast<int>(msg.dst));
    return;  // frame lost after occupying the medium
  }

  seal_message(msg);
  if (broadcast) {
    // The frame circulates the ring; every other station copies it.
    // Ring time was charged exactly once above: per-recipient fault
    // decisions change who receives the frame, never what it cost.
    for (NodeId n = 0; n < handlers_.size(); ++n) {
      if (n == msg.src) continue;
      if (fault_hook_ != nullptr) {
        deliver_planned(arrival, n, msg);
      } else {
        deliver_at(arrival, n, msg);  // payload copied per recipient
      }
    }
  } else if (multicast) {
    // One frame on the wire, copied only by the addressed stations.
    // Like broadcast, ring time was charged exactly once; fault plans
    // are still drawn per recipient.
    msg.mcast.for_each([&](NodeId n) {
      IVY_CHECK_LT(n, handlers_.size());
      if (fault_hook_ != nullptr) {
        deliver_planned(arrival, n, msg);
      } else {
        deliver_at(arrival, n, msg);  // payload copied per recipient
      }
    });
  } else if (fault_hook_ != nullptr) {
    deliver_planned(arrival, msg.dst, msg);
  } else {
    deliver_at(arrival, msg.dst, std::move(msg));
  }
}

void Ring::deliver_planned(Time arrival, NodeId dst, const Message& msg) {
  const FaultHook::Plan plan = fault_hook_->plan_delivery(msg, dst);
  if (plan.drop) {
    IVY_DEBUG() << "fault drop " << to_string(msg.kind) << " " << msg.src
                << "->" << dst;
    return;  // lost after occupying the medium, like a real dropped frame
  }
  Message copy = msg;
  if (plan.corrupt) copy.checksum = ~copy.checksum;  // damaged in flight
  if (plan.duplicate) {
    deliver_at(arrival + plan.extra_delay + plan.duplicate_delay, dst, copy);
  }
  deliver_at(arrival + plan.extra_delay, dst, std::move(copy));
}

void Ring::deliver_at(Time when, NodeId dst, Message msg) {
  msg.dst = dst;
  sim_.schedule_at(when, [this, dst, m = std::move(msg)]() mutable {
    IVY_CHECK_MSG(handlers_[dst] != nullptr, "no handler for node " << dst);
    if (!message_intact(m)) {
      // Bad frame check sequence: the station discards the frame, so
      // corruption degrades to loss and the retransmission protocol
      // recovers.  Charged to the receiver, where the check runs.
      emit({.kind = EventKind::kChecksumDrop, .node = dst, .peer = m.src,
            .msg = m.kind});
      IVY_DEBUG() << "checksum drop " << to_string(m.kind) << " " << m.src
                  << "->" << dst;
      return;
    }
    IVY_TRACE() << "deliver " << to_string(m.kind) << " " << m.src << "->"
                << dst << " rpc=" << m.rpc_id;
    handlers_[dst](std::move(m));
  });
}

}  // namespace ivy::net
