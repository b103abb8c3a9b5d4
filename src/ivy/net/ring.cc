#include "ivy/net/ring.h"

#include <utility>

#include "ivy/base/check.h"
#include "ivy/base/log.h"

namespace ivy::net {

const char* to_string(MsgKind kind) {
  const std::size_t i = kind_index(kind);
  return i < kMsgKinds ? kMsgKindNames[i].name : "unknown";
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

  // Plan every recipient's copies first, in node order.  The copies that
  // arrive with the frame share one event; a copy delayed to another
  // time gets its own.  The order is the one an event per copy gives:
  // those events would take consecutive sequence numbers here, so
  // nothing could run between them, and whatever a recipient schedules
  // for the same time runs after the last copy either way.  Ring time
  // was charged exactly once above: per-recipient fault plans change who
  // receives the frame, never what it cost.
  Copies on_time;
  const auto plan_copies = [&](NodeId dst) {
    const FaultHook::Plan plan = fault_hook_ != nullptr
                                     ? fault_hook_->plan_delivery(msg, dst)
                                     : FaultHook::Plan{};
    if (plan.drop) {
      IVY_DEBUG() << "fault drop " << to_string(msg.kind) << " " << msg.src
                  << "->" << dst;
      return;  // lost after occupying the medium, like a real dropped frame
    }
    const auto arrive = [&](Time when) {
      if (when != arrival) {
        Copies late;
        late.to.add(dst);
        if (plan.corrupt) late.corrupt.add(dst);
        deliver(when, late, msg);
        return;
      }
      if (on_time.to.contains(dst)) on_time.twice.add(dst);
      on_time.to.add(dst);
      if (plan.corrupt) on_time.corrupt.add(dst);
    };
    if (plan.duplicate) {
      arrive(arrival + plan.extra_delay + plan.duplicate_delay);
    }
    arrive(arrival + plan.extra_delay);
  };

  if (broadcast) {
    // The frame circulates the ring; every other station copies it.
    for (NodeId n = 0; n < handlers_.size(); ++n) {
      if (n != msg.src) plan_copies(n);
    }
  } else if (multicast) {
    // One frame on the wire, copied only by the addressed stations.
    msg.mcast.for_each([&](NodeId n) {
      IVY_CHECK_LT(n, handlers_.size());
      plan_copies(n);
    });
  } else {
    plan_copies(msg.dst);
  }
  if (!on_time.to.empty()) deliver(arrival, on_time, std::move(msg));
}

void Ring::deliver(Time when, Copies copies, Message frame) {
  sim_.schedule_at(when, [this, copies, m = std::move(frame)]() mutable {
    hand_over(copies, m);
  });
}

void Ring::hand_over(const Copies& copies, Message& frame) {
  // The last copy takes the frame itself; the others take a copy of it
  // (a page body is shared, not copied).
  int left = copies.to.count() + copies.twice.count();
  copies.to.for_each([&](NodeId dst) {
    for (int k = copies.twice.contains(dst) ? 2 : 1; k > 0; --k) {
      --left;
      if (copies.corrupt.contains(dst)) {
        // Damaged in flight: the station's frame check fails and it
        // discards the frame on arrival, so corruption degrades to loss
        // and the retransmission protocol recovers.  Charged to the
        // receiver, where the check runs; each copy of a duplicated
        // frame fails its own.
        emit({.kind = EventKind::kChecksumDrop, .node = dst,
              .peer = frame.src, .msg = frame.kind});
        IVY_DEBUG() << "checksum drop " << to_string(frame.kind) << " "
                    << frame.src << "->" << dst;
        continue;
      }
      IVY_CHECK_MSG(handlers_[dst] != nullptr, "no handler for node " << dst);
      Message m = left == 0 ? std::move(frame) : frame;
      m.dst = dst;
      IVY_TRACE() << "deliver " << to_string(m.kind) << " " << m.src << "->"
                  << dst << " rpc=" << m.rpc_id;
      handlers_[dst](std::move(m));
    }
  });
}

}  // namespace ivy::net
