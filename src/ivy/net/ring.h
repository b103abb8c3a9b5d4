// Simulated 12 Mbit/s baseband single token ring (the Apollo Domain
// network of the paper).
//
// The medium is shared: only one frame is in flight at a time, so every
// transmission serializes behind `busy_until_`.  This is the physical
// effect that saturates speedup curves as nodes are added, and it is
// modeled explicitly rather than folded into per-message latency.
//
// Broadcast is natural on a ring — the frame passes every station — so a
// broadcast costs one transmission and is delivered to all other nodes.
// The copies that arrive with the frame are handed over by one simulator
// event, in node order: one event per frame arrival, not per copy.
//
// For retransmission-protocol tests, an injectable drop hook may discard
// any message after it consumed ring time (as a real lost frame would).
// The richer FaultHook interface (implemented by ivy::fault::FaultPlane)
// plans a per-recipient delivery outcome: drop, duplicate, extra delay
// (reordering), or corruption; the ring applies the mechanics, and a
// corrupted frame is discarded by its receiver on arrival.
#pragma once

#include <functional>
#include <vector>

#include "ivy/base/stats.h"
#include "ivy/net/message.h"
#include "ivy/sim/simulator.h"

namespace ivy::net {

/// Delivery-plan provider consulted once per (frame, recipient) after the
/// frame occupied the ring medium.  The ring applies the plan's
/// mechanics; the hook owns the policy (probabilities, windows, node
/// pairs) and any accounting of what it injected.
class FaultHook {
 public:
  virtual ~FaultHook() = default;

  struct Plan {
    bool drop = false;       ///< frame lost for this recipient
    bool corrupt = false;    ///< damaged; the receiver discards it
    bool duplicate = false;  ///< a second copy arrives duplicate_delay later
    Time extra_delay = 0;    ///< added to the arrival (reorders traffic)
    Time duplicate_delay = 0;
  };

  virtual Plan plan_delivery(const Message& msg, NodeId recipient) = 0;
};

/// One record per ring transition.  Each is reported once, by Ring::emit
/// (event.cc), the only net code that feeds the counters and tracer.
/// DESIGN.md §2 maps kinds to consumers.
enum class EventKind : std::uint8_t {
  kFrameSent,     ///< node's frame to peer held the medium [start, +span)
  kChecksumDrop,  ///< node discarded peer's frame: bad frame check sequence
};

struct Event {
  EventKind kind = EventKind::kFrameSent;
  NodeId node = kNoNode;
  NodeId peer = kNoNode;  ///< kBroadcast / kMulticast for a fan-out frame
  MsgKind msg = MsgKind::kInvalid;
  std::uint32_t wire_bytes = 0;
  Time start = 0;
  Time span = 0;
};

class Ring {
 public:
  using Handler = std::function<void(Message&&)>;
  /// Returns true to drop the (already transmitted) frame.
  using DropHook = std::function<bool(const Message&)>;

  Ring(sim::Simulator& sim, Stats& stats, NodeId nodes);

  /// Registers the delivery handler for `node`.  Must be set for every
  /// node before traffic flows.
  void set_handler(NodeId node, Handler handler);

  /// Transmits `msg` (unicast; broadcast when dst == kBroadcast; copyset
  /// multicast when dst == kMulticast, addressed via msg.mcast).  Every
  /// copy that arrives with the frame is handed over by one simulator
  /// event, in node order; a copy the fault hook delays gets an event of
  /// its own.  Handlers run at delivery time.
  void send(Message msg);

  void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }

  /// Installs (or clears, with nullptr) the fault plane.  Not owned.
  /// With no hook installed, every recipient's plan is the empty one:
  /// zero draws, one copy at the frame's arrival.
  void set_fault_hook(FaultHook* hook) { fault_hook_ = hook; }

  [[nodiscard]] NodeId nodes() const {
    return static_cast<NodeId>(handlers_.size());
  }

 private:
  /// Copies of one frame handed over by one event, in node order.  A
  /// station in `twice` takes two (a duplicate with no extra delay); one
  /// in `corrupt` discards its copies on the frame check.
  struct Copies {
    NodeSet to;
    NodeSet twice;
    NodeSet corrupt;
  };

  /// Reports a transition to every consumer (event.cc).
  void emit(const Event& e);
  /// Schedules the event that hands `frame` to `copies` at `when`.
  void deliver(Time when, Copies copies, Message frame);
  void hand_over(const Copies& copies, Message& frame);

  sim::Simulator& sim_;
  Stats& stats_;
  std::vector<Handler> handlers_;
  DropHook drop_hook_;
  FaultHook* fault_hook_ = nullptr;
  Time busy_until_ = 0;
};

}  // namespace ivy::net
