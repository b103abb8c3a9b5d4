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
  /// multicast when dst == kMulticast, addressed via msg.mcast).
  /// Delivery is scheduled as simulator events; handlers run at delivery
  /// time.
  void send(Message msg);

  void set_drop_hook(DropHook hook) { drop_hook_ = std::move(hook); }

  /// Installs (or clears, with nullptr) the fault plane.  Not owned.
  /// With no hook installed, send() takes exactly the pre-fault-plane
  /// path: zero extra draws, zero behavior change.
  void set_fault_hook(FaultHook* hook) { fault_hook_ = hook; }

  [[nodiscard]] NodeId nodes() const {
    return static_cast<NodeId>(handlers_.size());
  }

 private:
  /// Reports a transition to every consumer (event.cc).
  void emit(const Event& e);
  void deliver_at(Time when, NodeId dst, Message msg);
  void deliver_planned(Time arrival, NodeId dst, const Message& msg);

  sim::Simulator& sim_;
  Stats& stats_;
  std::vector<Handler> handlers_;
  DropHook drop_hook_;
  FaultHook* fault_hook_ = nullptr;
  Time busy_until_ = 0;
};

}  // namespace ivy::net
