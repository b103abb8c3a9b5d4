// The null process and passive load balancing.
//
// "The main idea of the algorithm is to let each processor ask for work
// when it is idle using some hints. ... The processors in IVY keep each
// other up to date on their current work loads by adding a few extra bits
// to the messages transmitted for remote operations."
//
// The hint plumbing itself lives in rpc (one byte piggybacked on every
// message); this file decides when to ask whom.
#include "ivy/base/log.h"
#include "ivy/proc/scheduler.h"

namespace ivy::proc {

void Scheduler::maybe_advertise_load() {
  // Piggybacked bits only reach nodes we already talk to; a node whose
  // backlog climbs above the upper threshold advertises with the
  // remote-operation module's no-reply broadcast ("broadcasting
  // approximate information for process scheduling"), repeating while it
  // stays overloaded.
  if (!config_.load_balancing || advertise_armed_) return;
  if (proc_count_ <= config_.upper_threshold) return;
  advertise_armed_ = true;
  rpc_.broadcast(net::MsgKind::kLoadHint, net::EmptyPayload{},
                 rpc::BcastReply::kNone);
  sim_.schedule_after(config_.lb_interval, [this] {
    advertise_armed_ = false;
    maybe_advertise_load();
  });
}

void Scheduler::maybe_arm_null_timer() {
  if (!config_.load_balancing) return;
  if (null_timer_armed_) return;
  if (live_.live == 0) return;  // computation over; let the queue drain
  null_timer_armed_ = true;
  sim_.schedule_after(config_.lb_interval, [this] {
    null_timer_armed_ = false;
    null_tick();
  });
}

void Scheduler::null_tick() {
  if (running_ != nullptr || !ready_.empty()) return;  // no longer idle
  if (live_.live == 0) return;
  // "When such a number is less than the lower threshold, the processor
  // will try to ask for work."
  if (proc_count_ >= config_.lower_threshold || migrate_ask_inflight_) {
    maybe_arm_null_timer();
    return;
  }
  // Use the piggybacked hints to pick a donor likely to say yes: the
  // most loaded node whose last known count clears the upper threshold.
  NodeId target = kNoNode;
  int best = config_.upper_threshold;
  for (NodeId n = 0; n < known_load_.size(); ++n) {
    if (n == node_) continue;
    if (known_load_[n] > best) {
      best = known_load_[n];
      target = n;
    }
  }
  if (target == kNoNode) {
    maybe_arm_null_timer();
    return;
  }

  Pcb& slot = allocate_slot();
  slot.state = ProcState::kReserved;
  migrate_ask_inflight_ = true;
  IVY_DEBUG() << "idle node " << node_ << " asks node " << target
              << " for work (hint " << best << ")";
  emit({.kind = EventKind::kMigrateAsked, .peer = target});
  rpc_.request(
      target, net::MsgKind::kMigrateAsk, net::MigrateAskPayload{slot.id},
      [this, &slot, asked = sim_.now()](net::Message&& reply) {
        migrate_ask_inflight_ = false;
        auto payload = std::get<net::MigrateReplyPayload>(reply.payload);
        if (payload.transfer) {
          emit({.kind = EventKind::kMigratedIn, .id = slot.id.pcb_index,
                .peer = reply.src, .start = asked});
          install_transfer(slot, std::move(*payload.transfer));
        } else {
          emit({.kind = EventKind::kMigrateDenied});
          slot.state = ProcState::kFinished;  // reservation abandoned
        }
        maybe_arm_null_timer();
      });
}

}  // namespace ivy::proc
