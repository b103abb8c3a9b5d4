#include "ivy/proc/scheduler.h"

#include <algorithm>
#include <utility>

#include "ivy/base/log.h"
#include "ivy/proc/svm_io.h"

namespace ivy::proc {

Scheduler::Scheduler(sim::Simulator& sim, rpc::RemoteOp& rpc, svm::Svm& svm,
                     Stats& stats, NodeId node, const SchedConfig& config,
                     LiveCounter& live, SvmAddr stack_region_base,
                     std::uint32_t stack_region_pages)
    : sim_(sim),
      rpc_(rpc),
      svm_(svm),
      stats_(stats),
      node_(node),
      config_(config),
      live_(live),
      known_load_(svm.nodes(), 0),
      stack_next_(stack_region_base),
      stack_end_(stack_region_base +
                 static_cast<SvmAddr>(stack_region_pages) *
                     svm.geometry().page_size) {
  rpc_.set_handler(net::MsgKind::kRemoteResume, [this](net::Message&& m) {
    on_resume_msg(std::move(m));
  });
  rpc_.set_handler(net::MsgKind::kMigrateAsk, [this](net::Message&& m) {
    on_migrate_ask(std::move(m));
  });
  // Load advertisements carry their information in the piggybacked hint
  // byte, which the consumer below already recorded.
  rpc_.set_handler(net::MsgKind::kLoadHint, [this](net::Message&& m) {
    rpc_.ignore(m);
  });
  rpc_.set_load_hint_provider([this] { return load_hint(); });
  rpc_.set_load_hint_consumer([this](NodeId from, std::uint8_t hint) {
    known_load_[from] = hint;
    // Hearing about work elsewhere wakes this node's null process — an
    // idle node with no traffic of its own would otherwise never look.
    if (hint > 0 && running_ == nullptr && ready_.empty()) {
      maybe_arm_null_timer();
    }
  });
}

ProcId Scheduler::spawn(std::function<void()> body, bool migratable) {
  IVY_CHECK(body != nullptr);
  Pcb& pcb = allocate_slot();
  pcb.migratable = migratable;
  // Stack from the shared memory portion, as in the paper.
  const std::uint32_t pages = config_.stack_pages;
  IVY_CHECK_MSG(stack_next_ + static_cast<SvmAddr>(pages) *
                        svm_.geometry().page_size <=
                    stack_end_,
                "node " << node_ << " stack region exhausted");
  pcb.stack_base = stack_next_;
  pcb.stack_pages = pages;
  stack_next_ += static_cast<SvmAddr>(pages) * svm_.geometry().page_size;
  // The process write-touches its current stack page on first dispatch,
  // as any real process does — so a process spawned away from the initial
  // page owner takes one write fault to pull its stack over.
  const SvmAddr stack_touch = pcb.stack_base;
  pcb.fiber = std::make_unique<sim::Fiber>(
      [stack_touch, body = std::move(body)] {
        claim_access(stack_touch, svm::Access::kWrite);
        body();
      });

  ++proc_count_;
  ++live_.live;
  // Creation bookkeeping occupies this node's CPU briefly.
  const Time create_from = std::max(busy_until_, sim_.now());
  busy_until_ = create_from + sim_.costs().proc_create;
  emit({.kind = EventKind::kSpawned, .id = pcb.id.pcb_index,
        .start = create_from, .span = sim_.costs().proc_create});
  pcb.state = ProcState::kBlocked;  // make_ready flips it
  make_ready(pcb);
  return pcb.id;
}

Pcb& Scheduler::allocate_slot() {
  auto pcb = std::make_unique<Pcb>();
  pcb->id = ProcId{node_, static_cast<std::uint32_t>(slots_.size()), 0};
  slots_.push_back(std::move(pcb));
  return *slots_.back();
}

Pcb& Scheduler::pcb_of(ProcId pid) {
  IVY_CHECK_EQ(pid.home, node_);
  IVY_CHECK_LT(pid.pcb_index, slots_.size());
  return *slots_[pid.pcb_index];
}

void Scheduler::make_ready(Pcb& pcb) {
  switch (pcb.state) {
    case ProcState::kReady:
    case ProcState::kRunning:
      return;  // spurious wakeup; already runnable
    case ProcState::kBlocked:
      break;
    case ProcState::kReserved:
      // Wakeup raced ahead of the migration payload; remember it.
      pcb.pending_wakeup = true;
      return;
    case ProcState::kFinished:
      return;
    case ProcState::kMigrated:
      IVY_UNREACHABLE("make_ready on a migrated slot");
  }
  pcb.state = ProcState::kReady;
  ready_.push_front(&pcb);  // LIFO
  maybe_advertise_load();
  schedule_dispatch();
}

void Scheduler::schedule_dispatch() {
  if (dispatch_pending_ || running_ != nullptr) return;
  dispatch_pending_ = true;
  queue_dispatch(std::max(sim_.now(), busy_until_));
}

void Scheduler::queue_dispatch(Time at) {
  sim_.schedule_at(at, [this] {
    // A stall issued after this dispatch was queued holds it.
    if (stalled_until_ > sim_.now()) {
      queue_dispatch(stalled_until_);
      return;
    }
    dispatch_pending_ = false;
    dispatch();
  });
}

void Scheduler::dispatch() {
  IVY_CHECK(running_ == nullptr);
  if (ready_.empty()) {
    // "If there is no ready process available, the dispatcher runs ...
    // the null process", which waits on a timeout and runs the passive
    // load-balancing algorithm.
    maybe_arm_null_timer();
    return;
  }
  Pcb* pcb = ready_.front();
  ready_.pop_front();
  IVY_CHECK(pcb->state == ProcState::kReady);
  pcb->state = ProcState::kRunning;
  running_ = pcb;
  // Resuming the same process after a simulation-only preemption point is
  // not a real context switch; only genuine switches cost time.
  Time switch_cost = 0;
  if (pcb != last_dispatched_) {
    emit({.kind = EventKind::kContextSwitch});
    switch_cost = sim_.costs().context_switch;
  }
  last_dispatched_ = pcb;

  current_sched_ = this;
  current_pcb_ = pcb;
  log_internal::set_context(node_, sim_.now());
  const sim::YieldReason reason = pcb->fiber->resume();
  log_internal::clear_context();
  current_sched_ = nullptr;
  current_pcb_ = nullptr;

  const Time fiber_charge = pcb->fiber->take_charge();
  const Time svm_charge = svm_.take_pending_charge();
  const Time delta = switch_cost + fiber_charge + svm_charge;
  busy_until_ = sim_.now() + delta;
  emit({.kind = EventKind::kDispatched, .span = switch_cost,
        .fiber_charge = fiber_charge, .svm_charge = svm_charge});
  running_ = nullptr;

  switch (reason) {
    case sim::YieldReason::kBlocked: {
      pcb->state = ProcState::kBlocked;
      ++pcb->block_epoch;
      if (pcb->post_block) {
        // The blocking request is issued at the exact virtual time the
        // process reached it.
        sim_.schedule_at(busy_until_, std::exchange(pcb->post_block, nullptr));
      }
      break;
    }
    case sim::YieldReason::kQuantum:
      pcb->state = ProcState::kReady;
      // Round-robin among local runnables at preemption points (blocked
      // processes that wake re-enter at the front, per the paper's LIFO).
      ready_.push_back(pcb);
      break;
    case sim::YieldReason::kFinished:
      // The termination becomes visible when the CPU actually finished
      // the final quantum, not at the dispatch timestamp — otherwise the
      // last stretch of computed time would never appear in the clock.
      sim_.schedule_at(busy_until_, [this, pcb] { finish(*pcb); });
      break;
    case sim::YieldReason::kRunning:
      IVY_UNREACHABLE("fiber yielded without a reason");
  }
  schedule_dispatch();
}

void Scheduler::finish(Pcb& pcb) {
  emit({.kind = EventKind::kFinished, .id = pcb.id.pcb_index});
  pcb.state = ProcState::kFinished;
  pcb.fiber.reset();
  --proc_count_;
  --live_.live;
  IVY_CHECK_GE(live_.live, 0);
}

void Scheduler::block_current(std::function<void()> post_block) {
  Pcb* pcb = current_pcb_;
  IVY_CHECK_MSG(pcb != nullptr, "block_current outside a process");
  IVY_CHECK(pcb->post_block == nullptr);
  pcb->post_block = std::move(post_block);
  sim::Fiber::yield(sim::YieldReason::kBlocked);
}

void Scheduler::stall(Time t) {
  // Inside a fiber, disk time goes to the svm pending charge instead
  // (Svm::book_disk): the dispatch commit would overwrite a stall.
  IVY_CHECK_MSG(running_ == nullptr, "stall inside a process");
  const Time from = std::max(busy_until_, sim_.now());
  busy_until_ = from + t;
  stalled_until_ = busy_until_;
  emit({.kind = EventKind::kStalled, .start = from, .span = t});
}

void Scheduler::set_migratable(bool migratable) {
  Pcb* pcb = current_pcb_;
  IVY_CHECK_MSG(pcb != nullptr, "set_migratable outside a process");
  pcb->migratable = migratable;
}

void Scheduler::resume(ProcId pid, std::uint32_t epoch) {
  if (pid.home == node_) {
    Pcb& pcb = pcb_of(pid);
    if (pcb.state != ProcState::kMigrated) {
      if (pcb.state == ProcState::kBlocked && epoch != pcb.block_epoch) {
        return;  // stale wakeup for an earlier wait
      }
      make_ready(pcb);
      return;
    }
    pid = pcb.forward_to;  // chase the forwarding pointer
  }
  emit({.kind = EventKind::kRemoteWakeup});
  rpc_.request(pid.home, net::MsgKind::kRemoteResume,
               net::ResumePayload{pid, epoch}, [](net::Message&&) {});
}

void Scheduler::on_resume_msg(net::Message&& msg) {
  const auto payload = std::get<net::ResumePayload>(msg.payload);
  IVY_CHECK_EQ(payload.target.home, node_);
  Pcb& pcb = pcb_of(payload.target);
  if (pcb.state == ProcState::kMigrated) {
    // Keep the origin so the final node acknowledges the original
    // requester directly (the paper's forwarding mechanism).
    net::Message fwd = std::move(msg);
    fwd.payload = net::ResumePayload{pcb.forward_to, payload.epoch};
    svm_.rpc().forward(std::move(fwd), pcb.forward_to.home);
    return;
  }
  if (!(pcb.state == ProcState::kBlocked && payload.epoch != pcb.block_epoch)) {
    make_ready(pcb);
  }
  rpc_.reply_to(msg, net::EmptyPayload{});
}

}  // namespace ivy::proc
