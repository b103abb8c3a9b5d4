// Per-node process scheduler: LIFO ready queue, dispatcher, null process
// with passive load balancing, process migration, and PID operations with
// forwarding pointers.
//
// "Each processor has a local ready queue using a last-in-first-out
// policy, that is, processes do not have priorities.  The process
// dispatcher always picks up the process in the front of the ready queue.
// If there is no ready process available, the dispatcher runs a system
// process called the null process."
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "ivy/base/ring_deque.h"
#include "ivy/proc/process.h"
#include "ivy/rpc/remote_op.h"
#include "ivy/svm/svm.h"

namespace ivy::proc {

struct SchedConfig {
  /// Passive load balancing thresholds on the *total* process count
  /// (ready + blocked): ask for work when below `lower`, grant work when
  /// above `upper`.  ("A better way is to use the number of processes
  /// (including both ready and suspended) controlled by thresholds.")
  int lower_threshold = 1;
  int upper_threshold = 2;
  /// Null-process timeout between load-balance probes.
  Time lb_interval = ms(50);
  /// Passive load balancing on/off (off = purely manual scheduling).
  bool load_balancing = false;
  /// SVM pages per process stack.
  std::uint32_t stack_pages = 4;
};

/// One record per scheduling, migration or synchronization transition.
/// Each is reported once, by Scheduler::emit (event.cc), the only proc or
/// sync code that feeds the counters, histograms, tracer and profiler.
/// DESIGN.md §2 maps kinds to consumers.
enum class EventKind : std::uint8_t {
  // processes (id = pcb index)
  kSpawned,          ///< created; its bookkeeping holds the CPU [start, +span)
  kContextSwitch,    ///< the dispatcher switches to another process
  kDispatched,       ///< a yield commits switch (span), fiber and svm charges
  kFinished,         ///< completed
  kSpinCharged,      ///< span of the running fiber's charge was lock
                     ///  bookkeeping (test-and-set); the rest is compute
  kStalled,          ///< event-context disk work holds the CPU [start, +span)
  kRemoteWakeup,     ///< a wake-up leaves this node by message
  // migration (id = pcb index, peer = the other node)
  kMigrateAsked,     ///< the idle node asks peer for work
  kMigrateDenied,    ///< ...and peer had none to give
  kMigratedIn,       ///< ...or handed over a process; start = the ask
  kMigrationRefused, ///< this node refused a migrate-ask
  kMigratedOut,      ///< a process left for peer
  // synchronization (id = the primitive's page)
  kEcAdvanced,       ///< an eventcount reached value
  kEcBlocked,        ///< a Wait blocks
  kEcWoken,          ///< ...and was woken; start = block, value = target
  kLockSpun,         ///< a test-and-set found the lock held
  kLockAcquired,     ///< a test-and-set took the lock
  kLockBlocked,      ///< a contended lock() starts waiting
  kLockWaited,       ///< ...and got the lock; start = first failure
};

struct Event {
  EventKind kind = EventKind::kSpawned;
  std::uint64_t id = 0;
  NodeId peer = kNoNode;
  std::int64_t value = 0;
  Time start = 0;
  Time span = 0;
  Time fiber_charge = 0;  ///< kDispatched only
  Time svm_charge = 0;    ///< kDispatched only
};

/// Shared across all schedulers of a machine: global liveness so idle
/// timers stop when the computation is over.
struct LiveCounter {
  int live = 0;
};

class Scheduler {
 public:
  Scheduler(sim::Simulator& sim, rpc::RemoteOp& rpc, svm::Svm& svm,
            Stats& stats, NodeId node, const SchedConfig& config,
            LiveCounter& live, SvmAddr stack_region_base,
            std::uint32_t stack_region_pages);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // --- process control ---------------------------------------------------

  /// Creates a ready process on this node running `body`.
  ProcId spawn(std::function<void()> body, bool migratable = true);

  /// Wakes a (possibly migrated-away) process.  Routes through forwarding
  /// pointers; `epoch` guards against stale duplicate wakeups.
  void resume(ProcId pid, std::uint32_t epoch);

  // --- primitives used from inside the running fiber ---------------------

  /// Blocks the current process; `post_block` runs at the exact virtual
  /// time the fiber yielded (use it to issue the request whose completion
  /// will resume the process).
  static void block_current(std::function<void()> post_block);

  /// Current process's scheduler/PCB (null outside any process).
  [[nodiscard]] static Scheduler* current_scheduler() noexcept {
    return current_sched_;
  }
  [[nodiscard]] static Pcb* current_pcb() noexcept { return current_pcb_; }

  /// Charges virtual CPU time to the running fiber.  Sole fiber-charge
  /// funnel, and the hottest path: it reports nothing.  The dispatch
  /// commit counts the charge as compute unless a kSpinCharged event
  /// claimed part of it.
  static void charge_current(Time t) {
    Pcb* pcb = current_pcb_;
    IVY_CHECK_MSG(pcb != nullptr, "charge_current outside a process");
    pcb->fiber->charge(t);
  }

  /// Marks the current process (non-)migratable at run time, as the
  /// paper's client primitive allows.
  static void set_migratable(bool migratable);

  // --- scheduler internals exposed for wiring/tests -----------------------

  void make_ready(Pcb& pcb);
  [[nodiscard]] int proc_count() const { return proc_count_; }
  [[nodiscard]] std::size_t ready_count() const { return ready_.size(); }
  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] svm::Svm& svm() { return svm_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] rpc::RemoteOp& rpc() { return rpc_; }
  [[nodiscard]] Stats& stats() { return stats_; }
  [[nodiscard]] const SchedConfig& config() const { return config_; }
  [[nodiscard]] Pcb& pcb_of(ProcId pid);
  [[nodiscard]] std::uint8_t load_hint() const {
    return static_cast<std::uint8_t>(std::min(proc_count_, 255));
  }

  /// Occupies this node's CPU for `t` from the end of its busy time, and
  /// holds a dispatch already queued until then (event-context disk I/O
  /// without overlap, per the paper's IVY).
  void stall(Time t);

  /// Reports a transition of this node to every consumer (event.cc).
  void emit(const Event& e);

 private:
  void schedule_dispatch();
  void queue_dispatch(Time at);
  void dispatch();
  void finish(Pcb& pcb);
  void on_resume_msg(net::Message&& msg);
  void on_migrate_ask(net::Message&& msg);
  Pcb& allocate_slot();
  void install_transfer(Pcb& slot, PcbTransfer&& transfer);

  // load_balance.cc
  void maybe_arm_null_timer();
  void null_tick();
  void maybe_advertise_load();

  /// The dispatcher sets these around each fiber resume.
  static inline thread_local constinit Scheduler* current_sched_ = nullptr;
  static inline thread_local constinit Pcb* current_pcb_ = nullptr;

  sim::Simulator& sim_;
  rpc::RemoteOp& rpc_;
  svm::Svm& svm_;
  Stats& stats_;
  NodeId node_;
  SchedConfig config_;
  LiveCounter& live_;

  std::vector<std::unique_ptr<Pcb>> slots_;
  RingDeque<Pcb*> ready_;  ///< front = most recently readied (LIFO)
  Pcb* running_ = nullptr;
  Pcb* last_dispatched_ = nullptr;
  Time busy_until_ = 0;
  /// End of the last stall.  Unlike the rest of busy_until_ (spawn
  /// bookkeeping), a stall also holds a dispatch queued before it.
  Time stalled_until_ = 0;
  bool dispatch_pending_ = false;
  int proc_count_ = 0;  ///< ready + running + blocked (not finished/migrated)

  /// Last load hint heard from each node (piggybacked on messages).
  std::vector<std::uint8_t> known_load_;
  bool null_timer_armed_ = false;
  bool migrate_ask_inflight_ = false;
  bool advertise_armed_ = false;

  /// Stack-region bump allocator (node-local slice of the SVM).
  SvmAddr stack_next_;
  SvmAddr stack_end_;
};

}  // namespace ivy::proc
