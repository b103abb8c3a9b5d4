// ivy::prof — virtual-time cost attribution.
//
// The paper's whole evaluation is *time* (Figures 4-6 are speedup
// curves), yet counters answer "how many" and the tracer answers
// "when"; neither says where a node's virtual cycles went.  This module
// does: every simulated nanosecond of every node lands in exactly one
// category — busy work (compute, scheduling overhead, lock spinning)
// charged from the fiber cost funnel, or the winner of the waits active
// while the CPU is otherwise idle (fault legs, disk, lock/eventcount
// blocking, migration, rpc backoff, manager service) — and the per-node
// totals are verified to sum to the elapsed virtual time exactly.
//
// The accounting model mirrors the simulator's cost model:
//   * Busy time.  The scheduler commits a fiber's accumulated charge at
//     each yield as a [now, busy_until) span; commit_dispatch() splits
//     off the parts of it noted under another category while it ran
//     (the rest is kCompute), plus kSchedOverhead for the context switch
//     and kDisk for protocol charges drained from the svm.
//   * Wait time.  Instrumentation sites place begin/retag/end marks
//     keyed by (domain, id); whenever a node's timeline is not covered
//     by a busy span, the highest-priority active wait is charged (disk
//     beats backoff beats fault legs beats lock/sync waits beats
//     manager service); with no active wait the time is kIdle.
//
// Like the oracle, the profiler lives outside the simulated machines:
// marks cost no virtual time and may cross nodes (a serving node retags
// the requester's fault wait into its transfer leg).  Every mark comes
// from a plane's emit point (RemoteOp::emit, Svm::emit, Scheduler::emit)
// behind one pointer test, so a run without --prof-out pays one branch
// per transition.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "ivy/base/check.h"
#include "ivy/base/types.h"

namespace ivy::prof {

/// Where a virtual nanosecond went.  Index-aligned with cat_names().
enum class Cat : std::uint8_t {
  // -- busy categories (the CPU is occupied) ---------------------------
  kCompute = 0,     ///< application work charged by the fiber
  kSchedOverhead,   ///< context switches, spawn cost, fault handler entry
  kLockSpin,        ///< test-and-set / lock bookkeeping cycles
  kDisk,            ///< page-in/out stalling the node (IVY's no-overlap I/O)
  // -- wait categories (the CPU is idle, something is outstanding) -----
  kReadFaultLocate,      ///< read fault: finding the owner
  kReadFaultTransfer,    ///< read fault: page body on the wire / install
  kReadFaultInvalidate,  ///< read fault: (rare) invalidation round
  kWriteFaultLocate,     ///< write fault: finding the owner
  kWriteFaultTransfer,   ///< write fault: grant + page on the wire
  kWriteFaultInvalidate, ///< write fault: invalidating the copy set
  kManagerService,       ///< serving remote requests (manager duty)
  kLockWait,             ///< blocked on a contended SvmLock
  kSyncWait,             ///< blocked on an eventcount / barrier
  kMigration,            ///< waiting for a migrated process to arrive
  kBackoff,              ///< rpc exponential backoff between retransmits
  kIdle,                 ///< nothing outstanding
  kCount                 // sentinel
};

inline constexpr std::size_t kCatCount = static_cast<std::size_t>(Cat::kCount);

[[nodiscard]] const char* to_string(Cat cat);
[[nodiscard]] const std::array<const char*, kCatCount>& cat_names();

/// Wait keys are namespaced so a lock wait and a page-fault wait on the
/// same page never collide.
enum class Domain : std::uint8_t {
  kNone = 0,   ///< busy charges (no wait key)
  kPageFault,  ///< value = PageId
  kLock,       ///< value = the lock's PageId
  kSync,       ///< value = the eventcount's PageId
  kRpc,        ///< value = rpc id (backoff waits)
  kMigrate,    ///< value = 0 (one migrate-ask in flight per node)
  kService,    ///< value = rpc id being served
};

[[nodiscard]] const char* domain_prefix(Domain d);

/// Which leg of a fault's critical path the wait is in; retagging keeps
/// the read/write family of the active wait (invalidate legs on a read
/// fault stay kReadFaultInvalidate).
enum class FaultLeg : std::uint8_t { kLocate, kTransfer, kInvalidate };

class Profiler {
 public:
  /// `slice` > 0 additionally bins every charge into per-node utilization
  /// slices of that width (for the timeline CSV / Chrome counter track).
  explicit Profiler(NodeId nodes, Time slice = 0);

  [[nodiscard]] NodeId nodes() const { return static_cast<NodeId>(nodes_.size()); }
  [[nodiscard]] Time slice() const { return slice_; }

  // --- busy side (scheduler cost funnel) ------------------------------

  /// `t` of the running fiber's charge on `node` (Scheduler::
  /// charge_current) belongs to `cat`; remembered until the next dispatch
  /// commit on that node, which counts the unnoted rest as compute.
  void note_fiber_charge(NodeId node, Time t, Cat cat);

  /// The scheduler committed a busy span at a yield: [now, now +
  /// switch_cost + fiber_charge + pending).  The fiber charge is split
  /// into the categories noted since the last commit (any remainder is
  /// kCompute); `pending` is svm protocol work (disk) drained into the
  /// same span.
  void commit_dispatch(NodeId node, Time now, Time switch_cost,
                       Time fiber_charge, Time pending);

  /// Directly charge a busy span (spawn cost, event-context disk
  /// stalls).  `from` is clipped to the node's accounting cursor, so a
  /// span the busy model later overwrites can never break the
  /// sums-to-elapsed invariant.
  void charge_busy(NodeId node, Time from, Time to, Cat cat);

  // --- wait side (instrumentation marks) ------------------------------

  /// Starts (or retags, if `(domain, value)` is already active) a wait.
  /// `tag` names the folded-stack leaf; by default the key value.
  void begin_wait(NodeId node, Cat cat, Domain domain, std::uint64_t value,
                  Time at, std::uint64_t tag = kDefaultTag);
  /// Retags an active wait; no-op when the key is not active.
  void retag_wait(NodeId node, Domain domain, std::uint64_t value, Cat cat,
                  Time at);
  /// Ends a wait; no-op when the key is not active (tolerant: some
  /// completion paths never began one).  `at` may lie in the future
  /// (e.g. manager service ends at now + fault_server); the mark is
  /// applied when the timeline reaches it.
  void end_wait(NodeId node, Domain domain, std::uint64_t value, Time at);

  /// Moves an active page-fault wait to the given leg, preserving its
  /// read/write family; no-op for non-fault waits (e.g. kDisk restores).
  void fault_leg(NodeId node, std::uint64_t page, FaultLeg leg, Time at);

  /// A fault request was forwarded another hop on behalf of `node`.
  void note_hop(NodeId node, std::uint64_t page);

  // --- lifecycle ------------------------------------------------------

  /// Advances every node's timeline to `t` (charging waits / idle)
  /// without freezing — call between runs or before reading totals.
  void sync_to(Time t);
  /// Advances every node's timeline to `end` (charging waits / idle) and
  /// freezes the profiler; later marks and charges are ignored.
  void finalize(Time end);
  [[nodiscard]] bool finalized() const { return frozen_; }

  /// Verifies Σ category totals == elapsed virtual time for every node.
  /// True by construction unless the accounting itself is broken — which
  /// is exactly what it guards.
  [[nodiscard]] bool self_check(std::string* error = nullptr) const;

  [[nodiscard]] Time total(NodeId node, Cat cat) const {
    return nodes_[node].totals[static_cast<std::size_t>(cat)];
  }
  /// Virtual time accounted so far on `node` (== finalize() end after
  /// finalization).
  [[nodiscard]] Time accounted(NodeId node) const {
    return nodes_[node].cursor;
  }
  /// Total forwarding hops observed for read / write faults on `node`.
  [[nodiscard]] std::uint64_t hops(NodeId node, bool write) const {
    return nodes_[node].hop_total[write ? 1 : 0];
  }

  /// Per-slice category bins of `node` (empty when slice() == 0).
  [[nodiscard]] const std::vector<std::array<Time, kCatCount>>& slices(
      NodeId node) const {
    return nodes_[node].bins;
  }

  /// A frozen copy of the attribution state.  Runtime::run() takes one
  /// at the end of every run, so tools can read the attribution of the
  /// program proper even after verification host-reads drained the
  /// simulator further (that drain would otherwise show up as idle).
  struct Snapshot {
    Time accounted = 0;  ///< every node's Σ categories equals this
    std::vector<std::array<Time, kCatCount>> totals;      ///< per node
    std::vector<std::array<std::uint64_t, 2>> hops;       ///< [read, write]
  };
  /// Call sync_to() first so all nodes share one accounted instant.
  [[nodiscard]] Snapshot snapshot() const;

  // --- exports --------------------------------------------------------

  /// Folded-stack lines (collapsed format, speedscope / flamegraph.pl
  /// compatible): `node0;write_fault_transfer;page42 999`.
  void write_folded(std::ostream& out) const;
  /// Per-slice per-node category nanoseconds as CSV (slice() must be
  /// > 0 for any rows to exist).
  void write_timeline_csv(std::ostream& out) const;

 private:
  static constexpr std::uint64_t kDefaultTag = ~std::uint64_t{0};

  struct Mark {
    enum Kind : std::uint8_t { kBegin, kRetag, kEnd, kHop };
    Kind kind = kBegin;
    Cat cat = Cat::kIdle;
    Time ts = 0;
    std::uint64_t key = 0;   ///< (domain << 48) | value
    std::uint64_t tag = 0;
    std::uint64_t seq = 0;   ///< stable order among equal timestamps
  };

  struct Wait {
    Cat cat = Cat::kIdle;
    Domain domain = Domain::kNone;
    std::uint64_t tag = 0;
    Time begun = 0;
    std::uint64_t hops = 0;
    std::uint64_t seq = 0;
  };

  struct NodeProf {
    Time cursor = 0;  ///< everything before this instant is accounted
    std::array<Time, kCatCount> totals{};
    std::array<Time, kCatCount> fiber_acc{};  ///< charges pending commit
    std::vector<Mark> marks;                  ///< pending, lazily sorted
    bool marks_sorted = true;
    std::unordered_map<std::uint64_t, Wait> active;
    /// folded leaf (cat<<56 | domain<<48 | tag) -> time
    std::map<std::uint64_t, Time> folded;
    std::vector<std::array<Time, kCatCount>> bins;
    std::array<std::uint64_t, 2> hop_total{};  ///< [read, write]
  };

  static std::uint64_t make_key(Domain d, std::uint64_t value) {
    return (static_cast<std::uint64_t>(d) << 48) |
           (value & ((std::uint64_t{1} << 48) - 1));
  }

  void push_mark(NodeId node, Mark m);
  /// Accounts [cursor, t) of `node` against its active waits (processing
  /// due marks in timestamp order) and advances the cursor.
  void advance_to(NodeProf& np, Time t);
  void apply_mark(NodeProf& np, const Mark& m);
  void charge_wait_segment(NodeProf& np, Time from, Time to);
  void account(NodeProf& np, Cat cat, Domain domain, std::uint64_t tag,
               Time from, Time to);

  std::vector<NodeProf> nodes_;
  Time slice_ = 0;
  std::uint64_t next_seq_ = 0;
  bool frozen_ = false;
};

}  // namespace ivy::prof
