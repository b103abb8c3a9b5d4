// The IVY runtime — the paper's initialization module plus the client
// interface that ties remote operation, memory mapping, process
// management and memory allocation together (Figure 2).
//
// Typical use:
//
//   ivy::runtime::Config cfg;
//   cfg.nodes = 8;
//   ivy::runtime::Runtime rt(cfg);
//   auto x = rt.alloc_array<double>(n);
//   for (ivy::NodeId p = 0; p < cfg.nodes; ++p)
//     rt.spawn_on(p, [=] { /* parallel work touching x[...] */ });
//   ivy::Time elapsed = rt.run();
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "ivy/alloc/central_allocator.h"
#include "ivy/alloc/two_level_allocator.h"
#include "ivy/fault/plane.h"
#include "ivy/net/ring.h"
#include "ivy/prof/prof.h"
#include "ivy/runtime/config.h"
#include "ivy/runtime/shared.h"
#include "ivy/sync/barrier.h"
#include "ivy/trace/trace.h"

namespace ivy::runtime {

class Runtime {
 public:
  explicit Runtime(Config cfg);
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- bootstrap allocation (host side, between runs) --------------------

  [[nodiscard]] SvmAddr alloc_raw(std::size_t bytes);
  void free_raw(SvmAddr addr);

  template <typename T>
  [[nodiscard]] SharedArray<T> alloc_array(std::size_t count) {
    return SharedArray<T>(alloc_raw(count * sizeof(T)), count);
  }
  template <typename T>
  [[nodiscard]] SharedScalar<T> alloc_scalar() {
    return SharedScalar<T>(alloc_raw(sizeof(T)));
  }
  /// `pages` > 1 extends the waiter array over linked pages, for
  /// eventcounts with very many simultaneous waiters.
  [[nodiscard]] sync::Eventcount create_eventcount(std::uint32_t pages = 1);
  [[nodiscard]] sync::Barrier create_barrier(int parties);
  [[nodiscard]] sync::SvmLock create_lock();

  // --- processes ------------------------------------------------------------

  /// Manual scheduling: place a process on a given processor.
  ProcId spawn_on(NodeId node, std::function<void()> body,
                  bool migratable = true);
  /// System scheduling: spawn at the contact node (0) and let the passive
  /// load balancer spread work (enable cfg.sched.load_balancing).
  ProcId spawn(std::function<void()> body, bool migratable = true);

  /// Runs the machine until every process finished; returns the virtual
  /// time that elapsed.  Aborts with diagnostics on deadlock.
  Time run();

  // --- host-side data access (initialization / verification) --------------

  void host_read_bytes(SvmAddr addr, std::span<std::byte> out);
  void host_write_bytes(SvmAddr addr, std::span<const std::byte> in);
  template <typename T>
  [[nodiscard]] T host_read(SvmAddr addr) {
    T v;
    host_read_bytes(addr, std::as_writable_bytes(std::span(&v, 1)));
    return v;
  }
  template <typename T>
  [[nodiscard]] T host_read(const SharedArray<T>& arr, std::size_t i) {
    return host_read<T>(arr.address_of(i));
  }
  /// The whole array in one host_read_bytes pass (one drain, one owner
  /// lookup per page rather than per element).
  template <typename T>
  [[nodiscard]] std::vector<T> host_read(const SharedArray<T>& arr) {
    std::vector<T> values(arr.size());
    host_read_bytes(arr.address(), std::as_writable_bytes(std::span(values)));
    return values;
  }
  template <typename T>
  void host_write(SvmAddr addr, const T& v) {
    host_write_bytes(addr, std::as_bytes(std::span(&v, 1)));
  }

  // --- plumbing ----------------------------------------------------------

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] NodeId nodes() const { return cfg_.nodes; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] Stats& stats() { return stats_; }
  [[nodiscard]] net::Ring& ring() { return ring_; }
  [[nodiscard]] svm::Svm& svm(NodeId node) { return node_of(node).svm; }
  [[nodiscard]] proc::Scheduler& scheduler(NodeId node) {
    return node_of(node).sched;
  }
  [[nodiscard]] rpc::RemoteOp& rpc(NodeId node) { return node_of(node).rpc; }
  /// Process-context allocator for a node (one- or two-level per config).
  [[nodiscard]] alloc::SharedHeap& heap(NodeId node);
  [[nodiscard]] Time now() const { return sim_.now(); }
  /// Closes a measurement epoch (e.g. one Jacobi iteration, Table 1).
  void mark_epoch() { stats_.mark_epoch(); }

  // --- observability -------------------------------------------------------

  /// The machine's event tracer.  Inert (no buffer) unless enabled via
  /// cfg.trace_enabled or enable_tracing().
  [[nodiscard]] trace::Tracer& tracer() { return tracer_; }
  /// The coherence oracle, or nullptr when cfg.oracle_mode == kOff.
  [[nodiscard]] oracle::Oracle* oracle() { return oracle_.get(); }
  /// The profiler state as of the end of the most recent run(), or
  /// nullptr before the first profiled run.  Tools prefer this over the
  /// live profiler: verification host-reads after a run drain the
  /// simulator, and that tail is not part of the program's profile.
  [[nodiscard]] const prof::Profiler::Snapshot* run_prof() const {
    return run_prof_.get();
  }

  /// The cost-attribution profiler, or nullptr when cfg.prof_enabled is
  /// off.  run() syncs it to the clock and self-checks the attribution.
  [[nodiscard]] prof::Profiler* prof() { return prof_.get(); }
  /// The installed fault plane, or nullptr when cfg.fault is empty.
  [[nodiscard]] fault::FaultPlane* fault_plane() { return fault_plane_.get(); }
  /// Arms the tracer mid-flight (e.g. to trace only a later phase).
  void enable_tracing(std::size_t capacity = 1 << 16);
  /// Writes the retained events as Chrome trace_event JSON (load in
  /// Perfetto / chrome://tracing).  Returns false and warns on I/O error
  /// or when tracing was never enabled.
  bool write_trace(const std::string& path) const;
  /// Writes counters, epoch deltas, latency histograms (and, when tracing
  /// is on, the hot-page ranking) as JSON — or CSV when `path` ends in
  /// ".csv".  `elapsed` labels the run time in the JSON header.
  bool write_metrics(const std::string& path, Time elapsed = 0) const;
  /// Writes the profiler's folded-stack attribution (speedscope /
  /// flamegraph.pl collapsed format) to `path`; with a prof slice armed,
  /// the per-slice utilization timeline additionally lands in
  /// `path + ".util.csv"`.  False (with a warning) when the profiler is
  /// off or on I/O error.
  bool write_prof(const std::string& path);

  /// Runs all still-queued events to completion (straggler deliveries,
  /// retransmission scans).  run() stops the instant the last process
  /// finishes, so ownership handed off by a final duplicate serve can
  /// still be in flight; drain settles the machine.
  void drain() { sim_.run_until_idle(); }

  /// Drains the machine and runs the oracle's full-strength audit of
  /// every (now quiescent) page; with the oracle off it only drains.
  /// run() does not audit: draining there would move the clock under
  /// the program's own timing, so arming the oracle would change the
  /// run it observes.  Call it once the program's results are taken.
  void final_audit();

  /// Multi-line diagnostic dump of every non-quiescent page and every
  /// scheduler (used by the deadlock report; handy in tests).
  [[nodiscard]] std::string dump_state() const;

  /// Invariant audit over all page tables (see DESIGN.md §5): exactly one
  /// owner per page, writer exclusivity, copyset ⊇ readers, probOwner
  /// chains terminate.  Runs final_audit() first.  Cheap enough to
  /// call from tests after every phase.
  void check_coherence_invariants();

 private:
  struct NodeCtx {
    NodeCtx(Runtime& rt, NodeId id);
    rpc::RemoteOp rpc;
    svm::Svm svm;
    proc::Scheduler sched;
    alloc::CentralAllocator central;
    std::optional<alloc::TwoLevelAllocator> two_level;
  };

  [[nodiscard]] NodeCtx& node_of(NodeId node) {
    IVY_CHECK_LT(node, nodes_.size());
    return *nodes_[node];
  }
  [[nodiscard]] const NodeCtx& node_of(NodeId node) const {
    IVY_CHECK_LT(node, nodes_.size());
    return *nodes_[node];
  }

  Config cfg_;
  sim::Simulator sim_;
  Stats stats_;
  trace::Tracer tracer_;
  net::Ring ring_;
  std::unique_ptr<fault::FaultPlane> fault_plane_;
  proc::LiveCounter live_;
  // Declared before nodes_: the per-node Svm instances hold raw observer
  // pointers into the oracle, so it must outlive them.
  std::unique_ptr<oracle::Oracle> oracle_;
  std::unique_ptr<prof::Profiler> prof_;
  std::unique_ptr<prof::Profiler::Snapshot> run_prof_;
  std::vector<std::unique_ptr<NodeCtx>> nodes_;
};

}  // namespace ivy::runtime
