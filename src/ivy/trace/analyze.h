// ivy::trace — post-mortem analysis of exported artifacts.
//
// The exporters (chrome_trace.h, metrics.h) turn a run into JSON; this
// module reads those files back and answers the questions a protocol
// engineer asks after the fact: where did each fault's time go, which
// pages ping-pong, how long do probOwner chains get, and does every rpc
// reply match a request.  It also cross-checks trace-derived counts
// against the live counters, so a disagreement between the two
// observability paths is itself a detected bug.
//
// Everything here is host-side tooling: no simulator, no virtual time,
// no third-party JSON dependency (the parser is self-contained in
// analyze.cc).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ivy/base/types.h"
#include "ivy/trace/trace.h"

namespace ivy::trace {

/// A Chrome trace_event file read back into Event records.
struct LoadedTrace {
  std::string machine;          ///< first process_name metadata value
  std::vector<Event> events;    ///< ascending ts (stable on ties)
  std::uint64_t unknown_names = 0;  ///< events whose name didn't map back
};

/// The headline numbers of a metrics JSON export.
struct MetricsSummary {
  std::string name;
  std::uint32_t nodes = 0;
  Time elapsed = 0;
  std::map<std::string, std::uint64_t> counters;  ///< counters_total
  bool has_trace_block = false;
  std::uint64_t trace_recorded = 0;
  std::uint64_t trace_retained = 0;
  std::uint64_t trace_dropped = 0;
};

/// Parse an exported trace / metrics file.  On failure returns false and
/// describes the problem in *error.
bool load_chrome_trace(const std::string& path, LoadedTrace* out,
                       std::string* error);
bool load_metrics_json(const std::string& path, MetricsSummary* out,
                       std::string* error);

// --- per-fault critical path ------------------------------------------

/// One fault span decomposed into protocol legs:
///   locate     fault start -> owner ships the page (or grants ownership)
///   transfer   page on the wire -> ownership installed (write faults)
///   invalidate invalidation round at the new owner (write faults)
///   resume     the rest (reply wire time, install, wakeup)
struct FaultPath {
  NodeId node = kNoNode;
  PageId page = 0;
  bool write = false;
  Time start = 0;
  Time total = 0;
  Time locate = 0;
  Time transfer = 0;
  Time invalidate = 0;
  Time resume = 0;
  std::uint64_t hops = 0;  ///< forwarding hops observed for this fault
  bool local = false;      ///< no remote serve event found in the window
};

struct LegTotals {
  std::uint64_t count = 0;
  Time locate = 0;
  Time transfer = 0;
  Time invalidate = 0;
  Time resume = 0;
  Time total = 0;
};

struct CriticalPathReport {
  LegTotals reads;
  LegTotals writes;
  std::uint64_t local_faults = 0;  ///< resolved without a serve event
  std::vector<FaultPath> slowest;  ///< top-N by total, descending
};

[[nodiscard]] CriticalPathReport critical_path(const LoadedTrace& trace,
                                               std::size_t top_n = 5);

// --- per-page contention ----------------------------------------------

struct PageContention {
  PageId page = 0;
  std::uint64_t faults = 0;
  std::uint64_t invalidation_rounds = 0;
  std::uint64_t ownership_moves = 0;
  /// A-B-A alternations in the sequence of ownership gains: the
  /// signature of write-write ping-pong (paper §4, the Figure-5 cliff).
  std::uint64_t ping_pong = 0;
  std::uint32_t nodes = 0;  ///< distinct faulting nodes
  std::string timeline;     ///< fault-density sparkline over the run
};

/// Pages ranked by activity (faults + invalidations + moves), top-N.
[[nodiscard]] std::vector<PageContention> contention(
    const LoadedTrace& trace, std::size_t top_n = 10);

// --- probOwner chain lengths ------------------------------------------

struct ChainLengths {
  static constexpr std::size_t kBuckets = 17;  ///< [16] = ">= 16"
  std::array<std::uint64_t, kBuckets> hops{};
  std::uint64_t faults = 0;
  std::uint64_t total = 0;
  std::uint64_t max = 0;
  [[nodiscard]] double mean() const {
    return faults == 0 ? 0.0
                       : static_cast<double>(total) /
                             static_cast<double>(faults);
  }
};

/// Forwarding hops per fault, from kForward events inside fault windows.
[[nodiscard]] ChainLengths chain_lengths(const LoadedTrace& trace);

// --- fault-injection attribution --------------------------------------

/// What the fault plane did to the run, and what it cost: injections by
/// type, receiver-side checksum discards, the rpc-level consequences
/// (backoffs, terminal failures), and how page-fault latency differs
/// between fault spans that overlap an injection and those that do not.
struct FaultReport {
  /// Indexed by fault::FaultType (drop, dup, delay, corrupt, partition).
  std::array<std::uint64_t, 5> injected_by_type{};
  std::uint64_t injected_total = 0;
  std::uint64_t corrupted_frames = 0;  ///< kMsgCorrupted (checksum drops)
  std::uint64_t backoffs = 0;
  std::uint64_t failures = 0;
  /// Page-fault spans whose window contains at least one injection.
  std::uint64_t overlapping_faults = 0;
  std::uint64_t clean_faults = 0;
  Time mean_overlapping = 0;  ///< mean latency of overlapping spans
  Time mean_clean = 0;        ///< mean latency of the rest

  [[nodiscard]] bool any() const { return injected_total > 0; }
};

[[nodiscard]] FaultReport fault_report(const LoadedTrace& trace);

// --- rpc causality audit ----------------------------------------------

struct CausalityReport {
  std::uint64_t requests = 0;           ///< unicast kRpcRequest events
  std::uint64_t broadcasts = 0;         ///< broadcast kRpcRequest events
  std::uint64_t replies = 0;            ///< kRpcReplySent events
  std::uint64_t duplicate_replies = 0;  ///< extra replies to a unicast id
  std::uint64_t cancelled = 0;          ///< requests the client abandoned
  std::uint64_t failed = 0;             ///< requests that failed terminally
  std::uint64_t unanswered = 0;  ///< unicast ids with no reply/cancel/failure
  std::uint64_t unmatched_replies = 0;  ///< replies to an unseen id
  std::uint64_t orphan_events = 0;      ///< kRpcOrphan observed at clients
  bool window_complete = true;  ///< ring buffer kept every event
  /// Human-readable anomalies, bounded; empty on a clean audit.  With an
  /// incomplete window, request/reply pairs can be cut apart, so
  /// findings are advisory rather than hard failures.
  std::vector<std::string> flagged;
};

[[nodiscard]] CausalityReport causality_audit(const LoadedTrace& trace,
                                              bool window_complete);

// --- trace vs counters cross-check ------------------------------------

struct CrossCheckRow {
  std::string counter;
  std::uint64_t from_metrics = 0;
  std::uint64_t from_trace = 0;
  bool checked = false;  ///< false: reported but not asserted (see note)
  bool ok = false;
  std::string note;
};

/// Recomputes from the trace the counters that count a different
/// transition than the trace records (fault starts against fault spans,
/// invalidated copies against rounds, forwarded messages against routed
/// faults) and compares them against the metrics export.  A counter that
/// its emit point reports with its trace record agrees by construction
/// and has no row.  These derivations are only exact under certain run
/// conditions (no paging, no migrations, no broadcasts); rows are checked
/// conditionally and say so in `note`.
[[nodiscard]] std::vector<CrossCheckRow> cross_check(
    const LoadedTrace& trace, const MetricsSummary& metrics);

/// The full ivy-analyze report as text.  `metrics` may be null (trace
/// only: no cross-check section).
[[nodiscard]] std::string render_report(const LoadedTrace& trace,
                                        const MetricsSummary* metrics,
                                        std::size_t top_n = 10);

// --- perf-baseline bench files (tools/ivy-bench) ----------------------

/// One sweep cell of an ivy-bench run: (workload, manager, nodes) with
/// its virtual times and the profiler's per-node cost attribution.
struct BenchPoint {
  std::string workload;
  std::string manager;
  std::uint32_t nodes = 0;
  Time elapsed = 0;    ///< workload-reported elapsed (speedup math)
  Time accounted = 0;  ///< profiler-attributed vtime (== Σ categories)
  bool verified = false;
  std::uint64_t hops_read = 0;   ///< forwarding hops on read faults
  std::uint64_t hops_write = 0;  ///< forwarding hops on write faults
  std::map<std::string, std::uint64_t> counters;
  /// One category-name -> nanoseconds map per node.
  std::vector<std::map<std::string, Time>> per_node;

  [[nodiscard]] Time category_total(const std::string& cat) const;
};

struct BenchFile {
  std::string name;
  bool reduced = false;
  std::vector<BenchPoint> points;

  [[nodiscard]] const BenchPoint* find(const std::string& workload,
                                       const std::string& manager,
                                       std::uint32_t nodes) const;
};

bool load_bench_json(const std::string& path, BenchFile* out,
                     std::string* error);

/// Audits a bench file's internal consistency: every node's category
/// sums equal the accounted time exactly, and each nonzero wait
/// category is backed by the matching live counter (fault legs imply
/// faults, lock_wait implies lock_acquisitions, backoff implies
/// rpc_backoffs, ...).  Empty result = clean.
[[nodiscard]] std::vector<std::string> bench_audit(const BenchFile& bench);

/// The speedup-loss waterfall: for each (workload, manager) sweep,
/// decomposes N*T_N - T_1 into per-category losses (the category deltas
/// sum to the loss exactly) and names the dominant loss.
[[nodiscard]] std::string render_waterfall(const BenchFile& bench);

/// One (workload, manager, nodes) regression-comparison row.  Besides
/// the elapsed-time gate, each row carries the write_fault_transfer
/// attribution of both points so a transfer-volume change (e.g. the
/// bodyless write-upgrade optimization) shows up in the comparison
/// rather than hiding inside the total.
struct CompareRow {
  std::string key;
  Time old_elapsed = 0;
  Time new_elapsed = 0;
  Time old_wft = 0;     ///< write_fault_transfer vtime in the baseline
  Time new_wft = 0;     ///< write_fault_transfer vtime in the new file
  std::uint64_t new_bodyless = 0;  ///< bodyless_upgrades counter (new file)
  double ratio = 0.0;   ///< new / old
  bool within = false;  ///< |ratio - 1| <= tolerance (and both present)
  bool missing = false; ///< in the baseline but absent from the new file
};

/// Pairs the two files' points by (workload, manager, nodes); points
/// only in `newer` are ignored (a grown sweep is not a regression).
[[nodiscard]] std::vector<CompareRow> compare_bench(const BenchFile& older,
                                                    const BenchFile& newer,
                                                    double tolerance);
[[nodiscard]] std::string render_compare(const std::vector<CompareRow>& rows,
                                         double tolerance);

}  // namespace ivy::trace
