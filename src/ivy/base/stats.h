// System-wide instrumentation counters.
//
// The paper's evaluation is entirely about counts and times: page faults,
// messages, bytes on the ring, disk page transfers per iteration
// (Table 1), and virtual execution time (Figures 4–6).  Every module
// increments counters here; experiments snapshot them at epoch boundaries
// (an "epoch" is an application-defined unit such as one Jacobi
// iteration).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "ivy/base/check.h"
#include "ivy/base/types.h"

namespace ivy {

namespace trace {
class Tracer;
}  // namespace trace

namespace prof {
class Profiler;
}  // namespace prof

/// Fixed roster of counters.  Extend freely; names() must match.
enum class Counter : std::size_t {
  kReadFaults = 0,      ///< read page faults taken
  kWriteFaults,         ///< write page faults taken
  kLocalFaultHits,      ///< faults resolved without any message (access upgrade)
  kPageTransfers,       ///< page bodies moved between nodes
  kOwnershipTransfers,  ///< page ownership moves (with or without body)
  kInvalidationsSent,   ///< invalidation requests sent
  kForwards,            ///< fault requests forwarded (probOwner / manager hops)
  kBroadcasts,          ///< ring broadcasts performed
  kMessages,            ///< point-to-point protocol messages delivered
  kBytesOnRing,         ///< modeled bytes transmitted on the ring
  kRetransmissions,     ///< request retransmissions (drop recovery)
  kRpcBackoffs,         ///< retransmissions sent with exponential backoff
  kRpcFailures,         ///< requests failed terminally (retransmit cap hit)
  kGrantReoffers,       ///< unacked ownership grants re-offered by the old owner
  kFaultsInjected,      ///< frames the fault plane dropped/dup'd/delayed/corrupted
  kChecksumDrops,       ///< frames discarded by receiver checksum verify
  kDoneCacheEvictions,  ///< cached replies evicted from the rpc done-cache
  kDupReexecutions,     ///< duplicate requests re-executed after eviction
  kReplyResends,        ///< cached replies resent to a retransmitted request
  kDiskReads,           ///< page-in operations from the simulated disk
  kDiskWrites,          ///< page-out operations to the simulated disk
  kEvictions,           ///< frames reclaimed by LRU replacement
  kMigrations,          ///< process migrations completed
  kMigrationRejects,    ///< migration requests rejected (below threshold)
  kProcSpawns,          ///< lightweight processes created
  kContextSwitches,     ///< dispatcher switches between processes
  kEcWaits,             ///< eventcount Wait operations that blocked
  kEcAdvances,          ///< eventcount Advance operations
  kEcRemoteWakeups,     ///< wakeups delivered to a remote node
  kLockAcquisitions,    ///< SVM binary lock acquisitions
  kLockSpins,           ///< failed test-and-set attempts
  kAllocCalls,          ///< shared-memory allocations
  kAllocRemoteCalls,    ///< allocations that required an RPC to the central node
  kFreeCalls,           ///< shared-memory frees
  kMulticasts,          ///< ring multicast frames transmitted
  kBodylessUpgrades,    ///< write grants sent without a page body (in-place upgrade)
  kInvalidateMulticasts,///< invalidation rounds that used one multicast frame
  kCount                // sentinel
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

/// Human-readable counter names, index-aligned with Counter.
[[nodiscard]] const std::array<const char*, kCounterCount>& counter_names();

/// Fixed roster of latency histograms.  Extend freely; hist_names() must
/// match.
enum class Hist : std::size_t {
  kFaultResolution = 0,  ///< page-fault start -> access granted
  kRemoteOpRoundTrip,    ///< rpc request sent -> (last) reply received
  kInvalidateRound,      ///< invalidation round start -> all acks
  kLockWait,             ///< contended SvmLock::lock -> acquisition
  kEcWait,               ///< blocked eventcount Wait -> wakeup
  kMigration,            ///< migrate-ask sent -> process installed
  kDiskStall,            ///< disk transfer stall charged to a node
  kCount                 // sentinel
};

inline constexpr std::size_t kHistCount = static_cast<std::size_t>(Hist::kCount);

/// Human-readable histogram names, index-aligned with Hist.
[[nodiscard]] const std::array<const char*, kHistCount>& hist_names();

/// Log2-bucket latency histogram over virtual nanoseconds.
///
/// Bucket 0 holds exact zeros; bucket b >= 1 holds values in
/// [2^(b-1), 2^b).  64 buckets cover the whole Time range, so recording
/// never clamps and merging never loses tail samples.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(Time v) {
    const std::uint64_t u = v > 0 ? static_cast<std::uint64_t>(v) : 0;
    ++buckets_[bucket_of(u)];
    ++count_;
    sum_ += u;
    if (count_ == 1 || u < min_) min_ = u;
    if (u > max_) max_ = u;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept {
    return count_ == 0 ? 0 : min_;
  }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) /
                                   static_cast<double>(count_);
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    IVY_CHECK_LT(i, kBuckets);
    return buckets_[i];
  }

  /// Index of the bucket holding value `u`.  The top bucket is open-ended
  /// so values >= 2^63 (unreachable from a positive Time) never index out
  /// of range.
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t u) noexcept {
    if (u == 0) return 0;
    const auto b = static_cast<std::size_t>(64 - __builtin_clzll(u));
    return b < kBuckets ? b : kBuckets - 1;
  }
  /// Inclusive lower bound of bucket `i`.
  [[nodiscard]] static std::uint64_t bucket_lo(std::size_t i) noexcept {
    return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
  }
  /// Exclusive upper bound of bucket `i` (bucket 0 = {0}; the last bucket
  /// has no upper bound).
  [[nodiscard]] static std::uint64_t bucket_hi(std::size_t i) noexcept {
    return i == 0 ? 1
           : i >= kBuckets - 1 ? ~std::uint64_t{0}
                               : std::uint64_t{1} << i;
  }

  /// Quantile estimate (q in [0, 1]) by linear interpolation inside the
  /// log2 bucket holding the rank.  Bucket 0 is exact (zeros); the
  /// estimate is clamped into [min, max] so p99 of a tight distribution
  /// never exceeds the recorded maximum.
  [[nodiscard]] std::uint64_t percentile(double q) const {
    if (count_ == 0) return 0;
    if (q <= 0.0) return min();
    if (q >= 1.0) return max_;
    const double rank = q * static_cast<double>(count_);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (buckets_[b] == 0) continue;
      const auto next = seen + buckets_[b];
      if (static_cast<double>(next) >= rank) {
        if (b == 0) return 0;
        const double in_bucket =
            (rank - static_cast<double>(seen)) /
            static_cast<double>(buckets_[b]);
        const double lo = static_cast<double>(bucket_lo(b));
        const double hi = static_cast<double>(
            b >= kBuckets - 1 ? max_ : bucket_hi(b));
        auto est = static_cast<std::uint64_t>(lo + (hi - lo) * in_bucket);
        if (est < min_) est = min_;
        if (est > max_) est = max_;
        return est;
      }
      seen = next;
    }
    return max_;
  }

  Histogram& merge(const Histogram& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    if (o.count_ != 0) {
      if (count_ == 0 || o.min_ < min_) min_ = o.min_;
      if (o.max_ > max_) max_ = o.max_;
    }
    count_ += o.count_;
    sum_ += o.sum_;
    return *this;
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Per-node set of all latency histograms.
struct HistBlock {
  std::array<Histogram, kHistCount> hists;

  [[nodiscard]] Histogram& of(Hist h) {
    return hists[static_cast<std::size_t>(h)];
  }
  [[nodiscard]] const Histogram& of(Hist h) const {
    return hists[static_cast<std::size_t>(h)];
  }
  HistBlock& merge(const HistBlock& o) {
    for (std::size_t i = 0; i < kHistCount; ++i) hists[i].merge(o.hists[i]);
    return *this;
  }
};

/// Per-node counter block.
class CounterBlock {
 public:
  void bump(Counter c, std::uint64_t by = 1) {
    values_[static_cast<std::size_t>(c)] += by;
  }
  [[nodiscard]] std::uint64_t get(Counter c) const {
    return values_[static_cast<std::size_t>(c)];
  }
  void clear() { values_.fill(0); }

  CounterBlock& operator+=(const CounterBlock& o) {
    for (std::size_t i = 0; i < kCounterCount; ++i) values_[i] += o.values_[i];
    return *this;
  }
  /// Element-wise difference (for epoch deltas).
  [[nodiscard]] CounterBlock minus(const CounterBlock& o) const {
    CounterBlock r;
    for (std::size_t i = 0; i < kCounterCount; ++i)
      r.values_[i] = values_[i] - o.values_[i];
    return r;
  }

 private:
  std::array<std::uint64_t, kCounterCount> values_{};
};

/// Registry of per-node counters with epoch snapshots.
class Stats {
 public:
  explicit Stats(NodeId nodes) : per_node_(nodes), per_node_hist_(nodes) {}

  void bump(NodeId node, Counter c, std::uint64_t by = 1) {
    IVY_CHECK_LT(node, per_node_.size());
    per_node_[node].bump(c, by);
  }

  // --- latency histograms -------------------------------------------------

  void record_latency(NodeId node, Hist h, Time v) {
    IVY_CHECK_LT(node, per_node_hist_.size());
    per_node_hist_[node].of(h).record(v);
  }

  [[nodiscard]] const Histogram& node_hist(NodeId node, Hist h) const {
    IVY_CHECK_LT(node, per_node_hist_.size());
    return per_node_hist_[node].of(h);
  }

  /// Merge of one histogram across all nodes.
  [[nodiscard]] Histogram hist(Hist h) const {
    Histogram sum;
    for (const auto& blk : per_node_hist_) sum.merge(blk.of(h));
    return sum;
  }

  // --- event tracer hook --------------------------------------------------

  /// Tracer recording structured events for this machine, or nullptr when
  /// tracing is disabled (each plane's emit point tests exactly this
  /// pointer — the whole disabled-path cost).  Stats does not own it.
  [[nodiscard]] trace::Tracer* tracer() const noexcept { return tracer_; }
  void set_tracer(trace::Tracer* tracer) noexcept { tracer_ = tracer; }

  /// Cost-attribution profiler, or nullptr when profiling is disarmed
  /// (the emit points test exactly this pointer).  Stats does not own it.
  [[nodiscard]] prof::Profiler* prof() const noexcept { return prof_; }
  void set_prof(prof::Profiler* prof) noexcept { prof_ = prof; }

  [[nodiscard]] std::uint64_t node_total(NodeId node, Counter c) const {
    return per_node_[node].get(c);
  }

  [[nodiscard]] std::uint64_t total(Counter c) const {
    std::uint64_t sum = 0;
    for (const auto& blk : per_node_) sum += blk.get(c);
    return sum;
  }

  [[nodiscard]] CounterBlock aggregate() const {
    CounterBlock sum;
    for (const auto& blk : per_node_) sum += blk;
    return sum;
  }

  /// Closes the current epoch: records the delta of aggregated counters
  /// since the previous mark and returns its index.
  std::size_t mark_epoch();

  [[nodiscard]] std::size_t epoch_count() const { return epochs_.size(); }
  [[nodiscard]] const CounterBlock& epoch(std::size_t i) const {
    IVY_CHECK_LT(i, epochs_.size());
    return epochs_[i];
  }

  [[nodiscard]] NodeId nodes() const {
    return static_cast<NodeId>(per_node_.size());
  }

  /// Multi-line dump of all non-zero aggregate counters (debug aid).
  [[nodiscard]] std::string summary() const;

 private:
  std::vector<CounterBlock> per_node_;
  std::vector<HistBlock> per_node_hist_;
  std::vector<CounterBlock> epochs_;
  CounterBlock last_mark_;
  trace::Tracer* tracer_ = nullptr;
  prof::Profiler* prof_ = nullptr;
};

}  // namespace ivy
