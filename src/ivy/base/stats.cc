#include "ivy/base/stats.h"

#include <sstream>

namespace ivy {

const std::array<const char*, kCounterCount>& counter_names() {
  static const std::array<const char*, kCounterCount> kNames = {
      "read_faults",
      "write_faults",
      "local_fault_hits",
      "page_transfers",
      "ownership_transfers",
      "invalidations_sent",
      "forwards",
      "broadcasts",
      "messages",
      "bytes_on_ring",
      "retransmissions",
      "rpc_backoffs",
      "rpc_failures",
      "grant_reoffers",
      "faults_injected",
      "checksum_drops",
      "done_cache_evictions",
      "dup_reexecutions",
      "reply_resends",
      "disk_reads",
      "disk_writes",
      "evictions",
      "migrations",
      "migration_rejects",
      "proc_spawns",
      "context_switches",
      "ec_waits",
      "ec_advances",
      "ec_remote_wakeups",
      "lock_acquisitions",
      "lock_spins",
      "alloc_calls",
      "alloc_remote_calls",
      "free_calls",
      "multicasts",
      "bodyless_upgrades",
      "invalidate_multicasts",
  };
  return kNames;
}

const std::array<const char*, kHistCount>& hist_names() {
  static const std::array<const char*, kHistCount> kNames = {
      "fault_resolution_ns",
      "remote_op_round_trip_ns",
      "invalidate_round_ns",
      "lock_wait_ns",
      "ec_wait_ns",
      "migration_ns",
      "disk_stall_ns",
  };
  return kNames;
}

std::size_t Stats::mark_epoch() {
  const CounterBlock now = aggregate();
  epochs_.push_back(now.minus(last_mark_));
  last_mark_ = now;
  return epochs_.size() - 1;
}

std::string Stats::summary() const {
  std::ostringstream out;
  const CounterBlock agg = aggregate();
  const auto& names = counter_names();
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const auto v = agg.get(static_cast<Counter>(i));
    if (v != 0) out << names[i] << " = " << v << '\n';
  }
  for (std::size_t i = 0; i < kHistCount; ++i) {
    const Histogram h = hist(static_cast<Hist>(i));
    if (h.count() == 0) continue;
    out << hist_names()[i] << ": count=" << h.count() << " mean="
        << static_cast<std::uint64_t>(h.mean()) << " min=" << h.min()
        << " max=" << h.max() << " p50=" << h.percentile(0.50)
        << " p90=" << h.percentile(0.90) << " p99=" << h.percentile(0.99)
        << '\n';
  }
  return out.str();
}

}  // namespace ivy
