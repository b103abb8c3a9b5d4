// Simulated per-node paging disk.
//
// IVY sits on top of the Aegis virtual memory: when a node's physical
// memory overflows, pages spill to its local disk.  The pooled-memory
// effect — Figure 4's super-linear speedup and Table 1's disk-transfer
// counts — exists precisely because remote memory (a ~1 ms page move) is
// two orders of magnitude cheaper than a ~25 ms disk transfer.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "ivy/base/stats.h"
#include "ivy/sim/cost_model.h"

namespace ivy::mem {

class Disk {
 public:
  Disk(Stats& stats, const sim::CostModel& costs, NodeId node)
      : stats_(stats), costs_(costs), node_(node) {}

  /// Writes a page image; returns the virtual time the transfer takes.
  Time write(PageId page, std::span<const std::byte> bytes) {
    auto& slot = store_[page];
    slot.assign(bytes.begin(), bytes.end());
    stats_.bump(node_, Counter::kDiskWrites);
    return costs_.disk_io;
  }

  /// Reads a page image back; returns the transfer time.  The page must
  /// have been written before.
  Time read(PageId page, std::span<std::byte> out) {
    const std::span<const std::byte> image = peek(page);
    IVY_CHECK_EQ(image.size(), out.size());
    std::copy(image.begin(), image.end(), out.begin());
    stats_.bump(node_, Counter::kDiskReads);
    return costs_.disk_io;
  }

  /// The stored image of a written page, without a transfer: host-side
  /// inspection, which costs no time and counts no disk read.
  [[nodiscard]] std::span<const std::byte> peek(PageId page) const {
    auto it = store_.find(page);
    IVY_CHECK_MSG(it != store_.end(),
                  "disk read of unwritten page " << page << " on node "
                                                 << node_);
    return it->second;
  }

  /// Discards a page image (ownership moved elsewhere).
  void discard(PageId page) { store_.erase(page); }

  [[nodiscard]] bool holds(PageId page) const {
    return store_.contains(page);
  }
  [[nodiscard]] std::size_t pages_stored() const { return store_.size(); }

 private:
  Stats& stats_;
  const sim::CostModel& costs_;
  NodeId node_;
  std::unordered_map<PageId, std::vector<std::byte>> store_;
};

}  // namespace ivy::mem
