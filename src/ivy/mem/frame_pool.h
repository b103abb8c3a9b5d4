// Bounded per-node physical page frames with pluggable replacement.
//
// Each node's local memory is "a large cache of the shared virtual
// memory address space".  The pool holds real byte copies — coherence
// bugs therefore manifest as observably stale data, which the property
// tests rely on.
//
// Replacement: IVY sat on Aegis, which "performs an approximate LRU page
// replacement strategy".  The distinction matters: *strict* LRU is
// pathological on the cyclic sweeps of the Jacobi programs (every page's
// reuse distance exceeds memory, so everything misses), while sampled
// "approximate" LRU evicts a randomly probed old page and misses roughly
// in proportion to the overflow — which is the regime Table 1 shows.
// Both policies are provided; an ablation bench compares them.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "ivy/base/rng.h"
#include "ivy/base/types.h"

namespace ivy::mem {

enum class ReplacementPolicy : std::uint8_t {
  kStrictLru,
  kSampledLru,  ///< evict the oldest of a few random probes (≈ Aegis)
};

[[nodiscard]] constexpr const char* to_string(ReplacementPolicy p) {
  switch (p) {
    case ReplacementPolicy::kStrictLru: return "strict_lru";
    case ReplacementPolicy::kSampledLru: return "sampled_lru";
  }
  return "?";
}

class FramePool {
 public:
  /// What to do with an evicted page's bytes.
  enum class EvictAction : std::uint8_t {
    kWriteToDisk,  ///< this node owns the page: preserve the image
    kDrop,         ///< read-only copy: the owner still has the data
    kSkip,         ///< page is protocol-busy; pick another victim
  };
  /// Decides the disposition of a victim page and performs the page-table
  /// side effects (access -> nil, disk write bookkeeping).  Receives the
  /// victim id and its current bytes.
  using EvictCallback =
      std::function<EvictAction(PageId, std::span<const std::byte>)>;

  FramePool(NodeId node, std::size_t page_size,
            std::size_t capacity_frames,
            ReplacementPolicy policy = ReplacementPolicy::kSampledLru,
            std::uint64_t seed = 0x1988);

  void set_evict_callback(EvictCallback cb) { on_evict_ = std::move(cb); }

  /// Bytes of a resident page, touching it for recency; nullptr if absent.
  [[nodiscard]] std::byte* lookup(PageId page) {
    auto it = index_.find(page);
    if (it == index_.end()) return nullptr;
    Frame& f = frames_[it->second];
    f.last_used = ++tick_;
    return f.bytes.get();
  }

  /// Bytes without affecting recency (for assertions / server peeks).
  [[nodiscard]] const std::byte* peek(PageId page) const {
    auto it = index_.find(page);
    return it == index_.end() ? nullptr : frames_[it->second].bytes.get();
  }

  [[nodiscard]] bool resident(PageId page) const {
    return index_.contains(page);
  }

  /// Allocates (or returns) a frame for `page`, evicting if necessary.
  /// Contents of a fresh frame are zeroed.
  std::byte* acquire(PageId page);

  /// Drops a resident page without invoking the eviction callback (used
  /// when the protocol itself invalidates or transfers the page away).
  void release(PageId page);

  /// Pins a resident page so replacement skips it (eventcount pages are
  /// pinned during their atomic operations).
  void pin(PageId page);
  void unpin(PageId page);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t resident_count() const { return frames_.size(); }
  [[nodiscard]] std::size_t page_size() const { return page_size_; }
  [[nodiscard]] ReplacementPolicy policy() const { return policy_; }

 private:
  struct Frame {
    PageId page = kNoPage;
    std::unique_ptr<std::byte[]> bytes;
    std::uint64_t last_used = 0;
    int pin_count = 0;
  };

  void evict_one();
  /// Index of the next victim candidate, or SIZE_MAX if all are
  /// unevictable this round.
  [[nodiscard]] std::size_t pick_victim(
      const std::vector<bool>& unevictable);
  void remove_at(std::size_t idx);

  NodeId node_;
  std::size_t page_size_;
  std::size_t capacity_;
  ReplacementPolicy policy_;
  Rng rng_;
  std::uint64_t tick_ = 0;
  std::vector<Frame> frames_;                        ///< dense storage
  std::unordered_map<PageId, std::size_t> index_;    ///< page -> slot
  EvictCallback on_evict_;

  static constexpr int kSampleProbes = 2;
};

}  // namespace ivy::mem
