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
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "ivy/base/chunked_array.h"
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

  /// A resident page's bytes with its recency stamp, for a translation
  /// cache to keep.  The stamp's address stays valid only until the
  /// pool's frame set next changes (acquire, release): frames move in
  /// their dense storage then.
  struct FrameRef {
    std::byte* bytes = nullptr;
    std::uint64_t* last_used = nullptr;
  };

  /// Bytes of a resident page, touching it for recency; nullptr if absent.
  [[nodiscard]] std::byte* lookup(PageId page) {
    return lookup_ref(page).bytes;
  }
  /// lookup's frame as a FrameRef; empty if absent.
  [[nodiscard]] FrameRef lookup_ref(PageId page) {
    const std::uint32_t slot = slot_.get(page);
    if (slot == kNoSlot) return {};
    Frame& f = frames_[slot];
    f.last_used = ++tick_;
    return {f.bytes.get(), &f.last_used};
  }
  /// A later reference through a still-valid FrameRef: touches the frame
  /// for recency as lookup does.
  [[nodiscard]] std::byte* touch(const FrameRef& ref) {
    *ref.last_used = ++tick_;
    return ref.bytes;
  }

  /// Bytes without affecting recency (for assertions, server peeks and
  /// the later pages of a reference the process already touched).
  [[nodiscard]] std::byte* peek(PageId page) const {
    const std::uint32_t slot = slot_.get(page);
    return slot == kNoSlot ? nullptr : frames_[slot].bytes.get();
  }

  [[nodiscard]] bool resident(PageId page) const {
    return slot_.get(page) != kNoSlot;
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
  /// Slot of resident `page` (checked).
  [[nodiscard]] std::uint32_t slot_of(PageId page, const char* what) const;

  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  NodeId node_;
  std::size_t page_size_;
  std::size_t capacity_;
  ReplacementPolicy policy_;
  Rng rng_;
  std::uint64_t tick_ = 0;
  std::vector<Frame> frames_;  ///< dense storage
  /// page -> slot in frames_, or kNoSlot; a chunk of it is allocated at
  /// the first acquire in its range.
  ChunkedArray<std::uint32_t> slot_{kNoSlot};
  EvictCallback on_evict_;

  static constexpr int kSampleProbes = 2;
};

}  // namespace ivy::mem
