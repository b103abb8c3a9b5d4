#include "ivy/mem/frame_pool.h"

#include <cstring>

#include "ivy/base/check.h"
#include "ivy/base/log.h"

namespace ivy::mem {

FramePool::FramePool(NodeId node, std::size_t page_size,
                     std::size_t capacity_frames, ReplacementPolicy policy,
                     std::uint64_t seed)
    : node_(node),
      page_size_(page_size),
      capacity_(capacity_frames),
      policy_(policy),
      rng_(seed ^ (static_cast<std::uint64_t>(node) << 32)) {
  IVY_CHECK_GT(page_size, 0u);
  IVY_CHECK_GT(capacity_frames, 0u);
  IVY_CHECK_LT(capacity_frames, std::size_t{kNoSlot});
}

std::byte* FramePool::acquire(PageId page) {
  if (std::byte* bytes = lookup(page); bytes != nullptr) return bytes;
  while (frames_.size() >= capacity_) evict_one();

  Frame f;
  f.page = page;
  f.bytes = std::make_unique<std::byte[]>(page_size_);
  std::memset(f.bytes.get(), 0, page_size_);
  f.last_used = ++tick_;
  slot_.at(page) = static_cast<std::uint32_t>(frames_.size());
  frames_.push_back(std::move(f));
  return frames_.back().bytes.get();
}

void FramePool::release(PageId page) {
  const std::uint32_t slot = slot_.get(page);
  if (slot == kNoSlot) return;
  IVY_CHECK_EQ(frames_[slot].pin_count, 0);
  remove_at(slot);
}

void FramePool::remove_at(std::size_t idx) {
  IVY_CHECK_LT(idx, frames_.size());
  slot_.at(frames_[idx].page) = kNoSlot;
  if (idx + 1 != frames_.size()) {
    // The last frame fills the hole; its page now resolves to idx.
    frames_[idx] = std::move(frames_.back());
    slot_.at(frames_[idx].page) = static_cast<std::uint32_t>(idx);
  }
  frames_.pop_back();
}

std::uint32_t FramePool::slot_of(PageId page, const char* what) const {
  const std::uint32_t slot = slot_.get(page);
  IVY_CHECK_MSG(slot != kNoSlot, what << " of non-resident page " << page);
  return slot;
}

void FramePool::pin(PageId page) { ++frames_[slot_of(page, "pin")].pin_count; }

void FramePool::unpin(PageId page) {
  Frame& f = frames_[slot_of(page, "unpin")];
  IVY_CHECK_GT(f.pin_count, 0);
  --f.pin_count;
}

std::size_t FramePool::pick_victim(const std::vector<bool>& unevictable) {
  std::size_t best = SIZE_MAX;
  if (policy_ == ReplacementPolicy::kStrictLru) {
    for (std::size_t i = 0; i < frames_.size(); ++i) {
      if (frames_[i].pin_count > 0 || unevictable[i]) continue;
      if (best == SIZE_MAX ||
          frames_[i].last_used < frames_[best].last_used) {
        best = i;
      }
    }
    return best;
  }
  // Sampled (approximate) LRU: probe a handful of random frames and take
  // the oldest candidate; fall back to a full scan if every probe missed.
  for (int probe = 0; probe < kSampleProbes; ++probe) {
    const std::size_t i = rng_.below(frames_.size());
    if (frames_[i].pin_count > 0 || unevictable[i]) continue;
    if (best == SIZE_MAX || frames_[i].last_used < frames_[best].last_used) {
      best = i;
    }
  }
  if (best != SIZE_MAX) return best;
  for (std::size_t i = 0; i < frames_.size(); ++i) {
    if (frames_[i].pin_count == 0 && !unevictable[i]) return i;
  }
  return SIZE_MAX;
}

void FramePool::evict_one() {
  IVY_CHECK_MSG(on_evict_ != nullptr, "frame pool full with no evictor");
  // Pages the owner refuses to part with (kSkip: protocol-busy) are
  // excluded and another victim is probed.
  std::vector<bool> unevictable(frames_.size(), false);
  for (;;) {
    const std::size_t idx = pick_victim(unevictable);
    IVY_CHECK_MSG(idx != SIZE_MAX, "all frames pinned or busy; cannot evict");
    Frame& victim = frames_[idx];
    const EvictAction action = on_evict_(
        victim.page,
        std::span<const std::byte>(victim.bytes.get(), page_size_));
    if (action == EvictAction::kSkip) {
      unevictable[idx] = true;
      continue;
    }
    IVY_TRACE() << "node " << node_ << " evicts page " << victim.page;
    remove_at(idx);
    return;
  }
}

}  // namespace ivy::mem
