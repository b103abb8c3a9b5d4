// Two-level memory management — the paper's proposed improvement:
//
// "each processor has a local allocator maintaining a big chunk of memory
// allocated from the central memory allocator. ... When there is not
// enough free memory left in the big chunk, the local allocator will
// allocate another big chunk from the central allocator.  This approach
// has not been implemented yet, though it is expected to have better
// performance."  We implement it; the ablation bench quantifies the win.
//
// The node's binary lock guards the local free list across the blocking
// refill, exactly the per-processor lock usage the paper describes.
// Frees must happen on the allocating node (the usual discipline for
// caching allocators); oversize requests bypass the cache.
#pragma once

#include <memory>
#include <vector>

#include "ivy/alloc/central_allocator.h"
#include "ivy/alloc/first_fit.h"

namespace ivy::alloc {

class TwoLevelAllocator final : public SharedHeap {
 public:
  /// `chunk_bytes`: refill granularity from the central allocator.
  /// `lock`: this node's binary allocator lock (lives in SVM).
  TwoLevelAllocator(proc::Scheduler& sched, CentralAllocator& central,
                    std::size_t chunk_bytes, sync::SvmLock lock);

  [[nodiscard]] SvmAddr allocate(std::size_t bytes) override;
  void deallocate(SvmAddr addr) override;

 private:
  struct LocalChunk {
    SvmAddr base;
    std::unique_ptr<FirstFit> list;
  };

  [[nodiscard]] SvmAddr try_local(std::size_t bytes);

  proc::Scheduler& sched_;
  CentralAllocator& central_;
  std::size_t chunk_bytes_;
  sync::SvmLock lock_;
  std::vector<LocalChunk> chunks_;
  std::vector<SvmAddr> oversize_;  ///< allocations passed through to central
};

}  // namespace ivy::alloc
