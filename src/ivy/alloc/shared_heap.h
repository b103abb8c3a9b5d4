// Shared-memory allocation interface.
//
// "The processor with which the user directly contacts will be appointed
// to the centralized memory manager."  Clients allocate through a
// SharedHeap; the one-level implementation RPCs every request to the
// central node, the two-level implementation caches big chunks locally
// (the "more efficient approach" the paper proposes as future work).
#pragma once

#include "ivy/base/types.h"

namespace ivy::alloc {

class SharedHeap {
 public:
  virtual ~SharedHeap() = default;

  /// Allocates `bytes` of shared memory (page-aligned, page-granular).
  /// Must be called from inside a process; may block.
  [[nodiscard]] virtual SvmAddr allocate(std::size_t bytes) = 0;

  /// Frees an allocation made through the same heap family.
  virtual void deallocate(SvmAddr addr) = 0;
};

}  // namespace ivy::alloc
