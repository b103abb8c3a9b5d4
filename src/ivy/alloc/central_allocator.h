// One-level centralized first-fit allocator.
//
// One instance exists per node.  The instance on the central node owns
// the heap's FirstFit state (kept in the node's private memory, like the
// page table) and serves kAllocRequest/kFreeRequest; every other node's
// instance is a thin RPC client.  Allocate and free are atomic: requests
// serialize naturally at the central node's message handler, and local
// calls guard with the node's binary lock as the paper describes.
#pragma once

#include <memory>

#include "ivy/alloc/first_fit.h"
#include "ivy/alloc/shared_heap.h"
#include "ivy/proc/scheduler.h"
#include "ivy/sync/svm_lock.h"

namespace ivy::alloc {

class CentralAllocator final : public SharedHeap {
 public:
  /// `heap_base`/`heap_bytes` describe the SVM heap region (identical on
  /// every node); only the central node materializes the free list.
  CentralAllocator(proc::Scheduler& sched, NodeId central, SvmAddr heap_base,
                   SvmAddr heap_bytes);

  [[nodiscard]] SvmAddr allocate(std::size_t bytes) override;
  void deallocate(SvmAddr addr) override;

  /// Host-side bootstrap allocation (before the simulation runs), valid
  /// only on the central node's instance.
  [[nodiscard]] SvmAddr host_allocate(std::size_t bytes);
  void host_free(SvmAddr addr);

  [[nodiscard]] bool is_central() const {
    return sched_.node() == central_;
  }

 private:
  void on_alloc_request(net::Message&& msg);
  void on_free_request(net::Message&& msg);

  proc::Scheduler& sched_;
  NodeId central_;
  std::unique_ptr<FirstFit> heap_;  ///< central node only
};

}  // namespace ivy::alloc
