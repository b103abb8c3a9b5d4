#include "ivy/alloc/central_allocator.h"

#include "ivy/proc/svm_io.h"

namespace ivy::alloc {

CentralAllocator::CentralAllocator(proc::Scheduler& sched, NodeId central,
                                   SvmAddr heap_base, SvmAddr heap_bytes)
    : sched_(sched), central_(central) {
  if (is_central()) {
    heap_ = std::make_unique<FirstFit>(heap_base, heap_bytes,
                                       sched.svm().geometry().page_size);
    sched_.rpc().set_handler(net::MsgKind::kAllocRequest,
                             [this](net::Message&& m) {
                               on_alloc_request(std::move(m));
                             });
    sched_.rpc().set_handler(net::MsgKind::kFreeRequest,
                             [this](net::Message&& m) {
                               on_free_request(std::move(m));
                             });
  }
}

SvmAddr CentralAllocator::allocate(std::size_t bytes) {
  Stats& stats = sched_.stats();
  stats.bump(sched_.node(), Counter::kAllocCalls);
  if (is_central()) {
    // "a primitive operation requires at least one procedure call"
    proc::Scheduler::charge_current(sched_.simulator().costs().test_and_set);
    return heap_->allocate(bytes);
  }
  stats.bump(sched_.node(), Counter::kAllocRemoteCalls);
  net::Message reply = proc::blocking_request(
      central_, net::MsgKind::kAllocRequest, net::AllocRequestPayload{bytes});
  return std::get<net::AllocReplyPayload>(reply.payload).addr;
}

void CentralAllocator::deallocate(SvmAddr addr) {
  sched_.stats().bump(sched_.node(), Counter::kFreeCalls);
  if (is_central()) {
    proc::Scheduler::charge_current(sched_.simulator().costs().test_and_set);
    heap_->free(addr);
    return;
  }
  (void)proc::blocking_request(central_, net::MsgKind::kFreeRequest,
                               net::FreeRequestPayload{addr});
}

SvmAddr CentralAllocator::host_allocate(std::size_t bytes) {
  IVY_CHECK_MSG(is_central(), "host_allocate on non-central node");
  return heap_->allocate(bytes);
}

void CentralAllocator::host_free(SvmAddr addr) {
  IVY_CHECK_MSG(is_central(), "host_free on non-central node");
  heap_->free(addr);
}

void CentralAllocator::on_alloc_request(net::Message&& msg) {
  const auto req = std::get<net::AllocRequestPayload>(msg.payload);
  const SvmAddr addr = heap_->allocate(req.bytes);
  sched_.rpc().reply_to(msg, net::AllocReplyPayload{addr});
}

void CentralAllocator::on_free_request(net::Message&& msg) {
  const auto req = std::get<net::FreeRequestPayload>(msg.payload);
  heap_->free(req.addr);
  sched_.rpc().reply_to(msg, net::EmptyPayload{});
}

}  // namespace ivy::alloc
