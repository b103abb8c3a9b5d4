// Broadcast manager: each fault is located with the remote-operation
// module's "reply from any receiving processor" broadcast scheme (the
// paper names locating page owners as the use case for that scheme).
// Simple, but every fault interrupts every processor — the ablation
// bench quantifies the cost.
//
// The owner answers every probe: a busy owner holds its copy (see
// Manager::on_fault_request) instead of staying silent, so no fault
// waits for a retransmission on a healthy network.  Non-owners, busy or
// not, ignore probes — the owner got its own copy.
#include "ivy/svm/manager.h"

#include "ivy/base/check.h"

namespace ivy::svm {

void BroadcastManager::route_initial(PageId page, net::MsgKind kind) {
  IVY_CHECK_GT(svm_.nodes(), 1u);
  svm_.table().at(page).fault_rpc = svm_.rpc().broadcast(
      kind, fault_request(page, true), rpc::BcastReply::kAny,
      [this](net::Message&& reply) { on_grant(std::move(reply)); });
}

void BroadcastManager::route_request(net::Message&&, PageId) {
  // Every request here is a probe: a broadcast copy at a non-owner is
  // dropped on receipt and a held one is passed on by on_fault_request.
  IVY_UNREACHABLE("broadcast manager routes only probes");
}

}  // namespace ivy::svm
