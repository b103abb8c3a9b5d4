// RemoteOp::emit — the single point where rpc transitions reach the
// counters, histograms, tracer and profiler.
#include "ivy/prof/prof.h"
#include "ivy/rpc/remote_op.h"
#include "ivy/trace/trace.h"

namespace ivy::rpc {

void RemoteOp::emit(const Event& e) {
  using TK = trace::EventKind;
  trace::Tracer* const tr = stats_.tracer();
  prof::Profiler* const pf = stats_.prof();
  const Time now = sim_.now();
  const auto msg = static_cast<std::uint64_t>(e.msg);
  // The fan-out sentinels (broadcast, multicast) all render as kMaxNodes.
  const NodeId peer = e.peer >= kMulticast ? kMaxNodes : e.peer;
  switch (e.kind) {
    case EventKind::kRequestSent:
      if (tr) tr->record(self_, TK::kRpcRequest, e.rpc_id, peer);
      break;
    case EventKind::kReplyReceived:
      if (pf) pf->end_wait(self_, prof::Domain::kRpc, e.rpc_id, now);
      stats_.record_latency(self_, Hist::kRemoteOpRoundTrip, now - e.start);
      if (tr) {
        tr->record_span(self_, TK::kRemoteOp, e.start, now - e.start, msg,
                        peer);
      }
      break;
    case EventKind::kRetransmitted:
      stats_.bump(self_, Counter::kRetransmissions);
      if (tr) tr->record(self_, TK::kRetransmit, msg, peer);
      if (e.attempt < 2) break;
      // From the second retransmit on, the doubling wait dominates the
      // request latency; charge it as backoff rather than the fault leg.
      stats_.bump(self_, Counter::kRpcBackoffs);
      if (tr) tr->record(self_, TK::kRpcBackoff, e.rpc_id, e.attempt);
      if (pf) {
        pf->begin_wait(self_, prof::Cat::kBackoff, prof::Domain::kRpc,
                       e.rpc_id, now, msg);
      }
      break;
    case EventKind::kFailed:
      stats_.bump(self_, Counter::kRpcFailures);
      if (pf) pf->end_wait(self_, prof::Domain::kRpc, e.rpc_id, now);
      if (tr) tr->record(self_, TK::kRpcFailed, e.rpc_id, peer);
      break;
    case EventKind::kCancelled:
      if (tr) tr->record(self_, TK::kRpcCancel, e.rpc_id, 0);
      if (pf) pf->end_wait(self_, prof::Domain::kRpc, e.rpc_id, now);
      break;
    case EventKind::kOrphanReply:
      if (tr) tr->record(self_, TK::kRpcOrphan, e.rpc_id, peer);
      break;
    case EventKind::kReplySent:
      if (tr) tr->record(self_, TK::kRpcReplySent, e.rpc_id, peer);
      // The server-side software time is manager-duty work; as the lowest
      // priority wait it only surfaces when the node is otherwise idle (a
      // busy node's own charges already cover the span).
      if (pf) {
        pf->begin_wait(self_, prof::Cat::kManagerService,
                       prof::Domain::kService, e.rpc_id, now, msg);
        pf->end_wait(self_, prof::Domain::kService, e.rpc_id,
                     now + sim_.costs().fault_server);
      }
      break;
    case EventKind::kReplyResent:
      stats_.bump(self_, Counter::kReplyResends);
      if (tr) tr->record(self_, TK::kRpcReplySent, e.rpc_id, peer);
      break;
    case EventKind::kForwarded:
      stats_.bump(self_, Counter::kForwards);
      break;
    case EventKind::kDoneEvicted:
      stats_.bump(self_, Counter::kDoneCacheEvictions);
      break;
    case EventKind::kDupReexecuted:
      stats_.bump(self_, Counter::kDupReexecutions);
      break;
  }
}

}  // namespace ivy::rpc
