// Ring::emit — the single point where net transitions reach the counters
// and tracer.
#include "ivy/net/ring.h"
#include "ivy/trace/trace.h"

namespace ivy::net {

void Ring::emit(const Event& e) {
  trace::Tracer* const tr = stats_.tracer();
  const auto msg = static_cast<std::uint64_t>(e.msg);
  switch (e.kind) {
    case EventKind::kFrameSent:
      stats_.bump(e.node, Counter::kBytesOnRing,
                  e.wire_bytes + sim_.costs().msg_overhead_bytes);
      stats_.bump(e.node, e.peer == kBroadcast   ? Counter::kBroadcasts
                          : e.peer == kMulticast ? Counter::kMulticasts
                                                 : Counter::kMessages);
      if (tr) {
        tr->record_span(e.node, trace::EventKind::kMsgSend, e.start, e.span,
                        msg, e.peer >= kMulticast ? kMaxNodes : e.peer);
      }
      break;
    case EventKind::kChecksumDrop:
      stats_.bump(e.node, Counter::kChecksumDrops);
      if (tr) tr->record(e.node, trace::EventKind::kMsgCorrupted, msg, e.peer);
      break;
  }
}

}  // namespace ivy::net
