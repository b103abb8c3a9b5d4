// svm::Event — one record per coherence-protocol transition.
//
// Every svm transition (fault life cycle, routing, grants, the two-phase
// ownership transfer, migration handoff, invalidation, paging) is
// reported once, by one Svm::emit() at the site that performs it, after
// the page-table mutation it describes.  emit() (event.cc) is the only
// svm code that feeds the consumers — Stats counters and histograms,
// tracer, profiler, and the event sink (the coherence oracle) — each
// behind its own pointer test.  DESIGN.md §2 maps kinds to consumers.
#pragma once

#include <cstdint>
#include <span>

#include "ivy/svm/page_table.h"

namespace ivy::svm {

enum class EventKind : std::uint8_t {
  // fault life cycle, at the faulting node (level = wanted access)
  kFaultStart,        ///< the fault goes to the manager strategy
  kDiskFault,         ///< the owner's own image is on disk: no protocol
  kLocalUpgrade,      ///< the owner upgrades to write in place
  kFaultComplete,     ///< fault ends (level kNil: a protocol hold); start
  kDiskRestore,       ///< an owned paged-out image starts coming back
  kDiskRestored,      ///< ...and is back; start = IO start
  kPagedOut,          ///< replacement evicted an owned page; body kShipped:
                      ///  its image was written, kElided: the disk holds it
  kCopyEvicted,       ///< replacement dropped a read copy
  // routing and serving, at the forwarder / owner / copy holder
  kForward,           ///< peer's request routed onward (level = read/write)
  kReadServed,        ///< read copy sent to peer
  kWriteServed,       ///< write grant sent to peer: transfer opens at version
  kGrantResent,       ///< pending write grant re-sent to peer's retransmission
  kGrantReoffered,    ///< pending write grant pushed to its target again
  // receiving, and the old owner's side of the transfer
  kCopyReceived,      ///< read grant from peer installed
  kOwnershipGained,   ///< peer's grant taken; peer kNoNode: migration adopt
  kOwnershipReleased, ///< accept ack: let go to peer; start = grant sent
  kTransferAborted,   ///< reject ack: the old owner keeps the page
  kPageDetached,      ///< migration handoff to peer leaves this node
  // invalidation
  kInvalidateStart,   ///< round over `copies` holders opens at version
  kInvalidateDone,    ///< its last ack arrived; start = round start
  kCopyDropped,       ///< this copy invalidated; peer = new owner
  kCount              // sentinel
};

[[nodiscard]] const char* to_string(EventKind kind);

/// How the page image travels: not at all, in the message (or to disk),
/// or elided because the receiver (or the disk) holds this version.  Any
/// value but kNone puts the image at stake (the sink checksums it).
enum class Body : std::uint8_t { kNone, kShipped, kElided };

struct Event {
  EventKind kind = EventKind::kCount;
  NodeId node = kNoNode;  ///< filled by emit(): the reporting node
  PageId page = kNoPage;
  NodeId peer = kNoNode;  ///< the other party (see EventKind)
  std::uint64_t version = 0;
  Time start = 0;         ///< where a span closes: when it opened
  Access level = Access::kNil;
  Body body = Body::kNone;
  int copies = 0;         ///< invalidation round size
  /// The node's frame image, filled by emit() for the sink only when the
  /// body is at stake and the frame is resident.
  std::span<const std::byte> image{};
};

/// The one seam to the global consumer above svm (the oracle), outside
/// the simulated machines: calls cost no virtual time.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(const Event& event) = 0;
};

}  // namespace ivy::svm
