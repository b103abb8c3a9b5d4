// ivy::trace — low-overhead structured event tracing.
//
// The paper's whole evaluation is counts and times; aggregate counters
// (base/stats.h) answer "how many", this module answers "when" and
// "which": every protocol-relevant moment (fault resolved, copy
// invalidated, ownership moved, page evicted, process migrated, message
// on the ring) is a fixed-size record in a per-machine ring buffer with
// a virtual timestamp.  Exporters turn the buffer into a Chrome
// trace_event JSON (nodes as processes, categories as threads — loadable
// in Perfetto / chrome://tracing) and into the hot-page report.
//
// Cost discipline: tracing is off by default.  Each plane records through
// its one emit point (Ring::emit, RemoteOp::emit, Svm::emit,
// Scheduler::emit; the fault plane through FaultPlane::account), which
// tests one pointer when disabled (Stats::tracer() is nullptr).  A
// disabled tracer allocates no buffer.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "ivy/base/check.h"
#include "ivy/base/types.h"

namespace ivy::trace {

/// Broad lane an event renders under (one "thread" per category in the
/// Chrome trace), named by to_string(Category).
enum class Category : std::uint8_t {
  kFault = 0,   ///< page-fault resolution spans
  kCoherence,   ///< invalidations, ownership movement, page bodies
  kNet,         ///< ring frames, rpc round trips, retransmissions
  kDisk,        ///< page-in/out, evictions
  kSched,       ///< spawn/finish/migration
  kSync,        ///< lock and eventcount activity
  kCount        // sentinel
};

/// Fixed roster of event kinds.  Extend freely; the kind table in
/// trace.cc (name, category, argument names) must match.
enum class EventKind : std::uint8_t {
  // faults (arg0 = page, arg1 = requester/level detail)
  kReadFault = 0,    ///< span: read-fault start -> resolution
  kWriteFault,       ///< span: write-fault start -> resolution
  kDiskFault,        ///< span: owner's paged-out image restored from disk
  // coherence (arg0 = page)
  kInvalidateSent,   ///< span: invalidation round start -> all acks
  kInvalidateRecv,   ///< instant: local copy dropped (arg1 = new owner)
  kOwnershipGained,  ///< instant: this node became owner (arg1 = from)
  kOwnershipLost,    ///< span: two-phase transfer hold (arg1 = to)
  kPageSent,         ///< instant: page body shipped (arg1 = to)
  kForward,          ///< instant: fault request routed onward (arg1 = origin)
  // net (arg0 = net::MsgKind, arg1 = dst, kBroadcast for broadcast)
  kMsgSend,          ///< span: frame occupies the ring medium
  kRetransmit,       ///< instant: client re-sent an unanswered request
  kRemoteOp,         ///< span: rpc request -> (last) reply at the client
  // fault plane (chaos injection and its receiver-side consequences)
  kFaultInjected,    ///< instant: the fault plane perturbed a delivery
                     ///  (arg0 = net::MsgKind, arg1 = fault::FaultType)
  kMsgCorrupted,     ///< instant: receiver discarded a bad-checksum frame
                     ///  (arg0 = net::MsgKind, arg1 = src)
  kRpcBackoff,       ///< instant: retransmission delayed exponentially
                     ///  (arg0 = rpc id, arg1 = attempt number)
  kRpcFailed,        ///< instant: request failed terminally at the cap
                     ///  (arg0 = rpc id, arg1 = dst)
  // rpc causality (arg0 = rpc id)
  kRpcRequest,       ///< instant: client issued a request (arg1 = dst)
  kRpcReplySent,     ///< instant: server sent a reply (arg1 = requester)
  kRpcOrphan,        ///< instant: reply matched no outstanding request
                     ///  (arg1 = replying server)
  kRpcCancel,        ///< instant: client abandoned an outstanding request
                     ///  (a bounced fault retried another way)
  // disk / frames (arg0 = page)
  kDiskRead,         ///< span: page-in
  kDiskWrite,        ///< span: page-out
  kEviction,         ///< instant: frame reclaimed by replacement
  // scheduling (arg0 = pcb index)
  kProcSpawn,        ///< instant: lightweight process created
  kProcFinish,       ///< instant: process completed
  kMigrateOut,       ///< instant: process handed to arg1
  kMigrateIn,        ///< span: migrate-ask -> process installed (arg1 = donor)
  // sync (arg0 = page of the primitive)
  kLockWait,         ///< span: contended lock() -> acquisition
  kEcWait,           ///< span: blocked Wait() -> wakeup past target
  kEcAdvance,        ///< instant: Advance (arg1 = new value)
  kCount             // sentinel
};

inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::kCount);
inline constexpr std::size_t kCategoryCount =
    static_cast<std::size_t>(Category::kCount);

[[nodiscard]] const char* to_string(EventKind kind);
[[nodiscard]] const char* to_string(Category cat);
[[nodiscard]] Category category_of(EventKind kind);
/// Chrome-trace args key for each argument slot ("" = omit).
[[nodiscard]] const char* arg0_name(EventKind kind);
[[nodiscard]] const char* arg1_name(EventKind kind);

/// One trace record.  `ts` is the *start* of the event in virtual
/// nanoseconds; `dur` is 0 for instants.
struct Event {
  Time ts = 0;
  Time dur = 0;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  NodeId node = kNoNode;
  EventKind kind = EventKind::kCount;
};

/// Per-machine bounded event buffer.  When full, the oldest records are
/// overwritten (`dropped()` counts them): a trace is a window ending at
/// the moment of export, which is what post-mortem debugging wants.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Allocates the buffer and starts recording.  Idempotent-safe: calling
  /// with a new capacity discards previously recorded events.
  void enable(std::size_t capacity) {
    IVY_CHECK_GT(capacity, 0u);
    buf_.assign(capacity, Event{});
    recorded_ = 0;
    enabled_ = true;
  }
  void disable() {
    enabled_ = false;
    buf_.clear();
    buf_.shrink_to_fit();
    recorded_ = 0;
  }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Virtual-clock source (the runtime wires this to Simulator::now) so
  /// modules without a simulator reference can still stamp events.
  void set_clock(std::function<Time()> clock) { clock_ = std::move(clock); }

  /// Instant event stamped at the current virtual time.
  void record(NodeId node, EventKind kind, std::uint64_t arg0 = 0,
              std::uint64_t arg1 = 0) {
    record_span(node, kind, now(), 0, arg0, arg1);
  }

  /// Duration event: `start`..`start + dur` in virtual nanoseconds.
  void record_span(NodeId node, EventKind kind, Time start, Time dur,
                   std::uint64_t arg0 = 0, std::uint64_t arg1 = 0) {
    if (!enabled_) return;
    Event& e = buf_[recorded_ % buf_.size()];
    e.ts = start;
    e.dur = dur;
    e.arg0 = arg0;
    e.arg1 = arg1;
    e.node = node;
    e.kind = kind;
    ++recorded_;
  }

  [[nodiscard]] Time now() const { return clock_ ? clock_() : 0; }

  /// Events currently held (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept {
    return recorded_ < buf_.size() ? static_cast<std::size_t>(recorded_)
                                   : buf_.size();
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return buf_.size(); }
  /// Total records ever written, including overwritten ones.
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return recorded_ < buf_.size() ? 0 : recorded_ - buf_.size();
  }

  /// Visits retained events oldest-first (recording order; ties in
  /// virtual time keep causal order because the buffer is append-only).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (buf_.empty()) return;
    const std::uint64_t first =
        recorded_ < buf_.size() ? 0 : recorded_ - buf_.size();
    for (std::uint64_t i = first; i < recorded_; ++i) {
      fn(buf_[i % buf_.size()]);
    }
  }

 private:
  std::vector<Event> buf_;
  std::uint64_t recorded_ = 0;
  bool enabled_ = false;
  std::function<Time()> clock_;
};

}  // namespace ivy::trace
