// The memory mapping manager — one per node.
//
// "Memory mapping managers implement the mapping between local memories
// and the shared virtual memory address space.  Other than mapping, their
// chief responsibility is to keep the address space coherent at all
// times."
//
// Svm owns this node's page table, physical frame pool and paging disk,
// and delegates the coherence strategy to a Manager (one of the paper's
// three algorithms, plus a broadcast baseline).  Its client-facing API is
// asynchronous: request_access() invokes a completion callback once the
// right is granted; the process layer turns that into fiber blocking.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "ivy/base/stats.h"
#include "ivy/mem/disk.h"
#include "ivy/mem/frame_pool.h"
#include "ivy/rpc/remote_op.h"
#include "ivy/svm/event.h"
#include "ivy/svm/page_table.h"
#include "ivy/svm/protocol.h"

namespace ivy::svm {

class Manager;

enum class ManagerKind : std::uint8_t {
  kCentralized,        ///< improved centralized manager (owner map on one node)
  kFixedDistributed,   ///< manager of page p is H(p) = p mod N
  kDynamicDistributed, ///< probOwner hints, no managers
  kBroadcast,          ///< faults broadcast, owner answers (baseline)
};

[[nodiscard]] const char* to_string(ManagerKind kind);

struct SvmOptions {
  Geometry geo;
  ManagerKind manager = ManagerKind::kDynamicDistributed;
  NodeId manager_node = 0;   ///< centralized manager's host
  NodeId initial_owner = 0;  ///< default owner of all pages at start
  std::size_t frames_per_node = 8192;
  /// Page replacement (Aegis did approximate LRU; see FramePool).
  mem::ReplacementPolicy replacement = mem::ReplacementPolicy::kSampledLru;
  std::uint64_t seed = 0x1988;
  /// Invalidate via one ring broadcast instead of per-member messages.
  bool broadcast_invalidation = false;
  /// Li & Hudak's "distribution of copy sets" refinement: any node
  /// holding a valid copy may serve a read fault (adding the reader to
  /// its *own* copyset), so copies form a tree rooted at the owner and
  /// invalidation propagates recursively.  Off: only the owner serves
  /// reads (the base algorithms of the ICPP paper).
  bool distributed_copysets = false;
  /// IVY had no disk/compute overlap ("I/O overlaps among the
  /// lightweight processes do not exist in IVY"): a page-in/out stalls
  /// the whole node, not just the faulting process.  Disable to model
  /// the integrated scheduler the conclusion asks for.
  bool disk_io_stalls_node = true;
  /// Global event sink (the oracle); null = no observation.  Outside the
  /// simulated machine: events cost no virtual time.
  EventSink* sink = nullptr;
};

/// Record used by process migration's direct stack-page handoff
/// ("ownership transfer is inexpensive because it only requires setting
/// the protection bits of the page frames").
struct PageTransfer {
  PageId page = kNoPage;
  std::uint64_t version = 0;
  NodeSet copyset;
  PageBody body;  ///< null when only ownership (not contents) moves
  /// True when the body was requested but elided because the receiver
  /// already holds a valid read copy at the current version (adopt_page
  /// then requires a resident local frame).  False for body == nullptr
  /// transfers whose contents are genuinely meaningless.
  bool body_elided = false;
};

class Svm {
 public:
  Svm(sim::Simulator& sim, rpc::RemoteOp& rpc, Stats& stats, NodeId self,
      NodeId num_nodes, const SvmOptions& options);
  ~Svm();
  Svm(const Svm&) = delete;
  Svm& operator=(const Svm&) = delete;

  // --- client interface -------------------------------------------------

  [[nodiscard]] bool has_access(PageId page, Access want) const {
    return satisfies(table_.at(page).access, want);
  }

  /// Ensures `want` access to `page`; `done` runs when granted (possibly
  /// synchronously).  Access may be revoked again before the caller acts:
  /// callers must re-check and loop.
  void request_access(PageId page, Access want, std::function<void()> done);

  /// Data plane.  Requires the right already held (checked); may span
  /// pages.
  void read_bytes(SvmAddr addr, std::span<std::byte> out);
  void write_bytes(SvmAddr addr, std::span<const std::byte> in);

  // --- migration support --------------------------------------------------

  /// Detaches an owned page for direct transfer to `new_owner`
  /// (migration).  `with_body` ships the current contents (the migrated
  /// process's *current* stack page); otherwise only ownership moves
  /// (upper stack pages, whose content "is meaningless").
  [[nodiscard]] PageTransfer detach_page(PageId page, NodeId new_owner,
                                         bool with_body);
  /// Installs a detached page as owned with write access.
  void adopt_page(const PageTransfer& transfer);
  [[nodiscard]] bool owns(PageId page) const { return table_.at(page).owned; }

  // --- plumbing ---------------------------------------------------------

  [[nodiscard]] const Geometry& geometry() const { return options_.geo; }
  [[nodiscard]] const SvmOptions& options() const { return options_; }
  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] NodeId nodes() const { return nodes_; }
  [[nodiscard]] PageTable& table() { return table_; }
  [[nodiscard]] const PageTable& table() const { return table_; }
  [[nodiscard]] mem::FramePool& frames() { return pool_; }
  [[nodiscard]] mem::Disk& paging_disk() { return disk_; }
  [[nodiscard]] rpc::RemoteOp& rpc() { return rpc_; }
  /// Reports one transition, stamped with this node, to every consumer
  /// (event.cc); call it after the page-table mutation it describes.
  void emit(Event e);

  /// Virtual time cost accrued by protocol activity on behalf of the
  /// local client (evictions, disk restores) since the last drain; the
  /// process layer charges it to the resuming fiber.
  [[nodiscard]] Time take_pending_charge() {
    Time t = pending_charge_;
    pending_charge_ = 0;
    return t;
  }
  void add_pending_charge(Time t) { pending_charge_ += t; }

  /// Hook stalling this node's CPU for `t` (wired to the scheduler by the
  /// runtime); used when disk_io_stalls_node models IVY's missing
  /// I/O overlap.
  void set_stall_hook(std::function<void(Time)> hook) {
    stall_hook_ = std::move(hook);
  }
  void stall_node(Time t) {
    if (options_.disk_io_stalls_node && stall_hook_) stall_hook_(t);
  }

  // --- helpers shared by the manager strategies --------------------------

  /// Frame bytes for `page`, materializing a zero page lazily for owned
  /// never-touched pages.  Requires the page be usable (owner, not on
  /// disk, or holding a copy).
  [[nodiscard]] std::byte* usable_frame(PageId page);

  /// Starts a disk restore of this node's evicted owned page.  Marks the
  /// page fault-in-progress (deferring remote requests) and completes
  /// after the disk latency.  Requires owned && on_disk && no fault in
  /// progress.
  void begin_disk_restore(PageId page);

  /// Snapshot of the current frame contents as a message body.
  [[nodiscard]] PageBody snapshot(PageId page);

  /// Copies a granted body into the local frame.
  void install_body(PageId page, const PageBody& body);

  /// Finishes an outstanding local fault: clears the flag, resumes local
  /// waiters, replays deferred remote requests.
  void complete_fault(PageId page);

  /// Queues a remote request that cannot be served while this node is
  /// mid-fault (or in post-fault grace) on the page.
  void defer_request(PageId page, net::Message&& msg);

  /// A local process performed an access on a page in post-fault grace;
  /// when all granted waiters have touched it, deferred remote requests
  /// replay.  Called by the ensure_access fast path.
  void consume_grace(PageId page);

  /// Replays all deferred remote requests of `page` through the manager.
  void replay_deferred(PageId page);

  /// Sends invalidations to the owner-held copyset of `page` (version
  /// must already be bumped); `done` runs after all acknowledgements.
  /// Completes synchronously for an empty copyset.
  void invalidate_copies(PageId page, std::function<void()> done);

  /// Owner-side write upgrade: invalidates the copyset, then takes write
  /// access and completes the fault unless the round was superseded.
  void invalidate_for_write(PageId page);

  /// Invalidation server (wired to kInvalidate / kInvalidateBcast).
  void on_invalidate(net::Message&& msg);

  /// Absorbs a write grant that no longer matches an outstanding fault (a
  /// duplicate request double-served after a retransmission).  Ownership
  /// is a conserved token: the addressee adopts the grant when it is
  /// newer than local knowledge, and acknowledges (or aborts) the
  /// two-phase transfer either way.  Returns true if absorbed.
  bool absorb_grant(const GrantPayload& grant, NodeId from);

  // --- two-phase ownership transfer ---------------------------------------

  /// Old-owner side: marks `page` as granted-to-`to` at `version` and
  /// holds all requests until the grant is on the ring
  /// (note_grant_sent).  Called by Manager::serve_write after the grant
  /// reply is sent.  `bodyless` records that the grant elided the page
  /// body (the requester holds a valid copy), so re-offers and resends
  /// elide it too.
  void begin_pending_transfer(PageId page, NodeId to, std::uint64_t version,
                              bool bodyless = false);

  /// Old-owner side: the grant of the pending transfer of `page` at
  /// `version` went on the ring (wired to the grant reply's on-sent
  /// continuation).  The requests held so far are replayed, so they pass
  /// to the new owner behind the grant; a copy that came back from the
  /// new owner is held again until the kGrantAck.  No-op if that
  /// transfer already settled.
  void note_grant_sent(PageId page, std::uint64_t version);

  /// The node a pending transfer of `page` grants it to, once the grant
  /// is on the ring; kNoNode otherwise.  A frame sent to it from now on
  /// arrives behind the grant (ring FIFO).
  [[nodiscard]] NodeId granted_to(PageId page) const;

  /// New-owner side: confirms (or aborts) a received write grant.
  void send_grant_ack(NodeId to, PageId page, std::uint64_t version,
                      bool accept);

  /// Old-owner side kGrantAck server.
  void on_grant_ack(net::Message&& msg);

  /// If `msg` is a (retransmitted) write fault from the very node this
  /// page is pending-transfer to, answer it with a fresh grant instead of
  /// deferring it — deferring would deadlock: the transfer waits for the
  /// requester's ack, and the requester waits for this reply.  Returns
  /// true when handled.
  bool resend_pending_grant(const net::Message& msg);

  /// kGrantPush server: a re-offered grant arrives as a reliable request
  /// (not a reply), absorbed or rejected like an orphan grant.
  void on_grant_push(net::Message&& msg);

 private:
  mem::FramePool::EvictAction on_evict(PageId page,
                                       std::span<const std::byte> bytes);

  struct PendingTransfer {
    NodeId to = kNoNode;
    std::uint64_t version = 0;
    /// A kGrantPush re-offer for this transfer is in flight.
    bool push_in_flight = false;
    /// The grant elided the page body (requester holds a valid copy at
    /// this version); re-offers and resends stay bodyless.
    bool bodyless = false;
    /// The grant frame is on the ring (see granted_to).
    bool grant_sent = false;
  };

  /// Old-owner liveness for the two-phase transfer: the grant travels as
  /// an rpc *reply*, which is only re-driven by the requester's
  /// retransmissions.  If the requester's rpc no longer exists (it was a
  /// double-served duplicate of an already-satisfied fault) and the grant
  /// frame is lost, nothing re-asks — the transfer would pend forever and
  /// the old owner would defer every request for the page.  The re-offer
  /// timer pushes the held grant to the target as a reliable *request*
  /// (kGrantPush) until the transfer settles either way.
  void arm_reoffer(PageId page, std::uint64_t version);

  /// Whether a round over `copies` holders goes out as one multicast.
  [[nodiscard]] bool multicast_round(int copies) const {
    return copies > 1 || options_.broadcast_invalidation;
  }
  void push_pending_grant(PageId page);

  sim::Simulator& sim_;
  rpc::RemoteOp& rpc_;
  Stats& stats_;
  NodeId self_;
  NodeId nodes_;
  SvmOptions options_;
  EventSink* sink_;
  PageTable table_;
  mem::FramePool pool_;
  mem::Disk disk_;
  std::unique_ptr<Manager> manager_;
  std::unordered_map<PageId, PendingTransfer> pending_transfers_;
  std::function<void(Time)> stall_hook_;
  Time pending_charge_ = 0;
};

}  // namespace ivy::svm
