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

#include <array>
#include <functional>
#include <memory>
#include <span>

#include "ivy/base/stats.h"
#include "ivy/mem/disk.h"
#include "ivy/mem/frame_pool.h"
#include "ivy/rpc/remote_op.h"
#include "ivy/sim/simulator.h"
#include "ivy/svm/event.h"
#include "ivy/svm/page_table.h"

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
  net::PageBody body;  ///< null when only ownership (not contents) moves
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

  /// One shared reference by a local process to `page` under `want`:
  /// checks the right, consumes a pending post-fault grace, clears the
  /// modify bit (`disk_current`) on a write and touches the frame for
  /// recency once.  Returns the frame, or null when the right is missing
  /// (the caller faults and retries).  Inline: a hit is the MMU's work.
  /// A hit in the translation cache (a TLB) only touches the frame; any
  /// other reference makes one page-entry lookup.  Only a reference with
  /// no side effect left to repeat (right held, no grace pending, frame
  /// already resident) may fill the cache: the page's first such miss
  /// since the last flush marks its slot, the second caches `want` there,
  /// so one pass over scattered pages pays no fill.  Callers run inside a
  /// process of this node, whose dispatcher flushes the cache.
  [[nodiscard]] std::byte* reference(PageId page, Access want) {
    Translation& t = tlb_[page % kTranslations];
    const bool seen = t.page == page && t.generation == generation_;
    if (seen && satisfies(t.right, want)) [[likely]] {
      return pool_.touch(t.frame);
    }
    PageEntry& entry = table_.at(page);
    if (!satisfies(entry.access, want)) return nullptr;
    if (entry.grace > 0) [[unlikely]] consume_grace(page, entry);
    if (want == Access::kWrite) entry.disk_current = false;
    const mem::FramePool::FrameRef frame = pool_.lookup_ref(page);
    if (frame.bytes == nullptr) [[unlikely]] return zero_frame(page);
    if (entry.grace == 0) {
      t = {page, generation_, seen ? want : Access::kNil, frame};
    }
    return frame.bytes;
  }
  /// Drops every cached translation in O(1).  The dispatcher calls it
  /// before it resumes a process: everything else that changes this
  /// node's rights, frames or grace runs between two slices of a process.
  void flush_translations() {
    if (++generation_ == 0) [[unlikely]] reset_translations();
  }
  /// A reference that moves no data (a process's first touch of its stack
  /// page): checks the right and consumes a pending grace, but takes no
  /// frame, touches no recency and leaves the modify bit alone.  False
  /// when the right is missing.
  [[nodiscard]] bool claim(PageId page, Access want);

  /// Data plane for host and harness callers (processes go through
  /// reference).  Requires the right already held (checked); may span
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

  /// Disk time book_disk left to the next dispatch since the last drain;
  /// the dispatch commit adds it to the fiber's busy span.
  [[nodiscard]] Time take_pending_charge() {
    Time t = pending_charge_;
    pending_charge_ = 0;
    return t;
  }

  /// Hook stalling this node's CPU for `t` (wired to the scheduler by the
  /// runtime): book_disk's event-context half.
  void set_stall_hook(std::function<void(Time)> hook) {
    stall_hook_ = std::move(hook);
  }

  // --- helpers shared by the manager strategies --------------------------

  /// Starts a disk restore of this node's evicted owned page.  Marks the
  /// page fault-in-progress (deferring remote requests) and completes
  /// after the disk latency.  Requires owned && on_disk && no fault in
  /// progress.
  void begin_disk_restore(PageId page);

  /// Snapshot of the current frame contents as a message body.
  [[nodiscard]] net::PageBody snapshot(PageId page);

  /// Copies a granted body into the local frame.
  void install_body(PageId page, const net::PageBody& body);

  /// Finishes an outstanding local fault: clears the flag, resumes local
  /// waiters, replays deferred remote requests.
  void complete_fault(PageId page);

  /// Queues a remote request that cannot be served while this node is
  /// mid-fault (or in post-fault grace) on the page.
  void defer_request(PageId page, net::Message&& msg);

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

  /// The one rule for every write grant this node receives: the reply to
  /// its own write fault (`answers_fault`), an orphan reply that outlived
  /// its request, or a kGrantPush re-offer.  Ownership is a conserved
  /// token: a duplicate of an accepted grant is re-acked, a stale,
  /// colliding or bodyless-without-copy grant is rejected, and any other
  /// is adopted and acked.  The answer to a fault then takes write access
  /// through invalidate_for_write.  Returns true only on adoption.
  bool absorb_grant(const net::GrantPayload& grant, NodeId from,
                    bool answers_fault = false);

  // --- two-phase ownership transfer ---------------------------------------

  /// Old-owner side: marks `page` as granted-to-`to` at `version`, holds
  /// all requests until the grant is on the ring (note_grant_sent) and
  /// returns the grant for Manager::serve_write to send.  `bodyless`
  /// records that the requester holds a valid copy, so this grant and
  /// every resend and re-offer of it elide the page body.
  [[nodiscard]] net::GrantPayload begin_pending_transfer(
      PageId page, NodeId to, std::uint64_t version, bool bodyless);

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
  /// Frame bytes for `page`, materializing a zero page lazily for owned
  /// never-touched pages.  Requires the page be usable (owner, not on
  /// disk, or holding a copy).
  [[nodiscard]] std::byte* usable_frame(PageId page) {
    std::byte* bytes = pool_.lookup(page);
    return bytes != nullptr ? bytes : zero_frame(page);
  }
  /// usable_frame's miss: the zero page of an owned never-touched page.
  /// Its frame may evict another page and moves the pool's frames, so it
  /// flushes the translation cache.
  [[nodiscard]] std::byte* zero_frame(PageId page);

  /// One translation cache entry: `page` may be referenced under `right`
  /// through `frame` (its bytes and recency stamp) while `generation` is
  /// current.  `right` is kNil while the entry only marks the page's
  /// first miss.
  struct Translation {
    PageId page = kNoPage;
    std::uint16_t generation = 0;
    Access right = Access::kNil;
    mem::FramePool::FrameRef frame;
  };
  static constexpr PageId kTranslations = 16;

  /// flush_translations when the generation wraps: clears every entry.
  void reset_translations();

  /// A local process performed an access on `page` while it was in
  /// post-fault grace; when all granted waiters have touched it, deferred
  /// remote requests replay.
  void consume_grace(PageId page, PageEntry& entry);

  mem::FramePool::EvictAction on_evict(PageId page,
                                       std::span<const std::byte> bytes);

  /// Books one disk transfer of `t` on this node's CPU, once.  In event
  /// context under IVY's missing I/O overlap (disk_io_stalls_node) it
  /// stalls the node.  Otherwise it joins the pending charge: inside a
  /// fiber because the dispatch commit sets the node's busy time from the
  /// charge and would overwrite a stall; under the integrated scheduler
  /// because the next dispatch pays for it.
  void book_disk(Time t);

  /// Drops this node's disk image of `page`: its ownership or contents
  /// change, so the image no longer stands for the page.
  void drop_disk_image(PageId page);

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
    /// The pending re-offer timer (see arm_reoffer), cancelled when the
    /// transfer settles.
    sim::Timer reoffer{};
  };

  /// The write grant of a pending transfer of `page`: its version, the
  /// copyset minus the target, and the body unless bodyless.  Every send
  /// of the grant (serve, resend, re-offer) is built here.
  [[nodiscard]] net::GrantPayload write_grant(
      PageId page, const PendingTransfer& pending);

  /// Old-owner liveness for the two-phase transfer: the grant travels as
  /// an rpc *reply*, which is only re-driven by the requester's
  /// retransmissions.  If the requester's rpc no longer exists (it was a
  /// double-served duplicate of an already-satisfied fault) and the grant
  /// frame is lost, nothing re-asks — the transfer would pend forever and
  /// the old owner would defer every request for the page.  The re-offer
  /// timer pushes the held grant to the target as a reliable *request*
  /// (kGrantPush) until the transfer settles either way.
  void arm_reoffer(PageId page, PendingTransfer& pending);

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
  /// The translation cache, direct-mapped by page.  An entry is live only
  /// at the current generation, so a flush bumps the generation.
  std::array<Translation, kTranslations> tlb_{};
  std::uint16_t generation_ = 1;
};

}  // namespace ivy::svm
