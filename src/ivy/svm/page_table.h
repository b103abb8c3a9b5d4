// Per-node page table of the shared virtual memory.
//
// Every node sees the same paged address space; its table records, per
// page, the local access right (nil / read / write), whether this node is
// the owner, the copyset (meaningful at the owner: every node that may
// hold a read copy), and the probOwner hint used by the dynamic
// distributed manager ("not necessarily correct at all times, but if
// incorrect it will at least provide the beginning of a sequence of
// processors through which the true owner can be found").
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "ivy/base/check.h"
#include "ivy/base/chunked_array.h"
#include "ivy/base/types.h"
#include "ivy/net/message.h"

namespace ivy::svm {

enum class Access : std::uint8_t { kNil = 0, kRead = 1, kWrite = 2 };

[[nodiscard]] constexpr bool satisfies(Access have, Access want) {
  return static_cast<std::uint8_t>(have) >= static_cast<std::uint8_t>(want);
}

[[nodiscard]] constexpr const char* to_string(Access a) {
  switch (a) {
    case Access::kNil: return "nil";
    case Access::kRead: return "read";
    case Access::kWrite: return "write";
  }
  return "?";
}

/// Shape of the shared virtual address space.  The page size is a power
/// of two (Config::validate; checked wherever a Geometry is accepted), so
/// page and offset are a shift and a mask.
struct Geometry {
  std::size_t page_size = 1024;  ///< paper default: 1 KiB
  PageId num_pages = 4096;

  [[nodiscard]] SvmAddr size_bytes() const {
    return static_cast<SvmAddr>(page_size) * num_pages;
  }
  [[nodiscard]] PageId page_of(SvmAddr addr) const {
    IVY_CHECK_LT(addr, size_bytes());
    return static_cast<PageId>(addr >> std::countr_zero(page_size));
  }
  [[nodiscard]] std::size_t offset_of(SvmAddr addr) const {
    return static_cast<std::size_t>(addr & (page_size - 1));
  }
};

/// A local lightweight process waiting for a fault on this page to
/// complete (several processes on one node may fault on the same page).
struct LocalWaiter {
  Access want = Access::kRead;
  std::function<void()> resume;
};

/// A page's state at one node: one cache line, so a process's reference
/// reads one line.  The queues only faults and ownership transfers use
/// live beside the table (PageQueues).
struct alignas(64) PageEntry {
  Access access = Access::kNil;
  bool owned = false;
  /// Owner hint; exact at the owner's last known location.  All managers
  /// maintain it (the centralized/fixed algorithms use it to bounce
  /// stragglers toward the new owner after a transfer).
  NodeId prob_owner = 0;
  /// Nodes that may hold read copies.  Authoritative at the owner.
  NodeSet copyset;
  /// Monotone page version, bumped by the owner at every write grant.
  /// Guards against stale retransmitted invalidations.
  std::uint64_t version = 0;
  /// The owner's image currently lives on its local disk (evicted).
  bool on_disk = false;
  /// The owner's disk still holds an image equal to the resident frame
  /// (the modify bit, inverted): a page-in leaves the image in place, so
  /// evicting the page again writes nothing.  Cleared by any write to the
  /// frame and whenever ownership or contents change.
  bool disk_current = false;

  /// A fault initiated by this node is outstanding for this page.  Also
  /// set during an owner's disk restore, which is a page fault in IVY
  /// terms: remote requests arriving meanwhile are deferred.
  bool fault_in_progress = false;
  /// Level of the outstanding fault (valid while fault_in_progress;
  /// kNil marks a pure disk restore or a pending outbound transfer).
  Access fault_level = Access::kNil;
  /// Owner map of the centralized and fixed managers, read only at the
  /// page's manager: the owner the map names, the owner-to-be at the tail
  /// of the page's writer order.  It and map_prev fill padding, so the
  /// map costs no bytes beyond the chunks a run touches.
  NodeId map_owner = kNoNode;
  /// rpc id of the in-flight fault request, so a bounced request can be
  /// cancelled and re-issued along a fresher hint.
  std::uint64_t fault_rpc = 0;
  /// Virtual time the outstanding fault began, for latency accounting.
  Time fault_start = 0;
  /// Times the in-flight fault bounced back to its originator.  Mutually
  /// stale hints (two concurrent write faulters pointing at each other)
  /// can cycle forever; after a couple of bounces the fault falls back to
  /// locating the owner by broadcast.
  int bounce_count = 0;
  /// Times the in-flight fault's request was given up by the rpc layer
  /// (retransmission cap) and re-driven through a broadcast locate —
  /// recovery from routing state poisoned by a lost grant.  Bounded; see
  /// Manager::relocate_on_failure.
  int lost_retries = 0;
  /// Post-fault grace: number of local waiters that still must perform
  /// their first access before deferred remote requests are replayed.  A
  /// real MMU retries the faulting instruction before any other fault is
  /// serviced; without this hold, a deferred remote write request would
  /// steal the page back before the local process ever ran — a livelock
  /// under write contention.
  int grace = 0;
  /// The owner map_owner replaced, likewise read only at the manager: the
  /// ownership history a re-issued request from map_owner is routed along.
  NodeId map_prev = kNoNode;

  [[nodiscard]] bool busy() const { return fault_in_progress || grace > 0; }
};

/// The queues of a page at one node, which only faults and ownership
/// transfers touch.  They live in a side table of the PageTable, so an
/// entry stays one cache line.
struct PageQueues {
  /// Versions of ownership grants this node accepted whose accept ack the
  /// old owner has not yet confirmed processing (the kGrantAck request's
  /// reply is the confirmation).  A duplicate of such a grant — the old
  /// owner re-sends it under a fresh rpc id while the ack is in flight —
  /// must be re-acked as accepted, never rejected: a reject could
  /// overtake the original accept and abort a confirmed transfer, leaving
  /// two owners.  (page, version) identifies a grant uniquely: owners
  /// bump the version at every serve and never reuse one, even across
  /// aborted transfers.  Once confirmed, the old owner has settled that
  /// transfer and a reject of a late duplicate is harmlessly ignored.
  std::vector<std::uint64_t> unconfirmed_accepts;
  /// Local processes waiting on the outstanding fault.
  std::vector<LocalWaiter> local_waiters;
  /// Remote requests that arrived while this node was mid-fault on the
  /// page; replayed once the fault completes.
  std::vector<net::Message> deferred_requests;

  [[nodiscard]] bool empty() const {
    return unconfirmed_accepts.empty() && local_waiters.empty() &&
           deferred_requests.empty();
  }
};

/// Entries live in lazily allocated chunks (ChunkedArray): most of a large
/// address space is never touched by a given node, so its table costs one
/// null pointer per chunk; reads of an untouched page see the initial
/// entry.  A page's queues exist only while one of them holds something.
class PageTable {
 public:
  explicit PageTable(const Geometry& geo, NodeId initial_owner, NodeId self)
      : num_pages_(geo.num_pages),
        entries_(initial_entry(initial_owner, self), geo.num_pages) {
    IVY_CHECK_MSG(std::has_single_bit(geo.page_size),
                  "page size " << geo.page_size << " is not a power of two");
  }

  [[nodiscard]] PageEntry& at(PageId page) {
    IVY_CHECK_LT(page, num_pages_);
    return entries_.at(page);
  }
  [[nodiscard]] const PageEntry& at(PageId page) const {
    IVY_CHECK_LT(page, num_pages_);
    return entries_.get(page);
  }

  [[nodiscard]] PageId num_pages() const { return num_pages_; }

  /// The queues of `page`, created on first use.
  [[nodiscard]] PageQueues& queues(PageId page) {
    IVY_CHECK_LT(page, num_pages_);
    return queues_[page];
  }
  /// The queues of `page`, or null while every one is empty.
  [[nodiscard]] const PageQueues* find_queues(PageId page) const {
    auto it = queues_.find(page);
    return it != queues_.end() ? &it->second : nullptr;
  }

  /// Moves out one queue of `page`, dropping the page's side-table entry
  /// if that leaves every queue empty.
  template <typename T>
  [[nodiscard]] std::vector<T> take(PageId page,
                                    std::vector<T> PageQueues::*queue) {
    std::vector<T> out;
    auto it = queues_.find(page);
    if (it == queues_.end()) return out;
    out.swap(it->second.*queue);
    if (it->second.empty()) queues_.erase(it);
    return out;
  }

  /// Whether this node accepted the write grant of `page` at `version`
  /// and the old owner has not yet confirmed the ack.
  [[nodiscard]] bool accepted_unconfirmed(PageId page,
                                          std::uint64_t version) const {
    const PageQueues* q = find_queues(page);
    return q != nullptr && std::ranges::find(q->unconfirmed_accepts,
                                             version) !=
                               q->unconfirmed_accepts.end();
  }
  /// Forgets an accepted grant the old owner confirmed.
  void confirm_accept(PageId page, std::uint64_t version) {
    auto it = queues_.find(page);
    if (it == queues_.end()) return;
    std::erase(it->second.unconfirmed_accepts, version);
    if (it->second.empty()) queues_.erase(it);
  }

 private:
  static PageEntry initial_entry(NodeId initial_owner, NodeId self) {
    PageEntry e;
    e.prob_owner = initial_owner;
    e.map_owner = initial_owner;
    if (self == initial_owner) {
      // "the probOwner field of every entry on all processors is set to
      // some default processor that can be considered the initial owner"
      e.owned = true;
      e.access = Access::kWrite;
    }
    return e;
  }

  PageId num_pages_;
  ChunkedArray<PageEntry> entries_;
  std::unordered_map<PageId, PageQueues> queues_;
};

}  // namespace ivy::svm
