// Payloads of the coherence protocol messages.
//
// All nodes live in one host address space, so payloads are plain structs
// carried by value; the page body travels in a shared_ptr (a retransmitted
// or broadcast message copies the handle, not the kilobyte).  Wire sizes
// used for ring timing are declared next to each payload.
#pragma once

#include <memory>
#include <vector>

#include "ivy/base/types.h"
#include "ivy/svm/page_table.h"

namespace ivy::svm {

using PageBody = std::shared_ptr<const std::vector<std::byte>>;

/// kReadFault / kWriteFault request.
struct FaultPayload {
  PageId page = kNoPage;
  /// The requester still holds a valid read copy (write fault by a
  /// copyset member): the grant then moves ownership without the body.
  bool has_copy = false;
  /// The requester's probOwner hint.  Lets a centralized/fixed manager
  /// recover when its owner map went stale through a direct ownership
  /// handoff (process migration bypasses the managers).
  NodeId hint = kNoNode;
  /// This copy was broadcast to locate the owner ("a reply from any
  /// receiving processor ... useful for broadcasting page fault requests
  /// to locate page owners"): only the owner reacts, nobody forwards.
  bool broadcast = false;
  /// A busy owner held this broadcast copy and replays it as the
  /// request's only live copy: it waits only at an owner and is passed
  /// along probOwner everywhere else.
  bool held = false;
  /// Version of the read copy advertised by has_copy.  The owner elides
  /// the page body only when this matches its current version — a copy
  /// granted under an older ownership era must be re-shipped in full.
  std::uint64_t copy_version = 0;

  static constexpr std::uint32_t kWireBytes = 24;
};

/// Reply to a fault request, sent by the (old) owner directly to the
/// faulting processor.
struct GrantPayload {
  PageId page = kNoPage;
  /// Page image; null when the requester already holds a valid copy
  /// (write fault by a copyset member — only ownership moves).
  PageBody body;
  /// Copyset handed to the new owner (write grants only).
  NodeSet copyset;
  /// Page version after the grant (owner bumps it on write grants).
  std::uint64_t version = 0;
  /// True for ownership transfers, false for read copies.
  bool write_grant = false;

  [[nodiscard]] std::uint32_t wire_bytes() const {
    return 32 + static_cast<std::uint32_t>(body ? body->size() : 0);
  }
};

/// kInvalidate request (new owner -> copyset member) and the broadcast
/// variant.
struct InvalidatePayload {
  PageId page = kNoPage;
  NodeId new_owner = kNoNode;
  /// Version at which the invalidation was issued; receivers ignore
  /// stale (retransmitted) invalidations for newer copies.
  std::uint64_t version = 0;
  /// The copy holders this round addresses.  A station outside the set
  /// neither applies nor acknowledges the invalidation (the round
  /// completes on acks from actual holders only); empty = unaddressed
  /// (legacy unicast), every receiver reacts.
  NodeSet copyset;

  static constexpr std::uint32_t kWireBytes = 32;
};

/// Generic short acknowledgement.
struct AckPayload {
  PageId page = kNoPage;

  static constexpr std::uint32_t kWireBytes = 8;
};

/// kGrantAck: closes a two-phase ownership transfer.  Ownership is a
/// conserved token; the old owner keeps the page (and defers all
/// requests for it) until the new owner confirms, so a duplicate-served
/// or dropped grant can never orphan the page.  `accept == false` aborts
/// the transfer (the receiver found the grant stale) and the old owner
/// resumes ownership with its data intact.
struct GrantAckPayload {
  PageId page = kNoPage;
  std::uint64_t version = 0;
  bool accept = true;

  static constexpr std::uint32_t kWireBytes = 24;
};

}  // namespace ivy::svm
