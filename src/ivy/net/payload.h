// Payloads of every remote operation: plain structs carried by value (one
// host address space), a page body in a shared_ptr so a resent or
// broadcast message copies the handle, not the kilobyte.  Each struct
// states its modeled wire size here and only here; the rpc layer stamps
// Message::wire_bytes from it.  Depends on base/ alone: net/message.h
// includes it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <variant>
#include <vector>

#include "ivy/base/types.h"

namespace ivy::proc {
struct PcbTransfer;
}

namespace ivy::net {

using PageBody = std::shared_ptr<const std::vector<std::byte>>;

/// kLoadHint (the hint rides in Message::load_hint) and the replies to
/// kRemoteResume and kFreeRequest.
struct EmptyPayload {
  static constexpr std::uint32_t kWireBytes = 8;
};

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
/// faulting processor; also the kGrantPush re-offer of an unacked grant.
struct GrantPayload {
  PageId page = kNoPage;
  /// Page image; null when the requester already holds a valid copy
  /// (write fault by a copyset member — only ownership moves).
  PageBody body{};
  /// Copyset handed to the new owner (write grants only).
  NodeSet copyset{};
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
  /// The copy holders this round addresses (never empty).  A station
  /// outside the set neither applies nor acknowledges the invalidation:
  /// the round completes on acks from actual holders only.
  NodeSet copyset;
  static constexpr std::uint32_t kWireBytes = 32;
};

/// Short acknowledgement: the reply to kInvalidate, kGrantAck and
/// kGrantPush.
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

/// kMigrateAsk request.
struct MigrateAskPayload {
  /// Slot the idle requester reserved for the incoming process.
  ProcId reserved;
  static constexpr std::uint32_t kWireBytes = 16;
};

/// kMigrateAsk reply.
struct MigrateReplyPayload {
  /// The migrating process; null when the request is refused.
  std::shared_ptr<proc::PcbTransfer> transfer;
  /// Modeled size: a refusal's, or PcbTransfer::wire_bytes() filled in
  /// where proc/ builds the transfer (net/ cannot size a PCB).
  std::uint32_t bytes = 16;
  [[nodiscard]] std::uint32_t wire_bytes() const { return bytes; }
};

/// kRemoteResume request; forwarded copies keep its size.
struct ResumePayload {
  ProcId target;
  std::uint32_t epoch = 0;
  static constexpr std::uint32_t kWireBytes = 20;
};

/// kAllocRequest request.
struct AllocRequestPayload {
  std::uint64_t bytes = 0;
  static constexpr std::uint32_t kWireBytes = 16;
};

/// kAllocRequest reply.
struct AllocReplyPayload {
  SvmAddr addr = kNullSvmAddr;  ///< kNullSvmAddr = out of shared memory
  static constexpr std::uint32_t kWireBytes = 16;
};

/// kFreeRequest request.
struct FreeRequestPayload {
  SvmAddr addr = kNullSvmAddr;
  static constexpr std::uint32_t kWireBytes = 16;
};

/// The closed set a Message carries.  A handler takes its alternative
/// with std::get, so a payload of the wrong type fails loudly.
using Payload =
    std::variant<EmptyPayload, FaultPayload, GrantPayload, InvalidatePayload,
                 AckPayload, GrantAckPayload, MigrateAskPayload,
                 MigrateReplyPayload, ResumePayload, AllocRequestPayload,
                 AllocReplyPayload, FreeRequestPayload>;

/// Modeled payload size in bytes, the ring's timing input (the cost
/// model adds framing overhead).
[[nodiscard]] inline std::uint32_t wire_bytes(const Payload& payload) {
  return std::visit([]<typename T>(const T& p) -> std::uint32_t {
    if constexpr (requires { T::kWireBytes; }) return T::kWireBytes;
    else return p.wire_bytes();
  }, payload);
}

}  // namespace ivy::net
