// Wire messages of the simulated token ring.
//
// The network layer is deliberately ignorant of protocol semantics: a
// Message carries an opaque kind, an opaque correlation id, one
// alternative of the closed net::Payload variant (payload.h; one host
// address space, so "serialization" is a byte count for timing), and the
// one-byte piggybacked load hint the paper describes ("this byte can be
// packed into every message at almost no extra cost").
#pragma once

#include <cstdint>

#include "ivy/base/types.h"
#include "ivy/net/payload.h"

namespace ivy::net {

/// Message kinds.  The roster is centralized so traces are readable, but
/// net/ and rpc/ treat the values as opaque.
enum class MsgKind : std::uint16_t {
  kInvalid = 0,

  // svm coherence protocol
  kReadFault = 0x100,       ///< requester → manager/probOwner: want read copy
  kWriteFault = 0x101,      ///< requester → manager/probOwner: want ownership
  kInvalidate = 0x102,      ///< new owner → copyset member
  kInvalidateBcast = 0x103, ///< broadcast invalidation variant
  kGrantAck = 0x104,        ///< new owner → old owner: transfer landed
  kGrantPush = 0x105,       ///< old owner re-offers an unacked grant

  // process management
  kMigrateAsk = 0x200,      ///< idle node → loaded node: give me work
  kRemoteResume = 0x202,    ///< wake a process on another node
  kLoadHint = 0x204,        ///< broadcast of scheduling hints (no reply)

  // memory allocation
  kAllocRequest = 0x300,
  kFreeRequest = 0x301,
};

/// The roster of kinds with their names: to_string() and the fault
/// spec's /kind= parser both read it, so a kind listed here is nameable
/// everywhere.
struct MsgKindName {
  MsgKind kind;
  const char* name;
};
inline constexpr MsgKindName kMsgKindNames[] = {
    {MsgKind::kInvalid, "invalid"},
    {MsgKind::kReadFault, "read_fault"},
    {MsgKind::kWriteFault, "write_fault"},
    {MsgKind::kInvalidate, "invalidate"},
    {MsgKind::kInvalidateBcast, "invalidate_bcast"},
    {MsgKind::kGrantAck, "grant_ack"},
    {MsgKind::kGrantPush, "grant_push"},
    {MsgKind::kMigrateAsk, "migrate_ask"},
    {MsgKind::kRemoteResume, "remote_resume"},
    {MsgKind::kLoadHint, "load_hint"},
    {MsgKind::kAllocRequest, "alloc_request"},
    {MsgKind::kFreeRequest, "free_request"},
};
inline constexpr std::size_t kMsgKinds = std::size(kMsgKindNames);

/// Position of `kind` in kMsgKindNames (kMsgKinds if unlisted): per-kind
/// tables index by it, so MsgKind values (traced) are never renumbered.
[[nodiscard]] constexpr std::size_t kind_index(MsgKind kind) {
  std::size_t i = 0;
  while (i < kMsgKinds && kMsgKindNames[i].kind != kind) ++i;
  return i;
}

[[nodiscard]] const char* to_string(MsgKind kind);

struct Message {
  NodeId src = kNoNode;
  NodeId dst = kNoNode;  ///< kBroadcast / kMulticast for one-frame fan-out

  /// Stations addressed by a kMulticast frame (ignored otherwise).
  NodeSet mcast{};
  MsgKind kind = MsgKind::kInvalid;

  /// Correlation id assigned by the rpc layer.  Replies and duplicate
  /// retransmissions carry the id of the original request.
  std::uint64_t rpc_id = 0;
  /// Originator of a (possibly forwarded) request — replies go here.
  NodeId origin = kNoNode;
  /// True when this message answers a request.
  bool is_reply = false;
  /// Send attempt of the request: 0 for the first send, k for the k-th
  /// retransmission.  Forwarded and held copies keep it.  The server's
  /// done-cache resends a reply only to a higher attempt than the one it
  /// answered, so a trailing copy of an answered send costs nothing.
  std::uint32_t attempt = 0;

  Payload payload;

  /// Modeled payload size, net::wire_bytes(payload) as the rpc layer
  /// stamps it (drives ring timing; the cost model adds framing).
  std::uint32_t wire_bytes = 0;

  /// Piggybacked scheduling hint: sender's current process count, as in
  /// the paper's passive load-balancing scheme.
  std::uint8_t load_hint = 0;
};

}  // namespace ivy::net
