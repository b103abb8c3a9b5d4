// Wire messages of the simulated token ring.
//
// The network layer is deliberately ignorant of protocol semantics: a
// Message carries an opaque kind, an opaque correlation id, a typed
// payload (std::any — everything lives in one host address space, so
// "serialization" is a byte count used purely for timing), and the
// one-byte piggybacked load hint the paper describes ("this byte can be
// packed into every message at almost no extra cost").
#pragma once

#include <any>
#include <cstdint>

#include "ivy/base/types.h"

namespace ivy::net {

/// Message kinds.  The roster is centralized so traces are readable, but
/// net/ and rpc/ treat the values as opaque.
enum class MsgKind : std::uint16_t {
  kInvalid = 0,

  // rpc-internal
  kRpcReply = 1,

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
    {MsgKind::kRpcReply, "rpc_reply"},
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

[[nodiscard]] const char* to_string(MsgKind kind);

struct Message {
  NodeId src = kNoNode;
  NodeId dst = kNoNode;  ///< kBroadcast / kMulticast for one-frame fan-out

  /// Stations addressed by a kMulticast frame (ignored otherwise).  Part
  /// of the frame header, so it is checksummed.
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

  std::any payload;

  /// Modeled payload size in bytes (drives ring timing).  Framing
  /// overhead is added by the cost model.
  std::uint32_t wire_bytes = 0;

  /// Piggybacked scheduling hint: sender's current process count, as in
  /// the paper's passive load-balancing scheme.
  std::uint8_t load_hint = 0;

  /// Frame check sequence, sealed by the ring at transmit time and
  /// verified at delivery.  A corrupted frame fails verification and is
  /// dropped (corruption becomes loss), exactly as a real ring discards
  /// frames with a bad FCS.
  std::uint64_t checksum = 0;
};

/// FNV-1a over the frame header.  `dst` is deliberately excluded: the
/// ring rewrites it per recipient when fanning out a broadcast, and a
/// single frame on the wire carries a single checksum.  The payload is a
/// host-side std::any (serialization is modeled, not performed), so the
/// header fields are the checksummed content.
[[nodiscard]] constexpr std::uint64_t message_checksum(const Message& m) {
  constexpr std::uint64_t kOffset = 0xcbf29ce484222325ULL;
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t h = kOffset;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= kPrime;
    }
  };
  mix(m.src);
  mix(m.mcast.raw());
  mix(static_cast<std::uint64_t>(m.kind));
  mix(m.rpc_id);
  mix(m.origin);
  mix(m.is_reply ? 1 : 0);
  mix(m.attempt);
  mix(m.wire_bytes);
  mix(m.load_hint);
  return h;
}

/// Stamps the frame check sequence (sender side).
constexpr void seal_message(Message& m) { m.checksum = message_checksum(m); }

/// Receiver-side verification.
[[nodiscard]] constexpr bool message_intact(const Message& m) {
  return m.checksum == message_checksum(m);
}

}  // namespace ivy::net
