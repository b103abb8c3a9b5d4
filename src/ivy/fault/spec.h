// ivy::fault — declarative fault-injection specifications.
//
// A FaultSpec is an ordered list of rules, each perturbing matching
// deliveries with some probability: drop, duplicate, delay (bounded
// reordering), bit-corrupt, or partition.  Rules can be scoped to a
// message kind, a node pair, and a virtual-time window, so a spec can
// express anything from "lose 1% of everything" to "cut nodes 0 and 3
// apart for 100 ms starting at t=50 ms, write faults only".
//
// The textual grammar (parsed from --fault) is comma-separated items:
//
//   drop=P          lose a matching delivery with probability P
//   dup=P           deliver a matching frame twice
//   corrupt=P       damage the frame (its receiver discards it)
//   delay=DUR@P     add DUR of extra delivery latency with probability P
//   partition=A-B:DUR@t=START
//                   nodes A and B cannot exchange frames during
//                   [START, START+DUR)
//
// Every item except partition accepts optional '/'-separated qualifiers:
//
//   /kind=NAME      only frames of this net::MsgKind (e.g. write_fault)
//   /pair=A-B       only frames between nodes A and B (either direction)
//   /t=START+DUR    only inside the virtual-time window
//
// Durations take ns/us/ms/s suffixes (bare numbers are nanoseconds).
// Example: drop=0.01,dup=0.005,delay=2ms@0.02,partition=0-3:100ms@t=50ms
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ivy/base/types.h"
#include "ivy/net/message.h"

namespace ivy::fault {

/// What a rule injects.  Values appear as arg1 of kFaultInjected trace
/// events, so keep them stable.
enum class FaultType : std::uint8_t {
  kDrop = 0,
  kDuplicate = 1,
  kDelay = 2,
  kCorrupt = 3,
  kPartition = 4,
};

inline constexpr std::size_t kFaultTypeCount = 5;

[[nodiscard]] const char* to_string(FaultType type);

struct FaultRule {
  FaultType type = FaultType::kDrop;
  /// Injection probability per matching delivery (partition rules use 1).
  double prob = 0.0;
  /// kDelay: extra delivery latency; kDuplicate: spacing of the second
  /// copy (0 = a small default jitter chosen by the plane).
  Time delay = 0;
  /// Node-pair scope; kNoNode = any.  Matches either direction.
  NodeId pair_a = kNoNode;
  NodeId pair_b = kNoNode;
  /// Message-kind scope; empty = any.
  std::optional<net::MsgKind> kind;
  /// Virtual-time window [start, end).
  Time window_start = 0;
  Time window_end = kTimeNever;

  [[nodiscard]] bool matches(const net::Message& msg, NodeId recipient,
                             Time now) const;
};

struct FaultSpec {
  std::vector<FaultRule> rules;

  [[nodiscard]] bool active() const { return !rules.empty(); }
};

/// Parses the --fault grammar.  On failure returns false with a
/// description in *error (and *out unspecified).
bool parse_fault_spec(const std::string& text, FaultSpec* out,
                      std::string* error);

/// Parses a duration literal ("2ms", "50us", "1s", "250" = ns).  Used by
/// the spec parser; exposed for tests.
bool parse_duration(const std::string& text, Time* out);

}  // namespace ivy::fault
