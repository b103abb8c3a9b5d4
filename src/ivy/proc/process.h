// Lightweight processes and their PCBs.
//
// "All the processes in IVY are lightweight ... The stack of a process is
// allocated from the shared memory portion.  Each process has a process
// control block (PCB) ... stored in the private memory of the address
// space.  Therefore, the PID of a process is represented as a pair —
// processor number and the address of its PCB."
//
// The execution vehicle is a sim::Fiber (host stack); the SVM stack region
// is the protocol-visible stack whose pages migrate with the process.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ivy/base/types.h"
#include "ivy/sim/fiber.h"
#include "ivy/svm/svm.h"

namespace ivy::proc {

enum class ProcState : std::uint8_t {
  kReserved,  ///< slot pre-allocated for an inbound migration
  kReady,
  kRunning,
  kBlocked,
  kFinished,
  kMigrated,  ///< moved away; the slot holds a forwarding pointer
};

[[nodiscard]] constexpr const char* to_string(ProcState s) {
  switch (s) {
    case ProcState::kReserved: return "reserved";
    case ProcState::kReady: return "ready";
    case ProcState::kRunning: return "running";
    case ProcState::kBlocked: return "blocked";
    case ProcState::kFinished: return "finished";
    case ProcState::kMigrated: return "migrated";
  }
  return "?";
}

struct Pcb {
  ProcId id;
  ProcState state = ProcState::kReserved;
  bool migratable = true;

  std::unique_ptr<sim::Fiber> fiber;

  /// SVM stack region (bookkeeping mirror of the fiber's host stack).
  SvmAddr stack_base = kNullSvmAddr;
  std::uint32_t stack_pages = 0;
  /// Index of the "current page of the process's stack" — the page whose
  /// contents must move with the process.
  std::uint32_t current_stack_page = 0;

  /// Valid when state == kMigrated: operations on this PID are forwarded.
  ProcId forward_to;

  /// Action the scheduler runs (at the correct virtual time) after the
  /// fiber yields kBlocked; set by the blocking primitive.
  std::function<void()> post_block;

  /// Incremented at every block; wakeup messages carry the epoch they
  /// target so a stale duplicate cannot wake a later, unrelated wait.
  std::uint32_t block_epoch = 0;

  /// A wakeup arrived for a reserved slot before the migration payload;
  /// applied on installation.
  bool pending_wakeup = false;
};

/// Everything needed to reincarnate a process on another node.
struct PcbTransfer {
  ProcId original;
  bool migratable = true;
  std::unique_ptr<sim::Fiber> fiber;
  SvmAddr stack_base = kNullSvmAddr;
  std::uint32_t stack_pages = 0;
  std::uint32_t current_stack_page = 0;
  std::uint32_t block_epoch = 0;
  /// Stack pages this node owned, detached for the new node; the current
  /// stack page carries its body.
  std::vector<svm::PageTransfer> pages;

  [[nodiscard]] std::uint32_t wire_bytes() const {
    std::uint32_t bytes = 256;  // PCB + bookkeeping
    for (const auto& p : pages) {
      bytes += 16 + static_cast<std::uint32_t>(p.body ? p.body->size() : 0);
    }
    return bytes;
  }
};

}  // namespace ivy::proc
