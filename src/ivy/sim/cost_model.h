// Virtual-time cost model, calibrated to the paper's 1988 hardware.
//
// IVY ran on Apollo DN workstations (Motorola 68000-class, roughly
// 1 MIPS) joined by a 12 Mbit/s baseband token ring, with the protocol in
// user mode ("not particularly efficient but simple and tractable").
// The absolute numbers below only matter through their *ratios*:
// compute-per-element vs. page-transfer vs. disk I/O are what shape the
// speedup curves.  Benches sweep these fields freely.
#pragma once

#include "ivy/base/types.h"

namespace ivy::sim {

struct CostModel {
  // --- CPU -----------------------------------------------------------
  /// One checked reference into the shared virtual memory (page-table
  /// lookup + data access).  On the real system this is a plain MMU-
  /// checked memory reference.
  Time mem_ref = ns(1'000);
  /// One unit of application arithmetic (an element step of the inner
  /// loop).  68000-class machines did software floating point at tens of
  /// microseconds per operation — this compute : page-move ratio is what
  /// made the paper's applications compute-dominated, and the speedup
  /// shapes depend on it.
  Time compute_unit = us(40);
  /// Dispatcher context switch ("on the order of a few procedure calls").
  Time context_switch = us(100);
  /// Process creation / termination bookkeeping.
  Time proc_create = us(500);
  /// One test-and-set instruction pair ("two 68000 instructions").
  Time test_and_set = us(2);

  // --- Page fault software path (user-mode handlers) ------------------
  /// Fixed handler overhead at the faulting processor per remote fault.
  Time fault_handler = us(500);
  /// Server-side handling of one protocol request (manager/owner code).
  Time fault_server = us(300);

  // --- Network (shared-medium token ring) -----------------------------
  /// Per-message software + media-access latency (send and receive
  /// syscalls, token acquisition).
  Time msg_latency = us(800);
  /// Ring bandwidth: 12 Mbit/s = 1.5 MB/s.
  double ring_bytes_per_second = 1.5e6;
  /// Protocol framing bytes added to every packet.
  std::uint32_t msg_overhead_bytes = 32;

  // --- Simulation fidelity ---------------------------------------------
  /// A process that computes for long stretches without blocking is
  /// preempted (at application compute-charge points) once it accumulates
  /// this much CPU time, so remote coherence traffic interleaves with its
  /// accesses at the right virtual times.  This bounds causality skew; it
  /// is a simulation knob, not a property of the modeled machine, and the
  /// re-dispatch after such a preemption is free.
  Time preempt_quantum = ms(1);

  // --- Disk (Aegis paging device) --------------------------------------
  /// One page-sized disk transfer, seek-dominated.
  Time disk_io = ms(25);

  /// Time to clock `bytes` through the ring medium.
  [[nodiscard]] Time transmit_time(std::uint64_t bytes) const {
    const double secs =
        static_cast<double>(bytes + msg_overhead_bytes) / ring_bytes_per_second;
    return static_cast<Time>(secs * 1e9);
  }
};

}  // namespace ivy::sim
