// Quickstart: the smallest complete IVY program.
//
// Eight processes on four simulated processors share one array through
// the shared virtual memory and meet at a barrier; the host then reads
// the result back.  Build and run:
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [--trace-out t.json] [--metrics-out m.json]
//                               [--oracle warn|strict]
#include <cstdio>
#include <cstring>
#include <string>

#include "ivy/ivy.h"
#include "ivy/runtime/flags.h"

int main(int argc, char** argv) {
  ivy::runtime::ObsFlags flags;
  std::string error;
  if (!ivy::runtime::parse_obs_flags(&argc, argv, &flags, &error)) {
    std::fprintf(stderr, "%s\nusage: %s %s\n", error.c_str(), argv[0],
                 ivy::runtime::obs_flags_usage());
    return 2;
  }

  ivy::Config cfg;
  cfg.nodes = 4;  // processors on the simulated token ring
  cfg.name = "quickstart";
  // Observability: record every protocol event when an export was asked
  // for; disabled tracing costs nothing.
  flags.apply(cfg);

  ivy::Runtime rt(cfg);

  constexpr std::size_t kElems = 4096;
  constexpr int kProcs = 8;

  // Shared data lives in the shared virtual memory; every process can
  // reference it like ordinary memory.
  auto squares = rt.alloc_array<std::int64_t>(kElems);
  auto barrier = rt.create_barrier(kProcs);
  auto total = rt.alloc_scalar<std::int64_t>();

  for (int p = 0; p < kProcs; ++p) {
    rt.spawn_on(static_cast<ivy::NodeId>(p) % cfg.nodes, [=]() mutable {
      // Phase 1: each process fills its slice.
      const std::size_t chunk = kElems / kProcs;
      const std::size_t begin = static_cast<std::size_t>(p) * chunk;
      for (std::size_t i = begin; i < begin + chunk; ++i) {
        squares[i] = static_cast<std::int64_t>(i) * static_cast<std::int64_t>(i);
        ivy::charge(1);  // model one unit of computation
      }
      barrier.arrive(0);
      // Phase 2: process 0 reduces — the pages it reads migrate to it on
      // demand; nobody packs messages.
      if (p == 0) {
        std::int64_t sum = 0;
        for (std::size_t i = 0; i < kElems; ++i) {
          sum += squares[i];
          ivy::charge(1);
        }
        total.set(sum);
      }
    });
  }

  const ivy::Time elapsed = rt.run();

  std::printf("sum of squares 0..%zu = %lld\n", kElems - 1,
              static_cast<long long>(rt.host_read<std::int64_t>(total.address())));
  std::printf("virtual time: %.3f s on %u simulated processors\n",
              ivy::to_seconds(elapsed), cfg.nodes);
  std::printf("page faults: %llu read, %llu write; %llu page transfers\n",
              static_cast<unsigned long long>(
                  rt.stats().total(ivy::Counter::kReadFaults)),
              static_cast<unsigned long long>(
                  rt.stats().total(ivy::Counter::kWriteFaults)),
              static_cast<unsigned long long>(
                  rt.stats().total(ivy::Counter::kPageTransfers)));
  if (!flags.trace_out.empty() && rt.write_trace(flags.trace_out)) {
    std::printf("wrote %s (open in Perfetto / chrome://tracing)\n",
                flags.trace_out.c_str());
  }
  if (!flags.metrics_out.empty() &&
      rt.write_metrics(flags.metrics_out, elapsed)) {
    std::printf("wrote %s\n", flags.metrics_out.c_str());
  }
  if (!flags.prof_out.empty() && rt.write_prof(flags.prof_out)) {
    std::printf("wrote %s\n", flags.prof_out.c_str());
  }
  rt.final_audit();
  if (ivy::oracle::Oracle* o = rt.oracle()) {
    std::printf("%s\n", o->brief().c_str());
  }
  return 0;
}
