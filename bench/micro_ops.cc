// Micro-benchmarks (google-benchmark).
//
// Wall time here measures the *simulator's* host-side throughput; the
// interesting modeled quantities — virtual microseconds per primitive on
// the simulated 1988 machine — are reported as counters
// (virtual_us_per_op), mirroring the cost table a systems paper would
// publish: local reference, remote read/write fault, eventcount ops,
// remote-operation round trip, allocation.
#include <benchmark/benchmark.h>
#include <malloc.h>

#include <array>
#include <cstdint>
#include <vector>

#include "bench/common.h"
#include "ivy/base/rng.h"
#include "ivy/sim/fiber.h"

namespace ivy::bench {
namespace {

Config micro_config(NodeId nodes) {
  Config cfg;
  cfg.nodes = nodes;
  cfg.heap_pages = 512;
  cfg.stack_region_pages = 16;
  return cfg;
}

/// Runs `body` as a process on `node`, returns elapsed virtual time.
template <typename Fn>
Time timed_run(Runtime& rt, NodeId node, Fn&& body) {
  rt.spawn_on(node, std::forward<Fn>(body));
  return rt.run();
}

// The event queue as a run sees it: `depth` events stay pending, and each
// operation pushes one at a pseudo-random later time and pops the
// earliest.  A closure carries 128 bytes, the size of a ring delivery's.
// Depth 32 is about perfbench dotprod-scatter's mean queue length; 512 is
// a queue that also holds hundreds of long timers.
void BM_SimulatorEventThroughput(benchmark::State& state) {
  struct Capture {
    std::uint64_t* sink;
    std::array<std::uint64_t, 15> words;
  };
  static_assert(sizeof(Capture) == 128);
  sim::Simulator sim;
  Rng rng(1);
  std::vector<Time> delays(4096);
  for (Time& d : delays) d = 1 + static_cast<Time>(rng.below(1'000'000));
  std::uint64_t sink = 0;
  Capture capture{&sink, {}};
  std::size_t pushed = 0;
  const auto push = [&] {
    capture.words[0] = pushed;
    sim.schedule_after(delays[pushed++ % delays.size()],
                       [capture] { *capture.sink += capture.words[0]; });
  };
  for (std::int64_t i = 0; i < state.range(0); ++i) push();
  for (auto _ : state) {
    push();
    sim.step();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorEventThroughput)->Arg(32)->Arg(512);

// One resume+yield round trip of a fiber, the host cost of every process
// dispatch; no simulated machine takes part.
void BM_FiberSwitch(benchmark::State& state) {
  bool stop = false;
  sim::Fiber fiber([&stop] {
    while (!stop) sim::Fiber::yield(sim::YieldReason::kQuantum);
  });
  for (auto _ : state) {
    benchmark::DoNotOptimize(fiber.resume());
  }
  stop = true;
  fiber.resume();
}
BENCHMARK(BM_FiberSwitch);

// Building the ivy-bench/perfbench machine (N=8, 24 MiB heap) under one
// manager: the set-up every benchmark point pays before its first event.
// heap_kb is the malloc heap the built machine holds (glibc mallinfo2,
// mmapped blocks included).
void BM_RuntimeConstruct(benchmark::State& state) {
  Config cfg = base_config(8);
  cfg.manager = static_cast<svm::ManagerKind>(state.range(0));
  state.SetLabel(svm::to_string(cfg.manager));
  const auto heap_bytes = [] {
    const struct mallinfo2 mi = mallinfo2();
    return static_cast<double>(mi.uordblks + mi.hblkhd);
  };
  const double before = heap_bytes();
  {
    Runtime rt(cfg);
    state.counters["heap_kb"] = (heap_bytes() - before) / 1024.0;
  }
  for (auto _ : state) {
    Runtime rt(cfg);
    benchmark::DoNotOptimize(&rt);
  }
}
BENCHMARK(BM_RuntimeConstruct)->DenseRange(0, 3);

void BM_LocalAccess(benchmark::State& state) {
  Time virtual_per_op = 0;
  for (auto _ : state) {
    Runtime rt(micro_config(1));
    auto data = rt.alloc_array<std::uint64_t>(1024);
    const Time t = timed_run(rt, 0, [=]() mutable {
      for (std::size_t i = 0; i < 1024; ++i) data[i] = i;
    });
    virtual_per_op = t / 1024;
  }
  state.counters["virtual_us_per_op"] =
      static_cast<double>(virtual_per_op) / 1000.0;
}
BENCHMARK(BM_LocalAccess);

// Host cost of one shared read that hits: the process reads words of
// pages it already holds, so every reference is a rights check and a
// frame lookup, with no fault.  The machine is built, and the pages made
// resident, outside the timed loop, which runs inside the process.
void BM_PageHit(benchmark::State& state) {
  constexpr std::size_t kPages = 64;
  constexpr std::size_t kWords = kPages * 128;  // 1 KiB pages
  Runtime rt(micro_config(1));
  auto data = rt.alloc_array<std::uint64_t>(kWords);
  rt.spawn_on(0, [&state, data]() mutable {
    for (std::size_t i = 0; i < kWords; ++i) data[i] = i;
    std::uint64_t sum = 0;
    std::size_t i = 0;
    for (auto _ : state) {
      sum += static_cast<std::uint64_t>(data[i]);
      i = i + 1 == kWords ? 0 : i + 1;
    }
    benchmark::DoNotOptimize(sum);
  });
  rt.run();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageHit);

// The hit as a stencil makes it: one process cycles over five pages and
// charges compute after every eight references, so the quantum yields
// flush the translation cache as pde3d's sweeps do.
void BM_PageHitStencil(benchmark::State& state) {
  constexpr std::size_t kPages = 5;
  constexpr std::size_t kWordsPerPage = 128;  // 1 KiB pages
  Runtime rt(micro_config(1));
  auto data = rt.alloc_array<std::uint64_t>(kPages * kWordsPerPage);
  rt.spawn_on(0, [&state, data]() mutable {
    for (std::size_t i = 0; i < kPages * kWordsPerPage; ++i) data[i] = i;
    std::uint64_t sum = 0;
    std::size_t word = 0;
    std::size_t refs = 0;
    for (auto _ : state) {
      sum += static_cast<std::uint64_t>(data[(refs % kPages) * kWordsPerPage +
                                             word]);
      if (++refs % 8 == 0) {
        word = (word + 1) % kWordsPerPage;
        proc::charge_compute(2);
      }
    }
    benchmark::DoNotOptimize(sum);
  });
  rt.run();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageHitStencil);

void BM_RemoteReadFault(benchmark::State& state) {
  Time virtual_per_fault = 0;
  constexpr std::size_t kPages = 64;
  for (auto _ : state) {
    Runtime rt(micro_config(2));
    auto data = rt.alloc_array<std::uint64_t>(kPages * 128);
    // Reader on node 1 touches one word per page: kPages read faults.
    const Time t = timed_run(rt, 1, [=]() mutable {
      std::uint64_t sum = 0;
      for (std::size_t p = 0; p < kPages; ++p) {
        sum += static_cast<std::uint64_t>(data[p * 128]);
      }
      benchmark::DoNotOptimize(sum);
    });
    virtual_per_fault = t / kPages;
  }
  state.counters["virtual_us_per_op"] =
      static_cast<double>(virtual_per_fault) / 1000.0;
}
BENCHMARK(BM_RemoteReadFault);

void BM_RemoteWriteFault(benchmark::State& state) {
  Time virtual_per_fault = 0;
  constexpr std::size_t kPages = 64;
  for (auto _ : state) {
    Runtime rt(micro_config(2));
    auto data = rt.alloc_array<std::uint64_t>(kPages * 128);
    const Time t = timed_run(rt, 1, [=]() mutable {
      for (std::size_t p = 0; p < kPages; ++p) data[p * 128] = p;
    });
    virtual_per_fault = t / kPages;
  }
  state.counters["virtual_us_per_op"] =
      static_cast<double>(virtual_per_fault) / 1000.0;
}
BENCHMARK(BM_RemoteWriteFault);

void BM_EventcountLocal(benchmark::State& state) {
  Time virtual_per_op = 0;
  constexpr int kOps = 256;
  for (auto _ : state) {
    Runtime rt(micro_config(1));
    auto ec = rt.create_eventcount();
    const Time t = timed_run(rt, 0, [=]() mutable {
      for (int i = 0; i < kOps; ++i) ec.advance();
    });
    virtual_per_op = t / kOps;
  }
  state.counters["virtual_us_per_op"] =
      static_cast<double>(virtual_per_op) / 1000.0;
}
BENCHMARK(BM_EventcountLocal);

void BM_EventcountRemoteWakeup(benchmark::State& state) {
  Time virtual_per_round = 0;
  constexpr int kRounds = 64;
  for (auto _ : state) {
    Runtime rt(micro_config(2));
    auto ec = rt.create_eventcount();
    // Two processes hand the count back and forth: each round is one
    // remote page move + one remote wakeup.
    rt.spawn_on(0, [=]() mutable {
      for (int i = 0; i < kRounds; ++i) {
        ec.wait(2 * i);
        ec.advance();
      }
    });
    rt.spawn_on(1, [=]() mutable {
      for (int i = 0; i < kRounds; ++i) {
        ec.wait(2 * i + 1);
        ec.advance();
      }
    });
    virtual_per_round = rt.run() / kRounds;
  }
  state.counters["virtual_us_per_op"] =
      static_cast<double>(virtual_per_round) / 1000.0;
}
BENCHMARK(BM_EventcountRemoteWakeup);

void BM_RpcRoundtrip(benchmark::State& state) {
  Time virtual_per_call = 0;
  constexpr int kCalls = 64;
  for (auto _ : state) {
    Runtime rt(micro_config(2));
    // Remote allocation requests are the simplest client-visible RPC.
    const Time t = timed_run(rt, 1, [&rt]() mutable {
      for (int i = 0; i < kCalls; ++i) {
        const SvmAddr a = rt.heap(1).allocate(1024);
        rt.heap(1).deallocate(a);
      }
    });
    virtual_per_call = t / (2 * kCalls);  // allocate + free round trips
  }
  state.counters["virtual_us_per_op"] =
      static_cast<double>(virtual_per_call) / 1000.0;
}
BENCHMARK(BM_RpcRoundtrip);

void BM_ProcessMigration(benchmark::State& state) {
  // End-to-end overhead of moving work via the passive balancer: two
  // equal compute processes on node 0, with node 1 idle.  Pinned, they
  // serialize (2C); balanced, one migrates (C + migration machinery).
  Time overhead = 0;
  for (auto _ : state) {
    auto run_pair = [](bool balance) {
      Config cfg = micro_config(2);
      cfg.stack_region_pages = 64;
      cfg.sched.load_balancing = balance;
      cfg.sched.lower_threshold = 1;
      cfg.sched.upper_threshold = 1;
      cfg.sched.lb_interval = ms(2);
      Runtime rt(cfg);
      for (int i = 0; i < 2; ++i) {
        rt.spawn_on(0, [] {
          for (int s = 0; s < 200; ++s) proc::charge_compute(25);
        });
      }
      return rt.run();
    };
    auto run_single = [] {
      Config cfg = micro_config(2);
      cfg.stack_region_pages = 64;
      Runtime rt(cfg);
      rt.spawn_on(0, [] {
        for (int s = 0; s < 200; ++s) proc::charge_compute(25);
      });
      return rt.run();
    };
    benchmark::DoNotOptimize(run_pair(false));
    const Time balanced = run_pair(true);
    overhead = balanced - run_single();  // migration + probe latency
  }
  state.counters["virtual_us_per_op"] =
      static_cast<double>(overhead) / 1000.0;
}
BENCHMARK(BM_ProcessMigration);

void BM_RingBroadcast(benchmark::State& state) {
  Time virtual_per_bcast = 0;
  constexpr int kBcasts = 128;
  for (auto _ : state) {
    Runtime rt(micro_config(8));
    net::Ring& ring = rt.ring();
    sim::Simulator& sim = rt.simulator();
    for (NodeId n = 0; n < 8; ++n) {
      rpc::RemoteOp& op = rt.rpc(n);
      op.set_handler(net::MsgKind::kLoadHint,
                     [&op](net::Message&& msg) { op.ignore(msg); });
    }
    const Time start = sim.now();
    for (int i = 0; i < kBcasts; ++i) {
      // Scheduling-hint style broadcast: no reply expected.
      rt.rpc(0).broadcast(net::MsgKind::kLoadHint, net::EmptyPayload{},
                          rpc::BcastReply::kNone);
    }
    sim.run_until_idle();
    virtual_per_bcast = (sim.now() - start) / kBcasts;
    benchmark::DoNotOptimize(ring.nodes());
  }
  state.counters["virtual_us_per_op"] =
      static_cast<double>(virtual_per_bcast) / 1000.0;
}
BENCHMARK(BM_RingBroadcast);

}  // namespace
}  // namespace ivy::bench

BENCHMARK_MAIN();
