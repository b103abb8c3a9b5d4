// Unit tests for the discrete-event engine and fibers.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "ivy/sim/cost_model.h"
#include "ivy/sim/fiber.h"
#include "ivy/sim/simulator.h"

namespace ivy::sim {
namespace {

// Resumes `fiber` from `depth` calls further down the host stack.
// Returns the yield reason plus one per level the return unwound.
[[gnu::noinline]] int resume_at_depth(Fiber& fiber, int depth) {
  if (depth == 0) return static_cast<int>(fiber.resume());
  volatile int here = depth;
  return resume_at_depth(fiber, depth - 1) + 1 + (here - depth);
}

// The host stack depth of the caller: the frame address of a fresh call.
[[gnu::noinline]] std::uintptr_t stack_depth_probe() {
  return reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
}

// Recurses until the stack runs out; the depth bound is never reached.
// Passing `pad` down keeps every frame live, so no tail call folds them.
[[gnu::noinline]] int recurse_forever(const volatile char* caller,
                                      int depth) {
  volatile char pad[256];
  pad[0] = static_cast<char>(caller[0] + 1);
  if (depth == std::numeric_limits<int>::max()) return pad[0];
  return recurse_forever(pad, depth + 1) + pad[0];
}

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, TiesBreakInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  sim.run_until_idle();
  for (int i = 0; i < 10; ++i) ASSERT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, EventsMayScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    if (++fired < 5) sim.schedule_after(7, chain);
  };
  sim.schedule_at(0, chain);
  sim.run_until_idle();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(sim.now(), 4 * 7);
}

TEST(Simulator, RunWhileStopsAtPredicate) {
  Simulator sim;
  int fired = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule_at(i, [&] { ++fired; });
  }
  sim.run_while([&] { return fired < 4; });
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(sim.now(), 4);
  sim.run_until_idle();
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, StepReturnsFalseWhenIdle) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(1, [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(CostModel, TransmitTimeScalesWithBytes) {
  CostModel costs;
  const Time small = costs.transmit_time(100);
  const Time large = costs.transmit_time(1100);
  EXPECT_GT(small, 0);
  // 1000 extra bytes at 1.5 MB/s is ~667 microseconds.
  EXPECT_NEAR(static_cast<double>(large - small), 1000.0 / 1.5e6 * 1e9,
              1e3);
}

TEST(Fiber, RunsToCompletion) {
  int state = 0;
  Fiber fiber([&] { state = 1; });
  EXPECT_EQ(fiber.resume(), YieldReason::kFinished);
  EXPECT_EQ(state, 1);
  EXPECT_TRUE(fiber.finished());
}

TEST(Fiber, YieldAndResumeRoundTrips) {
  std::vector<int> trace;
  Fiber fiber([&] {
    trace.push_back(1);
    Fiber::yield(YieldReason::kQuantum);
    trace.push_back(2);
    Fiber::yield(YieldReason::kBlocked);
    trace.push_back(3);
  });
  EXPECT_EQ(fiber.resume(), YieldReason::kQuantum);
  trace.push_back(-1);
  EXPECT_EQ(fiber.resume(), YieldReason::kBlocked);
  trace.push_back(-2);
  EXPECT_EQ(fiber.resume(), YieldReason::kFinished);
  EXPECT_EQ(trace, (std::vector<int>{1, -1, 2, -2, 3}));
}

TEST(Fiber, CurrentIsSetOnlyInsideFiber) {
  EXPECT_EQ(Fiber::current(), nullptr);
  Fiber* observed = nullptr;
  Fiber fiber([&] { observed = Fiber::current(); });
  fiber.resume();
  EXPECT_EQ(observed, &fiber);
  EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, ChargeAccumulatesUntilTaken) {
  Fiber fiber([] {
    Fiber::current()->charge(100);
    Fiber::current()->charge(50);
    Fiber::yield(YieldReason::kQuantum);
    Fiber::current()->charge(7);
  });
  fiber.resume();
  EXPECT_EQ(fiber.take_charge(), 150);
  EXPECT_EQ(fiber.take_charge(), 0);
  fiber.resume();
  EXPECT_EQ(fiber.take_charge(), 7);
}

TEST(Fiber, ManyFibersInterleave) {
  constexpr int kFibers = 50;
  std::vector<std::unique_ptr<Fiber>> fibers;
  std::vector<int> progress(kFibers, 0);
  for (int i = 0; i < kFibers; ++i) {
    fibers.push_back(std::make_unique<Fiber>([&progress, i] {
      for (int step = 0; step < 3; ++step) {
        ++progress[static_cast<size_t>(i)];
        Fiber::yield(YieldReason::kQuantum);
      }
    }));
  }
  bool any_live = true;
  while (any_live) {
    any_live = false;
    for (auto& f : fibers) {
      if (!f->finished()) {
        f->resume();
        any_live = any_live || !f->finished();
      }
    }
  }
  for (int p : progress) EXPECT_EQ(p, 3);
}

TEST(Fiber, DeepStackUsage) {
  // Recursion exercising a good chunk of the 256 KiB default stack.
  std::function<int(int)> rec = [&](int depth) -> int {
    char pad[512];
    pad[0] = static_cast<char>(depth);
    if (depth == 0) return pad[0];
    return rec(depth - 1) + (pad[0] != 0 ? 1 : 1);
  };
  int result = 0;
  Fiber fiber([&] { result = rec(200); });
  fiber.resume();
  EXPECT_EQ(result, 200);
}

TEST(Fiber, ResumesFromAnyHostStackDepth) {
  // A migrated process is dispatched by another node's scheduler, from
  // another host stack depth than the one that last resumed it.
  constexpr int kDeep = 64;
  int steps = 0;
  Fiber fiber([&] {
    for (int i = 0; i < 6; ++i) {
      ++steps;
      Fiber::yield(YieldReason::kQuantum);
    }
  });
  for (int i = 0; i < 6; ++i) {
    const int depth = i % 2 == 0 ? 0 : kDeep;
    EXPECT_EQ(resume_at_depth(fiber, depth),
              static_cast<int>(YieldReason::kQuantum) + depth);
    EXPECT_EQ(steps, i + 1);
  }
  EXPECT_EQ(resume_at_depth(fiber, kDeep),
            static_cast<int>(YieldReason::kFinished) + kDeep);
  EXPECT_TRUE(fiber.finished());
}

TEST(Fiber, ManyYieldsKeepHostStackFlat) {
  constexpr int kYields = 100000;
  std::uintptr_t fiber_site = 0;
  int fiber_moves = 0;
  Fiber fiber([&] {
    for (int i = 0; i < kYields; ++i) {
      Fiber::yield(YieldReason::kQuantum);
      const std::uintptr_t site = stack_depth_probe();
      if (fiber_site != 0 && site != fiber_site) ++fiber_moves;
      fiber_site = site;
    }
  });
  std::uintptr_t resumer_site = 0;
  int resumer_moves = 0;
  int resumes = 0;
  while (fiber.resume() != YieldReason::kFinished) {
    ++resumes;
    const std::uintptr_t site = stack_depth_probe();
    if (resumer_site != 0 && site != resumer_site) ++resumer_moves;
    resumer_site = site;
  }
  EXPECT_EQ(resumes, kYields);
  EXPECT_EQ(fiber_moves, 0);
  EXPECT_EQ(resumer_moves, 0);
}

TEST(FiberDeathTest, UnboundedRecursionHitsTheGuardPage) {
  EXPECT_DEATH(
      {
        const volatile char seed = 0;
        Fiber fiber([&] { recurse_forever(&seed, 0); });
        fiber.resume();
      },
      "");
}

}  // namespace
}  // namespace ivy::sim
