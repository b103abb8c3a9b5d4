// Unit tests for the discrete-event engine and fibers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <tuple>
#include <vector>

#include "ivy/base/rng.h"
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

// Events that survive cancellation run in exactly the order of a reference
// sort by (time, scheduling order), across two scheduling rounds so that
// freed and cancelled slots are reused.
TEST(Simulator, CancelledEventsLeaveTheRestInKeyOrder) {
  Simulator sim;
  Rng rng(7);
  struct Scheduled {
    Time at;
    int id;
    Timer timer;
    bool cancelled = false;
  };
  std::vector<Scheduled> events;
  std::vector<int> ran;
  const auto schedule_round = [&](int count) {
    for (int i = 0; i < count; ++i) {
      // A narrow time range, so many events tie on their time.
      const Time at = sim.now() + rng.range(0, 999);
      const int id = static_cast<int>(events.size());
      const Timer t = sim.schedule_at(at, [&ran, id] { ran.push_back(id); });
      events.push_back({at, id, t});
    }
  };
  const auto cancel_third = [&] {
    for (Scheduled& e : events) {
      if (rng.below(3) != 0) continue;
      // Only a pending event may be cancelled; one that ran or was
      // cancelled already refuses.
      const bool ran_already =
          std::find(ran.begin(), ran.end(), e.id) != ran.end();
      EXPECT_EQ(sim.cancel(e.timer), !ran_already && !e.cancelled);
      if (!ran_already) e.cancelled = true;
    }
  };
  schedule_round(3000);
  cancel_third();
  sim.run_while([&] { return ran.size() < 1000; });
  schedule_round(2000);
  cancel_third();
  sim.run_until_idle();

  std::vector<Scheduled> expected;
  for (const Scheduled& e : events) {
    if (!e.cancelled) expected.push_back(e);
  }
  // Ids are handed out in scheduling order, as sequence numbers are.
  std::sort(expected.begin(), expected.end(),
            [](const Scheduled& a, const Scheduled& b) {
              return std::tie(a.at, a.id) < std::tie(b.at, b.id);
            });
  ASSERT_EQ(ran.size(), expected.size());
  for (std::size_t i = 0; i < ran.size(); ++i) {
    ASSERT_EQ(ran[i], expected[i].id) << "position " << i;
  }
  EXPECT_EQ(sim.events_executed(), expected.size());
}

TEST(Simulator, CancelReleasesTheCaptureUnrun) {
  Simulator sim;
  auto held = std::make_shared<int>(0);
  const Timer t = sim.schedule_at(5, [held] { ++*held; });
  EXPECT_EQ(held.use_count(), 2);
  EXPECT_TRUE(sim.cancel(t));
  EXPECT_EQ(held.use_count(), 1);  // released at cancel, not at a pop
  EXPECT_TRUE(sim.idle());
  sim.run_until_idle();
  EXPECT_EQ(*held, 0);
  EXPECT_EQ(sim.events_executed(), 0u);
  EXPECT_EQ(sim.now(), 0);
}

TEST(Simulator, StaleHandlesCancelNothing) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(Timer{}));
  int runs = 0;
  const Timer done = sim.schedule_at(1, [&] { ++runs; });
  sim.run_until_idle();
  EXPECT_FALSE(sim.cancel(done));  // already ran

  const Timer once = sim.schedule_at(2, [&] { ++runs; });
  EXPECT_TRUE(sim.cancel(once));
  EXPECT_FALSE(sim.cancel(once));  // already cancelled

  // The freed slot takes the next event; the old handle must not reach it.
  const Timer newer = sim.schedule_at(3, [&] { ++runs; });
  ASSERT_EQ(newer.slot, once.slot);
  EXPECT_FALSE(sim.cancel(once));
  sim.run_until_idle();
  EXPECT_EQ(runs, 2);
  EXPECT_FALSE(sim.cancel(newer));
}

TEST(Simulator, CancellingTheRunningEventIsANoOp) {
  Simulator sim;
  auto held = std::make_shared<int>(42);
  Timer self;
  bool cancelled = true;
  long uses_after = 0;
  int seen = 0;
  self = sim.schedule_at(1, [&, held] {
    cancelled = sim.cancel(self);
    // The closure, and so its capture, outlives the attempt.
    uses_after = held.use_count();
    seen = *held;
    // An event scheduled now must not take the running event's slot.
    const Timer next = sim.schedule_after(1, [] {});
    EXPECT_NE(next.slot, self.slot);
  });
  sim.run_until_idle();
  EXPECT_FALSE(cancelled);
  EXPECT_EQ(uses_after, 2);
  EXPECT_EQ(seen, 42);
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_EQ(held.use_count(), 1);
}

// Pending closures are destroyed with the simulator; the unique_ptr
// capture leaks (and the leak checker of a sanitized build reports it)
// if they are not.
TEST(Simulator, DestroyedWithEventsPendingReleasesCaptures) {
  auto held = std::make_shared<int>(0);
  {
    Simulator sim;
    sim.schedule_at(1, [held] {});
    sim.schedule_at(2, [held, owned = std::make_unique<int>(1)] {});
    const Timer t = sim.schedule_at(3, [held] {});
    sim.schedule_at(4, [held] {});
    sim.step();
    EXPECT_TRUE(sim.cancel(t));
    EXPECT_EQ(held.use_count(), 3);
  }
  EXPECT_EQ(held.use_count(), 1);
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
