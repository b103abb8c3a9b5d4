// Tests for the synchronization primitives built on shared virtual
// memory: eventcounts (the paper's Init/Read/Wait/Advance), binary locks
// with waiter queues, and the eventcount barrier.
#include <gtest/gtest.h>

#include "ivy/ivy.h"

namespace ivy::sync {
namespace {

runtime::Config nodes(NodeId n) {
  runtime::Config cfg;
  cfg.nodes = n;
  cfg.heap_pages = 256;
  cfg.stack_region_pages = 64;
  return cfg;
}

TEST(Eventcount, AdvanceIncrementsRead) {
  runtime::Runtime rt(nodes(1));
  auto ec = rt.create_eventcount();
  std::int64_t seen = -1;
  rt.spawn([&, ec]() mutable {
    EXPECT_EQ(ec.read(), 0);
    ec.advance();
    ec.advance();
    seen = ec.read();
  });
  rt.run();
  EXPECT_EQ(seen, 2);
}

TEST(Eventcount, WaitReturnsImmediatelyWhenReached) {
  runtime::Runtime rt(nodes(1));
  auto ec = rt.create_eventcount();
  bool done = false;
  rt.spawn([&, ec]() mutable {
    ec.advance();
    ec.wait(1);  // already there
    done = true;
  });
  rt.run();
  EXPECT_TRUE(done);
}

TEST(Eventcount, WaitBlocksUntilValueReached) {
  runtime::Runtime rt(nodes(2));
  auto ec = rt.create_eventcount();
  std::vector<int> order;
  rt.spawn_on(0, [&, ec]() mutable {
    ec.wait(3);
    order.push_back(1);
  });
  rt.spawn_on(1, [&, ec]() mutable {
    for (int i = 0; i < 3; ++i) {
      proc::charge_compute(100);
      ec.advance();
    }
    order.push_back(2);
  });
  rt.run();
  ASSERT_EQ(order.size(), 2u);
  // The waiter cannot finish before the third advance happened.
  EXPECT_EQ(order[0], 2);
  EXPECT_EQ(order[1], 1);
}

TEST(Eventcount, WakesOnlyWaitersWhoseTargetReached) {
  runtime::Runtime rt(nodes(3));
  auto ec = rt.create_eventcount();
  auto done = rt.alloc_array<std::uint32_t>(2);
  rt.spawn_on(0, [=]() mutable {
    ec.wait(1);
    done[0] = 1;
  });
  rt.spawn_on(1, [=]() mutable {
    ec.wait(5);
    done[1] = 1;
  });
  rt.spawn_on(2, [=, &rt]() mutable {
    proc::charge_compute(200);
    ec.advance();  // wakes only the first waiter
    proc::charge_compute(4000);
    // The second waiter must still be blocked here.
    EXPECT_EQ(proc::svm_read<std::uint32_t>(done.address_of(1)), 0u);
    for (int i = 0; i < 4; ++i) ec.advance();
    (void)rt;
  });
  rt.run();
  EXPECT_EQ(rt.host_read(done, 0), 1u);
  EXPECT_EQ(rt.host_read(done, 1), 1u);
}

TEST(Eventcount, ManyWaitersAcrossNodesAllWake) {
  runtime::Config cfg = nodes(8);
  cfg.trace_enabled = true;
  cfg.trace_capacity = 1 << 14;
  runtime::Runtime rt(std::move(cfg));
  auto ec = rt.create_eventcount();
  auto woke = rt.alloc_array<std::uint32_t>(8);
  for (NodeId n = 1; n < 8; ++n) {
    rt.spawn_on(n, [=]() mutable {
      ec.wait(1);
      woke[n] = 1;
    });
  }
  rt.spawn_on(0, [=]() mutable {
    proc::charge_compute(1000);
    ec.advance();
  });
  rt.run();
  for (NodeId n = 1; n < 8; ++n) EXPECT_EQ(rt.host_read(woke, n), 1u);
  EXPECT_GT(rt.stats().total(Counter::kEcRemoteWakeups), 0u);

  // A woken waiter returns without touching the eventcount page again:
  // the page takes one write fault per wait() and one for the advance(),
  // not a second round of re-check faults after the wakeup (15 faults).
  const PageId page = rt.svm(0).geometry().page_of(ec.address());
  ASSERT_EQ(rt.tracer().dropped(), 0u);
  std::uint64_t write_faults = 0;
  rt.tracer().for_each([&](const trace::Event& e) {
    if (e.kind == trace::EventKind::kWriteFault && e.arg0 == page) {
      ++write_faults;
    }
  });
  EXPECT_EQ(write_faults, 8u);
}

TEST(Eventcount, InitResetsValue) {
  runtime::Runtime rt(nodes(1));
  auto ec = rt.create_eventcount();
  std::int64_t after = -1;
  rt.spawn([&, ec]() mutable {
    ec.advance();
    ec.advance();
    ec.init();
    after = ec.read();
  });
  rt.run();
  EXPECT_EQ(after, 0);
}

TEST(SvmLockTest, MutualExclusionAcrossNodes) {
  runtime::Runtime rt(nodes(4));
  auto lock = rt.create_lock();
  auto counter = rt.alloc_scalar<std::int64_t>();
  constexpr int kRounds = 25;
  for (NodeId n = 0; n < 4; ++n) {
    rt.spawn_on(n, [=]() mutable {
      for (int i = 0; i < kRounds; ++i) {
        SvmLockGuard guard(lock);
        // Non-atomic read-modify-write made safe only by the lock.
        counter.set(counter.get() + 1);
      }
    });
  }
  rt.run();
  EXPECT_EQ(rt.host_read<std::int64_t>(counter.address()), 4 * kRounds);
  EXPECT_EQ(rt.stats().total(Counter::kLockAcquisitions),
            static_cast<std::uint64_t>(4 * kRounds));
}

TEST(SvmLockTest, TryLockFailsWhenHeld) {
  runtime::Runtime rt(nodes(1));
  auto lock = rt.create_lock();
  bool second_try = true;
  rt.spawn([&, lock]() mutable {
    ASSERT_TRUE(lock.try_lock());
    second_try = lock.try_lock();
    lock.unlock();
  });
  rt.run();
  EXPECT_FALSE(second_try);
}

TEST(SvmLockTest, UnlockWakesQueuedWaiter) {
  runtime::Runtime rt(nodes(2));
  auto lock = rt.create_lock();
  auto order = rt.alloc_array<std::uint32_t>(2);
  auto idx = rt.alloc_scalar<std::uint32_t>();
  rt.spawn_on(0, [=]() mutable {
    lock.lock();
    proc::charge_compute(5000);  // hold long enough for node 1 to queue
    const auto i = idx.get();
    order[i] = 1;
    idx.set(i + 1);
    lock.unlock();
  });
  rt.spawn_on(1, [=]() mutable {
    proc::charge_compute(500);  // arrive second
    lock.lock();
    const auto i = idx.get();
    order[i] = 2;
    idx.set(i + 1);
    lock.unlock();
  });
  rt.run();
  EXPECT_EQ(rt.host_read(order, 0), 1u);
  EXPECT_EQ(rt.host_read(order, 1), 2u);
  EXPECT_GT(rt.stats().total(Counter::kLockSpins), 0u);
}

TEST(BarrierTest, RoundsSynchronizeAllParties) {
  runtime::Runtime rt(nodes(4));
  auto bar = rt.create_barrier(4);
  auto phase = rt.alloc_array<std::int32_t>(4);
  constexpr int kRounds = 5;
  for (NodeId n = 0; n < 4; ++n) {
    rt.spawn_on(n, [=]() mutable {
      for (int r = 0; r < kRounds; ++r) {
        // Before arriving, nobody may already be in a later round.
        for (NodeId m = 0; m < 4; ++m) {
          const std::int32_t p = phase[m];
          EXPECT_LE(p, r);
          EXPECT_GE(p, r - 1);
        }
        phase[n] = r;
        bar.arrive(r);
      }
    });
  }
  rt.run();
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(rt.host_read(phase, n), kRounds - 1);
  }
}

TEST(BarrierTest, SinglePartyBarrierNeverBlocks) {
  runtime::Runtime rt(nodes(1));
  auto bar = rt.create_barrier(1);
  int rounds = 0;
  rt.spawn([&, bar]() mutable {
    for (int r = 0; r < 10; ++r) {
      bar.arrive(r);
      ++rounds;
    }
  });
  rt.run();
  EXPECT_EQ(rounds, 10);
}

TEST(Eventcount, CapacityMatchesPageSize) {
  EXPECT_EQ(Eventcount::capacity(1024), (1024u - 16u) / 24u);
  EXPECT_GE(Eventcount::capacity(256), 8u);  // enough for kMaxNodes=8 runs
  EXPECT_EQ(Eventcount::capacity(256, 4), (4u * 256u - 16u) / 24u);
  EXPECT_EQ(SvmLock::capacity(1024), (1024u - 16u) / 16u);
}

TEST(Eventcount, LinkedPagesHoldManyWaiters) {
  // With 256-byte pages a single page parks only 10 waiters; a two-page
  // eventcount ("additional pages will be linked together") must carry
  // more simultaneous waiters than one page can.
  runtime::Config cfg;
  cfg.nodes = 2;
  cfg.page_size = 256;
  cfg.heap_pages = 512;
  cfg.stack_region_pages = 64;
  runtime::Runtime rt(cfg);
  auto ec = rt.create_eventcount(/*pages=*/2);
  constexpr int kWaiters = 16;  // > capacity(256) == 10
  ASSERT_GT(static_cast<std::size_t>(kWaiters), Eventcount::capacity(256));
  auto woke = rt.alloc_array<std::uint32_t>(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    rt.spawn_on(static_cast<NodeId>(i % 2), [=]() mutable {
      ec.wait(1);
      woke[static_cast<std::size_t>(i)] = 1;
    });
  }
  rt.spawn_on(0, [=]() mutable {
    proc::charge_compute(5000);  // let everyone park first
    ec.advance();
  });
  rt.run();
  for (int i = 0; i < kWaiters; ++i) {
    EXPECT_EQ(rt.host_read(woke, static_cast<std::size_t>(i)), 1u);
  }
}

}  // namespace
}  // namespace ivy::sync
