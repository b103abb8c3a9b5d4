// Tests for process management: spawn/finish, LIFO dispatch, blocking,
// stale-wakeup epochs, migration with stack handoff and forwarding
// pointers, passive load balancing, migratability control.
#include <gtest/gtest.h>

#include "ivy/ivy.h"

namespace ivy::proc {
namespace {

runtime::Config two_nodes(bool lb = false) {
  runtime::Config cfg;
  cfg.nodes = 2;
  cfg.heap_pages = 256;
  cfg.stack_region_pages = 128;
  cfg.sched.load_balancing = lb;
  return cfg;
}

TEST(ProcTest, SpawnRunsBodyAndCountsDown) {
  runtime::Runtime rt(two_nodes());
  int ran = 0;
  rt.spawn_on(0, [&] { ++ran; });
  rt.spawn_on(1, [&] { ++ran; });
  rt.run();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(rt.scheduler(0).proc_count(), 0);
  EXPECT_EQ(rt.stats().total(Counter::kProcSpawns), 2u);
}

TEST(ProcTest, SpawnInsideProcessWorks) {
  runtime::Runtime rt(two_nodes());
  int child_ran = 0;
  rt.spawn_on(0, [&rt, &child_ran] {
    proc::Scheduler::current_scheduler()->spawn([&child_ran] {
      ++child_ran;
    });
    (void)rt;
  });
  rt.run();
  EXPECT_EQ(child_ran, 1);
}

TEST(ProcTest, LifoDispatchRunsNewestReadyFirst) {
  runtime::Runtime rt(two_nodes());
  std::vector<int> order;
  // Both spawned before the first dispatch: LIFO runs #2 first.
  rt.spawn_on(0, [&] { order.push_back(1); });
  rt.spawn_on(0, [&] { order.push_back(2); });
  rt.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(ProcTest, VirtualTimeAdvancesWithCharges) {
  runtime::Runtime rt(two_nodes());
  rt.spawn_on(0, [] { charge_compute(1000); });
  const Time t = rt.run();
  // At least the 1000 compute units (40 us each) must have elapsed.
  EXPECT_GE(t, 1000 * rt.config().costs.compute_unit);
}

TEST(ProcTest, BlockAndExternalResume) {
  runtime::Runtime rt(two_nodes());
  std::vector<int> trace;
  rt.spawn_on(0, [&trace] {
    Scheduler* sched = Scheduler::current_scheduler();
    Pcb* self = Scheduler::current_pcb();
    trace.push_back(1);
    Scheduler::block_current([sched, self, &trace] {
      // Resume ourselves 5 ms later.
      sched->simulator().schedule_after(ms(5), [sched, self] {
        sched->make_ready(*self);
      });
      trace.push_back(2);
    });
    trace.push_back(3);
  });
  rt.run();
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
  EXPECT_GE(rt.now(), ms(5));
}

TEST(ProcTest, EventContextStallHoldsAQueuedDispatch) {
  runtime::Runtime rt(two_nodes());
  Scheduler& sched = rt.scheduler(0);
  Time ran_at = -1;
  // Spawning queues the first dispatch behind the creation cost.
  rt.spawn_on(0, [&] { ran_at = rt.now(); });
  const Time create = rt.config().costs.proc_create;
  // A disk stall from event context after that must still hold it.
  rt.simulator().schedule_at(create / 2, [&] { sched.stall(ms(25)); });
  rt.run();
  EXPECT_EQ(ran_at, create + ms(25));
}

TEST(ProcTest, StaleEpochWakeupIsIgnored) {
  runtime::Runtime rt(two_nodes());
  int resumed = 0;
  rt.spawn_on(0, [&rt, &resumed] {
    Scheduler* sched = Scheduler::current_scheduler();
    Pcb* self = Scheduler::current_pcb();
    const ProcId pid = self->id;
    const std::uint32_t first_epoch = self->block_epoch + 1;
    // First block: a wakeup for this epoch plus a duplicate later.
    Scheduler::block_current([sched, pid, first_epoch] {
      sched->simulator().schedule_after(ms(1), [sched, pid, first_epoch] {
        sched->resume(pid, first_epoch);
      });
      // The duplicate arrives during the *second* block, with the old
      // epoch: it must not wake the process.
      sched->simulator().schedule_after(ms(10), [sched, pid, first_epoch] {
        sched->resume(pid, first_epoch);
      });
    });
    ++resumed;
    // Second block: only the correct-epoch wakeup works.
    const std::uint32_t second_epoch = self->block_epoch + 1;
    Scheduler::block_current([sched, pid, second_epoch] {
      sched->simulator().schedule_after(ms(30), [sched, pid, second_epoch] {
        sched->resume(pid, second_epoch);
      });
    });
    ++resumed;
    (void)rt;
  });
  rt.run();
  EXPECT_EQ(resumed, 2);
  EXPECT_GE(rt.now(), ms(30));  // the stale wakeup did not cut it short
}

TEST(ProcTest, LoadBalancerSpreadsWork) {
  runtime::Config cfg;
  cfg.nodes = 4;
  cfg.heap_pages = 256;
  cfg.stack_region_pages = 256;
  cfg.sched.load_balancing = true;
  cfg.sched.lower_threshold = 1;
  cfg.sched.upper_threshold = 2;
  cfg.sched.lb_interval = ms(10);
  runtime::Runtime rt(cfg);

  auto where = rt.alloc_array<std::uint32_t>(12);
  for (int i = 0; i < 12; ++i) {
    rt.spawn([i, where]() mutable {
      for (int s = 0; s < 200; ++s) charge_compute(25);
      where[static_cast<std::size_t>(i)] = self_node();
    });
  }
  rt.run();
  EXPECT_GT(rt.stats().total(Counter::kMigrations), 0u);
  std::set<std::uint32_t> nodes_used;
  for (int i = 0; i < 12; ++i) {
    nodes_used.insert(rt.host_read(where, static_cast<std::size_t>(i)));
  }
  EXPECT_GE(nodes_used.size(), 3u);
}

TEST(ProcTest, NonMigratableProcessesStayHome) {
  runtime::Config cfg;
  cfg.nodes = 4;
  cfg.heap_pages = 256;
  cfg.stack_region_pages = 256;
  cfg.sched.load_balancing = true;
  cfg.sched.lower_threshold = 1;
  cfg.sched.upper_threshold = 2;
  cfg.sched.lb_interval = ms(10);
  runtime::Runtime rt(cfg);

  auto where = rt.alloc_array<std::uint32_t>(8);
  for (int i = 0; i < 8; ++i) {
    rt.spawn_on(0,
                [i, where]() mutable {
                  for (int s = 0; s < 200; ++s) charge_compute(25);
                  where[static_cast<std::size_t>(i)] = self_node();
                },
                /*migratable=*/false);
  }
  rt.run();
  EXPECT_EQ(rt.stats().total(Counter::kMigrations), 0u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(rt.host_read(where, static_cast<std::size_t>(i)), 0u);
  }
}

TEST(ProcTest, MigratedProcessKeepsItsStackPageContents) {
  // The migrating process owns its current stack page (spawn touched
  // it); after migration the transfer must leave the page owned by the
  // destination with its body intact.
  runtime::Config cfg;
  cfg.nodes = 2;
  cfg.heap_pages = 256;
  cfg.stack_region_pages = 128;
  cfg.sched.load_balancing = true;
  cfg.sched.lower_threshold = 1;
  cfg.sched.upper_threshold = 1;  // node 0 gives work away eagerly
  cfg.sched.lb_interval = ms(5);
  runtime::Runtime rt(cfg);

  auto out = rt.alloc_array<std::uint32_t>(4);
  for (int i = 0; i < 4; ++i) {
    rt.spawn_on(0, [i, out]() mutable {
      Pcb* self = proc::Scheduler::current_pcb();
      const SvmAddr stack = self->stack_base;
      // Write a marker into our own SVM stack page.
      proc::svm_write<std::uint64_t>(stack + 64, 0xabcd0000u + i);
      for (int s = 0; s < 100; ++s) charge_compute(25);
      // Still readable wherever we ended up (possibly after migration —
      // note current_pcb()->stack_base travels with the PCB).
      const auto marker = proc::svm_read<std::uint64_t>(
          proc::Scheduler::current_pcb()->stack_base + 64);
      EXPECT_EQ(marker, 0xabcd0000u + i);
      out[static_cast<std::size_t>(i)] = self_node();
    });
  }
  rt.run();
  EXPECT_GT(rt.stats().total(Counter::kMigrations), 0u);
  bool any_moved = false;
  for (int i = 0; i < 4; ++i) {
    any_moved = any_moved ||
                rt.host_read(out, static_cast<std::size_t>(i)) != 0u;
  }
  EXPECT_TRUE(any_moved);
  rt.check_coherence_invariants();
}

TEST(ProcTest, ForwardingPointerRoutesWakeupAfterMigration) {
  // A process records its original PID, migrates, then waits on an
  // eventcount; the advance (which stored the *new* PID) plus a direct
  // resume of the old PID must both find it.
  runtime::Config cfg;
  cfg.nodes = 2;
  cfg.heap_pages = 256;
  cfg.stack_region_pages = 128;
  cfg.sched.load_balancing = true;
  cfg.sched.lower_threshold = 1;
  cfg.sched.upper_threshold = 1;
  cfg.sched.lb_interval = ms(5);
  runtime::Runtime rt(cfg);

  auto moved = rt.alloc_scalar<std::uint32_t>();
  // Two processes so node 0 is "overloaded" and gives one away.
  for (int i = 0; i < 3; ++i) {
    rt.spawn_on(0, [i, moved, &rt]() mutable {
      const ProcId original = current_pid();
      for (int s = 0; s < 100; ++s) charge_compute(25);
      if (current_pid().home != original.home) {
        moved.set(moved.get() + 1);
        // Wait for a wakeup addressed to the ORIGINAL pid.
        proc::Scheduler* sched = proc::Scheduler::current_scheduler();
        const std::uint32_t epoch =
            proc::Scheduler::current_pcb()->block_epoch + 1;
        proc::Scheduler::block_current([&rt, original, epoch] {
          rt.scheduler(original.home)
              .simulator()
              .schedule_after(ms(3), [&rt, original, epoch] {
                rt.scheduler(original.home).resume(original, epoch);
              });
        });
        (void)sched;
      }
    });
  }
  rt.run();
  EXPECT_GE(rt.host_read<std::uint32_t>(moved.address()), 1u);
}

TEST(ProcTest, MigrationRespectsUpperThreshold) {
  runtime::Config cfg;
  cfg.nodes = 2;
  cfg.heap_pages = 256;
  cfg.stack_region_pages = 256;
  cfg.sched.load_balancing = true;
  cfg.sched.lower_threshold = 1;
  cfg.sched.upper_threshold = 100;  // never above: all requests refused
  cfg.sched.lb_interval = ms(5);
  runtime::Runtime rt(cfg);
  for (int i = 0; i < 6; ++i) {
    rt.spawn_on(0, [] {
      for (int s = 0; s < 50; ++s) charge_compute(25);
    });
  }
  rt.run();
  EXPECT_EQ(rt.stats().total(Counter::kMigrations), 0u);
}

}  // namespace
}  // namespace ivy::proc
