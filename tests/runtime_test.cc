// Tests for the runtime facade: configuration validation, address-space
// layout, host-side access, determinism of whole runs, and the
// invariant auditor itself.
#include <gtest/gtest.h>

#include "ivy/apps/msort.h"
#include "ivy/apps/tsp.h"
#include "ivy/ivy.h"

namespace ivy::runtime {
namespace {

Config small(NodeId nodes) {
  Config cfg;
  cfg.nodes = nodes;
  cfg.heap_pages = 256;
  cfg.stack_region_pages = 64;
  return cfg;
}

TEST(ConfigTest, GeometryCoversHeapAndStacks) {
  Config cfg = small(4);
  EXPECT_EQ(cfg.total_pages(), 256u + 4u * 64u);
  EXPECT_EQ(cfg.geometry().size_bytes(),
            static_cast<SvmAddr>(cfg.total_pages()) * cfg.page_size);
}

TEST(ConfigDeathTest, RejectsBadConfigs) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto with = [](auto mutate) {
    Config cfg;
    cfg.heap_pages = 16;
    mutate(cfg);
    Runtime rt(cfg);
  };
  EXPECT_DEATH(with([](Config& c) { c.nodes = 0; }), "IVY_CHECK");
  EXPECT_DEATH(with([](Config& c) { c.nodes = 65; }), "IVY_CHECK");
  EXPECT_DEATH(with([](Config& c) { c.page_size = 100; }), "IVY_CHECK");
  EXPECT_DEATH(with([](Config& c) { c.page_size = 128; }), "IVY_CHECK");
  EXPECT_DEATH(with([](Config& c) { c.manager_node = 7; }), "IVY_CHECK");
  EXPECT_DEATH(with([](Config& c) { c.chunk_bytes = 1000; }), "IVY_CHECK");
}

TEST(RuntimeTest, HostWriteThenProcessRead) {
  Runtime rt(small(2));
  auto data = rt.alloc_array<int>(64);
  for (std::size_t i = 0; i < 64; ++i) {
    rt.host_write<int>(data.address_of(i), static_cast<int>(i * 7));
  }
  int sum = 0;
  rt.spawn_on(1, [&sum, data]() mutable {
    for (std::size_t i = 0; i < 64; ++i) sum += data[i];
  });
  rt.run();
  EXPECT_EQ(sum, 7 * (63 * 64) / 2);
}

TEST(RuntimeTest, HostReadFindsDataWhereverItLives) {
  Runtime rt(small(4));
  auto data = rt.alloc_array<std::uint64_t>(256);
  auto bar = rt.create_barrier(4);
  for (NodeId n = 0; n < 4; ++n) {
    rt.spawn_on(n, [=]() mutable {
      for (std::size_t i = n; i < 256; i += 4) {
        data[i] = i * 3;
      }
      bar.arrive(0);
    });
  }
  rt.run();
  for (std::size_t i = 0; i < 256; ++i) {
    ASSERT_EQ(rt.host_read(data, i), i * 3);
  }
}

// Host-written pages through a few strict-LRU frames.  Page A is paged
// back in, optionally host-written, then pushed out again; returns the
// disk writes that push made and checks A's contents.
std::uint64_t write_back_of_paged_in_page(bool host_write) {
  constexpr std::size_t kFrames = 5;
  Config cfg = small(1);
  cfg.frames_per_node = kFrames;
  cfg.replacement = mem::ReplacementPolicy::kStrictLru;
  Runtime rt(cfg);
  const std::size_t per_page = cfg.page_size / sizeof(std::uint64_t);
  auto data = rt.alloc_array<std::uint64_t>((2 * kFrames + 1) * per_page);
  const auto put = [&](std::size_t i, std::uint64_t v) {
    rt.host_write(data.address_of(i), v);
  };
  // A (page 0) goes to disk when page kFrames arrives; bring it back.
  for (std::size_t p = 0; p <= kFrames; ++p) put(p * per_page, p);
  svm::Svm& svm = rt.svm(0);
  const PageId a = svm.geometry().page_of(data.address_of(0));
  EXPECT_TRUE(svm.table().at(a).on_disk);
  svm.request_access(a, svm::Access::kRead, [] {});
  rt.drain();
  if (host_write) put(1, 99);
  // A is now the most recently used frame: kFrames new pages push it out.
  const std::uint64_t before = rt.stats().total(Counter::kDiskWrites);
  for (std::size_t p = kFrames + 1; p <= 2 * kFrames; ++p) {
    put(p * per_page, p);
  }
  const std::uint64_t writes = rt.stats().total(Counter::kDiskWrites) - before;
  EXPECT_TRUE(svm.table().at(a).on_disk);
  // Host reads of a spilled page are not disk transfers.
  const std::uint64_t reads = rt.stats().total(Counter::kDiskReads);
  EXPECT_EQ(rt.host_read(data, 1), host_write ? 99u : 0u);
  EXPECT_EQ(rt.stats().total(Counter::kDiskReads), reads);
  return writes;
}

TEST(RuntimeTest, HostWriteAfterPageInIsWrittenBack) {
  EXPECT_EQ(write_back_of_paged_in_page(true),
            write_back_of_paged_in_page(false) + 1);
}

TEST(RuntimeTest, AllocRawExhaustionAborts) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Runtime rt(small(1));
        (void)rt.alloc_raw(1024u * 1024u * 1024u);
      },
      "exhausted");
}

TEST(RuntimeTest, FreeRawReturnsMemory) {
  Runtime rt(small(1));
  const SvmAddr a = rt.alloc_raw(1024);
  rt.free_raw(a);
  const SvmAddr b = rt.alloc_raw(1024);
  EXPECT_EQ(a, b);
}

TEST(RuntimeTest, MultiplePhasesShareOneMachine) {
  Runtime rt(small(2));
  auto v = rt.alloc_scalar<int>();
  rt.spawn_on(0, [=]() mutable { v.set(1); });
  rt.run();
  EXPECT_EQ(rt.host_read<int>(v.address()), 1);
  rt.spawn_on(1, [=]() mutable { v.set(v.get() + 1); });
  rt.run();
  EXPECT_EQ(rt.host_read<int>(v.address()), 2);
  rt.check_coherence_invariants();
}

TEST(RuntimeTest, StatsEpochIntegration) {
  Runtime rt(small(2));
  auto data = rt.alloc_array<int>(512);
  rt.spawn_on(1, [=, &rt]() mutable {
    for (std::size_t i = 0; i < 512; ++i) data[i] = 1;
    rt.mark_epoch();
    for (std::size_t i = 0; i < 512; ++i) data[i] = 2;
    rt.mark_epoch();
  });
  rt.run();
  ASSERT_EQ(rt.stats().epoch_count(), 2u);
  // Epoch 1: node 1 pulled the pages over (write faults); epoch 2: it
  // already owned everything.
  EXPECT_GT(rt.stats().epoch(0).get(Counter::kWriteFaults),
            rt.stats().epoch(1).get(Counter::kWriteFaults));
}

// --- determinism ------------------------------------------------------------

struct RunFingerprint {
  Time end_time;
  std::uint64_t messages;
  std::uint64_t faults;
  std::uint64_t events;

  friend bool operator==(const RunFingerprint&,
                         const RunFingerprint&) = default;
};

RunFingerprint fingerprint_run(std::uint64_t seed) {
  Config cfg = small(4);
  cfg.seed = seed;
  cfg.frames_per_node = 96;  // include replacement in the fingerprint
  Runtime rt(cfg);
  apps::MsortParams p;
  p.records = 1024;
  p.seed = seed;
  const apps::RunOutcome out = run_msort(rt, p);
  EXPECT_TRUE(out.verified);
  rt.drain();
  return RunFingerprint{
      rt.now(),
      rt.stats().total(Counter::kMessages),
      rt.stats().total(Counter::kReadFaults) +
          rt.stats().total(Counter::kWriteFaults),
      rt.simulator().events_executed()};
}

TEST(Determinism, IdenticalSeedsIdenticalRuns) {
  const RunFingerprint a = fingerprint_run(123);
  const RunFingerprint b = fingerprint_run(123);
  EXPECT_EQ(a, b);
}

TEST(Determinism, DifferentSeedsDifferentData) {
  // Different input data changes the work actually done.  (The sort's
  // charge profile is data-independent, so use the branch-and-bound
  // search, whose tree shape depends on the weights.)
  auto tsp_time = [](std::uint64_t seed) {
    Config cfg = small(2);
    cfg.heap_pages = 1024;  // room for the branch pool
    Runtime rt(cfg);
    apps::TspParams p;
    p.cities = 8;
    p.seed = seed;
    const apps::RunOutcome out = run_tsp(rt, p);
    EXPECT_TRUE(out.verified);
    return out.elapsed;
  };
  EXPECT_NE(tsp_time(1), tsp_time(2));
}

// --- invariant auditor sanity -------------------------------------------------

TEST(InvariantAuditor, CleanMachinePasses) {
  Runtime rt(small(3));
  rt.check_coherence_invariants();
}

TEST(Diagnostics, DumpStateReportsNonQuiescentPages) {
  Runtime rt(small(2));
  EXPECT_EQ(rt.dump_state().find("page"), std::string::npos);
  // Forge a mid-fault entry and expect it in the dump.
  rt.svm(1).table().at(5).fault_in_progress = true;
  const std::string dump = rt.dump_state();
  EXPECT_NE(dump.find("page 5"), std::string::npos);
  EXPECT_NE(dump.find("fault=1"), std::string::npos);
  rt.svm(1).table().at(5).fault_in_progress = false;
}

TEST(InvariantAuditor, DetectsCorruptedOwnership) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Runtime rt(small(2));
        // Forge a second owner.
        rt.svm(1).table().at(3).owned = true;
        rt.check_coherence_invariants();
      },
      "two owners");
  EXPECT_DEATH(
      {
        Runtime rt(small(2));
        // Forge a rogue writer that is not the owner.
        rt.svm(1).table().at(3).access = svm::Access::kWrite;
        rt.check_coherence_invariants();
      },
      "non-owner");
}

}  // namespace
}  // namespace ivy::runtime
