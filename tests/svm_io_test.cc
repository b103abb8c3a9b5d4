// Tests for a process's shared reference (proc::ensure_access and the
// typed svm_read / svm_write over it): each case runs inside a spawned
// process, so hits and faults take the real path — one Svm::reference per
// page, with its modify bit, recency touch and fault loop.
#include <gtest/gtest.h>

#include <array>

#include "ivy/ivy.h"

namespace ivy::proc {
namespace {

constexpr std::size_t kPage = 1024;

runtime::Config small_memory(NodeId nodes, std::size_t frames) {
  runtime::Config cfg;
  cfg.nodes = nodes;
  cfg.page_size = kPage;
  cfg.heap_pages = 64;
  cfg.stack_region_pages = 64;
  cfg.frames_per_node = frames;
  cfg.replacement = mem::ReplacementPolicy::kStrictLru;
  return cfg;
}

/// Start addresses of `count` consecutive whole heap pages.
std::vector<SvmAddr> whole_pages(runtime::Runtime& rt, std::size_t count) {
  const SvmAddr base = rt.alloc_raw((count + 1) * kPage);
  const SvmAddr first = (base + kPage - 1) / kPage * kPage;
  std::vector<SvmAddr> pages;
  for (std::size_t i = 0; i < count; ++i) pages.push_back(first + i * kPage);
  return pages;
}

PageId page_of(SvmAddr addr) { return static_cast<PageId>(addr / kPage); }

constexpr std::size_t kFrames = 5;

/// Disk writes the eviction of page 0 costs after it was paged back in
/// and then hit by a write (`write_hit`) or by a read.
std::uint64_t writes_of_last_eviction(bool write_hit) {
  runtime::Runtime rt(small_memory(1, kFrames));
  const std::vector<SvmAddr> p = whole_pages(rt, kFrames + 1);
  std::uint64_t writes = ~0ull;
  rt.spawn_on(0, [&] {
    for (std::size_t i = 0; i < kFrames; ++i) svm_write<double>(p[i], 1.0);
    (void)svm_read<double>(p[kFrames]);  // evicts page 0 (modified: written)
    (void)svm_read<double>(p[0]);  // page-in keeps its disk image
    if (write_hit) {
      svm_write<double>(p[0], 2.0);
    } else {
      (void)svm_read<double>(p[0]);
    }
    // Touch every other resident page, so page 0 is the LRU one.
    for (std::size_t i = 2; i <= kFrames; ++i) (void)svm_read<double>(p[i]);
    const std::uint64_t before = rt.stats().total(Counter::kDiskWrites);
    (void)svm_read<double>(p[1]);  // page-in; evicts page 0
    writes = rt.stats().total(Counter::kDiskWrites) - before;
  });
  rt.run();
  EXPECT_TRUE(rt.svm(0).table().at(page_of(p[0])).on_disk);
  EXPECT_EQ(rt.host_read<double>(p[0]), write_hit ? 2.0 : 1.0);
  return writes;
}

TEST(SvmIo, WriteHitOnAPagedInPageClearsTheModifyBit) {
  EXPECT_EQ(writes_of_last_eviction(/*write_hit=*/false), 0u);
  EXPECT_EQ(writes_of_last_eviction(/*write_hit=*/true), 1u);
}

TEST(SvmIo, ReadHitRefreshesRecencyUnderStrictLru) {
  for (const bool hit : {false, true}) {
    runtime::Runtime rt(small_memory(1, kFrames));
    const std::vector<SvmAddr> p = whole_pages(rt, kFrames + 1);
    rt.spawn_on(0, [&] {
      for (std::size_t i = 0; i < kFrames; ++i) svm_write<double>(p[i], 1.0);
      if (hit) (void)svm_read<double>(p[0]);
      (void)svm_read<double>(p[kFrames]);  // evicts the LRU page
    });
    rt.run();
    const mem::FramePool& frames = rt.svm(0).frames();
    EXPECT_EQ(frames.resident(page_of(p[0])), hit) << "hit=" << hit;
    EXPECT_EQ(frames.resident(page_of(p[1])), !hit) << "hit=" << hit;
    EXPECT_TRUE(frames.resident(page_of(p[kFrames])));
  }
}

TEST(SvmIo, ReferenceSpanningTwoPagesFaultsAndChecksBoth) {
  runtime::Runtime rt(small_memory(2, 64));
  const std::vector<SvmAddr> p = whole_pages(rt, 2);
  const SvmAddr across = p[1] - 8;  // 8 bytes on each page
  using Span = std::array<std::uint32_t, 4>;
  rt.host_write<Span>(across, Span{1, 2, 3, 4});
  Span seen{};
  rt.spawn_on(1, [&] {
    seen = svm_read<Span>(across);
    svm_write<Span>(across, Span{5, 6, 7, 8});
  });
  rt.run();
  EXPECT_EQ(seen, (Span{1, 2, 3, 4}));
  // Node 0 owned both pages: one read fault and one write upgrade each.
  EXPECT_EQ(rt.stats().node_total(1, Counter::kReadFaults), 2u);
  EXPECT_GE(rt.stats().node_total(1, Counter::kWriteFaults), 2u);
  EXPECT_TRUE(rt.svm(1).owns(page_of(p[0])));
  EXPECT_TRUE(rt.svm(1).owns(page_of(p[1])));
  EXPECT_EQ(rt.host_read<Span>(across), (Span{5, 6, 7, 8}));
}

TEST(SvmIo, TwoPageEventcountTakesWriteAccessToBothPages) {
  runtime::Runtime rt(small_memory(2, 64));
  sync::Eventcount ec = rt.create_eventcount(2);
  const PageId first = page_of(ec.address());
  std::int64_t seen = -1;
  rt.spawn_on(0, [&] { ec.init(); });
  rt.run();
  rt.spawn_on(1, [&] {
    ec.advance();
    seen = ec.read();
  });
  rt.run();
  EXPECT_EQ(seen, 1);
  EXPECT_TRUE(rt.svm(1).owns(first));
  EXPECT_TRUE(rt.svm(1).owns(first + 1));
  EXPECT_TRUE(rt.svm(1).has_access(first + 1, svm::Access::kWrite));
}

// --- the translation cache (Svm::reference) -------------------------------

constexpr std::array<svm::ManagerKind, 4> kManagers = {
    svm::ManagerKind::kCentralized, svm::ManagerKind::kFixedDistributed,
    svm::ManagerKind::kDynamicDistributed, svm::ManagerKind::kBroadcast};

// A page read twice in one slice is cached.  A remote writer invalidates
// it between two of the reader's slices, and the reader's next reference
// faults and reads the new value: the dispatcher's flush drops the
// translation.  The reader's frames hold a second page after the cached
// one, so a stale translation would reach that page's bytes.
TEST(SvmIoTlb, RemoteWriteBetweenSlicesInvalidatesACachedPage) {
  for (const svm::ManagerKind kind : kManagers) {
    SCOPED_TRACE(svm::to_string(kind));
    runtime::Config cfg = small_memory(2, 64);
    cfg.manager = kind;
    runtime::Runtime rt(cfg);
    const std::vector<SvmAddr> p = whole_pages(rt, 2);
    rt.host_write<double>(p[0], 1.0);
    rt.host_write<double>(p[1], 7.0);
    bool read_done = false;
    bool written = false;
    bool reader_done = false;
    std::array<double, 3> seen{};
    rt.spawn_on(1, [&] {
      seen[0] = svm_read<double>(p[0]);
      seen[1] = svm_read<double>(p[0]);  // second miss: cached
      (void)svm_read<double>(p[1]);
      read_done = true;
      while (!written) charge_compute(100);  // quantum yields
      seen[2] = svm_read<double>(p[0]);
      reader_done = true;
    });
    rt.spawn_on(0, [&] {
      while (!read_done) charge_compute(100);
      svm_write<double>(p[0], 2.0);
      written = true;
    });
    // Bounded: a stale translation can fault forever on a frame it no
    // longer names, which should fail the test, not hang it.
    sim::Simulator& sim = rt.simulator();
    sim.run_while([&] { return !reader_done && sim.now() < sec(60); });
    ASSERT_TRUE(reader_done);
    rt.run();
    EXPECT_EQ(seen, (std::array<double, 3>{1.0, 1.0, 2.0}));
    EXPECT_EQ(rt.stats().node_total(1, Counter::kReadFaults), 3u);
  }
}

// One slice caches page 0, then materializes a zero page that evicts it
// (Svm::zero_frame's flush).  The later reference in the same slice
// misses, restores page 0 from disk and reads what was written; a stale
// translation would reach the frame that moved into page 0's slot.
TEST(SvmIoTlb, ZeroFrameEvictionInsideASliceDropsTheCachedPage) {
  runtime::Runtime rt(small_memory(1, kFrames));
  const std::vector<SvmAddr> p = whole_pages(rt, kFrames + 1);
  double seen = 0.0;
  std::uint64_t reads = 0;
  rt.spawn_on(0, [&] {
    for (std::size_t i = 0; i < kFrames; ++i) {
      svm_write<double>(p[i], static_cast<double>(i + 1));
    }
    svm_write<double>(p[0], 10.0);
    svm_write<double>(p[0], 10.0);  // second miss: cached
    for (std::size_t i = 1; i < kFrames; ++i) (void)svm_read<double>(p[i]);
    svm_write<double>(p[kFrames], 6.0);  // zero page: evicts page 0 (LRU)
    EXPECT_TRUE(rt.svm(0).table().at(page_of(p[0])).on_disk);
    const std::uint64_t before = rt.stats().total(Counter::kDiskReads);
    seen = svm_read<double>(p[0]);
    reads = rt.stats().total(Counter::kDiskReads) - before;
  });
  rt.run();
  EXPECT_EQ(seen, 10.0);
  EXPECT_EQ(reads, 1u);
}

// A paged-in page is read twice in one slice (cached for reading) and then
// written: the write misses the read translation, so it clears the modify
// bit, and evicting the page writes it to disk.
TEST(SvmIoTlb, WriteAfterCachedReadsClearsTheModifyBit) {
  runtime::Runtime rt(small_memory(1, kFrames));
  const std::vector<SvmAddr> p = whole_pages(rt, kFrames + 1);
  std::uint64_t writes = ~0ull;
  rt.spawn_on(0, [&] {
    for (std::size_t i = 0; i < kFrames; ++i) svm_write<double>(p[i], 1.0);
    (void)svm_read<double>(p[kFrames]);  // evicts page 0 (modified: written)
    (void)svm_read<double>(p[0]);  // page-in keeps its disk image
    (void)svm_read<double>(p[0]);  // second miss: cached for reading
    (void)svm_read<double>(p[0]);  // a hit
    EXPECT_TRUE(rt.svm(0).table().at(page_of(p[0])).disk_current);
    svm_write<double>(p[0], 2.0);
    EXPECT_FALSE(rt.svm(0).table().at(page_of(p[0])).disk_current);
    for (std::size_t i = 2; i <= kFrames; ++i) (void)svm_read<double>(p[i]);
    const std::uint64_t before = rt.stats().total(Counter::kDiskWrites);
    (void)svm_read<double>(p[1]);  // page-in; evicts page 0
    writes = rt.stats().total(Counter::kDiskWrites) - before;
  });
  rt.run();
  EXPECT_EQ(writes, 1u);
  EXPECT_EQ(rt.host_read<double>(p[0]), 2.0);
}

// `waiters` local readers are granted a page together, so its post-fault
// grace is `waiters`.  The first to run references the page `waiters`
// times in one slice; each reference consumes one unit, because none is
// cached while a grace is pending (a cached hit would skip the grace).
TEST(SvmIoTlb, NoReferenceIsCachedBeforeTheGraceIsConsumed) {
  for (const int waiters : {2, 3}) {
    for (const svm::ManagerKind kind : kManagers) {
      SCOPED_TRACE(std::string(svm::to_string(kind)) + " waiters " +
                   std::to_string(waiters));
      runtime::Config cfg = small_memory(2, 64);
      cfg.manager = kind;
      runtime::Runtime rt(cfg);
      const std::vector<SvmAddr> p = whole_pages(rt, 1);
      const PageId page = page_of(p[0]);
      rt.host_write<double>(p[0], 3.0);
      std::vector<int> graces;
      for (int w = 0; w < waiters; ++w) {
        rt.spawn_on(1, [&] {
          (void)svm_read<double>(p[0]);
          if (!graces.empty()) return;  // not the first to run
          graces.push_back(rt.svm(1).table().at(page).grace);
          for (int r = 1; r < waiters; ++r) {
            (void)svm_read<double>(p[0]);
            graces.push_back(rt.svm(1).table().at(page).grace);
          }
        });
      }
      rt.run();
      std::vector<int> expected;
      for (int g = waiters - 1; g >= 0; --g) expected.push_back(g);
      EXPECT_EQ(graces, expected);
      EXPECT_EQ(rt.stats().node_total(1, Counter::kReadFaults), 1u);
    }
  }
}

// A flush bumps a 16-bit generation, and the entries are cleared when it
// wraps.  The reader caches page 0, a remote writer invalidates it, and
// the reader yields `flushes` times in all (one dispatch, so one flush,
// each) before it reads page 0 again.  At 65 536 flushes a generation that
// wrapped without clearing would name the cached entry again, and the read
// would hit a frame the node no longer holds instead of faulting.
TEST(SvmIoTlb, GenerationWrapClearsTheCache) {
  for (const int flushes : {65535, 65536, 65537}) {
    SCOPED_TRACE(flushes);
    runtime::Runtime rt(small_memory(2, 64));
    const std::vector<SvmAddr> p = whole_pages(rt, 1);
    rt.host_write<double>(p[0], 1.0);
    bool cached = false;
    bool written = false;
    double seen = 0.0;
    rt.spawn_on(1, [&] {
      (void)svm_read<double>(p[0]);
      (void)svm_read<double>(p[0]);  // second miss: cached
      cached = true;
      int yields = 0;
      for (; !written || yields < flushes; ++yields) {
        charge_compute(25);  // one quantum: a yield
      }
      seen = svm_read<double>(p[0]);
    });
    rt.spawn_on(0, [&] {
      while (!cached) charge_compute(25);
      svm_write<double>(p[0], 2.0);
      written = true;
    });
    rt.run();
    EXPECT_EQ(seen, 2.0);
    EXPECT_EQ(rt.stats().node_total(1, Counter::kReadFaults), 2u);
  }
}

}  // namespace
}  // namespace ivy::proc
