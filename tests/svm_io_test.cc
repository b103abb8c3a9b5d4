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

}  // namespace
}  // namespace ivy::proc
