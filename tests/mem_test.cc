// Unit tests for the physical memory substrate: frame pool (both
// replacement policies, pinning, skip), paging disk.
#include <gtest/gtest.h>

#include <cstring>

#include "ivy/mem/disk.h"
#include "ivy/mem/frame_pool.h"

namespace ivy::mem {
namespace {

constexpr std::size_t kPage = 256;

class FramePoolTest : public testing::Test {
 protected:
  FramePool make(std::size_t capacity,
                 ReplacementPolicy policy = ReplacementPolicy::kStrictLru) {
    FramePool pool(0, kPage, capacity, policy, /*seed=*/7);
    pool.set_evict_callback(
        [this](PageId page, std::span<const std::byte>) {
          evicted_.push_back(page);
          return FramePool::EvictAction::kDrop;
        });
    return pool;
  }

  std::vector<PageId> evicted_;
};

TEST_F(FramePoolTest, AcquireZeroFillsAndLookupFinds) {
  FramePool pool = make(4);
  std::byte* bytes = pool.acquire(10);
  ASSERT_NE(bytes, nullptr);
  for (std::size_t i = 0; i < kPage; ++i) {
    ASSERT_EQ(bytes[i], std::byte{0});
  }
  bytes[3] = std::byte{42};
  EXPECT_EQ(pool.lookup(10)[3], std::byte{42});
  EXPECT_TRUE(pool.resident(10));
  EXPECT_EQ(pool.lookup(11), nullptr);
}

TEST_F(FramePoolTest, AcquireIsIdempotentForResidentPage) {
  FramePool pool = make(4);
  std::byte* a = pool.acquire(5);
  a[0] = std::byte{1};
  std::byte* b = pool.acquire(5);
  EXPECT_EQ(a, b);
  EXPECT_EQ(b[0], std::byte{1});  // not re-zeroed
  EXPECT_EQ(pool.resident_count(), 1u);
}

TEST_F(FramePoolTest, StrictLruEvictsOldest) {
  FramePool pool = make(3);
  pool.acquire(1);
  pool.acquire(2);
  pool.acquire(3);
  (void)pool.lookup(1);  // 2 is now the oldest
  pool.acquire(4);
  ASSERT_EQ(evicted_.size(), 1u);
  EXPECT_EQ(evicted_[0], 2u);
  EXPECT_FALSE(pool.resident(2));
  EXPECT_TRUE(pool.resident(1));
}

TEST_F(FramePoolTest, ReleaseSkipsEvictCallback) {
  FramePool pool = make(2);
  pool.acquire(1);
  pool.release(1);
  EXPECT_TRUE(evicted_.empty());
  EXPECT_FALSE(pool.resident(1));
  pool.release(99);  // releasing a non-resident page is a no-op
}

TEST_F(FramePoolTest, PinnedFramesAreNotEvicted) {
  FramePool pool = make(2);
  pool.acquire(1);
  pool.acquire(2);
  pool.pin(1);
  pool.acquire(3);  // must evict 2, not the pinned (and older) 1
  ASSERT_EQ(evicted_, (std::vector<PageId>{2}));
  pool.unpin(1);
  pool.acquire(4);
  EXPECT_EQ(evicted_.size(), 2u);
}

TEST_F(FramePoolTest, SkipMovesToNextVictim) {
  FramePool pool(0, kPage, 2, ReplacementPolicy::kStrictLru, 7);
  PageId protected_page = 1;
  pool.set_evict_callback(
      [&](PageId page, std::span<const std::byte>) {
        if (page == protected_page) return FramePool::EvictAction::kSkip;
        evicted_.push_back(page);
        return FramePool::EvictAction::kDrop;
      });
  pool.acquire(1);
  pool.acquire(2);
  pool.acquire(3);  // strict LRU wants 1; the callback refuses; 2 goes
  EXPECT_EQ(evicted_, (std::vector<PageId>{2}));
  EXPECT_TRUE(pool.resident(1));
}

TEST_F(FramePoolTest, SampledLruEvictsSomethingOldish) {
  // Distributional check across seeds: among the first evictions, the
  // two-probe min-last-used policy must prefer the untouched (old) half
  // clearly more often than uniform random would.
  int old_evictions = 0;
  constexpr int kTrials = 40;
  for (int trial = 0; trial < kTrials; ++trial) {
    FramePool pool(0, kPage, 64, ReplacementPolicy::kSampledLru,
                   static_cast<std::uint64_t>(trial));
    std::vector<PageId> evicted;
    pool.set_evict_callback(
        [&evicted](PageId page, std::span<const std::byte>) {
          evicted.push_back(page);
          return FramePool::EvictAction::kDrop;
        });
    for (PageId p = 0; p < 64; ++p) pool.acquire(p);
    for (PageId p = 32; p < 64; ++p) (void)pool.lookup(p);
    for (PageId p = 100; p < 108; ++p) pool.acquire(p);
    for (PageId p : evicted) {
      if (p < 32) ++old_evictions;
    }
  }
  // 8 evictions per trial; expectation ~0.75 old per eviction vs 0.5 for
  // uniform.  0.65 cleanly separates the two.
  EXPECT_GE(old_evictions, static_cast<int>(kTrials * 8 * 0.65));
}

TEST_F(FramePoolTest, CyclicScanPathology) {
  // The reason both policies exist: cyclic access over capacity+1 pages.
  constexpr std::size_t kCap = 32;
  auto misses = [&](ReplacementPolicy policy) {
    evicted_.clear();
    FramePool pool = make(kCap, policy);
    for (int round = 0; round < 10; ++round) {
      for (PageId p = 0; p < kCap + 4; ++p) pool.acquire(p);
    }
    return evicted_.size();
  };
  const std::size_t strict = misses(ReplacementPolicy::kStrictLru);
  const std::size_t sampled = misses(ReplacementPolicy::kSampledLru);
  // Strict LRU misses essentially every access after warm-up; sampled
  // keeps most of the set resident.
  EXPECT_GT(strict, 300u);
  EXPECT_LT(sampled, strict * 2 / 3);
}

// release() fills the freed slot with the last frame; the moved page's
// slot must follow it, wherever in the page space it lies.
TEST_F(FramePoolTest, ReleaseMovesLastFrameAndKeepsEveryPageFound) {
  FramePool pool = make(8);
  // Pages in four different 256-page chunks, one far out.
  const std::vector<PageId> pages = {3, 700, 40000, 255, 256, 1u << 20};
  for (PageId p : pages) pool.acquire(p)[0] = static_cast<std::byte>(p % 251);
  const auto check_all = [&](const std::vector<PageId>& live) {
    for (PageId p : live) {
      ASSERT_TRUE(pool.resident(p)) << p;
      ASSERT_NE(pool.peek(p), nullptr) << p;
      EXPECT_EQ(pool.peek(p)[0], static_cast<std::byte>(p % 251)) << p;
      EXPECT_EQ(pool.lookup(p), pool.peek(p)) << p;
    }
    EXPECT_EQ(pool.resident_count(), live.size());
  };
  // Releasing the first frame moves the last (page 1<<20) into slot 0.
  pool.release(3);
  EXPECT_FALSE(pool.resident(3));
  EXPECT_EQ(pool.lookup(3), nullptr);
  check_all({700, 40000, 255, 256, 1u << 20});
  // Pin the last frame, then move it: unpin and release find it in its
  // new slot, and the pin count moved with it.
  pool.pin(256);
  pool.release(700);  // page 256 moves into slot 1
  check_all({40000, 255, 256, 1u << 20});
  pool.unpin(256);
  pool.release(256);  // page 255 moves into slot 1
  check_all({40000, 255, 1u << 20});
  // Releasing the last frame moves nothing; a release of an absent page
  // is a no-op.
  pool.release(40000);
  pool.release(40000);
  check_all({255, 1u << 20});
  // Re-acquiring a released page gives a fresh zeroed frame.
  std::byte* again = pool.acquire(700);
  EXPECT_EQ(again[0], std::byte{0});
  again[0] = static_cast<std::byte>(700 % 251);
  check_all({255, 1u << 20, 700});
  EXPECT_TRUE(evicted_.empty());
}

TEST(DiskTest, RoundTripsPageImages) {
  Stats stats(1);
  sim::CostModel costs;
  Disk disk(stats, costs, 0);
  std::vector<std::byte> out(kPage);
  std::vector<std::byte> in(kPage);
  for (std::size_t i = 0; i < kPage; ++i) {
    in[i] = static_cast<std::byte>(i & 0xff);
  }
  EXPECT_EQ(disk.write(7, in), costs.disk_io);
  EXPECT_TRUE(disk.holds(7));
  EXPECT_EQ(disk.read(7, out), costs.disk_io);
  EXPECT_EQ(std::memcmp(in.data(), out.data(), kPage), 0);
  EXPECT_EQ(stats.total(Counter::kDiskReads), 1u);
  EXPECT_EQ(stats.total(Counter::kDiskWrites), 1u);
  disk.discard(7);
  EXPECT_FALSE(disk.holds(7));
  EXPECT_EQ(disk.pages_stored(), 0u);
}

TEST(DiskTest, PeekIsNoTransfer) {
  Stats stats(1);
  sim::CostModel costs;
  Disk disk(stats, costs, 0);
  std::vector<std::byte> in(kPage, std::byte{5});
  disk.write(4, in);
  const std::span<const std::byte> image = disk.peek(4);
  ASSERT_EQ(image.size(), kPage);
  EXPECT_EQ(image[kPage - 1], std::byte{5});
  EXPECT_EQ(stats.total(Counter::kDiskReads), 0u);
}

TEST(DiskTest, OverwriteKeepsLatestImage) {
  Stats stats(1);
  sim::CostModel costs;
  Disk disk(stats, costs, 0);
  std::vector<std::byte> a(kPage, std::byte{1});
  std::vector<std::byte> b(kPage, std::byte{2});
  disk.write(3, a);
  disk.write(3, b);
  std::vector<std::byte> out(kPage);
  disk.read(3, out);
  EXPECT_EQ(out[0], std::byte{2});
  EXPECT_EQ(disk.pages_stored(), 1u);
}

}  // namespace
}  // namespace ivy::mem
