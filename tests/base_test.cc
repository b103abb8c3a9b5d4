// Unit tests for the base substrate: deterministic RNG, node sets,
// counters and epochs, and the flat bookkeeping containers.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <set>

#include "ivy/base/check.h"
#include "ivy/base/flat_set.h"
#include "ivy/base/ring_deque.h"
#include "ivy/base/rng.h"
#include "ivy/base/stats.h"
#include "ivy/base/types.h"

namespace ivy {
namespace {

TEST(Check, FailureNamesTheConditionAndOperands) {
  const int have = 3;
  EXPECT_DEATH(IVY_CHECK_LT(have, 1),
               "IVY_CHECK failed at .*: \\(have\\) < \\(1\\) — lhs=3 rhs=1");
}

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) ASSERT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowCoversSmallRangeEventually) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 300; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInHalfOpenUnitInterval) {
  Rng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ForkIsIndependent) {
  Rng parent(9);
  Rng child = parent.fork();
  Rng parent2(9);
  (void)parent2.fork();
  // The fork consumed one draw; parent and parent2 stay in lock step.
  EXPECT_EQ(parent(), parent2());
  // Child stream differs from the parent's continuation.
  Rng child2 = child;
  EXPECT_EQ(child(), child2());
}

TEST(RingDeque, MatchesADequeAcrossGrowthAndWrap) {
  RingDeque<int> ring;
  std::deque<int> model;
  Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    switch (rng.below(4)) {
      case 0:
        ring.push_front(i);
        model.push_front(i);
        break;
      case 1:
        ring.push_back(i);
        model.push_back(i);
        break;
      case 2:
        if (model.empty()) break;
        ring.pop_front();
        model.pop_front();
        break;
      default: {
        if (model.empty()) break;
        const std::size_t at = rng.below(model.size());
        ring.erase(at);
        model.erase(model.begin() + static_cast<std::ptrdiff_t>(at));
      }
    }
    ASSERT_EQ(ring.size(), model.size());
    ASSERT_EQ(ring.empty(), model.empty());
    for (std::size_t j = 0; j < model.size(); ++j) {
      ASSERT_EQ(ring[j], model[j]);
    }
  }
}

TEST(RingDeque, PopAndEraseReleaseTheElement) {
  RingDeque<std::shared_ptr<int>> ring;
  const auto a = std::make_shared<int>(1);
  const auto b = std::make_shared<int>(2);
  ring.push_back(a);
  ring.push_back(b);
  ring.pop_front();
  EXPECT_EQ(a.use_count(), 1);
  ring.erase(0);
  EXPECT_EQ(b.use_count(), 1);
  EXPECT_TRUE(ring.empty());
}

TEST(FlatSet, MatchesASetUnderChurn) {
  // Few distinct keys, so probe runs collide and erasure shifts them.
  FlatSet set;
  std::set<std::uint64_t> model;
  Rng rng(29);
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t key = 1 + rng.below(300);
    if (rng.below(2) == 0) {
      ASSERT_EQ(set.insert(key), model.insert(key).second);
    } else {
      ASSERT_EQ(set.erase(key), model.erase(key) == 1);
    }
    ASSERT_EQ(set.size(), model.size());
    if (i % 97 == 0) {
      for (std::uint64_t k = 1; k <= 300; ++k) {
        ASSERT_EQ(set.contains(k), model.contains(k));
      }
    }
  }
}

TEST(FlatSet, EmptySetHoldsNothing) {
  FlatSet set;
  EXPECT_FALSE(set.contains(7));
  EXPECT_FALSE(set.erase(7));
  EXPECT_TRUE(set.insert(7));
  EXPECT_FALSE(set.insert(7));
  EXPECT_TRUE(set.erase(7));
  EXPECT_EQ(set.size(), 0u);
}

TEST(NodeSet, BasicOperations) {
  NodeSet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0);
  s.add(0);
  s.add(5);
  s.add(63);
  EXPECT_EQ(s.count(), 3);
  EXPECT_TRUE(s.contains(0));
  EXPECT_TRUE(s.contains(5));
  EXPECT_TRUE(s.contains(63));
  EXPECT_FALSE(s.contains(1));
  s.remove(5);
  EXPECT_FALSE(s.contains(5));
  EXPECT_EQ(s.count(), 2);
  s.add(63);  // idempotent
  EXPECT_EQ(s.count(), 2);
}

TEST(NodeSet, ForEachVisitsAscending) {
  NodeSet s;
  s.add(7);
  s.add(1);
  s.add(42);
  std::vector<NodeId> seen;
  s.for_each([&](NodeId n) { seen.push_back(n); });
  EXPECT_EQ(seen, (std::vector<NodeId>{1, 7, 42}));
}

TEST(NodeSet, UnionAndClear) {
  NodeSet a, b;
  a.add(1);
  b.add(2);
  a |= b;
  EXPECT_TRUE(a.contains(1));
  EXPECT_TRUE(a.contains(2));
  a.clear();
  EXPECT_TRUE(a.empty());
}

TEST(Stats, PerNodeAndTotals) {
  Stats stats(3);
  stats.bump(0, Counter::kMessages);
  stats.bump(1, Counter::kMessages, 4);
  stats.bump(2, Counter::kReadFaults);
  EXPECT_EQ(stats.node_total(0, Counter::kMessages), 1u);
  EXPECT_EQ(stats.node_total(1, Counter::kMessages), 4u);
  EXPECT_EQ(stats.total(Counter::kMessages), 5u);
  EXPECT_EQ(stats.total(Counter::kReadFaults), 1u);
  EXPECT_EQ(stats.total(Counter::kWriteFaults), 0u);
}

TEST(Stats, EpochsRecordDeltas) {
  Stats stats(2);
  stats.bump(0, Counter::kDiskReads, 10);
  EXPECT_EQ(stats.mark_epoch(), 0u);
  stats.bump(1, Counter::kDiskReads, 3);
  stats.bump(0, Counter::kDiskWrites, 1);
  EXPECT_EQ(stats.mark_epoch(), 1u);
  stats.mark_epoch();  // empty epoch

  ASSERT_EQ(stats.epoch_count(), 3u);
  EXPECT_EQ(stats.epoch(0).get(Counter::kDiskReads), 10u);
  EXPECT_EQ(stats.epoch(1).get(Counter::kDiskReads), 3u);
  EXPECT_EQ(stats.epoch(1).get(Counter::kDiskWrites), 1u);
  EXPECT_EQ(stats.epoch(2).get(Counter::kDiskReads), 0u);
}

TEST(Stats, SummaryListsNonZeroOnly) {
  Stats stats(1);
  stats.bump(0, Counter::kMigrations, 2);
  const std::string s = stats.summary();
  EXPECT_NE(s.find("migrations = 2"), std::string::npos);
  EXPECT_EQ(s.find("read_faults"), std::string::npos);
}

TEST(CounterNames, RosterMatchesEnum) {
  // Every counter has a distinct, non-empty name.
  const auto& names = counter_names();
  std::set<std::string> unique;
  for (const char* name : names) {
    ASSERT_NE(name, nullptr);
    ASSERT_GT(std::string(name).size(), 0u);
    unique.insert(name);
  }
  EXPECT_EQ(unique.size(), kCounterCount);
}

TEST(CounterNames, IndexAlignedWithEnum) {
  const auto& names = counter_names();
  EXPECT_STREQ(names[static_cast<std::size_t>(Counter::kReadFaults)],
               "read_faults");
  EXPECT_STREQ(names[static_cast<std::size_t>(Counter::kOwnershipTransfers)],
               "ownership_transfers");
  EXPECT_STREQ(names[static_cast<std::size_t>(Counter::kMigrations)],
               "migrations");
  EXPECT_STREQ(names[static_cast<std::size_t>(Counter::kFreeCalls)],
               "free_calls");
}

TEST(HistNames, RosterMatchesEnum) {
  const auto& names = hist_names();
  std::set<std::string> unique;
  for (const char* name : names) {
    ASSERT_NE(name, nullptr);
    ASSERT_GT(std::string(name).size(), 0u);
    unique.insert(name);
  }
  EXPECT_EQ(unique.size(), kHistCount);
  EXPECT_STREQ(names[static_cast<std::size_t>(Hist::kFaultResolution)],
               "fault_resolution_ns");
  EXPECT_STREQ(names[static_cast<std::size_t>(Hist::kDiskStall)],
               "disk_stall_ns");
}

TEST(Histogram, BucketBoundaries) {
  // Bucket 0 = {0}; bucket b >= 1 = [2^(b-1), 2^b).
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  // Top bucket is open-ended: values past 2^63 clamp instead of indexing
  // out of range.
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 63u);
  EXPECT_EQ(Histogram::bucket_hi(63), ~std::uint64_t{0});

  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    // Each bucket's bounds contain exactly the values it receives.
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lo(b)), b);
    EXPECT_LT(Histogram::bucket_lo(b), Histogram::bucket_hi(b));
    if (b + 1 < Histogram::kBuckets) {
      EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_hi(b) - 1), b);
      EXPECT_EQ(Histogram::bucket_hi(b), Histogram::bucket_lo(b + 1));
    }
  }
}

TEST(Histogram, RecordAndStats) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);

  h.record(0);
  h.record(1);
  h.record(3);
  h.record(1000);
  h.record(-5);  // negative latencies clamp to zero
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1004u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 1004.0 / 5.0);
  EXPECT_EQ(h.bucket(0), 2u);   // 0 and the clamped -5
  EXPECT_EQ(h.bucket(1), 1u);   // 1
  EXPECT_EQ(h.bucket(2), 1u);   // 3
  EXPECT_EQ(h.bucket(10), 1u);  // 1000 in [512, 1024)
}

TEST(Histogram, MergeAddsCountsAndExtremes) {
  Histogram a;
  a.record(4);
  a.record(16);
  Histogram b;
  b.record(2);
  b.record(100);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.sum(), 122u);
  EXPECT_EQ(a.min(), 2u);
  EXPECT_EQ(a.max(), 100u);
  EXPECT_EQ(a.bucket(Histogram::bucket_of(2)), 1u);
  EXPECT_EQ(a.bucket(Histogram::bucket_of(4)), 1u);

  // Merging into an empty histogram takes the other's extremes.
  Histogram empty;
  empty.merge(a);
  EXPECT_EQ(empty.min(), 2u);
  EXPECT_EQ(empty.max(), 100u);
}

TEST(Stats, LatencyHistogramsPerNodeAndMerged) {
  Stats stats(2);
  stats.record_latency(0, Hist::kFaultResolution, 10);
  stats.record_latency(1, Hist::kFaultResolution, 30);
  stats.record_latency(1, Hist::kLockWait, 7);
  EXPECT_EQ(stats.node_hist(0, Hist::kFaultResolution).count(), 1u);
  EXPECT_EQ(stats.node_hist(1, Hist::kFaultResolution).count(), 1u);
  const Histogram merged = stats.hist(Hist::kFaultResolution);
  EXPECT_EQ(merged.count(), 2u);
  EXPECT_EQ(merged.sum(), 40u);
  EXPECT_EQ(merged.min(), 10u);
  EXPECT_EQ(merged.max(), 30u);
  EXPECT_EQ(stats.hist(Hist::kEcWait).count(), 0u);
}

TEST(Stats, NodeThatNeverRecordedReadsEmpty) {
  Stats stats(4);
  stats.record_latency(1, Hist::kFaultResolution, 12);
  stats.record_latency(3, Hist::kFaultResolution, 5);
  stats.record_latency(3, Hist::kFaultResolution, 900);
  for (NodeId n : {NodeId{0}, NodeId{2}}) {
    for (std::size_t h = 0; h < kHistCount; ++h) {
      const Histogram& empty = stats.node_hist(n, static_cast<Hist>(h));
      EXPECT_EQ(empty.count(), 0u) << "node " << n << " hist " << h;
      EXPECT_EQ(empty.sum(), 0u);
      EXPECT_EQ(empty.percentile(0.99), 0u);
    }
  }
  // A recording node's other histograms are empty too.
  EXPECT_EQ(stats.node_hist(1, Hist::kLockWait).count(), 0u);
  // The merge equals the merge of the recording nodes alone.
  Histogram expect;
  expect.merge(stats.node_hist(1, Hist::kFaultResolution));
  expect.merge(stats.node_hist(3, Hist::kFaultResolution));
  const Histogram merged = stats.hist(Hist::kFaultResolution);
  EXPECT_EQ(merged.count(), expect.count());
  EXPECT_EQ(merged.sum(), expect.sum());
  EXPECT_EQ(merged.min(), 5u);
  EXPECT_EQ(merged.max(), 900u);
  for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
    EXPECT_EQ(merged.bucket(b), expect.bucket(b)) << "bucket " << b;
  }
}

TEST(Types, TimeLiteralHelpers) {
  EXPECT_EQ(us(1), 1000);
  EXPECT_EQ(ms(1), 1'000'000);
  EXPECT_EQ(sec(2), 2'000'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(ms(1500)), 1.5);
}

TEST(Types, ProcIdEqualityAndHash) {
  const ProcId a{1, 2, 3};
  const ProcId b{1, 2, 3};
  const ProcId c{1, 2, 4};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_EQ(std::hash<ProcId>{}(a), std::hash<ProcId>{}(b));
  EXPECT_NE(std::hash<ProcId>{}(a), std::hash<ProcId>{}(c));
}

}  // namespace
}  // namespace ivy
