// ivy::prof — the cost-attribution profiler's core contract (every
// virtual nanosecond of every node lands in exactly one category), the
// busy/wait accounting model, the runtime integration across all four
// manager algorithms, the --prof-* flag plumbing, and the drift guards
// that keep the name rosters aligned with their enums.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ivy/apps/dotprod.h"
#include "ivy/prof/prof.h"
#include "ivy/runtime/flags.h"
#include "ivy/runtime/runtime.h"
#include "ivy/trace/trace.h"

namespace ivy {
namespace {

using prof::Cat;
using prof::Domain;
using prof::FaultLeg;
using prof::Profiler;

Time sum_cats(const Profiler& p, NodeId node) {
  Time sum = 0;
  for (std::size_t c = 0; c < prof::kCatCount; ++c) {
    sum += p.total(node, static_cast<Cat>(c));
  }
  return sum;
}

// --- the tentpole invariant -------------------------------------------

TEST(Prof, AttributionSumsToElapsedPerNode) {
  Profiler p(2);
  p.charge_busy(0, 0, 100, Cat::kCompute);
  p.begin_wait(0, Cat::kLockWait, Domain::kLock, 7, 100);
  p.end_wait(0, Domain::kLock, 7, 250);
  p.sync_to(300);

  EXPECT_EQ(p.total(0, Cat::kCompute), 100);
  EXPECT_EQ(p.total(0, Cat::kLockWait), 150);
  EXPECT_EQ(p.total(0, Cat::kIdle), 50);
  // Node 1 did nothing: all 300 ns are idle, none unaccounted.
  EXPECT_EQ(p.total(1, Cat::kIdle), 300);
  for (NodeId n = 0; n < 2; ++n) {
    EXPECT_EQ(p.accounted(n), 300);
    EXPECT_EQ(sum_cats(p, n), p.accounted(n));
  }
  std::string why;
  EXPECT_TRUE(p.self_check(&why)) << why;
}

TEST(Prof, OverlappingWaitsChargeTheHigherPriority) {
  Profiler p(1);
  // A barrier wait spans [0, 200); an rpc backoff overlaps [50, 150).
  // Backoff is the stricter cause, so it wins its overlap.
  p.begin_wait(0, Cat::kSyncWait, Domain::kSync, 1, 0);
  p.begin_wait(0, Cat::kBackoff, Domain::kRpc, 9, 50);
  p.end_wait(0, Domain::kRpc, 9, 150);
  p.end_wait(0, Domain::kSync, 1, 200);
  p.sync_to(200);

  EXPECT_EQ(p.total(0, Cat::kBackoff), 100);
  EXPECT_EQ(p.total(0, Cat::kSyncWait), 100);
  EXPECT_EQ(sum_cats(p, 0), 200);
}

TEST(Prof, BusySpansBeatWaits) {
  Profiler p(1);
  p.begin_wait(0, Cat::kSyncWait, Domain::kSync, 1, 0);
  p.charge_busy(0, 0, 80, Cat::kCompute);  // wait overlapped by busy work
  p.end_wait(0, Domain::kSync, 1, 120);
  p.sync_to(120);

  EXPECT_EQ(p.total(0, Cat::kCompute), 80);
  EXPECT_EQ(p.total(0, Cat::kSyncWait), 40);
  EXPECT_EQ(sum_cats(p, 0), 120);
}

TEST(Prof, NotedFiberChargesSplitTheDispatch) {
  Profiler p(1);
  p.note_fiber_charge(0, 30, Cat::kLockSpin);
  p.note_fiber_charge(0, 20, Cat::kDisk);
  p.note_fiber_charge(0, 10, Cat::kLockSpin);  // the unnoted 40: compute
  // Span [0, 5 + 100 + 7): switch cost, fiber charge, svm pending.
  p.commit_dispatch(0, 0, 5, 100, 7);

  EXPECT_EQ(p.total(0, Cat::kSchedOverhead), 5);
  EXPECT_EQ(p.total(0, Cat::kLockSpin), 40);
  EXPECT_EQ(p.total(0, Cat::kDisk), 20 + 7);  // scope charge + svm pending
  EXPECT_EQ(p.total(0, Cat::kCompute), 40);
  EXPECT_EQ(p.accounted(0), 112);
  EXPECT_EQ(sum_cats(p, 0), 112);
}

TEST(Prof, FaultLegRetagPreservesReadWriteFamily) {
  Profiler p(1);
  p.begin_wait(0, Cat::kReadFaultLocate, Domain::kPageFault, 42, 0);
  p.fault_leg(0, 42, FaultLeg::kTransfer, 60);
  p.end_wait(0, Domain::kPageFault, 42, 100);

  p.begin_wait(0, Cat::kWriteFaultLocate, Domain::kPageFault, 42, 100);
  p.fault_leg(0, 42, FaultLeg::kInvalidate, 170);
  p.end_wait(0, Domain::kPageFault, 42, 200);
  p.sync_to(200);

  EXPECT_EQ(p.total(0, Cat::kReadFaultLocate), 60);
  EXPECT_EQ(p.total(0, Cat::kReadFaultTransfer), 40);
  EXPECT_EQ(p.total(0, Cat::kWriteFaultLocate), 70);
  EXPECT_EQ(p.total(0, Cat::kWriteFaultInvalidate), 30);
  EXPECT_EQ(sum_cats(p, 0), 200);
}

TEST(Prof, SliceBinsSumToTotals) {
  Profiler p(1, /*slice=*/100);
  p.charge_busy(0, 0, 250, Cat::kCompute);
  p.begin_wait(0, Cat::kLockWait, Domain::kLock, 3, 250);
  p.end_wait(0, Domain::kLock, 3, 330);
  p.sync_to(330);

  const auto& bins = p.slices(0);
  ASSERT_EQ(bins.size(), 4u);  // [0,100) [100,200) [200,300) [300,400)
  EXPECT_EQ(bins[0][static_cast<std::size_t>(Cat::kCompute)], 100);
  EXPECT_EQ(bins[1][static_cast<std::size_t>(Cat::kCompute)], 100);
  EXPECT_EQ(bins[2][static_cast<std::size_t>(Cat::kCompute)], 50);
  EXPECT_EQ(bins[2][static_cast<std::size_t>(Cat::kLockWait)], 50);
  EXPECT_EQ(bins[3][static_cast<std::size_t>(Cat::kLockWait)], 30);
  // Bins reconcile with the aggregate totals, category by category.
  for (std::size_t c = 0; c < prof::kCatCount; ++c) {
    Time binned = 0;
    for (const auto& bin : bins) binned += bin[c];
    EXPECT_EQ(binned, p.total(0, static_cast<Cat>(c)));
  }
}

TEST(Prof, SyncToDoesNotFreezeFinalizeDoes) {
  Profiler p(1);
  p.charge_busy(0, 0, 50, Cat::kCompute);
  p.sync_to(100);
  EXPECT_FALSE(p.finalized());
  p.charge_busy(0, 100, 150, Cat::kCompute);  // still accepted
  p.finalize(200);
  EXPECT_TRUE(p.finalized());
  p.charge_busy(0, 200, 300, Cat::kCompute);  // ignored
  EXPECT_EQ(p.accounted(0), 200);
  EXPECT_EQ(p.total(0, Cat::kCompute), 100);
  EXPECT_EQ(sum_cats(p, 0), 200);
}

TEST(Prof, FoldedExportNamesTheLeaves) {
  Profiler p(1);
  p.charge_busy(0, 0, 100, Cat::kCompute);
  p.begin_wait(0, Cat::kReadFaultLocate, Domain::kPageFault, 42, 100);
  p.end_wait(0, Domain::kPageFault, 42, 150);
  p.sync_to(150);
  std::ostringstream out;
  p.write_folded(out);
  const std::string folded = out.str();
  EXPECT_NE(folded.find("node0;compute 100"), std::string::npos) << folded;
  EXPECT_NE(folded.find("node0;read_fault_locate;page42 50"),
            std::string::npos)
      << folded;
}

TEST(Prof, SnapshotMatchesLiveTotals) {
  Profiler p(2);
  p.charge_busy(0, 0, 70, Cat::kCompute);
  p.sync_to(100);
  const Profiler::Snapshot snap = p.snapshot();
  EXPECT_EQ(snap.accounted, 100);
  ASSERT_EQ(snap.totals.size(), 2u);
  EXPECT_EQ(snap.totals[0][static_cast<std::size_t>(Cat::kCompute)], 70);
  EXPECT_EQ(snap.totals[1][static_cast<std::size_t>(Cat::kIdle)], 100);
  // The snapshot is a copy: later accounting does not disturb it.
  p.sync_to(500);
  EXPECT_EQ(snap.accounted, 100);
}

// --- runtime integration ----------------------------------------------

class ProfManagerTest : public ::testing::TestWithParam<svm::ManagerKind> {};

TEST_P(ProfManagerTest, EveryNodeSumsToAccounted) {
  Config cfg;
  cfg.nodes = 4;
  cfg.heap_pages = 8192;
  cfg.manager = GetParam();
  cfg.prof_enabled = true;
  cfg.name = "prof_integration";
  Runtime rt(std::move(cfg));
  apps::DotprodParams params;
  params.n = 2048;
  const apps::RunOutcome outcome = apps::run_dotprod(rt, params);
  EXPECT_TRUE(outcome.verified) << outcome.detail;

  // run() took a snapshot at the program's finish line and self-checked;
  // re-verify the invariant from the outside on the snapshot.
  const Profiler::Snapshot* snap = rt.run_prof();
  ASSERT_NE(snap, nullptr);
  EXPECT_GT(snap->accounted, 0);
  ASSERT_EQ(snap->totals.size(), 4u);
  for (NodeId n = 0; n < 4; ++n) {
    Time sum = 0;
    for (std::size_t c = 0; c < prof::kCatCount; ++c) {
      sum += snap->totals[n][c];
    }
    EXPECT_EQ(sum, snap->accounted) << "node " << n;
  }
  // Some node did real work and some fault waiting happened somewhere.
  Time compute = 0;
  Time faults = 0;
  for (NodeId n = 0; n < 4; ++n) {
    compute += snap->totals[n][static_cast<std::size_t>(Cat::kCompute)];
    for (const Cat c : {Cat::kReadFaultLocate, Cat::kReadFaultTransfer,
                        Cat::kWriteFaultLocate, Cat::kWriteFaultTransfer,
                        Cat::kWriteFaultInvalidate}) {
      faults += snap->totals[n][static_cast<std::size_t>(c)];
    }
  }
  EXPECT_GT(compute, 0);
  EXPECT_GT(faults, 0);

  std::string why;
  ASSERT_NE(rt.prof(), nullptr);
  EXPECT_TRUE(rt.prof()->self_check(&why)) << why;
}

INSTANTIATE_TEST_SUITE_P(AllManagers, ProfManagerTest,
                         ::testing::Values(svm::ManagerKind::kCentralized,
                                           svm::ManagerKind::kFixedDistributed,
                                           svm::ManagerKind::kDynamicDistributed,
                                           svm::ManagerKind::kBroadcast));

TEST(ProfRuntime, DisabledByDefault) {
  Config cfg;
  cfg.nodes = 2;
  Runtime rt(std::move(cfg));
  EXPECT_EQ(rt.prof(), nullptr);
  EXPECT_EQ(rt.run_prof(), nullptr);
}

// --- flag plumbing ----------------------------------------------------

std::vector<char*> argv_of(std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return argv;
}

TEST(ProfFlags, RoundTripIntoConfig) {
  std::vector<std::string> args = {"prog", "--prof-out", "x.folded",
                                   "--prof-slice", "5ms"};
  auto argv = argv_of(args);
  int argc = static_cast<int>(argv.size());
  runtime::ObsFlags flags;
  std::string error;
  ASSERT_TRUE(runtime::parse_obs_flags(&argc, argv.data(), &flags, &error))
      << error;
  EXPECT_EQ(argc, 1);  // everything consumed
  EXPECT_EQ(flags.prof_out, "x.folded");
  EXPECT_EQ(flags.prof_slice, 5'000'000);
  EXPECT_TRUE(flags.profiling());
  EXPECT_TRUE(flags.any());

  Config cfg;
  flags.apply(cfg);
  EXPECT_TRUE(cfg.prof_enabled);
  EXPECT_EQ(cfg.prof_slice, 5'000'000);
}

TEST(ProfFlags, EqualsSpellingAndUnitSuffixes) {
  std::vector<std::string> args = {"prog", "--prof-slice=250us"};
  auto argv = argv_of(args);
  int argc = static_cast<int>(argv.size());
  runtime::ObsFlags flags;
  std::string error;
  ASSERT_TRUE(runtime::parse_obs_flags(&argc, argv.data(), &flags, &error))
      << error;
  EXPECT_EQ(flags.prof_slice, 250'000);
  // A slice alone also arms the profiler (timeline without folded file).
  EXPECT_TRUE(flags.profiling());
  Config cfg;
  flags.apply(cfg);
  EXPECT_TRUE(cfg.prof_enabled);
}

TEST(ProfFlags, RejectsBadSliceValues) {
  for (const char* bad : {"0", "-3ms", "soon", "5parsecs"}) {
    std::vector<std::string> args = {"prog", "--prof-slice", bad};
    auto argv = argv_of(args);
    int argc = static_cast<int>(argv.size());
    runtime::ObsFlags flags;
    std::string error;
    EXPECT_FALSE(
        runtime::parse_obs_flags(&argc, argv.data(), &flags, &error))
        << bad;
    EXPECT_FALSE(error.empty());
  }
}

// --- percentiles ------------------------------------------------------

TEST(HistogramPercentile, OrderedAndClampedToRange) {
  Histogram h;
  for (Time v = 1; v <= 1000; ++v) h.record(v);
  const auto p50 = h.percentile(0.50);
  const auto p90 = h.percentile(0.90);
  const auto p99 = h.percentile(0.99);
  EXPECT_LE(h.min(), p50);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, h.max());
  // Log-bucket estimates: right order of magnitude, never past the max.
  EXPECT_GT(p50, 256u);
  EXPECT_EQ(h.percentile(1.0), 1000u);
  EXPECT_EQ(h.percentile(0.0), 1u);
}

TEST(HistogramPercentile, EmptyAndSingleton) {
  Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0u);
  h.record(77);
  EXPECT_EQ(h.percentile(0.5), 77u);
  EXPECT_EQ(h.percentile(0.99), 77u);
}

// --- drift guards -----------------------------------------------------
//
// The rosters are parallel arrays indexed by their enum; a new enum
// entry without a name (or a copy-pasted duplicate name) would corrupt
// every export silently.  These tests fail the moment the arrays drift.

template <typename Names>
void expect_unique_nonempty(const Names& names) {
  std::set<std::string> seen;
  for (const char* name : names) {
    ASSERT_NE(name, nullptr);
    EXPECT_NE(std::string(name), "");
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
  }
}

TEST(DriftGuard, CounterAndHistRosters) {
  expect_unique_nonempty(counter_names());
  expect_unique_nonempty(hist_names());
}

TEST(DriftGuard, ProfCategoryRoster) {
  expect_unique_nonempty(prof::cat_names());
  for (std::size_t c = 0; c < prof::kCatCount; ++c) {
    EXPECT_STREQ(prof::to_string(static_cast<Cat>(c)),
                 prof::cat_names()[c]);
  }
}

TEST(DriftGuard, TraceEventKindRoster) {
  std::set<std::string> seen;
  for (std::size_t k = 0; k < trace::kEventKindCount; ++k) {
    const auto kind = static_cast<trace::EventKind>(k);
    const char* name = trace::to_string(kind);
    ASSERT_NE(name, nullptr);
    EXPECT_NE(std::string(name), "");
    EXPECT_TRUE(seen.insert(name).second) << "duplicate kind name " << name;
    // Every kind maps into a real display category.
    EXPECT_LT(static_cast<std::size_t>(trace::category_of(kind)),
              trace::kCategoryCount);
    // Argument slots have names or are deliberately blank — never null.
    ASSERT_NE(trace::arg0_name(kind), nullptr);
    ASSERT_NE(trace::arg1_name(kind), nullptr);
  }
}

TEST(DriftGuard, ProfDomainPrefixes) {
  for (const Domain d :
       {Domain::kNone, Domain::kPageFault, Domain::kLock, Domain::kSync,
        Domain::kRpc, Domain::kMigrate, Domain::kService}) {
    ASSERT_NE(prof::domain_prefix(d), nullptr);
  }
}

}  // namespace
}  // namespace ivy
