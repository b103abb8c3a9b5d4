// The coherence oracle must (a) stay silent on clean protocol traffic
// under every manager algorithm, and (b) detect each invariant class
// when the page tables are deliberately corrupted behind its back.
// Corruption tests run in warn mode so the violation counters are
// observable; one strict-mode test checks the fail-fast path aborts
// with event context.
#include <gtest/gtest.h>

#include <memory>

#include "ivy/oracle/oracle.h"
#include "ivy/svm/manager.h"
#include "ivy/svm/svm.h"

namespace ivy::oracle {
namespace {

using svm::Access;
using svm::ManagerKind;

/// svm_test's harness with the oracle wired in as the global observer.
class OracleHarness {
 public:
  explicit OracleHarness(Mode mode, NodeId nodes,
                         ManagerKind kind = ManagerKind::kDynamicDistributed)
      : oracle_(mode, nodes, kPages, /*initial_owner=*/0),
        stats_(nodes),
        ring_(sim_, stats_, nodes) {
    oracle_.set_clock([this] { return sim_.now(); });
    svm::SvmOptions opts;
    opts.geo = svm::Geometry{256, kPages};
    opts.manager = kind;
    opts.frames_per_node = 4096;
    opts.sink = &oracle_;
    for (NodeId n = 0; n < nodes; ++n) {
      rpcs_.push_back(std::make_unique<rpc::RemoteOp>(sim_, ring_, stats_, n));
      svms_.push_back(std::make_unique<svm::Svm>(sim_, *rpcs_.back(), stats_,
                                                 n, nodes, opts));
      oracle_.attach(svms_.back().get());
    }
  }

  static constexpr PageId kPages = 8;

  svm::Svm& at(NodeId n) { return *svms_[n]; }
  Oracle& oracle() { return oracle_; }

  void ensure(NodeId node, PageId page, Access want) {
    bool done = false;
    at(node).request_access(page, want, [&] { done = true; });
    sim_.run_while([&] { return !done; });
    ASSERT_TRUE(done);
    sim_.run_until_idle();
  }

  void write_u64(NodeId node, SvmAddr addr, std::uint64_t v) {
    at(node).write_bytes(addr, std::as_bytes(std::span(&v, 1)));
  }

  /// Some realistic traffic: ownership ping-pong on page 0, read
  /// sharing on page 1, then a settle.
  void churn() {
    write_u64(0, 0, 1);
    ensure(1, 0, Access::kWrite);
    write_u64(1, 0, 2);
    ensure(2, 0, Access::kWrite);
    ensure(0, 0, Access::kWrite);
    write_u64(0, 256, 7);
    ensure(1, 1, Access::kRead);
    ensure(2, 1, Access::kRead);
    ensure(3, 1, Access::kRead);
    sim_.run_until_idle();
  }

  sim::Simulator sim_;
  Oracle oracle_;
  Stats stats_;
  net::Ring ring_;
  std::vector<std::unique_ptr<rpc::RemoteOp>> rpcs_;
  std::vector<std::unique_ptr<svm::Svm>> svms_;
};

// --- clean runs -----------------------------------------------------------

class OracleClean : public testing::TestWithParam<ManagerKind> {};

TEST_P(OracleClean, StrictOracleStaysSilentOnCleanTraffic) {
  OracleHarness h(Mode::kStrict, 4, GetParam());
  h.churn();
  h.oracle().final_audit();
  EXPECT_EQ(h.oracle().total_violations(), 0u);
  EXPECT_GT(h.oracle().checks(), 0u);
  // Page 0 changed hands three times — content checksums were compared.
  EXPECT_GT(h.oracle().content_checks(), 0u);
  // Every fault resolved, so the chain histogram saw them all.
  EXPECT_GT(h.oracle().chain_histogram().faults, 0u);
}

INSTANTIATE_TEST_SUITE_P(Managers, OracleClean,
                         testing::Values(ManagerKind::kCentralized,
                                         ManagerKind::kFixedDistributed,
                                         ManagerKind::kDynamicDistributed,
                                         ManagerKind::kBroadcast),
                         [](const auto& info) {
                           return std::string(svm::to_string(info.param));
                         });

// --- per-invariant detection ----------------------------------------------

TEST(OracleDetect, DuplicateOwnerToken) {
  OracleHarness h(Mode::kWarn, 4);
  h.churn();
  h.at(3).table().at(0).owned = true;  // forge a second token
  h.oracle().final_audit();
  EXPECT_GT(h.oracle().violations(Invariant::kSingleOwner), 0u);
}

TEST(OracleDetect, VanishedOwnerToken) {
  OracleHarness h(Mode::kWarn, 4);
  h.churn();
  h.at(0).table().at(0).owned = false;  // drop the token on the floor
  h.oracle().final_audit();
  EXPECT_GT(h.oracle().violations(Invariant::kSingleOwner), 0u);
}

TEST(OracleDetect, WriterWithoutExclusivity) {
  OracleHarness h(Mode::kWarn, 4);
  h.churn();
  // Node 3 keeps a read mapping of page 0 although node 0 writes it.
  svm::PageEntry& e = h.at(3).table().at(0);
  e.access = Access::kRead;
  e.version = h.at(0).table().at(0).version;
  h.oracle().final_audit();
  EXPECT_GT(h.oracle().violations(Invariant::kWriterExclusive), 0u);
}

TEST(OracleDetect, WriteAccessWithoutOwnership) {
  OracleHarness h(Mode::kWarn, 4);
  h.churn();
  h.at(3).table().at(1).access = Access::kWrite;
  h.oracle().final_audit();
  EXPECT_GT(h.oracle().violations(Invariant::kWriterExclusive), 0u);
}

TEST(OracleDetect, ReaderMissingFromCopyTree) {
  OracleHarness h(Mode::kWarn, 4);
  h.churn();
  // Pretend node 3 read page 2 but no owner copyset records it.
  svm::PageEntry& e = h.at(3).table().at(2);
  e.access = Access::kRead;
  e.version = h.at(0).table().at(2).version;
  h.oracle().final_audit();
  EXPECT_GT(h.oracle().violations(Invariant::kCopysetCoverage), 0u);
}

TEST(OracleDetect, StaleMappingSurvivedInvalidation) {
  OracleHarness h(Mode::kWarn, 4);
  h.churn();
  // A reader of page 0 at an old version — its invalidation was "lost".
  // (Registering it in the owner's copyset keeps coverage satisfied, so
  // exactly the lost-invalidation check fires.)
  svm::PageEntry& e = h.at(2).table().at(0);
  e.access = Access::kRead;
  e.version = 1;
  h.at(0).table().at(0).copyset.add(2);
  h.oracle().final_audit();
  EXPECT_GT(h.oracle().violations(Invariant::kLostInvalidation), 0u);
}

TEST(OracleDetect, ProbOwnerCycle) {
  OracleHarness h(Mode::kWarn, 4);
  h.churn();
  // Nodes 2 and 3 point their page-3 hints at each other: requests
  // would bounce forever without reaching the owner.
  h.at(2).table().at(3).prob_owner = 3;
  h.at(3).table().at(3).prob_owner = 2;
  h.oracle().final_audit();
  EXPECT_GT(h.oracle().violations(Invariant::kChainTermination), 0u);
}

TEST(OracleDetect, UnmatchedTransferSteps) {
  OracleHarness h(Mode::kWarn, 4);
  h.churn();
  // A grant-accept out of thin air, then a release nobody granted.
  using svm::EventKind;
  h.oracle().on_event({.kind = EventKind::kOwnershipGained,
                       .node = 2, .page = 4, .peer = 1, .version = 9});
  h.oracle().on_event({.kind = EventKind::kOwnershipReleased,
                       .node = 1, .page = 4, .peer = 2, .version = 9});
  EXPECT_GE(h.oracle().violations(Invariant::kTransferProtocol), 2u);
}

TEST(OracleDetect, CorruptedPageImage) {
  OracleHarness h(Mode::kWarn, 4);
  const std::uint64_t good = 0xabcdef, bad = 0xfee1bad;
  // Node 0 ships version 3 of page 5; node 1 installs other bytes.
  h.oracle().on_event({.kind = svm::EventKind::kReadServed,
                       .node = 0, .page = 5, .peer = 1, .version = 3,
                       .body = svm::Body::kShipped,
                       .image = std::as_bytes(std::span(&good, 1))});
  h.oracle().on_event({.kind = svm::EventKind::kCopyReceived,
                       .node = 1, .page = 5, .peer = 0, .version = 3,
                       .body = svm::Body::kShipped,
                       .image = std::as_bytes(std::span(&bad, 1))});
  EXPECT_EQ(h.oracle().violations(Invariant::kContentIntegrity), 1u);
}

// --- reporting ------------------------------------------------------------

TEST(OracleReport, ViolationCarriesRecentEventContext) {
  OracleHarness h(Mode::kWarn, 4);
  h.churn();
  h.at(3).table().at(0).owned = true;
  h.oracle().final_audit();
  const std::string report = h.oracle().report();
  EXPECT_NE(report.find("single_owner"), std::string::npos) << report;
  EXPECT_NE(report.find("recent events"), std::string::npos) << report;
  // The context window names the protocol steps that led up to it.
  EXPECT_NE(report.find("ownership_gained"), std::string::npos) << report;
}

TEST(OracleReport, BriefSummarizesChecks) {
  OracleHarness h(Mode::kWarn, 4);
  h.churn();
  const std::string brief = h.oracle().brief();
  EXPECT_NE(brief.find("oracle[warn]"), std::string::npos) << brief;
  EXPECT_NE(brief.find("0 violations"), std::string::npos) << brief;
}

TEST(OracleStrictDeathTest, AbortsOnFirstViolation) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        OracleHarness h(Mode::kStrict, 4);
        h.churn();
        h.at(3).table().at(0).owned = true;
        h.oracle().final_audit();
      },
      "coherence oracle");
}

}  // namespace
}  // namespace ivy::oracle
