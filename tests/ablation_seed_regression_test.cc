// Directed regressions replayed from single points of
//
//   ablate_managers --oracle strict
//       --fault drop=0.02,dup=0.01,delay=2ms@0.05 --fault-seed S
//
// (jacobi n=256 x 6 iterations on eight nodes), one per race that once
// aborted that bench:
//   - broadcast, seed 6 (seeds 3 and 15 before the oracle's audit left
//     run()): a node that held probes as a busy owner lost the page,
//     started a fault of its own and kept holding them; when it regained
//     the page it served requests another owner had already answered.
//     The duplicate grant reached a receiver that rejected one copy and
//     accepted the other, so the old owner aborted a transfer the new
//     owner had confirmed (strict transfer_protocol).  Held probes now
//     wait only at an owner and are passed along probOwner elsewhere.
//   - fixed distributed, seed 1 (broadcast seed 18 under the old audit
//     timing): a fault completed through an absorbed grant while its own
//     request was still outstanding.  The request's late reply was taken
//     for the grant of the node's next fault on the page (strict
//     transfer_protocol: ownership gained without an open transfer), or,
//     with no reply coming, the request retransmitted until the rpc layer
//     gave up and aborted the run.  Completing a fault now cancels its
//     request.
//   - centralized, seed 3: the ownership_transfers counter read 925
//     against 865 completed transfers, because a grant was counted when
//     served and again when its receiver absorbed it.  It now counts
//     each completed transfer once, from the kOwnershipGained event.
// Seeds 3, 15 and 18 of the broadcast point stay in the grid as well.
// Every case also holds the counter to the transfers the trace shows
// completed.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "ivy/apps/jacobi.h"
#include "ivy/fault/plane.h"
#include "ivy/trace/trace.h"

namespace ivy::apps {
namespace {

struct Case {
  svm::ManagerKind manager;
  std::uint64_t fault_seed;
};

class AblationSeedRegression : public testing::TestWithParam<Case> {};

TEST_P(AblationSeedRegression, StaysCoherent) {
  Config cfg;
  cfg.nodes = 8;
  cfg.heap_pages = 24576;
  cfg.stack_region_pages = 64;
  cfg.manager = GetParam().manager;
  cfg.oracle_mode = oracle::Mode::kStrict;
  std::string error;
  ASSERT_TRUE(fault::parse_fault_spec("drop=0.02,dup=0.01,delay=2ms@0.05",
                                      &cfg.fault, &error))
      << error;
  cfg.fault_seed = GetParam().fault_seed;
  cfg.trace_enabled = true;
  cfg.trace_capacity = 1 << 19;
  Runtime rt(std::move(cfg));

  JacobiParams p;
  p.n = 256;
  p.iterations = 6;
  const RunOutcome out = run_jacobi(rt, p);
  EXPECT_TRUE(out.verified) << out.detail;
  rt.check_coherence_invariants();
  EXPECT_EQ(rt.oracle()->total_violations(), 0u);
  EXPECT_GT(rt.stats().total(Counter::kFaultsInjected), 0u);
  for (NodeId n = 0; n < rt.nodes(); ++n) {
    EXPECT_EQ(rt.rpc(n).outstanding_requests(), 0u) << "node " << n;
    EXPECT_EQ(rt.rpc(n).pending_serves(), 0u) << "node " << n;
  }
  // A completed transfer is an accept the old owner processed (its
  // kOwnershipLost span) or a migration adopt.
  ASSERT_EQ(rt.tracer().dropped(), 0u);
  std::uint64_t released = 0;
  rt.tracer().for_each([&](const trace::Event& e) {
    if (e.kind == trace::EventKind::kOwnershipLost) ++released;
  });
  EXPECT_EQ(rt.stats().total(Counter::kOwnershipTransfers),
            released + rt.stats().total(Counter::kMigrations));
}

INSTANTIATE_TEST_SUITE_P(
    JacobiN8, AblationSeedRegression,
    testing::Values(Case{svm::ManagerKind::kCentralized, 3},
                    Case{svm::ManagerKind::kBroadcast, 3},
                    Case{svm::ManagerKind::kBroadcast, 6},
                    Case{svm::ManagerKind::kBroadcast, 15},
                    Case{svm::ManagerKind::kBroadcast, 18},
                    Case{svm::ManagerKind::kFixedDistributed, 1}),
    [](const testing::TestParamInfo<Case>& info) {
      return std::string(svm::to_string(info.param.manager)) + "_seed" +
             std::to_string(info.param.fault_seed);
    });

}  // namespace
}  // namespace ivy::apps
