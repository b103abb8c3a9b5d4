// Tests for the protocol mechanisms that keep the ownership token
// conserved and the system live under retransmission, duplication and
// degenerate hint states: two-phase ownership transfer (grant-ack),
// pending-grant resend, the early hand-off through the owner map, request
// cancellation, bounce recovery through broadcast owner location, and
// seed-swept stress with message drops.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ivy/ivy.h"
#include "ivy/svm/manager.h"

namespace ivy::svm {
namespace {

/// Proc-less harness (same shape as svm_test's, plus drop control).
class Harness {
 public:
  Harness(NodeId nodes, ManagerKind kind, std::size_t frames = 4096)
      : stats_(nodes), ring_(sim_, stats_, nodes) {
    SvmOptions opts;
    opts.geo = Geometry{256, 64};
    opts.manager = kind;
    opts.frames_per_node = frames;
    for (NodeId n = 0; n < nodes; ++n) {
      rpcs_.push_back(std::make_unique<rpc::RemoteOp>(sim_, ring_, stats_, n));
      rpcs_.back()->set_request_timeout(ms(40));
      rpcs_.back()->set_check_interval(ms(20));
      svms_.push_back(
          std::make_unique<Svm>(sim_, *rpcs_.back(), stats_, n, nodes, opts));
    }
  }

  Svm& at(NodeId n) { return *svms_[n]; }

  void ensure(NodeId node, PageId page, Access want) {
    bool done = false;
    at(node).request_access(page, want, [&] { done = true; });
    sim_.run_while([&] { return !done; });
    ASSERT_TRUE(done);
    sim_.run_until_idle();
  }

  void check_single_owner(PageId page) {
    int owners = 0;
    for (auto& svm : svms_) {
      owners += svm->table().at(page).owned ? 1 : 0;
    }
    ASSERT_EQ(owners, 1) << "page " << page;
  }

  sim::Simulator sim_;
  Stats stats_;
  net::Ring ring_;
  std::vector<std::unique_ptr<rpc::RemoteOp>> rpcs_;
  std::vector<std::unique_ptr<Svm>> svms_;
};

TEST(TwoPhaseTransfer, OldOwnerHoldsPageUntilAck) {
  Harness h(2, ManagerKind::kDynamicDistributed);
  // Stall the ack by dropping the first kGrantAck frame.
  int ack_drops = 1;
  h.ring_.set_drop_hook([&](const net::Message& m) {
    return m.kind == net::MsgKind::kGrantAck && !m.is_reply && ack_drops-- > 0;
  });
  bool done = false;
  h.at(1).request_access(3, Access::kWrite, [&] { done = true; });
  // Run until the requester completed but before retransmission closes
  // the handshake: node 0 must still be (pending) owner.
  h.sim_.run_while([&] { return !done; });
  EXPECT_TRUE(h.at(1).table().at(3).owned);
  EXPECT_TRUE(h.at(0).table().at(3).owned);  // token held until acked
  EXPECT_TRUE(h.at(0).table().at(3).fault_in_progress);
  // The ack retransmits; everything settles to exactly one owner.
  h.sim_.run_until_idle();
  EXPECT_FALSE(h.at(0).table().at(3).owned);
  h.check_single_owner(3);
}

TEST(TwoPhaseTransfer, DroppedGrantIsResentFromPendingState) {
  Harness h(2, ManagerKind::kDynamicDistributed);
  int grant_drops = 1;
  h.ring_.set_drop_hook([&](const net::Message& m) {
    return m.is_reply && m.kind == net::MsgKind::kWriteFault &&
           grant_drops-- > 0;
  });
  h.ensure(1, 5, Access::kWrite);
  h.check_single_owner(5);
  EXPECT_TRUE(h.at(1).table().at(5).owned);
  EXPECT_GE(h.stats_.total(Counter::kRetransmissions), 1u);
}

TEST(TwoPhaseTransfer, WriteDataSurvivesLossyHandshake) {
  Harness h(3, ManagerKind::kDynamicDistributed);
  const std::uint64_t magic = 0x5eed;
  h.ensure(1, 7, Access::kWrite);
  h.at(1).write_bytes(7 * 256, std::as_bytes(std::span(&magic, 1)));
  // Lossy period while ownership moves 1 -> 2.
  auto rng = std::make_shared<Rng>(42);
  h.ring_.set_drop_hook(
      [rng](const net::Message&) { return rng->chance(0.3); });
  h.ensure(2, 7, Access::kWrite);
  h.ring_.set_drop_hook(nullptr);
  h.sim_.run_until_idle();
  std::uint64_t out = 0;
  h.at(2).read_bytes(7 * 256, std::as_writable_bytes(std::span(&out, 1)));
  EXPECT_EQ(out, magic);
  h.check_single_owner(7);
}

TEST(TwoPhaseTransfer, BodylessGrantLostThenResent) {
  Harness h(2, ManagerKind::kDynamicDistributed);
  const std::uint64_t magic = 0xcafe;
  h.at(0).write_bytes(5 * 256, std::as_bytes(std::span(&magic, 1)));
  h.ensure(1, 5, Access::kRead);  // node 1 now holds a valid copy
  const auto transfers_before = h.stats_.total(Counter::kPageTransfers);
  const auto bodyless_before = h.stats_.total(Counter::kBodylessUpgrades);
  int grant_drops = 1;
  h.ring_.set_drop_hook([&](const net::Message& m) {
    return m.is_reply && m.kind == net::MsgKind::kWriteFault &&
           grant_drops-- > 0;
  });
  h.ensure(1, 5, Access::kWrite);
  h.ring_.set_drop_hook(nullptr);
  h.sim_.run_until_idle();
  h.check_single_owner(5);
  EXPECT_TRUE(h.at(1).table().at(5).owned);
  // The retransmitted request was answered from the pending-transfer
  // state, still bodyless: the upgrade decision is counted once and no
  // page body ever crossed the wire.
  EXPECT_GE(h.stats_.total(Counter::kRetransmissions), 1u);
  EXPECT_EQ(h.stats_.total(Counter::kPageTransfers), transfers_before);
  EXPECT_EQ(h.stats_.total(Counter::kBodylessUpgrades), bodyless_before + 1);
  std::uint64_t out = 0;
  h.at(1).read_bytes(5 * 256, std::as_writable_bytes(std::span(&out, 1)));
  EXPECT_EQ(out, magic);
}

TEST(TwoPhaseTransfer, BodylessGrantLostThenReofferedByPush) {
  Harness h(2, ManagerKind::kDynamicDistributed);
  const std::uint64_t magic = 0xbead;
  h.at(0).write_bytes(6 * 256, std::as_bytes(std::span(&magic, 1)));
  h.ensure(1, 6, Access::kRead);
  const auto transfers_before = h.stats_.total(Counter::kPageTransfers);
  // Drop the grant reply AND every retransmitted write-fault request, so
  // the requester can never re-ask: the only path left is the old
  // owner's kGrantPush re-offer, which must stay bodyless and be
  // absorbable against the requester's surviving read copy.
  bool black_hole = false;
  Time acked_at = -1;
  const auto note_ack = [&](const net::Message& m) {
    if (m.kind == net::MsgKind::kGrantAck && !m.is_reply) {
      acked_at = h.sim_.now();
    }
  };
  h.ring_.set_drop_hook([&](const net::Message& m) {
    note_ack(m);
    if (m.kind != net::MsgKind::kWriteFault) return false;
    if (m.is_reply && !black_hole) {
      black_hole = true;  // the grant is lost...
      return true;
    }
    return black_hole && !m.is_reply;  // ...and so is every re-ask
  });
  bool done = false;
  h.at(1).request_access(6, Access::kWrite, [&] { done = true; });
  h.sim_.run_while([&] { return !done; });
  h.ring_.set_drop_hook([&](const net::Message& m) {
    note_ack(m);
    return false;
  });
  h.sim_.run_until_idle();
  h.check_single_owner(6);
  EXPECT_TRUE(h.at(1).table().at(6).owned);
  EXPECT_GE(h.stats_.total(Counter::kGrantReoffers), 1u);
  // The ack cancelled the re-offer timer that the push re-armed, so the
  // drain ends soon after it rather than a re-offer period later.
  ASSERT_GE(acked_at, 0);
  EXPECT_LT(h.sim_.now() - acked_at, h.rpcs_[0]->request_timeout());
  EXPECT_EQ(h.stats_.total(Counter::kPageTransfers), transfers_before);
  std::uint64_t out = 0;
  h.at(1).read_bytes(6 * 256, std::as_writable_bytes(std::span(&out, 1)));
  EXPECT_EQ(out, magic);
}

class UpgradeRace : public testing::TestWithParam<ManagerKind> {};

TEST_P(UpgradeRace, CopyHolderUpgradeRacingInvalidationConverges) {
  Harness h(3, GetParam());
  h.ensure(1, 2, Access::kRead);
  h.ensure(2, 2, Access::kRead);
  // The owner's local upgrade invalidates both copies while node 1 is
  // itself write-faulting with has_copy set — its copy (and thus the
  // bodyless-grant precondition) may die mid-flight.  Whichever order
  // the ring delivers, both faults must complete and converge on one
  // owner with intact data.
  bool done0 = false;
  bool done1 = false;
  h.at(0).request_access(2, Access::kWrite, [&] { done0 = true; });
  h.at(1).request_access(2, Access::kWrite, [&] { done1 = true; });
  h.sim_.run_while([&] { return !(done0 && done1); });
  h.sim_.run_until_idle();
  h.check_single_owner(2);
  for (NodeId n = 0; n < 3; ++n) {
    const PageEntry& e = h.at(n).table().at(2);
    EXPECT_FALSE(e.fault_in_progress) << "node " << n;
    // Quiescent: no queue of the page holds anything, so the side table
    // holds no entry for it.
    EXPECT_EQ(h.at(n).table().find_queues(2), nullptr) << "node " << n;
  }
  // Post-race the protocol still moves data correctly.
  h.ensure(2, 2, Access::kWrite);
  const std::uint64_t magic = 0x1234;
  h.at(2).write_bytes(2 * 256, std::as_bytes(std::span(&magic, 1)));
  h.ensure(0, 2, Access::kRead);
  std::uint64_t out = 0;
  h.at(0).read_bytes(2 * 256, std::as_writable_bytes(std::span(&out, 1)));
  EXPECT_EQ(out, magic);
}

INSTANTIATE_TEST_SUITE_P(
    AllManagers, UpgradeRace,
    testing::Values(ManagerKind::kCentralized, ManagerKind::kFixedDistributed,
                    ManagerKind::kDynamicDistributed, ManagerKind::kBroadcast),
    [](const testing::TestParamInfo<ManagerKind>& info) {
      return to_string(info.param);
    });

TEST(BounceRecovery, MutuallyStaleHintsResolveViaBroadcast) {
  Harness h(8, ManagerKind::kDynamicDistributed);
  // Make node 7 the owner of page 9, then poison hints: 1 and 3 point at
  // each other (the degenerate state two crossing write faults create).
  h.ensure(7, 9, Access::kWrite);
  h.at(1).table().at(9).prob_owner = 3;
  h.at(3).table().at(9).prob_owner = 1;
  bool done1 = false, done3 = false;
  h.at(1).request_access(9, Access::kWrite, [&] { done1 = true; });
  h.at(3).request_access(9, Access::kWrite, [&] { done3 = true; });
  h.sim_.run_while([&] { return !(done1 && done3); });
  EXPECT_TRUE(done1 && done3);
  h.sim_.run_until_idle();
  h.check_single_owner(9);
  EXPECT_GT(h.stats_.total(Counter::kBroadcasts), 0u);
}

// Fixed manager, page 4: node 0 is both the page's manager (4 mod 4) and
// its owner.  Writer A (node 1) gets the grant; writer B's (node 2) write
// fault reaches node 0 while that grant is on the ring, so node 0 hands
// it off at once.  The hand-off is the manager's forward: the owner map
// records B behind A.  Handed straight to A, the map would keep naming A,
// and A's own next fault would look like a re-issue, routed along the
// history back to node 0 and bounced until a broadcast located the page.
TEST(OwnerMapHandOff, ManagerRecordsWriterHandedOffBehindGrant) {
  Harness h(4, ManagerKind::kFixedDistributed);
  constexpr PageId kPage = 4;
  int handed_off = 0;
  h.ring_.set_drop_hook([&](const net::Message& m) {
    if (m.kind == net::MsgKind::kWriteFault && !m.is_reply && m.src == 0 &&
        m.origin == 2) {
      EXPECT_EQ(m.dst, 1u);
      EXPECT_EQ(h.at(0).granted_to(kPage), 1u);
      ++handed_off;
    }
    return false;
  });
  std::vector<NodeId> completed;
  h.at(1).request_access(kPage, Access::kWrite,
                         [&] { completed.push_back(1); });
  h.sim_.run_while([&] { return h.at(0).granted_to(kPage) == kNoNode; });
  ASSERT_EQ(h.at(0).granted_to(kPage), 1u);
  h.at(2).request_access(kPage, Access::kWrite,
                         [&] { completed.push_back(2); });
  h.sim_.run_until_idle();
  ASSERT_EQ(handed_off, 1);
  EXPECT_EQ(completed, (std::vector<NodeId>{1, 2}));  // B queued behind A
  EXPECT_TRUE(h.at(2).table().at(kPage).owned);
  h.check_single_owner(kPage);

  // A writes again: the map names B as the tail, so A's request takes one
  // manager hop to B and no bounce.
  const auto forwards = h.stats_.total(Counter::kForwards);
  h.ensure(1, kPage, Access::kWrite);
  EXPECT_EQ(h.stats_.total(Counter::kForwards), forwards + 1);
  EXPECT_TRUE(h.at(1).table().at(kPage).owned);
  h.check_single_owner(kPage);
  EXPECT_EQ(h.stats_.total(Counter::kBroadcasts), 0u);
  EXPECT_EQ(h.stats_.total(Counter::kRetransmissions), 0u);
  EXPECT_EQ(h.stats_.total(Counter::kRpcFailures), 0u);
}

TEST(RpcCancel, CancelledRequestFiresNoCallbackAndOrphansReply) {
  sim::Simulator sim;
  Stats stats(2);
  net::Ring ring(sim, stats, 2);
  rpc::RemoteOp a(sim, ring, stats, 0);
  rpc::RemoteOp b(sim, ring, stats, 1);
  b.set_handler(net::MsgKind::kAllocRequest, [&](net::Message&& msg) {
    b.reply_to(msg, net::EmptyPayload{});
  });
  bool fired = false;
  bool orphaned = false;
  a.set_orphan_reply_handler(net::MsgKind::kAllocRequest,
                             [&](net::Message&&) { orphaned = true; });
  const auto id = a.request(1, net::MsgKind::kAllocRequest,
                            net::EmptyPayload{},
                            [&](net::Message&&) { fired = true; });
  a.cancel(id);
  sim.run_until_idle();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(orphaned);
  EXPECT_EQ(a.outstanding_requests(), 0u);
}

class ProtocolStress
    : public testing::TestWithParam<std::tuple<ManagerKind, int>> {};

TEST_P(ProtocolStress, RandomOpsWithDropsConvergeToSingleOwners) {
  const auto [kind, seed] = GetParam();
  Harness h(6, kind);
  auto rng = std::make_shared<Rng>(static_cast<std::uint64_t>(seed));
  h.ring_.set_drop_hook(
      [rng](const net::Message&) { return rng->chance(0.03); });

  Rng op_rng(static_cast<std::uint64_t>(seed) * 7919 + 1);
  int outstanding = 0;
  // Fire a randomized torrent of faults from every node over few pages
  // (maximum contention), interleaved with partial event processing.
  for (int step = 0; step < 400; ++step) {
    const auto node = static_cast<NodeId>(op_rng.below(6));
    const auto page = static_cast<PageId>(op_rng.below(5));
    const Access want =
        op_rng.chance(0.5) ? Access::kWrite : Access::kRead;
    if (!h.at(node).has_access(page, want) &&
        !h.at(node).table().at(page).fault_in_progress) {
      ++outstanding;
      h.at(node).request_access(page, want, [&outstanding] {
        --outstanding;
      });
    }
    for (int e = 0; e < 40 && h.sim_.step(); ++e) {
    }
  }
  h.ring_.set_drop_hook(nullptr);  // let the tail drain losslessly
  h.sim_.run_until_idle();
  EXPECT_EQ(outstanding, 0);
  for (PageId p = 0; p < 5; ++p) {
    h.check_single_owner(p);
    for (NodeId n = 0; n < 6; ++n) {
      const PageEntry& e = h.at(n).table().at(p);
      EXPECT_FALSE(e.fault_in_progress) << "node " << n << " page " << p;
      EXPECT_EQ(h.at(n).table().find_queues(p), nullptr)
          << "node " << n << " page " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ProtocolStress,
    testing::Combine(testing::Values(ManagerKind::kCentralized,
                                     ManagerKind::kFixedDistributed,
                                     ManagerKind::kDynamicDistributed,
                                     ManagerKind::kBroadcast),
                     testing::Range(1, 6)),
    [](const testing::TestParamInfo<std::tuple<ManagerKind, int>>& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace ivy::svm

namespace ivy::svm {
namespace {

// --- distribution of copy sets (Li & Hudak's refinement) --------------------

class DistributedCopysets : public testing::Test {
 protected:
  static SvmOptions options() {
    SvmOptions opts;
    opts.geo = Geometry{256, 64};
    opts.manager = ManagerKind::kDynamicDistributed;
    opts.distributed_copysets = true;
    return opts;
  }
};

TEST_F(DistributedCopysets, CopyHolderServesReadsAndFormsATree) {
  sim::Simulator sim;
  Stats stats(4);
  net::Ring ring(sim, stats, 4);
  std::vector<std::unique_ptr<rpc::RemoteOp>> rpcs;
  std::vector<std::unique_ptr<Svm>> svms;
  for (NodeId n = 0; n < 4; ++n) {
    rpcs.push_back(std::make_unique<rpc::RemoteOp>(sim, ring, stats, n));
    svms.push_back(
        std::make_unique<Svm>(sim, *rpcs.back(), stats, n, 4, options()));
  }
  auto ensure = [&](NodeId node, PageId page, Access want) {
    bool done = false;
    svms[node]->request_access(page, want, [&] { done = true; });
    sim.run_while([&] { return !done; });
    ASSERT_TRUE(done);
    sim.run_until_idle();
  };
  const std::uint64_t magic = 0xfeed;
  svms[0]->write_bytes(0, std::as_bytes(std::span(&magic, 1)));

  // Node 1 reads from the owner; nodes 2 and 3 then fault with their
  // probOwner pointing at node 1 (a copy holder), which must serve them
  // itself and record them as its children.
  ensure(1, 0, Access::kRead);
  svms[2]->table().at(0).prob_owner = 1;
  svms[3]->table().at(0).prob_owner = 1;
  ensure(2, 0, Access::kRead);
  ensure(3, 0, Access::kRead);
  std::uint64_t out = 0;
  svms[3]->read_bytes(0, std::as_writable_bytes(std::span(&out, 1)));
  EXPECT_EQ(out, magic);
  // The tree: owner 0 knows 1; node 1 knows 2 and 3; the owner does NOT
  // know the grandchildren.
  EXPECT_TRUE(svms[0]->table().at(0).copyset.contains(1));
  EXPECT_FALSE(svms[0]->table().at(0).copyset.contains(2));
  EXPECT_TRUE(svms[1]->table().at(0).copyset.contains(2));
  EXPECT_TRUE(svms[1]->table().at(0).copyset.contains(3));

  // A write by the owner must invalidate the WHOLE tree, recursively.
  ensure(0, 0, Access::kWrite);
  for (NodeId n = 1; n < 4; ++n) {
    EXPECT_EQ(svms[n]->table().at(0).access, Access::kNil) << "node " << n;
  }
}

TEST_F(DistributedCopysets, AppsStayCorrectWithTreeInvalidation) {
  Config cfg;
  cfg.nodes = 6;
  cfg.heap_pages = 1024;
  cfg.stack_region_pages = 64;
  cfg.distributed_copysets = true;
  Runtime rt(cfg);
  auto value = rt.alloc_scalar<std::uint64_t>();
  auto bar = rt.create_barrier(6);
  // Rounds of write-then-fan-out reads: readers may be served by other
  // readers; the next write must still reach everyone.
  for (NodeId n = 0; n < 6; ++n) {
    rt.spawn_on(n, [=]() mutable {
      for (std::uint64_t round = 0; round < 10; ++round) {
        if (round % 6 == n) value.set(round * 100 + n);
        bar.arrive(2 * static_cast<std::int64_t>(round));
        const std::uint64_t got = value.get();
        EXPECT_EQ(got, round * 100 + round % 6);
        bar.arrive(2 * static_cast<std::int64_t>(round) + 1);
      }
    });
  }
  rt.run();
  rt.check_coherence_invariants();
}

}  // namespace
}  // namespace ivy::svm
