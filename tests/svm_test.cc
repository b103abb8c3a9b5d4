// Protocol-level tests of the shared virtual memory, driving Svm's
// asynchronous interface directly (no process layer) so individual fault
// flows are observable: grants, downgrades, invalidation, versions,
// eviction to disk, direct handoff.  Parameterized over all four manager
// algorithms.
#include <gtest/gtest.h>

#include <memory>

#include "ivy/svm/manager.h"
#include "ivy/svm/svm.h"

namespace ivy::svm {
namespace {

class SvmHarness {
 public:
  SvmHarness(NodeId nodes, ManagerKind kind, std::size_t frames = 4096,
             std::size_t page_size = 256, PageId pages = 64)
      : stats_(nodes), ring_(sim_, stats_, nodes) {
    SvmOptions opts;
    opts.geo = Geometry{page_size, pages};
    opts.manager = kind;
    opts.frames_per_node = frames;
    for (NodeId n = 0; n < nodes; ++n) {
      rpcs_.push_back(std::make_unique<rpc::RemoteOp>(sim_, ring_, stats_, n));
      svms_.push_back(
          std::make_unique<Svm>(sim_, *rpcs_.back(), stats_, n, nodes, opts));
    }
  }

  Svm& at(NodeId n) { return *svms_[n]; }

  /// Synchronously (in virtual time) obtains `want` access on `node`,
  /// then settles in-flight tails (two-phase transfer acknowledgements)
  /// so page-table assertions see the quiescent state.
  void ensure(NodeId node, PageId page, Access want) {
    bool done = false;
    at(node).request_access(page, want, [&] { done = true; });
    sim_.run_while([&] { return !done; });
    ASSERT_TRUE(done) << "fault never completed: node " << node << " page "
                      << page << " want " << to_string(want);
    ASSERT_TRUE(at(node).has_access(page, want));
    sim_.run_until_idle();
  }

  void write_u64(NodeId node, SvmAddr addr, std::uint64_t v) {
    at(node).write_bytes(addr, std::as_bytes(std::span(&v, 1)));
  }
  std::uint64_t read_u64(NodeId node, SvmAddr addr) {
    std::uint64_t v = 0;
    at(node).read_bytes(addr, std::as_writable_bytes(std::span(&v, 1)));
    return v;
  }

  void settle() { sim_.run_until_idle(); }

  void check_invariants() {
    settle();
    const PageId pages = at(0).geometry().num_pages;
    const NodeId nodes = static_cast<NodeId>(svms_.size());
    for (PageId p = 0; p < pages; ++p) {
      NodeId owner = kNoNode;
      for (NodeId n = 0; n < nodes; ++n) {
        if (at(n).table().at(p).owned) {
          ASSERT_EQ(owner, kNoNode) << "two owners for page " << p;
          owner = n;
        }
      }
      ASSERT_NE(owner, kNoNode) << "no owner for page " << p;
      const PageEntry& oe = at(owner).table().at(p);
      for (NodeId n = 0; n < nodes; ++n) {
        if (n == owner) continue;
        const PageEntry& e = at(n).table().at(p);
        ASSERT_NE(e.access, Access::kWrite);
        if (e.access == Access::kRead) {
          ASSERT_TRUE(oe.copyset.contains(n));
          ASSERT_NE(oe.access, Access::kWrite);
        }
      }
    }
  }

  sim::Simulator sim_;
  Stats stats_;
  net::Ring ring_;
  std::vector<std::unique_ptr<rpc::RemoteOp>> rpcs_;
  std::vector<std::unique_ptr<Svm>> svms_;
};

class SvmProtocol : public testing::TestWithParam<ManagerKind> {};

TEST_P(SvmProtocol, InitialStateOwnedByNodeZero) {
  SvmHarness h(3, GetParam());
  EXPECT_TRUE(h.at(0).table().at(0).owned);
  EXPECT_TRUE(h.at(0).has_access(0, Access::kWrite));
  EXPECT_FALSE(h.at(1).table().at(0).owned);
  EXPECT_FALSE(h.at(1).has_access(0, Access::kRead));
}

TEST_P(SvmProtocol, ReadFaultDeliversDataAndCopyset) {
  SvmHarness h(3, GetParam());
  h.write_u64(0, 8, 0xfeed);
  h.ensure(1, 0, Access::kRead);
  EXPECT_EQ(h.read_u64(1, 8), 0xfeedu);
  // Owner unchanged, downgraded to read, knows the reader.
  EXPECT_TRUE(h.at(0).table().at(0).owned);
  EXPECT_EQ(h.at(0).table().at(0).access, Access::kRead);
  EXPECT_TRUE(h.at(0).table().at(0).copyset.contains(1));
  h.check_invariants();
}

TEST_P(SvmProtocol, WriteFaultMovesOwnershipAndData) {
  SvmHarness h(3, GetParam());
  h.write_u64(0, 16, 111);
  h.ensure(2, 0, Access::kWrite);
  EXPECT_TRUE(h.at(2).table().at(0).owned);
  EXPECT_EQ(h.read_u64(2, 16), 111u);  // data travelled with ownership
  EXPECT_FALSE(h.at(0).table().at(0).owned);
  EXPECT_EQ(h.at(0).table().at(0).access, Access::kNil);
  EXPECT_GT(h.at(2).table().at(0).version, 0u);
  h.check_invariants();
}

TEST_P(SvmProtocol, WriterInvalidatesAllReadCopies) {
  SvmHarness h(4, GetParam());
  h.write_u64(0, 0, 1);
  h.ensure(1, 0, Access::kRead);
  h.ensure(2, 0, Access::kRead);
  h.ensure(3, 0, Access::kWrite);
  EXPECT_EQ(h.at(1).table().at(0).access, Access::kNil);
  EXPECT_EQ(h.at(2).table().at(0).access, Access::kNil);
  EXPECT_TRUE(h.at(3).has_access(0, Access::kWrite));
  h.write_u64(3, 0, 2);
  // Fresh reads see the new value — never the stale copy.
  h.ensure(1, 0, Access::kRead);
  EXPECT_EQ(h.read_u64(1, 0), 2u);
  h.check_invariants();
}

TEST_P(SvmProtocol, SequentialWritersChainOwnership) {
  SvmHarness h(4, GetParam());
  for (std::uint64_t round = 0; round < 8; ++round) {
    const NodeId writer = static_cast<NodeId>(round % 4);
    h.ensure(writer, 3, Access::kWrite);
    h.write_u64(writer, 3 * 256, round);
  }
  h.ensure(0, 3, Access::kRead);
  EXPECT_EQ(h.read_u64(0, 3 * 256), 7u);
  h.check_invariants();
}

TEST_P(SvmProtocol, OwnerUpgradeIsLocalWhenNoCopies) {
  SvmHarness h(2, GetParam());
  h.ensure(1, 5, Access::kWrite);  // 1 becomes owner
  const auto messages_before = h.stats_.total(Counter::kMessages);
  // Owner re-faulting to write (e.g. after serving itself) is local.
  h.ensure(1, 5, Access::kWrite);
  EXPECT_EQ(h.stats_.total(Counter::kMessages), messages_before);
}

TEST_P(SvmProtocol, UpgradeAfterServingReaderInvalidates) {
  SvmHarness h(2, GetParam());
  h.ensure(1, 2, Access::kRead);  // owner 0 downgrades to read
  ASSERT_EQ(h.at(0).table().at(2).access, Access::kRead);
  const auto inv_before = h.stats_.total(Counter::kInvalidationsSent);
  h.ensure(0, 2, Access::kWrite);  // local upgrade with invalidation
  EXPECT_EQ(h.stats_.total(Counter::kInvalidationsSent), inv_before + 1);
  EXPECT_EQ(h.at(1).table().at(2).access, Access::kNil);
  EXPECT_TRUE(h.at(0).table().at(2).owned);
  h.check_invariants();
}

TEST_P(SvmProtocol, CopyHolderWriteFaultSkipsBody) {
  SvmHarness h(2, GetParam());
  h.write_u64(0, 7 * 256, 0xabc);
  h.ensure(1, 7, Access::kRead);
  const auto transfers_before = h.stats_.total(Counter::kPageTransfers);
  const auto bodyless_before = h.stats_.total(Counter::kBodylessUpgrades);
  h.ensure(1, 7, Access::kWrite);  // holds a valid copy: ownership only
  EXPECT_EQ(h.stats_.total(Counter::kPageTransfers), transfers_before);
  EXPECT_EQ(h.stats_.total(Counter::kBodylessUpgrades), bodyless_before + 1);
  EXPECT_EQ(h.read_u64(1, 7 * 256), 0xabcu);
  h.check_invariants();
}

TEST_P(SvmProtocol, StaleCopyVersionFallsBackToFullBody) {
  SvmHarness h(2, GetParam());
  h.ensure(1, 7, Access::kWrite);  // bump the page off version 0
  h.ensure(0, 7, Access::kWrite);
  h.write_u64(0, 7 * 256, 0x5a5a);
  h.ensure(1, 7, Access::kRead);
  // Skew the requester's recorded version below the owner's: the grant
  // must not trust the local copy and has to ship the body.
  h.at(1).table().at(7).version -= 1;
  const auto transfers_before = h.stats_.total(Counter::kPageTransfers);
  const auto bodyless_before = h.stats_.total(Counter::kBodylessUpgrades);
  h.ensure(1, 7, Access::kWrite);
  EXPECT_EQ(h.stats_.total(Counter::kBodylessUpgrades), bodyless_before);
  EXPECT_EQ(h.stats_.total(Counter::kPageTransfers), transfers_before + 1);
  EXPECT_EQ(h.read_u64(1, 7 * 256), 0x5a5au);
  h.check_invariants();
}

TEST_P(SvmProtocol, MulticastInvalidationUsesOneFrame) {
  SvmHarness h(4, GetParam());
  h.write_u64(0, 0, 1);
  h.ensure(1, 0, Access::kRead);
  h.ensure(2, 0, Access::kRead);
  const auto mcasts_before = h.stats_.total(Counter::kMulticasts);
  const auto rounds_before = h.stats_.total(Counter::kInvalidateMulticasts);
  const auto inv_before = h.stats_.total(Counter::kInvalidationsSent);
  h.ensure(0, 0, Access::kWrite);  // local upgrade invalidating both copies
  EXPECT_EQ(h.stats_.total(Counter::kInvalidateMulticasts), rounds_before + 1);
  EXPECT_EQ(h.stats_.total(Counter::kMulticasts), mcasts_before + 1);
  // Per-member accounting is preserved: two invalidations, one frame.
  EXPECT_EQ(h.stats_.total(Counter::kInvalidationsSent), inv_before + 2);
  EXPECT_EQ(h.at(1).table().at(0).access, Access::kNil);
  EXPECT_EQ(h.at(2).table().at(0).access, Access::kNil);
  h.check_invariants();
}

TEST_P(SvmProtocol, LazyZeroPagesMaterializeOnFirstUse) {
  SvmHarness h(2, GetParam());
  h.ensure(1, 9, Access::kRead);
  EXPECT_EQ(h.read_u64(1, 9 * 256 + 64), 0u);
}

TEST_P(SvmProtocol, EvictionSpillsOwnedPageAndRestores) {
  SvmHarness h(2, GetParam(), /*frames=*/4);
  // Touch more owned pages than node 0 has frames.
  for (PageId p = 0; p < 8; ++p) {
    h.write_u64(0, static_cast<SvmAddr>(p) * 256, p + 100);
  }
  EXPECT_GT(h.stats_.total(Counter::kDiskWrites), 0u);
  // Every page still readable — resident or restored from disk.
  for (PageId p = 0; p < 8; ++p) {
    h.ensure(0, p, Access::kRead);
    EXPECT_EQ(h.read_u64(0, static_cast<SvmAddr>(p) * 256), p + 100u);
  }
  EXPECT_GT(h.stats_.total(Counter::kDiskReads), 0u);
}

TEST_P(SvmProtocol, RemoteFaultOnSpilledPageRestoresFirst) {
  SvmHarness h(2, GetParam(), /*frames=*/4);
  for (PageId p = 0; p < 8; ++p) {
    h.write_u64(0, static_cast<SvmAddr>(p) * 256, p);
  }
  // Page 0 was evicted to node 0's disk; node 1 faults on it.
  h.ensure(1, 0, Access::kRead);
  EXPECT_EQ(h.read_u64(1, 0), 0u);
  h.ensure(1, 6, Access::kWrite);
  EXPECT_EQ(h.read_u64(1, 6 * 256), 6u);
  h.check_invariants();
}

TEST_P(SvmProtocol, ReadCopiesEvictSilently) {
  SvmHarness h(2, GetParam(), /*frames=*/4);
  h.write_u64(0, 0, 77);
  h.ensure(1, 0, Access::kRead);
  // Node 1 streams over other pages, evicting its copy of page 0.
  for (PageId p = 1; p < 8; ++p) h.ensure(1, p, Access::kRead);
  EXPECT_EQ(h.at(1).table().at(0).access, Access::kNil);
  EXPECT_EQ(h.stats_.node_total(1, Counter::kDiskWrites), 0u);
  // Re-faulting finds the data at the owner again.
  h.ensure(1, 0, Access::kRead);
  EXPECT_EQ(h.read_u64(1, 0), 77u);
}

TEST_P(SvmProtocol, DetachAdoptMovesOwnershipDirectly) {
  SvmHarness h(2, GetParam());
  h.write_u64(0, 11 * 256, 0xdead);
  const auto messages_before = h.stats_.total(Counter::kMessages);
  const PageTransfer t = h.at(0).detach_page(11, 1, /*with_body=*/true);
  h.at(1).adopt_page(t);
  // No protocol messages: "only requires setting the protection bits".
  EXPECT_EQ(h.stats_.total(Counter::kMessages), messages_before);
  EXPECT_TRUE(h.at(1).table().at(11).owned);
  EXPECT_EQ(h.read_u64(1, 11 * 256), 0xdeadu);
  EXPECT_FALSE(h.at(0).table().at(11).owned);
  // Later faults route correctly despite the managers not being told.
  h.ensure(0, 11, Access::kWrite);
  EXPECT_EQ(h.read_u64(0, 11 * 256), 0xdeadu);
  h.check_invariants();
}

TEST_P(SvmProtocol, DetachElidesBodyWhenNewOwnerHoldsCopy) {
  SvmHarness h(2, GetParam());
  h.write_u64(0, 13 * 256, 0x77);
  h.ensure(1, 13, Access::kRead);
  const auto bodyless_before = h.stats_.total(Counter::kBodylessUpgrades);
  const PageTransfer t = h.at(0).detach_page(13, 1, /*with_body=*/true);
  // The new owner sits in the copyset: the detach ships no body.
  EXPECT_EQ(t.body, nullptr);
  EXPECT_TRUE(t.body_elided);
  EXPECT_EQ(h.stats_.total(Counter::kBodylessUpgrades), bodyless_before + 1);
  h.at(1).adopt_page(t);
  EXPECT_TRUE(h.at(1).table().at(13).owned);
  EXPECT_EQ(h.read_u64(1, 13 * 256), 0x77u);
  h.check_invariants();
}

TEST_P(SvmProtocol, DetachWithoutBodyTransfersOwnershipOnly) {
  SvmHarness h(2, GetParam());
  h.write_u64(0, 12 * 256, 1);
  const PageTransfer t = h.at(0).detach_page(12, 1, /*with_body=*/false);
  EXPECT_EQ(t.body, nullptr);
  h.at(1).adopt_page(t);
  EXPECT_TRUE(h.at(1).table().at(12).owned);
  // Content is "meaningless" (fresh zero page at the new owner).
  EXPECT_EQ(h.read_u64(1, 12 * 256), 0u);
  h.check_invariants();
}

TEST_P(SvmProtocol, StaleInvalidationIsIgnoredByVersionGuard) {
  SvmHarness h(3, GetParam());
  h.write_u64(0, 0, 5);
  h.ensure(1, 0, Access::kRead);
  const std::uint64_t version = h.at(1).table().at(0).version;
  // A duplicate invalidation from an *older* epoch must not kill the
  // fresh copy.
  net::Message msg;
  msg.src = 2;
  msg.dst = 1;
  msg.kind = net::MsgKind::kInvalidate;
  msg.origin = 2;
  msg.rpc_id = 991;
  msg.payload = InvalidatePayload{0, 2, version};  // not newer
  h.at(1).on_invalidate(std::move(msg));
  h.settle();
  EXPECT_EQ(h.at(1).table().at(0).access, Access::kRead);
}

TEST_P(SvmProtocol, ConcurrentWritersConverge) {
  SvmHarness h(4, GetParam());
  int done = 0;
  for (NodeId n = 0; n < 4; ++n) {
    h.at(n).request_access(1, Access::kWrite, [&] { ++done; });
  }
  h.settle();
  // Every fault completed (possibly revoked again afterwards) and the
  // system settled into a single-owner state.
  EXPECT_EQ(done, 4);
  h.check_invariants();
}

TEST_P(SvmProtocol, AccessSpanningPages) {
  SvmHarness h(2, GetParam());
  h.ensure(1, 0, Access::kWrite);
  h.ensure(1, 1, Access::kWrite);
  const std::uint64_t v = 0x1122334455667788ull;
  h.at(1).write_bytes(252, std::as_bytes(std::span(&v, 1)));
  std::uint64_t out = 0;
  h.at(1).read_bytes(252, std::as_writable_bytes(std::span(&out, 1)));
  EXPECT_EQ(out, v);
}

INSTANTIATE_TEST_SUITE_P(
    AllManagers, SvmProtocol,
    testing::Values(ManagerKind::kCentralized, ManagerKind::kFixedDistributed,
                    ManagerKind::kDynamicDistributed, ManagerKind::kBroadcast),
    [](const testing::TestParamInfo<ManagerKind>& info) {
      return to_string(info.param);
    });

TEST(SvmGeometry, PageAndOffsetMath) {
  Geometry geo{1024, 16};
  EXPECT_EQ(geo.size_bytes(), 16u * 1024u);
  EXPECT_EQ(geo.page_of(0), 0u);
  EXPECT_EQ(geo.page_of(1023), 0u);
  EXPECT_EQ(geo.page_of(1024), 1u);
  EXPECT_EQ(geo.offset_of(1030), 6u);
}

TEST(SvmProbOwner, DynamicChainsCompressTowardOwner) {
  SvmHarness h(8, ManagerKind::kDynamicDistributed);
  // Walk ownership through all nodes, then verify every node's hint
  // chain reaches the final owner in bounded hops.
  for (NodeId n = 1; n < 8; ++n) h.ensure(n, 4, Access::kWrite);
  h.settle();
  for (NodeId n = 0; n < 8; ++n) {
    NodeId cursor = n;
    int hops = 0;
    while (!h.at(cursor).table().at(4).owned) {
      cursor = h.at(cursor).table().at(4).prob_owner;
      ASSERT_LE(++hops, 8);
    }
    EXPECT_EQ(cursor, 7u);
  }
}

}  // namespace
}  // namespace ivy::svm
