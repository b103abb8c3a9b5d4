// Unit tests for the remote operation module: request/reply, the three
// broadcast reply schemes, forwarding chains, retransmission with
// "resend replies only when necessary", and orphan-reply absorption.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "ivy/proc/process.h"
#include "ivy/rpc/remote_op.h"

namespace ivy::rpc {
namespace {

// Requests and replies here carry a test value in an 8-byte
// acknowledgement payload.
net::Payload carrying(int value) {
  return net::AckPayload{static_cast<PageId>(value)};
}
int value_of(const net::Message& msg) {
  return static_cast<int>(std::get<net::AckPayload>(msg.payload).page);
}

class RpcTest : public testing::Test {
 protected:
  static constexpr NodeId kNodes = 4;

  RpcTest() : stats_(kNodes), ring_(sim_, stats_, kNodes) {
    for (NodeId n = 0; n < kNodes; ++n) {
      ops_.push_back(std::make_unique<RemoteOp>(sim_, ring_, stats_, n));
    }
  }

  RemoteOp& op(NodeId n) { return *ops_[n]; }

  sim::Simulator sim_;
  Stats stats_;
  net::Ring ring_;
  std::vector<std::unique_ptr<RemoteOp>> ops_;
};

TEST_F(RpcTest, RequestReplyRoundtrip) {
  int served = 0;
  op(1).set_handler(net::MsgKind::kAllocRequest, [&](net::Message&& msg) {
    ++served;
    op(1).reply_to(msg, carrying(value_of(msg) * 2));
  });
  int got = -1;
  op(0).request(1, net::MsgKind::kAllocRequest, carrying(21),
                [&](net::Message&& reply) {
                  got = value_of(reply);
                });
  sim_.run_until_idle();
  EXPECT_EQ(served, 1);
  EXPECT_EQ(got, 42);
  EXPECT_EQ(op(0).outstanding_requests(), 0u);
}

TEST_F(RpcTest, DeferredReplyViaPendingHandle) {
  PendingReply pending;
  op(2).set_handler(net::MsgKind::kAllocRequest, [&](net::Message&& msg) {
    pending = RemoteOp::reply_later(msg);
    // Answer 10 ms later from an unrelated event.
    sim_.schedule_after(ms(10), [&] { op(2).reply(pending, carrying(7)); });
  });
  int got = -1;
  op(0).request(2, net::MsgKind::kAllocRequest, carrying(0),
                [&](net::Message&& reply) {
                  got = value_of(reply);
                });
  sim_.run_until_idle();
  EXPECT_EQ(got, 7);
}

TEST_F(RpcTest, ForwardingChainRepliesToOrigin) {
  // 0 -> 1 -> 2 -> 3, node 3 serves; no intermediate replies.
  op(1).set_handler(net::MsgKind::kReadFault,
                    [&](net::Message&& msg) { op(1).forward(std::move(msg), 2); });
  op(2).set_handler(net::MsgKind::kReadFault,
                    [&](net::Message&& msg) { op(2).forward(std::move(msg), 3); });
  int served_at_3 = 0;
  op(3).set_handler(net::MsgKind::kReadFault, [&](net::Message&& msg) {
    ++served_at_3;
    EXPECT_EQ(msg.origin, 0u);
    EXPECT_EQ(msg.src, 2u);  // immediate sender is the last forwarder
    op(3).reply_to(msg, carrying(99));
  });
  int got = -1;
  op(0).request(1, net::MsgKind::kReadFault, carrying(0),
                [&](net::Message&& reply) {
                  got = value_of(reply);
                  EXPECT_EQ(reply.src, 3u);
                });
  sim_.run_until_idle();
  EXPECT_EQ(served_at_3, 1);
  EXPECT_EQ(got, 99);
  EXPECT_EQ(stats_.total(Counter::kForwards), 2u);
}

TEST_F(RpcTest, BroadcastAnyTakesFirstReply) {
  for (NodeId n = 1; n < kNodes; ++n) {
    op(n).set_handler(net::MsgKind::kReadFault, [this, n](net::Message&& msg) {
      if (n == 2) {
        op(n).reply_to(msg, carrying(static_cast<int>(n)));
      } else {
        op(n).ignore(msg);
      }
    });
  }
  int got = -1;
  int replies = 0;
  op(0).broadcast(net::MsgKind::kReadFault, carrying(0), BcastReply::kAny,
                  [&](net::Message&& reply) {
                    ++replies;
                    got = value_of(reply);
                  });
  sim_.run_until_idle();
  EXPECT_EQ(replies, 1);
  EXPECT_EQ(got, 2);
}

TEST_F(RpcTest, BroadcastAllCollectsEveryPeer) {
  for (NodeId n = 1; n < kNodes; ++n) {
    op(n).set_handler(net::MsgKind::kInvalidateBcast,
                      [this, n](net::Message&& msg) {
                        op(n).reply_to(msg, carrying(static_cast<int>(n)));
                      });
  }
  std::set<int> values;
  op(0).broadcast(net::MsgKind::kInvalidateBcast, carrying(0),
                  BcastReply::kAll, nullptr,
                  [&](std::vector<net::Message>&& replies) {
                    for (auto& r : replies) {
                      values.insert(value_of(r));
                    }
                  });
  sim_.run_until_idle();
  EXPECT_EQ(values, (std::set<int>{1, 2, 3}));
}

TEST_F(RpcTest, BroadcastNoneExpectsNothing) {
  int heard = 0;
  for (NodeId n = 1; n < kNodes; ++n) {
    op(n).set_handler(net::MsgKind::kLoadHint, [&, n](net::Message&& msg) {
      ++heard;
      op(n).ignore(msg);
    });
  }
  op(0).broadcast(net::MsgKind::kLoadHint, net::EmptyPayload{}, BcastReply::kNone);
  sim_.run_until_idle();
  EXPECT_EQ(heard, 3);
  EXPECT_EQ(op(0).outstanding_requests(), 0u);
}

TEST_F(RpcTest, EveryKindKeepsItsFrameSizes) {
  // Pins each kind's request and reply payload size to the byte count
  // its send site stated before sizes were derived from the payload.
  // Every first reply is lost, so the done-cache resend is sized too.
  const net::PageBody body =
      std::make_shared<const std::vector<std::byte>>(1024);
  net::GrantPayload grant;
  grant.body = body;
  svm::PageTransfer stack_page;
  stack_page.body = body;
  auto migrant = std::make_shared<proc::PcbTransfer>();
  migrant->pages = {stack_page, svm::PageTransfer{}};  // current page + one
  const std::uint32_t migrant_bytes = migrant->wire_bytes();
  EXPECT_EQ(migrant_bytes, 256u + (16 + 1024) + 16);

  struct Row {
    net::MsgKind kind;
    net::Payload request;
    net::Payload reply;
    std::uint32_t request_bytes;
    std::uint32_t reply_bytes;
  };
  using K = net::MsgKind;
  const Row rows[] = {
      {K::kReadFault, net::FaultPayload{}, grant, 24, 32 + 1024},
      {K::kWriteFault, net::FaultPayload{}, net::GrantPayload{}, 24, 32},
      {K::kInvalidate, net::InvalidatePayload{}, net::AckPayload{}, 32, 8},
      {K::kInvalidateBcast, net::InvalidatePayload{}, net::AckPayload{}, 32,
       8},
      {K::kGrantAck, net::GrantAckPayload{}, net::AckPayload{}, 24, 8},
      {K::kGrantPush, grant, net::AckPayload{}, 32 + 1024, 8},
      {K::kMigrateAsk, net::MigrateAskPayload{}, net::MigrateReplyPayload{},
       16, 16},
      {K::kMigrateAsk, net::MigrateAskPayload{},
       net::MigrateReplyPayload{migrant, migrant_bytes}, 16, migrant_bytes},
      {K::kRemoteResume, net::ResumePayload{}, net::EmptyPayload{}, 20, 8},
      {K::kAllocRequest, net::AllocRequestPayload{}, net::AllocReplyPayload{},
       16, 16},
      {K::kFreeRequest, net::FreeRequestPayload{}, net::EmptyPayload{}, 16,
       8},
  };
  op(0).set_request_timeout(ms(50));
  op(0).set_check_interval(ms(50));
  std::vector<net::Message> frames;
  std::set<std::uint64_t> lost;
  ring_.set_drop_hook([&](const net::Message& msg) {
    frames.push_back(msg);
    return msg.is_reply && lost.insert(msg.rpc_id).second;
  });
  for (const Row& row : rows) {
    frames.clear();
    op(1).set_handler(row.kind, [&](net::Message&& msg) {
      op(1).reply_to(msg, row.reply);
    });
    bool answered = false;
    op(0).request(1, row.kind, row.request,
                  [&](net::Message&&) { answered = true; });
    sim_.run_until_idle();
    ASSERT_TRUE(answered) << net::to_string(row.kind);
    int replies = 0;
    for (const net::Message& f : frames) {
      replies += f.is_reply ? 1 : 0;
      EXPECT_EQ(f.wire_bytes, f.is_reply ? row.reply_bytes : row.request_bytes)
          << net::to_string(row.kind) << (f.is_reply ? " reply" : " request");
    }
    EXPECT_EQ(replies, 2) << net::to_string(row.kind);  // lost, then resent
  }
  // The load hint is a no-reply broadcast with nothing but the hint byte.
  frames.clear();
  op(0).broadcast(K::kLoadHint, net::EmptyPayload{}, BcastReply::kNone);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].wire_bytes, 8u);
}

TEST_F(RpcTest, RetransmitsThroughDroppedRequest) {
  int drops = 1;
  ring_.set_drop_hook([&](const net::Message& msg) {
    return !msg.is_reply && drops-- > 0;  // lose the first request frame
  });
  op(0).set_request_timeout(ms(50));
  op(0).set_check_interval(ms(50));
  int served = 0;
  op(1).set_handler(net::MsgKind::kAllocRequest, [&](net::Message&& msg) {
    ++served;
    op(1).reply_to(msg, carrying(5));
  });
  int got = -1;
  op(0).request(1, net::MsgKind::kAllocRequest, carrying(0),
                [&](net::Message&& reply) {
                  got = value_of(reply);
                });
  sim_.run_until_idle();
  EXPECT_EQ(got, 5);
  EXPECT_EQ(served, 1);
  EXPECT_GE(stats_.total(Counter::kRetransmissions), 1u);
}

TEST_F(RpcTest, DroppedReplyIsResentWithoutReexecution) {
  int drops = 1;
  ring_.set_drop_hook([&](const net::Message& msg) {
    return msg.is_reply && drops-- > 0;  // lose the first reply frame
  });
  op(0).set_request_timeout(ms(50));
  op(0).set_check_interval(ms(50));
  int served = 0;
  op(1).set_handler(net::MsgKind::kAllocRequest, [&](net::Message&& msg) {
    ++served;
    op(1).reply_to(msg, carrying(11));
  });
  int got = -1;
  op(0).request(1, net::MsgKind::kAllocRequest, carrying(0),
                [&](net::Message&& reply) {
                  got = value_of(reply);
                });
  sim_.run_until_idle();
  EXPECT_EQ(got, 11);
  // "resend replies only when necessary": the handler ran once; the
  // duplicate request was answered from the done-cache.
  EXPECT_EQ(served, 1);
}

TEST_F(RpcTest, AnsweredAttemptGetsNoSecondReply) {
  // A copy of an answered request that is no retransmission (a trailing
  // broadcast or forwarded copy, a duplicated frame) carries the attempt
  // already answered: the server drops it instead of resending the
  // cached reply.  Only a higher attempt earns a resend, once.
  int served = 0;
  op(1).set_handler(net::MsgKind::kAllocRequest, [&](net::Message&& msg) {
    ++served;
    op(1).reply_to(msg, carrying(4));
  });
  int reply_frames = 0;
  ring_.set_drop_hook([&](const net::Message& msg) {
    if (msg.is_reply) ++reply_frames;
    return false;
  });
  std::uint64_t rpc_id = 0;
  op(0).request(1, net::MsgKind::kAllocRequest, carrying(0),
                [&](net::Message&& reply) { rpc_id = reply.rpc_id; });
  sim_.run_until_idle();
  ASSERT_NE(rpc_id, 0u);
  EXPECT_EQ(reply_frames, 1);

  const auto copy = [&](std::uint32_t attempt) {
    net::Message m;
    m.src = 0;
    m.dst = 1;
    m.kind = net::MsgKind::kAllocRequest;
    m.rpc_id = rpc_id;
    m.origin = 0;
    m.attempt = attempt;
    m.payload = carrying(0);
    m.wire_bytes = 8;
    ring_.send(std::move(m));
    sim_.run_until_idle();
  };
  copy(0);  // same attempt as the one answered
  EXPECT_EQ(reply_frames, 1);
  EXPECT_EQ(stats_.total(Counter::kReplyResends), 0u);
  copy(1);  // a retransmission: the reply may have been lost
  EXPECT_EQ(reply_frames, 2);
  EXPECT_EQ(stats_.total(Counter::kReplyResends), 1u);
  copy(1);  // a duplicate of that retransmission
  EXPECT_EQ(reply_frames, 2);
  EXPECT_EQ(stats_.total(Counter::kReplyResends), 1u);
  EXPECT_EQ(served, 1);
}

TEST_F(RpcTest, RetransmissionAfterLostReplyIsAnsweredOnce) {
  int reply_frames = 0;
  ring_.set_drop_hook([&](const net::Message& msg) {
    return msg.is_reply && ++reply_frames == 1;  // lose the first reply
  });
  op(0).set_request_timeout(ms(50));
  op(0).set_check_interval(ms(50));
  int served = 0;
  op(1).set_handler(net::MsgKind::kAllocRequest, [&](net::Message&& msg) {
    ++served;
    op(1).reply_to(msg, carrying(12));
  });
  int replies = 0;
  op(0).request(1, net::MsgKind::kAllocRequest, carrying(0),
                [&](net::Message&& reply) {
                  ++replies;
                  EXPECT_EQ(value_of(reply), 12);
                });
  sim_.run_until_idle();
  EXPECT_EQ(served, 1);
  EXPECT_EQ(replies, 1);
  EXPECT_EQ(stats_.total(Counter::kRetransmissions), 1u);
  // The lost reply and exactly one resend from the done-cache.
  EXPECT_EQ(reply_frames, 2);
  EXPECT_EQ(stats_.total(Counter::kReplyResends), 1u);
}

TEST_F(RpcTest, DuplicateWhileInProgressIsSwallowed) {
  // Server defers; a duplicate (from retransmission) must not re-run the
  // handler or produce a second reply.
  op(0).set_request_timeout(ms(20));
  op(0).set_check_interval(ms(20));
  int served = 0;
  PendingReply pending;
  op(1).set_handler(net::MsgKind::kAllocRequest, [&](net::Message&& msg) {
    ++served;
    pending = RemoteOp::reply_later(msg);
    sim_.schedule_after(ms(100), [&] { op(1).reply(pending, carrying(3)); });
  });
  int replies = 0;
  op(0).request(1, net::MsgKind::kAllocRequest, carrying(0),
                [&](net::Message&&) { ++replies; });
  sim_.run_until_idle();
  EXPECT_EQ(served, 1);
  EXPECT_EQ(replies, 1);
  EXPECT_GE(stats_.total(Counter::kRetransmissions), 1u);
}

TEST_F(RpcTest, LoadHintsPiggybackOnEveryMessage) {
  op(0).set_load_hint_provider([] { return std::uint8_t{9}; });
  std::uint8_t heard = 0;
  op(1).set_load_hint_consumer(
      [&](NodeId from, std::uint8_t hint) {
        if (from == 0) heard = hint;
      });
  op(1).set_handler(net::MsgKind::kAllocRequest, [&](net::Message&& msg) {
    op(1).reply_to(msg, carrying(0));
  });
  op(0).request(1, net::MsgKind::kAllocRequest, carrying(0),
                [](net::Message&&) {});
  sim_.run_until_idle();
  EXPECT_EQ(heard, 9);
}

TEST_F(RpcTest, OrphanReplyHandlerSeesLateDuplicates) {
  // Two servers race to answer the same broadcast; the loser's reply has
  // no outstanding entry left and lands in the orphan handler.
  for (NodeId n : {1u, 2u}) {
    op(n).set_handler(net::MsgKind::kWriteFault, [this, n](net::Message&& msg) {
      op(n).reply_to(msg, carrying(static_cast<int>(n)));
    });
  }
  op(3).set_handler(net::MsgKind::kWriteFault,
                    [this](net::Message&& msg) { op(3).ignore(msg); });
  int first = -1;
  int orphaned = -1;
  op(0).set_orphan_reply_handler(
      net::MsgKind::kWriteFault, [&](net::Message&& msg) {
        orphaned = value_of(msg);
      });
  op(0).broadcast(net::MsgKind::kWriteFault, carrying(0), BcastReply::kAny,
                  [&](net::Message&& reply) {
                    first = value_of(reply);
                  });
  sim_.run_until_idle();
  EXPECT_NE(first, -1);
  EXPECT_NE(orphaned, -1);
  EXPECT_NE(first, orphaned);
}

TEST_F(RpcTest, DuplicateReplyWindowHoldsTheLast4096Replies) {
  // A client acts on each (server, rpc) reply once.  A duplicated reply
  // frame is swallowed while its key is among the last 4096 replies the
  // client processed; once 4096 newer ones pushed it out, the duplicate
  // reaches the orphan handler.
  op(1).set_handler(net::MsgKind::kAllocRequest, [&](net::Message&& msg) {
    op(1).reply_to(msg, carrying(value_of(msg)));
  });
  int orphans = 0;
  op(0).set_orphan_reply_handler(net::MsgKind::kAllocRequest,
                                 [&](net::Message&&) { ++orphans; });
  const auto exchange = [&](int value) {
    op(0).request(1, net::MsgKind::kAllocRequest, carrying(value),
                  [](net::Message&&) {});
    sim_.run_until_idle();
  };
  net::Message first;
  op(0).request(1, net::MsgKind::kAllocRequest, carrying(0),
                [&](net::Message&& reply) { first = std::move(reply); });
  sim_.run_until_idle();
  const auto duplicate = [&] {
    ring_.send(first);
    sim_.run_until_idle();
  };

  duplicate();
  EXPECT_EQ(orphans, 0);
  for (int i = 1; i < 4096; ++i) exchange(i);
  duplicate();  // 4095 newer replies: still inside the window
  EXPECT_EQ(orphans, 0);
  exchange(4096);
  duplicate();  // the 4096th pushed it out
  EXPECT_EQ(orphans, 1);
  duplicate();  // the orphaned copy was noted in its turn
  EXPECT_EQ(orphans, 1);
  EXPECT_EQ(op(1).pending_serves(), 0u);
  EXPECT_EQ(op(0).outstanding_requests(), 0u);
}

TEST_F(RpcTest, BackoffSpacesRetransmissionsExponentially) {
  // Drop every request frame so the client retransmits to its cap; the
  // replies never happen.  Waits must grow roughly geometrically.
  op(0).set_request_timeout(ms(10));
  op(0).set_check_interval(ms(1));
  op(0).set_max_retransmits(5);
  std::vector<Time> sent_at;
  ring_.set_drop_hook([&](const net::Message& msg) {
    if (!msg.is_reply) sent_at.push_back(sim_.now());
    return !msg.is_reply;
  });
  bool failed = false;
  op(0).request(
      1, net::MsgKind::kAllocRequest, carrying(0),
      [](net::Message&&) { FAIL() << "no reply can arrive"; }, 0,
      [&](const RequestFailure& f) {
        failed = true;
        EXPECT_EQ(f.attempts, 6u);  // original + 5 retransmissions
        EXPECT_EQ(f.dst, 1u);
      });
  sim_.run_until_idle();
  EXPECT_TRUE(failed);
  ASSERT_EQ(sent_at.size(), 6u);
  // First retransmit near the base timeout; later gaps grow (jitter is
  // +-25%, so each gap is at least 1.5x the previous one's lower bound).
  const Time gap1 = sent_at[2] - sent_at[1];
  const Time gap3 = sent_at[4] - sent_at[3];
  EXPECT_GE(sent_at[1] - sent_at[0], ms(10));
  EXPECT_GT(gap3, gap1);
  EXPECT_GE(stats_.total(Counter::kRpcBackoffs), 3u);
  EXPECT_EQ(stats_.total(Counter::kRpcFailures), 1u);
  EXPECT_EQ(op(0).outstanding_requests(), 0u);  // no hang, no leak
}

TEST_F(RpcTest, NodeFailureHandlerCatchesTerminalFailure) {
  ring_.set_drop_hook(
      [](const net::Message& msg) { return !msg.is_reply; });
  op(0).set_request_timeout(ms(10));
  op(0).set_check_interval(ms(5));
  op(0).set_max_retransmits(2);
  int node_level = 0;
  op(0).set_failure_handler([&](const RequestFailure& f) {
    ++node_level;
    EXPECT_EQ(f.kind, net::MsgKind::kReadFault);
  });
  op(0).request(1, net::MsgKind::kReadFault, carrying(0),
                [](net::Message&&) { FAIL() << "no reply can arrive"; });
  sim_.run_until_idle();
  EXPECT_EQ(node_level, 1);
}

TEST_F(RpcTest, DoneCacheEvictionForcesReexecution) {
  // Regression for the silent-eviction bug: with a tiny done-cache, a
  // duplicate arriving after its cached reply was pushed out re-executes
  // the handler.  The counters must make that visible.
  op(1).set_done_cache_capacity(1);
  int served = 0;
  op(1).set_handler(net::MsgKind::kAllocRequest, [&](net::Message&& msg) {
    ++served;
    op(1).reply_to(msg, carrying(served));
  });
  // First exchange completes normally and caches its reply...
  net::Message dup;
  op(0).request(1, net::MsgKind::kAllocRequest, carrying(0),
                [&](net::Message&& reply) { dup = std::move(reply); });
  sim_.run_until_idle();
  EXPECT_EQ(served, 1);
  // ...then a second, distinct exchange evicts it (capacity 1)...
  op(2).request(1, net::MsgKind::kAllocRequest, carrying(0),
                [](net::Message&&) {});
  sim_.run_until_idle();
  EXPECT_EQ(served, 2);
  EXPECT_GE(stats_.total(Counter::kDoneCacheEvictions), 1u);
  // ...so a late duplicate of the first request is no longer recognized
  // and re-executes instead of resending the cached reply.
  net::Message replay;
  replay.src = 0;
  replay.dst = 1;
  replay.kind = net::MsgKind::kAllocRequest;
  replay.rpc_id = dup.rpc_id;
  replay.origin = 0;
  replay.payload = carrying(0);
  replay.wire_bytes = 8;
  ring_.send(std::move(replay));
  sim_.run_until_idle();
  EXPECT_EQ(served, 3);  // re-executed: the contract tests document
  EXPECT_GE(stats_.total(Counter::kDupReexecutions), 1u);
}

TEST_F(RpcTest, DoneCacheWithinCapacityStillSuppressesDuplicates) {
  // Same replay, ample capacity: answered from the cache, no re-run.
  int served = 0;
  op(1).set_handler(net::MsgKind::kAllocRequest, [&](net::Message&& msg) {
    ++served;
    op(1).reply_to(msg, carrying(served));
  });
  net::Message dup;
  op(0).request(1, net::MsgKind::kAllocRequest, carrying(0),
                [&](net::Message&& reply) { dup = std::move(reply); });
  sim_.run_until_idle();
  net::Message replay;
  replay.src = 0;
  replay.dst = 1;
  replay.kind = net::MsgKind::kAllocRequest;
  replay.rpc_id = dup.rpc_id;
  replay.origin = 0;
  replay.payload = carrying(0);
  replay.wire_bytes = 8;
  ring_.send(std::move(replay));
  sim_.run_until_idle();
  EXPECT_EQ(served, 1);
  EXPECT_EQ(stats_.total(Counter::kDoneCacheEvictions), 0u);
  EXPECT_EQ(stats_.total(Counter::kDupReexecutions), 0u);
}

}  // namespace
}  // namespace ivy::rpc
