// Unit tests for the simulated token ring: serialization on the shared
// medium, FIFO delivery, broadcast fan-out, drop injection, fault-hook
// mechanics, and the receiver discard of corrupted frames.
#include <gtest/gtest.h>

#include "ivy/net/ring.h"

namespace ivy::net {
namespace {

class RingTest : public testing::Test {
 protected:
  RingTest() : stats_(4), ring_(sim_, stats_, 4) {
    for (NodeId n = 0; n < 4; ++n) {
      ring_.set_handler(n, [this, n](Message&& msg) {
        received_.push_back({n, std::move(msg), sim_.now()});
      });
    }
  }

  Message make(NodeId src, NodeId dst, std::uint32_t bytes = 100) {
    Message m;
    m.src = src;
    m.dst = dst;
    m.kind = MsgKind::kLoadHint;
    m.wire_bytes = bytes;
    return m;
  }

  struct Delivery {
    NodeId at;
    Message msg;
    Time when;
  };

  sim::Simulator sim_;
  Stats stats_;
  Ring ring_;
  std::vector<Delivery> received_;
};

TEST_F(RingTest, UnicastDelivers) {
  ring_.send(make(0, 2));
  sim_.run_until_idle();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].at, 2u);
  EXPECT_EQ(received_[0].msg.src, 0u);
}

TEST_F(RingTest, DeliveryIncludesLatencyAndTransmit) {
  ring_.send(make(0, 1, 1000));
  sim_.run_until_idle();
  const auto& costs = sim_.costs();
  EXPECT_EQ(received_[0].when,
            costs.transmit_time(1000) + costs.msg_latency);
}

TEST_F(RingTest, SharedMediumSerializesTransmissions) {
  // Two simultaneous sends: the second waits for the medium.
  ring_.send(make(0, 1, 1000));
  ring_.send(make(2, 3, 1000));
  sim_.run_until_idle();
  ASSERT_EQ(received_.size(), 2u);
  const Time t0 = received_[0].when;
  const Time t1 = received_[1].when;
  EXPECT_EQ(t1 - t0, sim_.costs().transmit_time(1000));
}

TEST_F(RingTest, FifoBetweenSameEndpoints) {
  for (int i = 0; i < 10; ++i) {
    Message m = make(0, 1);
    m.rpc_id = static_cast<std::uint64_t>(i);
    ring_.send(std::move(m));
  }
  sim_.run_until_idle();
  ASSERT_EQ(received_.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(received_[static_cast<size_t>(i)].msg.rpc_id,
              static_cast<std::uint64_t>(i));
  }
}

TEST_F(RingTest, BroadcastReachesAllOthersAtOnce) {
  ring_.send(make(1, kBroadcast));
  sim_.run_until_idle();
  ASSERT_EQ(received_.size(), 3u);
  std::set<NodeId> who;
  for (const auto& d : received_) {
    who.insert(d.at);
    EXPECT_EQ(d.when, received_[0].when);  // one frame, one arrival time
  }
  EXPECT_EQ(who, (std::set<NodeId>{0, 2, 3}));
  EXPECT_EQ(stats_.total(Counter::kBroadcasts), 1u);
  EXPECT_EQ(stats_.total(Counter::kMessages), 0u);
}

TEST_F(RingTest, DropHookLosesFrameAfterOccupyingMedium) {
  int dropped = 0;
  ring_.set_drop_hook([&](const Message&) { return ++dropped == 1; });
  ring_.send(make(0, 1, 1000));  // lost
  ring_.send(make(0, 2, 1000));  // delivered, but after the lost frame's slot
  sim_.run_until_idle();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].at, 2u);
  // The dropped frame still consumed ring time.
  EXPECT_EQ(received_[0].when, 2 * sim_.costs().transmit_time(1000) +
                                   sim_.costs().msg_latency);
}

TEST_F(RingTest, BytesAccountedWithFraming) {
  ring_.send(make(0, 1, 100));
  sim_.run_until_idle();
  EXPECT_EQ(stats_.total(Counter::kBytesOnRing),
            100u + sim_.costs().msg_overhead_bytes);
}

// Scripted FaultHook: one queued Plan per plan_delivery call, default
// clean delivery once the script runs out.
class ScriptedHook : public FaultHook {
 public:
  Plan plan_delivery(const Message& msg, NodeId recipient) override {
    asked.push_back({msg.kind, msg.src, recipient});
    if (next >= plans.size()) return Plan{};
    return plans[next++];
  }

  struct Asked {
    MsgKind kind;
    NodeId src;
    NodeId recipient;
  };
  std::vector<Plan> plans;
  std::size_t next = 0;
  std::vector<Asked> asked;
};

TEST_F(RingTest, FaultHookConsultedPerRecipient) {
  ScriptedHook hook;
  ring_.set_fault_hook(&hook);
  ring_.send(make(1, kBroadcast));
  sim_.run_until_idle();
  // One plan per recipient of the broadcast, none for the sender.
  ASSERT_EQ(hook.asked.size(), 3u);
  for (const auto& a : hook.asked) EXPECT_NE(a.recipient, 1u);
  EXPECT_EQ(received_.size(), 3u);
}

TEST_F(RingTest, BroadcastChargesRingTimeOnceUnderPartialDrop) {
  // A broadcast that loses two of three copies must cost the same ring
  // time (and byte accounting) as a clean one: the frame circulated
  // once; per-recipient faults only change who kept a copy.
  ScriptedHook hook;
  hook.plans = {{.drop = true}, {.drop = true}, {}};
  ring_.set_fault_hook(&hook);
  ring_.send(make(1, kBroadcast, 500));
  // A trailing unicast lands exactly one transmit slot later, proving
  // the broadcast held the medium for one slot only.
  ring_.send(make(0, 2, 500));
  sim_.run_until_idle();
  ASSERT_EQ(received_.size(), 2u);  // surviving bcast copy + unicast
  EXPECT_EQ(received_[1].when - received_[0].when,
            sim_.costs().transmit_time(500));
  EXPECT_EQ(stats_.total(Counter::kBroadcasts), 1u);
  EXPECT_EQ(stats_.total(Counter::kBytesOnRing),
            2 * (500u + sim_.costs().msg_overhead_bytes));
}

TEST_F(RingTest, FaultHookDuplicateDeliversTwice) {
  ScriptedHook hook;
  hook.plans = {{.duplicate = true, .duplicate_delay = us(7)}};
  ring_.set_fault_hook(&hook);
  ring_.send(make(0, 2));
  sim_.run_until_idle();
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(received_[0].at, 2u);
  EXPECT_EQ(received_[1].at, 2u);
  EXPECT_EQ(received_[1].when - received_[0].when, us(7));
}

TEST_F(RingTest, FaultHookDelayReordersTraffic) {
  ScriptedHook hook;
  hook.plans = {{.extra_delay = ms(1)}};
  ring_.set_fault_hook(&hook);
  Message first = make(0, 2);
  first.rpc_id = 1;  // delayed past the second frame
  Message second = make(0, 2);
  second.rpc_id = 2;
  ring_.send(std::move(first));
  ring_.send(std::move(second));
  sim_.run_until_idle();
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(received_[0].msg.rpc_id, 2u);
  EXPECT_EQ(received_[1].msg.rpc_id, 1u);
}

TEST_F(RingTest, CorruptedFrameDroppedByReceiverChecksum) {
  ScriptedHook hook;
  hook.plans = {{.corrupt = true}};
  ring_.set_fault_hook(&hook);
  ring_.send(make(0, 2));
  ring_.send(make(0, 3));  // clean
  sim_.run_until_idle();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].at, 3u);
  EXPECT_EQ(stats_.total(Counter::kChecksumDrops), 1u);
  EXPECT_EQ(stats_.node_total(2, Counter::kChecksumDrops), 1u);
}

TEST_F(RingTest, CorruptedDuplicateDropsEachCopy) {
  ScriptedHook hook;
  hook.plans = {{.corrupt = true, .duplicate = true,
                 .duplicate_delay = us(7)}};
  ring_.set_fault_hook(&hook);
  ring_.send(make(0, 2));
  sim_.run_until_idle();
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(stats_.node_total(2, Counter::kChecksumDrops), 2u);
}

TEST(RingMisc, MessageKindNamesExist) {
  for (MsgKind k : {MsgKind::kReadFault, MsgKind::kWriteFault,
                    MsgKind::kInvalidate, MsgKind::kMigrateAsk,
                    MsgKind::kRemoteResume, MsgKind::kAllocRequest}) {
    EXPECT_NE(std::string(to_string(k)), "unknown");
  }
}

}  // namespace
}  // namespace ivy::net
