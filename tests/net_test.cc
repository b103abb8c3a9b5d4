// Unit tests for the simulated token ring: serialization on the shared
// medium, FIFO delivery, broadcast and multicast fan-out (one event per
// frame arrival, copies in node order), drop injection, fault-hook
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
  // The first recipient schedules an event for the arrival time itself;
  // it runs only after the last recipient was handed its copy.
  ring_.set_handler(0, [this](Message&& msg) {
    received_.push_back({0, std::move(msg), sim_.now()});
    sim_.schedule_at(sim_.now(), [this] {
      received_.push_back({kNoNode, Message{}, sim_.now()});
    });
  });
  ring_.send(make(1, kBroadcast));
  sim_.run_until_idle();
  ASSERT_EQ(received_.size(), 4u);
  std::vector<NodeId> order;
  for (const auto& d : received_) {
    order.push_back(d.at);
    EXPECT_EQ(d.when, received_[0].when);  // one frame, one arrival time
  }
  // Node order, then the recipient's own event.
  EXPECT_EQ(order, (std::vector<NodeId>{0, 2, 3, kNoNode}));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(received_[i].msg.dst, order[i]);
  }
  // One event handed over every copy; the other is node 0's.
  EXPECT_EQ(sim_.events_executed(), 2u);
  EXPECT_EQ(stats_.total(Counter::kBroadcasts), 1u);
  EXPECT_EQ(stats_.total(Counter::kMessages), 0u);
}

TEST_F(RingTest, MulticastReachesAddressedStationsInNodeOrder) {
  Message m = make(2, kMulticast);
  m.mcast.add(3);
  m.mcast.add(0);
  ring_.send(std::move(m));
  sim_.run_until_idle();
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(received_[0].at, 0u);
  EXPECT_EQ(received_[1].at, 3u);
  EXPECT_EQ(received_[0].when, received_[1].when);
  EXPECT_EQ(sim_.events_executed(), 1u);
  EXPECT_EQ(stats_.total(Counter::kMulticasts), 1u);
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

TEST_F(RingTest, FaultedCopiesKeepTheirOrder) {
  // Broadcast from 1: node 0's copy is delayed, node 2's is duplicated
  // with no extra delay, node 3's is corrupted.  The copies that arrive
  // with the frame are handed over in node order (2, 2, then 3's frame
  // check), and the delayed copy arrives alone, later.
  ScriptedHook hook;
  hook.plans = {{.extra_delay = us(5)},
                {.duplicate = true, .duplicate_delay = 0},
                {.corrupt = true}};
  ring_.set_fault_hook(&hook);
  std::vector<std::uint64_t> drops_seen;
  for (NodeId n : {0u, 2u}) {
    ring_.set_handler(n, [this, n, &drops_seen](Message&& msg) {
      drops_seen.push_back(stats_.node_total(3, Counter::kChecksumDrops));
      received_.push_back({n, std::move(msg), sim_.now()});
    });
  }
  ring_.send(make(1, kBroadcast));
  sim_.run_until_idle();
  ASSERT_EQ(received_.size(), 3u);
  EXPECT_EQ(received_[0].at, 2u);
  EXPECT_EQ(received_[1].at, 2u);
  EXPECT_EQ(received_[0].when, received_[1].when);
  EXPECT_EQ(received_[2].at, 0u);
  EXPECT_EQ(received_[2].when - received_[0].when, us(5));
  // Node 3's frame check ran after node 2's copies, before node 0's.
  EXPECT_EQ(drops_seen, (std::vector<std::uint64_t>{0, 0, 1}));
  // One event at the arrival, one for the delayed copy.
  EXPECT_EQ(sim_.events_executed(), 2u);
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
