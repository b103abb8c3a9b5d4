// Unit tests for ivy::fault: the --fault grammar, rule matching, and the
// deterministic fault plane's delivery planning.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ivy/fault/plane.h"
#include "ivy/fault/spec.h"

namespace ivy::fault {
namespace {

TEST(ParseDuration, SuffixesAndBareNanoseconds) {
  Time t = 0;
  EXPECT_TRUE(parse_duration("250", &t));
  EXPECT_EQ(t, 250);
  EXPECT_TRUE(parse_duration("50us", &t));
  EXPECT_EQ(t, us(50));
  EXPECT_TRUE(parse_duration("2ms", &t));
  EXPECT_EQ(t, ms(2));
  EXPECT_TRUE(parse_duration("1s", &t));
  EXPECT_EQ(t, sec(1));
  EXPECT_TRUE(parse_duration("1.5ms", &t));
  EXPECT_EQ(t, us(1500));
  EXPECT_FALSE(parse_duration("", &t));
  EXPECT_FALSE(parse_duration("10m", &t));  // minutes not a unit
  EXPECT_FALSE(parse_duration("-3ms", &t));
  EXPECT_FALSE(parse_duration("abc", &t));
}

TEST(ParseFaultSpec, ExampleFromTheIssue) {
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(parse_fault_spec(
      "drop=0.01,dup=0.005,delay=2ms@0.02,partition=0-3:100ms@t=50ms",
      &spec, &error))
      << error;
  ASSERT_EQ(spec.rules.size(), 4u);
  EXPECT_EQ(spec.rules[0].type, FaultType::kDrop);
  EXPECT_DOUBLE_EQ(spec.rules[0].prob, 0.01);
  EXPECT_EQ(spec.rules[1].type, FaultType::kDuplicate);
  EXPECT_DOUBLE_EQ(spec.rules[1].prob, 0.005);
  EXPECT_EQ(spec.rules[2].type, FaultType::kDelay);
  EXPECT_EQ(spec.rules[2].delay, ms(2));
  EXPECT_DOUBLE_EQ(spec.rules[2].prob, 0.02);
  EXPECT_EQ(spec.rules[3].type, FaultType::kPartition);
  EXPECT_EQ(spec.rules[3].pair_a, 0u);
  EXPECT_EQ(spec.rules[3].pair_b, 3u);
  EXPECT_EQ(spec.rules[3].window_start, ms(50));
  EXPECT_EQ(spec.rules[3].window_end, ms(150));
  EXPECT_DOUBLE_EQ(spec.rules[3].prob, 1.0);
}

TEST(ParseFaultSpec, Qualifiers) {
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(parse_fault_spec(
      "drop=0.5/kind=write_fault/pair=1-2/t=10ms+5ms", &spec, &error))
      << error;
  ASSERT_EQ(spec.rules.size(), 1u);
  const FaultRule& r = spec.rules[0];
  ASSERT_TRUE(r.kind.has_value());
  EXPECT_EQ(*r.kind, net::MsgKind::kWriteFault);
  EXPECT_EQ(r.pair_a, 1u);
  EXPECT_EQ(r.pair_b, 2u);
  EXPECT_EQ(r.window_start, ms(10));
  EXPECT_EQ(r.window_end, ms(15));
}

TEST(ParseFaultSpec, RejectsMalformedInput) {
  FaultSpec spec;
  std::string error;
  EXPECT_FALSE(parse_fault_spec("drop=1.5", &spec, &error));  // p > 1
  EXPECT_FALSE(parse_fault_spec("drop", &spec, &error));
  EXPECT_FALSE(parse_fault_spec("smash=0.1", &spec, &error));
  EXPECT_FALSE(parse_fault_spec("delay=0.02", &spec, &error));  // no DUR@
  EXPECT_FALSE(parse_fault_spec("partition=0-0:1ms@t=0", &spec, &error));
  EXPECT_FALSE(parse_fault_spec("partition=0-1:1ms", &spec, &error));
  EXPECT_FALSE(parse_fault_spec("drop=0.1/kind=bogus", &spec, &error));
  EXPECT_FALSE(parse_fault_spec("drop=0.1,,dup=0.1", &spec, &error));
  EXPECT_FALSE(error.empty());
}

TEST(ParseFaultSpec, EveryMessageKindNameParsesBack) {
  // grant_push was once missing from the parser's own roster.
  for (const net::MsgKindName& k : net::kMsgKindNames) {
    if (k.kind == net::MsgKind::kInvalid) continue;
    FaultSpec spec;
    std::string error;
    ASSERT_TRUE(parse_fault_spec(
        std::string("drop=0.1/kind=") + net::to_string(k.kind), &spec,
        &error))
        << k.name << ": " << error;
    ASSERT_EQ(spec.rules.size(), 1u);
    EXPECT_EQ(spec.rules[0].kind, k.kind) << k.name;
  }
  FaultSpec spec;
  std::string error;
  EXPECT_TRUE(parse_fault_spec("drop=0.1/kind=grant_push", &spec, &error));
  EXPECT_FALSE(parse_fault_spec("drop=0.1/kind=page_out", &spec, &error));
}

TEST(ParseFaultSpec, EmptyStringIsNoFaults) {
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(parse_fault_spec("", &spec, &error));
  EXPECT_FALSE(spec.active());
}

net::Message make_msg(NodeId src, net::MsgKind kind) {
  net::Message m;
  m.src = src;
  m.kind = kind;
  return m;
}

TEST(FaultRuleMatch, KindPairAndWindowFilters) {
  FaultRule r;
  r.type = FaultType::kDrop;
  r.prob = 1.0;
  r.kind = net::MsgKind::kWriteFault;
  r.pair_a = 0;
  r.pair_b = 3;
  r.window_start = ms(10);
  r.window_end = ms(20);

  const auto wf = make_msg(0, net::MsgKind::kWriteFault);
  EXPECT_TRUE(r.matches(wf, 3, ms(15)));
  EXPECT_TRUE(r.matches(make_msg(3, net::MsgKind::kWriteFault), 0, ms(15)));
  EXPECT_FALSE(r.matches(make_msg(0, net::MsgKind::kReadFault), 3, ms(15)));
  EXPECT_FALSE(r.matches(wf, 2, ms(15)));          // wrong pair
  EXPECT_FALSE(r.matches(wf, 3, ms(5)));           // before window
  EXPECT_FALSE(r.matches(wf, 3, ms(20)));          // window end exclusive
}

class FaultPlaneTest : public testing::Test {
 protected:
  FaultPlaneTest() : stats_(4) {}

  FaultPlane make_plane(const std::string& spec_text,
                        std::uint64_t seed = 1) {
    FaultSpec spec;
    std::string error;
    EXPECT_TRUE(parse_fault_spec(spec_text, &spec, &error)) << error;
    return FaultPlane(spec, seed, stats_, [this] { return now_; });
  }

  Stats stats_;
  Time now_ = 0;
};

TEST_F(FaultPlaneTest, SameSeedSamePlans) {
  std::vector<bool> first;
  for (int round = 0; round < 2; ++round) {
    FaultPlane plane = make_plane("drop=0.3", 42);
    std::vector<bool> drops;
    for (int i = 0; i < 200; ++i) {
      drops.push_back(
          plane.plan_delivery(make_msg(0, net::MsgKind::kReadFault), 1).drop);
    }
    if (round == 0) {
      first = drops;
      EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
      EXPECT_NE(std::count(first.begin(), first.end(), true), 200);
    } else {
      EXPECT_EQ(drops, first);
    }
  }
}

TEST_F(FaultPlaneTest, DifferentSeedsDiverge) {
  FaultPlane a = make_plane("drop=0.5", 1);
  FaultPlane b = make_plane("drop=0.5", 2);
  bool diverged = false;
  for (int i = 0; i < 64 && !diverged; ++i) {
    const auto msg = make_msg(0, net::MsgKind::kReadFault);
    diverged = a.plan_delivery(msg, 1).drop != b.plan_delivery(msg, 1).drop;
  }
  EXPECT_TRUE(diverged);
}

TEST_F(FaultPlaneTest, PartitionCutsBothDirectionsOnlyInWindow) {
  FaultPlane plane = make_plane("partition=1-2:10ms@t=50ms");
  const auto m12 = make_msg(1, net::MsgKind::kWriteFault);
  const auto m21 = make_msg(2, net::MsgKind::kWriteFault);

  now_ = ms(55);
  EXPECT_TRUE(plane.plan_delivery(m12, 2).drop);
  EXPECT_TRUE(plane.plan_delivery(m21, 1).drop);
  EXPECT_FALSE(plane.plan_delivery(m12, 3).drop);  // other peers unaffected

  now_ = ms(61);  // healed
  EXPECT_FALSE(plane.plan_delivery(m12, 2).drop);
  EXPECT_EQ(plane.injected(FaultType::kPartition), 2u);
  EXPECT_EQ(stats_.total(Counter::kFaultsInjected), 2u);
}

TEST_F(FaultPlaneTest, CorruptAndDelayPlans) {
  FaultPlane plane = make_plane("corrupt=1,delay=3ms@1");
  const auto plan =
      plane.plan_delivery(make_msg(0, net::MsgKind::kReadFault), 1);
  EXPECT_TRUE(plan.corrupt);
  EXPECT_EQ(plan.extra_delay, ms(3));
  EXPECT_FALSE(plan.drop);
  EXPECT_EQ(plane.injected(FaultType::kCorrupt), 1u);
  EXPECT_EQ(plane.injected(FaultType::kDelay), 1u);
}

TEST_F(FaultPlaneTest, DuplicateUsesRuleSpacing) {
  FaultPlane plane = make_plane("dup=1/kind=rpc_reply");
  net::Message reply = make_msg(2, net::MsgKind::kRpcReply);
  const auto plan = plane.plan_delivery(reply, 0);
  EXPECT_TRUE(plan.duplicate);
  EXPECT_GT(plan.duplicate_delay, 0);
  // Kind filter: a non-reply is untouched.
  const auto other =
      plane.plan_delivery(make_msg(2, net::MsgKind::kReadFault), 0);
  EXPECT_FALSE(other.duplicate);
}

TEST(FaultTypeNames, RoundTrip) {
  for (std::size_t i = 0; i < kFaultTypeCount; ++i) {
    EXPECT_STRNE(to_string(static_cast<FaultType>(i)), "?");
  }
}

}  // namespace
}  // namespace ivy::fault
