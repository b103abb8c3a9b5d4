#include "ivy/fault/plane.h"

#include <utility>

#include "ivy/trace/trace.h"

namespace ivy::fault {
namespace {

/// Default spacing of a duplicate's second copy when the rule gives none:
/// a few microseconds, enough to land behind other traffic.
constexpr Time kDefaultDupSpacing = us(5);

}  // namespace

FaultPlane::FaultPlane(FaultSpec spec, std::uint64_t seed, Stats& stats,
                       std::function<Time()> clock)
    : spec_(std::move(spec)),
      rng_(seed),
      stats_(stats),
      clock_(std::move(clock)) {}

void FaultPlane::account(const net::Message& msg, FaultType type) {
  ++injected_[static_cast<std::size_t>(type)];
  stats_.bump(msg.src, Counter::kFaultsInjected);
  if (trace::Tracer* tr = stats_.tracer()) {
    tr->record(msg.src, trace::EventKind::kFaultInjected,
               static_cast<std::uint64_t>(msg.kind),
               static_cast<std::uint64_t>(type));
  }
}

FaultPlane::Plan FaultPlane::plan_delivery(const net::Message& msg,
                                           NodeId recipient) {
  Plan plan;
  const Time now = clock_();
  for (const FaultRule& rule : spec_.rules) {
    if (!rule.matches(msg, recipient, now)) continue;
    switch (rule.type) {
      case FaultType::kPartition:
        // Deterministic: a severed pair exchanges nothing in the window.
        account(msg, FaultType::kPartition);
        plan.drop = true;
        return plan;
      case FaultType::kDrop:
        if (rng_.chance(rule.prob)) {
          account(msg, FaultType::kDrop);
          plan.drop = true;
          return plan;  // a lost frame suffers no further faults
        }
        break;
      case FaultType::kDuplicate:
        if (!plan.duplicate && rng_.chance(rule.prob)) {
          account(msg, FaultType::kDuplicate);
          plan.duplicate = true;
          plan.duplicate_delay =
              rule.delay > 0 ? rule.delay : kDefaultDupSpacing;
        }
        break;
      case FaultType::kDelay:
        if (rng_.chance(rule.prob)) {
          account(msg, FaultType::kDelay);
          plan.extra_delay += rule.delay;
        }
        break;
      case FaultType::kCorrupt:
        if (!plan.corrupt && rng_.chance(rule.prob)) {
          account(msg, FaultType::kCorrupt);
          plan.corrupt = true;
        }
        break;
    }
  }
  return plan;
}

}  // namespace ivy::fault
