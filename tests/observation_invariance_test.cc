// Observing a run must not change it.  Every point of the reduced
// ivy-bench sweep (six workloads x four managers x N = 1, 4) runs once
// unobserved and once under each observer — tracing with a metrics
// export, the cost-attribution profiler, the strict coherence oracle, and
// all of them together — and must report the same elapsed virtual time
// and the same value of every counter.  The oracle's final audit drains
// the machine, so it runs only after the program's numbers are taken
// (Runtime::final_audit).
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "ivy/apps/sweep.h"

namespace ivy::apps {
namespace {

struct Observers {
  const char* name;
  bool trace = false;
  bool prof = false;
  bool oracle = false;
};

constexpr std::array<Observers, 4> kObserved = {{
    {"trace_metrics", true, false, false},
    {"prof", false, true, false},
    {"oracle_strict", false, false, true},
    {"all", true, true, true},
}};

struct Measured {
  Time elapsed = 0;
  std::array<std::uint64_t, kCounterCount> counters{};
};

struct Point {
  const char* workload;
  svm::ManagerKind manager;
};

Measured run_point(const Point& point, NodeId nodes, const Observers& obs) {
  Config cfg = sweep_config(nodes, point.manager);
  cfg.trace_enabled = obs.trace;
  cfg.prof_enabled = obs.prof;
  if (obs.oracle) cfg.oracle_mode = oracle::Mode::kStrict;
  Runtime rt(std::move(cfg));
  const RunOutcome out = run_sweep_workload(rt, point.workload, true);
  EXPECT_TRUE(out.verified) << out.detail;

  Measured m;
  m.elapsed = out.elapsed;
  const CounterBlock agg = rt.stats().aggregate();
  for (std::size_t c = 0; c < kCounterCount; ++c) {
    m.counters[c] = agg.get(static_cast<Counter>(c));
  }
  if (obs.trace) {
    EXPECT_TRUE(rt.write_metrics(testing::TempDir() +
                                     "ivy_observation_metrics.json",
                                 out.elapsed));
  }
  rt.final_audit();
  if (obs.oracle) {
    EXPECT_EQ(rt.oracle()->total_violations(), 0u);
  }
  return m;
}

class ObservationInvariance : public testing::TestWithParam<Point> {};

TEST_P(ObservationInvariance, ElapsedAndCountersUnchanged) {
  for (const NodeId nodes : {1u, 4u}) {
    const Measured plain = run_point(GetParam(), nodes, Observers{"none"});
    for (const Observers& obs : kObserved) {
      const Measured seen = run_point(GetParam(), nodes, obs);
      EXPECT_EQ(seen.elapsed, plain.elapsed)
          << obs.name << " N=" << nodes;
      for (std::size_t c = 0; c < kCounterCount; ++c) {
        EXPECT_EQ(seen.counters[c], plain.counters[c])
            << obs.name << " N=" << nodes << " " << counter_names()[c];
      }
    }
  }
}

std::vector<Point> points() {
  std::vector<Point> out;
  for (const char* w : kSweepWorkloads) {
    for (const svm::ManagerKind m :
         {svm::ManagerKind::kCentralized, svm::ManagerKind::kFixedDistributed,
          svm::ManagerKind::kDynamicDistributed,
          svm::ManagerKind::kBroadcast}) {
      out.push_back({w, m});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    ReducedSweep, ObservationInvariance, testing::ValuesIn(points()),
    [](const testing::TestParamInfo<Point>& info) {
      return std::string(info.param.workload) + "_" +
             svm::to_string(info.param.manager);
    });

}  // namespace
}  // namespace ivy::apps
