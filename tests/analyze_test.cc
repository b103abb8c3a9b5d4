// ivy-analyze round trip: run a traced workload, export the artifacts,
// read them back through the analyzer, and require (a) the trace-derived
// counts to reproduce the live counters, (b) a clean rpc causality
// audit, (c) sensible critical-path/contention/chain reports, and (d) a
// byte-identical report on re-analysis.  A hand-written golden trace
// pins the anomaly detection itself.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "ivy/ivy.h"
#include "ivy/trace/analyze.h"

namespace ivy::trace {
namespace {

struct Artifacts {
  std::string trace_path;
  std::string metrics_path;
};

/// A small sharing-heavy run (quickstart's shape: partitioned writes,
/// then one node reduces everything) with full tracing on.  No memory
/// pressure, no migration, no broadcast — the configuration under which
/// every cross-check row is exact.
Artifacts run_traced_workload() {
  Config cfg;
  cfg.nodes = 4;
  cfg.heap_pages = 256;
  cfg.stack_region_pages = 64;
  cfg.name = "analyze_test";
  cfg.trace_enabled = true;
  cfg.trace_capacity = 1 << 18;
  cfg.oracle_mode = oracle::Mode::kStrict;  // and keep the run honest
  Runtime rt(cfg);

  constexpr std::size_t kElems = 2048;
  auto data = rt.alloc_array<std::int64_t>(kElems);
  auto barrier = rt.create_barrier(4);
  auto total = rt.alloc_scalar<std::int64_t>();
  for (int p = 0; p < 4; ++p) {
    rt.spawn_on(static_cast<NodeId>(p), [=]() mutable {
      const std::size_t chunk = kElems / 4;
      const std::size_t begin = static_cast<std::size_t>(p) * chunk;
      for (std::size_t i = begin; i < begin + chunk; ++i) {
        data[i] = static_cast<std::int64_t>(i);
      }
      barrier.arrive(0);
      if (p == 0) {
        std::int64_t sum = 0;
        for (std::size_t i = 0; i < kElems; ++i) sum += data[i];
        total.set(sum);
      }
    });
  }
  const Time elapsed = rt.run();
  rt.final_audit();

  Artifacts a;
  a.trace_path = testing::TempDir() + "ivy_analyze_test_trace.json";
  a.metrics_path = testing::TempDir() + "ivy_analyze_test_metrics.json";
  EXPECT_TRUE(rt.write_trace(a.trace_path));
  EXPECT_TRUE(rt.write_metrics(a.metrics_path, elapsed));
  return a;
}

class AnalyzeRoundTrip : public testing::Test {
 protected:
  void SetUp() override {
    const Artifacts a = run_traced_workload();
    std::string error;
    ASSERT_TRUE(load_chrome_trace(a.trace_path, &trace_, &error)) << error;
    ASSERT_TRUE(load_metrics_json(a.metrics_path, &metrics_, &error))
        << error;
  }

  LoadedTrace trace_;
  MetricsSummary metrics_;
};

TEST_F(AnalyzeRoundTrip, LoadsEveryExportedEvent) {
  EXPECT_EQ(trace_.machine, "analyze_test");  // cfg.name, " node N" cut
  EXPECT_EQ(trace_.unknown_names, 0u);
  ASSERT_TRUE(metrics_.has_trace_block);
  EXPECT_EQ(metrics_.trace_dropped, 0u);
  EXPECT_EQ(trace_.events.size(), metrics_.trace_retained);
  // Events come back time-ordered.
  for (std::size_t i = 1; i < trace_.events.size(); ++i) {
    EXPECT_LE(trace_.events[i - 1].ts, trace_.events[i].ts);
  }
}

TEST_F(AnalyzeRoundTrip, CrossCheckReproducesLiveCounters) {
  const auto rows = cross_check(trace_, metrics_);
  ASSERT_FALSE(rows.empty());
  std::size_t asserted = 0;
  for (const CrossCheckRow& row : rows) {
    if (!row.checked) continue;
    ++asserted;
    EXPECT_TRUE(row.ok) << row.counter << ": metrics=" << row.from_metrics
                        << " trace=" << row.from_trace << " (" << row.note
                        << ")";
  }
  // This run has no paging/migrations/broadcasts, so every row asserts.
  EXPECT_EQ(asserted, rows.size());
}

TEST_F(AnalyzeRoundTrip, CausalityAuditIsClean) {
  const CausalityReport rpc = causality_audit(trace_, true);
  EXPECT_GT(rpc.requests, 0u);
  EXPECT_GT(rpc.replies, 0u);
  EXPECT_EQ(rpc.unanswered, 0u);
  EXPECT_EQ(rpc.unmatched_replies, 0u);
  EXPECT_EQ(rpc.orphan_events, 0u);
  EXPECT_TRUE(rpc.flagged.empty())
      << "first flag: " << rpc.flagged.front();
}

TEST_F(AnalyzeRoundTrip, CriticalPathDecomposesFaults) {
  const CriticalPathReport cp = critical_path(trace_, 5);
  // The reduce phase pulls every page to node 0: remote read faults.
  EXPECT_GT(cp.reads.count + cp.writes.count, 0u);
  EXPECT_FALSE(cp.slowest.empty());
  for (const FaultPath& f : cp.slowest) {
    EXPECT_GE(f.total, f.locate + f.transfer);
  }
  // Leg sums never exceed the span they decompose.
  EXPECT_GE(cp.writes.total,
            cp.writes.locate + cp.writes.transfer + cp.writes.invalidate);
}

TEST_F(AnalyzeRoundTrip, ContentionFindsActivePages) {
  const auto pages = contention(trace_, 10);
  ASSERT_FALSE(pages.empty());
  EXPECT_GT(pages.front().faults + pages.front().ownership_moves, 0u);
  // Ranked by activity, and each row carries a timeline sparkline.
  for (std::size_t i = 1; i < pages.size(); ++i) {
    const auto score = [](const PageContention& c) {
      return c.faults + c.invalidation_rounds + c.ownership_moves;
    };
    EXPECT_GE(score(pages[i - 1]), score(pages[i]));
  }
  EXPECT_FALSE(pages.front().timeline.empty());
}

TEST_F(AnalyzeRoundTrip, ChainLengthsMatchFaultCount) {
  const ChainLengths chains = chain_lengths(trace_);
  const CriticalPathReport cp = critical_path(trace_, 1);
  EXPECT_EQ(chains.faults, cp.reads.count + cp.writes.count);
  std::uint64_t bucketed = 0;
  for (const std::uint64_t b : chains.hops) bucketed += b;
  EXPECT_EQ(bucketed, chains.faults);
}

TEST_F(AnalyzeRoundTrip, ReportIsDeterministic) {
  const std::string once = render_report(trace_, &metrics_, 10);
  const std::string twice = render_report(trace_, &metrics_, 10);
  EXPECT_EQ(once, twice);
  EXPECT_NE(once.find("fault critical path"), std::string::npos);
  EXPECT_NE(once.find("page contention"), std::string::npos);
  EXPECT_NE(once.find("rpc causality"), std::string::npos);
  EXPECT_NE(once.find("trace vs counters"), std::string::npos);
  EXPECT_EQ(once.find("MISMATCH"), std::string::npos) << once;
}

// --- golden anomaly detection ---------------------------------------------

/// A tiny hand-written trace: one answered rpc, one unanswered rpc, one
/// cancelled rpc (abandoned, not an anomaly), one reply to an id never
/// requested, and one orphan marker.
constexpr const char* kGoldenTrace = R"({"traceEvents":[
{"ph":"M","pid":0,"name":"process_name","args":{"name":"ivy node 0"}},
{"ph":"i","pid":0,"tid":0,"ts":1.000,"name":"rpc_request","s":"t",
 "args":{"rpc_id":101,"dst":1}},
{"ph":"i","pid":1,"tid":0,"ts":2.000,"name":"rpc_reply_sent","s":"t",
 "args":{"rpc_id":101,"requester":0}},
{"ph":"i","pid":0,"tid":0,"ts":3.000,"name":"rpc_request","s":"t",
 "args":{"rpc_id":102,"dst":2}},
{"ph":"i","pid":1,"tid":0,"ts":3.200,"name":"rpc_request","s":"t",
 "args":{"rpc_id":103,"dst":2}},
{"ph":"i","pid":1,"tid":0,"ts":3.400,"name":"rpc_cancel","s":"t",
 "args":{"rpc_id":103}},
{"ph":"i","pid":2,"tid":0,"ts":4.000,"name":"rpc_reply_sent","s":"t",
 "args":{"rpc_id":999,"requester":3}},
{"ph":"i","pid":3,"tid":0,"ts":5.000,"name":"rpc_orphan","s":"t",
 "args":{"rpc_id":998,"server":2}}
]})";

TEST(AnalyzeGolden, FlagsBrokenCausality) {
  const std::string path = testing::TempDir() + "ivy_analyze_golden.json";
  {
    std::ofstream out(path);
    out << kGoldenTrace;
  }
  LoadedTrace trace;
  std::string error;
  ASSERT_TRUE(load_chrome_trace(path, &trace, &error)) << error;
  EXPECT_EQ(trace.machine, "ivy");
  EXPECT_EQ(trace.events.size(), 7u);

  const CausalityReport rpc = causality_audit(trace, true);
  EXPECT_EQ(rpc.requests, 3u);
  EXPECT_EQ(rpc.replies, 2u);
  EXPECT_EQ(rpc.cancelled, 1u);
  EXPECT_EQ(rpc.unanswered, 1u);
  EXPECT_EQ(rpc.unmatched_replies, 1u);
  EXPECT_EQ(rpc.orphan_events, 1u);
  EXPECT_FALSE(rpc.flagged.empty());
}

TEST(AnalyzeGolden, RejectsMalformedJson) {
  const std::string path = testing::TempDir() + "ivy_analyze_bad.json";
  {
    std::ofstream out(path);
    out << "{\"traceEvents\": [";
  }
  LoadedTrace trace;
  std::string error;
  EXPECT_FALSE(load_chrome_trace(path, &trace, &error));
  EXPECT_FALSE(error.empty());
}

// --- bench files (ivy-bench / --bench / --compare) --------------------

/// A hand-written two-point sweep: a clean single-node baseline and a
/// four-node point whose categories sum exactly, faults backed by
/// counters.
std::string write_bench(const std::string& name, Time n4_elapsed) {
  const std::string path = testing::TempDir() + name;
  std::ofstream out(path);
  out << R"({
  "name": "golden", "reduced": true,
  "points": [
    {"workload": "jacobi", "manager": "dynamic", "nodes": 1,
     "elapsed_ns": 1000, "accounted_ns": 1000, "verified": true,
     "hops_read": 0, "hops_write": 0,
     "counters": {"read_faults": 2},
     "per_node": [{"compute": 900, "read_fault_transfer": 100}]},
    {"workload": "jacobi", "manager": "dynamic", "nodes": 4,
     "elapsed_ns": )" << n4_elapsed << R"(, "accounted_ns": 500,
     "verified": true, "hops_read": 3, "hops_write": 1,
     "counters": {"read_faults": 8, "write_faults": 2, "forwards": 4},
     "per_node": [{"compute": 300, "read_fault_locate": 200},
                  {"compute": 250, "write_fault_invalidate": 250},
                  {"compute": 240, "idle": 260},
                  {"compute": 210, "read_fault_transfer": 290}]}
  ]
})";
  return path;
}

TEST(AnalyzeBench, LoadsAuditsAndDecomposesExactly) {
  const std::string path = write_bench("ivy_bench_golden.json", 500);
  BenchFile bench;
  std::string error;
  ASSERT_TRUE(load_bench_json(path, &bench, &error)) << error;
  EXPECT_EQ(bench.name, "golden");
  EXPECT_TRUE(bench.reduced);
  ASSERT_EQ(bench.points.size(), 2u);
  ASSERT_NE(bench.find("jacobi", "dynamic", 4), nullptr);
  EXPECT_EQ(bench.find("jacobi", "dynamic", 4)->hops_read, 3u);
  EXPECT_EQ(bench.points[1].category_total("compute"), 1000);

  EXPECT_TRUE(bench_audit(bench).empty());

  const std::string waterfall = render_waterfall(bench);
  EXPECT_NE(waterfall.find("jacobi / dynamic"), std::string::npos);
  // loss = 4*500 - 1000 = 1000 ns, decomposed without a leak.
  EXPECT_EQ(waterfall.find("attribution leak"), std::string::npos)
      << waterfall;
  EXPECT_NE(waterfall.find("extra_compute"), std::string::npos);
}

TEST(AnalyzeBench, AuditCatchesLeaksAndUnbackedCategories) {
  const std::string path = testing::TempDir() + "ivy_bench_broken.json";
  {
    std::ofstream out(path);
    // Node sums 900 != accounted 1000, and lock_wait has no
    // lock_acquisitions behind it.
    out << R"({"name": "broken", "reduced": false, "points": [
      {"workload": "tsp", "manager": "fixed", "nodes": 1,
       "elapsed_ns": 800, "accounted_ns": 1000, "verified": false,
       "counters": {},
       "per_node": [{"compute": 700, "lock_wait": 200}]}
    ]})";
  }
  BenchFile bench;
  std::string error;
  ASSERT_TRUE(load_bench_json(path, &bench, &error)) << error;
  const auto findings = bench_audit(bench);
  ASSERT_GE(findings.size(), 3u);
  bool saw_sum = false;
  bool saw_unbacked = false;
  bool saw_unverified = false;
  for (const std::string& f : findings) {
    saw_sum |= f.find("categories sum to 900") != std::string::npos;
    saw_unbacked |= f.find("lock_wait") != std::string::npos;
    saw_unverified |= f.find("did not verify") != std::string::npos;
  }
  EXPECT_TRUE(saw_sum);
  EXPECT_TRUE(saw_unbacked);
  EXPECT_TRUE(saw_unverified);
}

TEST(AnalyzeBench, CompareGatesOnToleranceAndMissingPoints) {
  const std::string base = write_bench("ivy_bench_base.json", 500);
  const std::string within = write_bench("ivy_bench_within.json", 520);
  const std::string drifted = write_bench("ivy_bench_drift.json", 800);
  BenchFile b0;
  BenchFile b1;
  BenchFile b2;
  std::string error;
  ASSERT_TRUE(load_bench_json(base, &b0, &error)) << error;
  ASSERT_TRUE(load_bench_json(within, &b1, &error)) << error;
  ASSERT_TRUE(load_bench_json(drifted, &b2, &error)) << error;

  auto rows = compare_bench(b0, b1, 0.10);
  ASSERT_EQ(rows.size(), 2u);
  for (const CompareRow& row : rows) {
    EXPECT_TRUE(row.within) << row.key;
    EXPECT_FALSE(row.missing);
  }

  rows = compare_bench(b0, b2, 0.10);
  EXPECT_TRUE(rows[0].within);                        // baseline unchanged
  EXPECT_FALSE(rows[1].within);                       // 500 -> 800 is 60%
  EXPECT_NEAR(rows[1].ratio, 1.6, 1e-9);
  const std::string rendered = render_compare(rows, 0.10);
  EXPECT_NE(rendered.find("REGRESSION"), std::string::npos);

  // A point the new file dropped entirely is also a gate failure.
  b2.points.pop_back();
  rows = compare_bench(b0, b2, 0.10);
  EXPECT_TRUE(rows[1].missing);
  EXPECT_NE(render_compare(rows, 0.10).find("MISSING"), std::string::npos);
}

}  // namespace
}  // namespace ivy::trace
