// Shared helpers for the per-figure/table reproduction harnesses.
//
// Every binary prints a self-contained report: the paper artifact it
// regenerates, the configuration, and the measured series.  Times are
// *virtual* (simulated 1988 hardware); speedups are ratios of virtual
// times exactly as the paper computes them.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ivy/apps/workload.h"
#include "ivy/ivy.h"
#include "ivy/runtime/flags.h"

namespace ivy::bench {

inline Config base_config(NodeId nodes) {
  Config cfg;
  cfg.nodes = nodes;
  cfg.heap_pages = 24576;  // 24 MiB shared heap
  cfg.stack_region_pages = 64;
  return cfg;
}

// --- command line ----------------------------------------------------------
//
// Every harness accepts the shared observability flags (see
// ivy/runtime/flags.h): --trace-out, --metrics-out, --trace-capacity,
// --hot-pages, --oracle, --manager.  A bench executes many runs; each
// traced run overwrites the output files, so the artifacts describe the
// LAST run (harnesses order their sweeps so that is the most
// interesting one).

inline runtime::ObsFlags& cli() {
  static runtime::ObsFlags options;
  return options;
}

/// Parses the shared flags; returns false (after printing usage) on an
/// unknown flag, a bad value, or a leftover argument (benches take no
/// positionals).
inline bool parse_cli(int argc, char** argv) {
  std::string error;
  int remaining = argc;
  const bool ok =
      runtime::parse_obs_flags(&remaining, argv, &cli(), &error) &&
      remaining == 1;
  if (!ok) {
    if (!error.empty()) std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
    std::fprintf(stderr, "usage: %s %s\n", argv[0],
                 runtime::obs_flags_usage());
  }
  return ok;
}

/// Arms tracing/oracle/manager-override on a config as requested.
inline void apply_cli(Config& cfg) { cli().apply(cfg); }

/// Audits one finished run (see Runtime::final_audit), writes the
/// requested artifacts (overwrites) and prints the oracle's one-line
/// verdict when one is armed.
inline void export_run(Runtime& rt, Time elapsed) {
  rt.final_audit();
  if (!cli().trace_out.empty()) rt.write_trace(cli().trace_out);
  if (!cli().metrics_out.empty()) rt.write_metrics(cli().metrics_out, elapsed);
  if (!cli().prof_out.empty()) rt.write_prof(cli().prof_out);
  if (oracle::Oracle* o = rt.oracle()) {
    std::printf("  %s\n", o->brief().c_str());
  }
}

/// Prints the hot-page table for a finished run when requested.
inline void print_hot_pages(Runtime& rt) {
  if (cli().hot_pages == 0 || !rt.tracer().enabled()) return;
  const std::string report = trace::hot_page_report(rt.tracer(),
                                                    cli().hot_pages);
  if (report.empty()) return;
  std::printf("  hot pages (top %zu, ping-pong suspects first):\n%s",
              cli().hot_pages, report.c_str());
}

struct SweepPoint {
  NodeId nodes;
  Time elapsed;
  bool verified;
};

/// Runs `body(rt)` for each node count and prints a speedup table.
inline std::vector<SweepPoint> speedup_sweep(
    const char* program, const std::vector<NodeId>& node_counts,
    const std::function<Config(NodeId)>& make_config,
    const std::function<apps::RunOutcome(Runtime&)>& body) {
  std::vector<SweepPoint> points;
  double t1 = 0.0;
  std::printf("  %-10s %5s %12s %9s %6s\n", program, "nodes", "time[s]",
              "speedup", "ok");
  for (NodeId n : node_counts) {
    Config cfg = make_config(n);
    cfg.name = std::string(program) + "/nodes=" + std::to_string(n);
    apply_cli(cfg);
    auto rt = std::make_unique<Runtime>(std::move(cfg));
    const apps::RunOutcome out = body(*rt);
    if (n == node_counts.front()) t1 = static_cast<double>(out.elapsed);
    const double speedup = t1 / static_cast<double>(out.elapsed);
    std::printf("  %-10s %5u %12.3f %9.2f %6s\n", program, n,
                to_seconds(out.elapsed), speedup, out.verified ? "yes" : "NO");
    std::fflush(stdout);
    export_run(*rt, out.elapsed);
    if (n == node_counts.back()) print_hot_pages(*rt);
    points.push_back(SweepPoint{n, out.elapsed, out.verified});
  }
  return points;
}

inline void header(const char* artifact, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", artifact, description);
  std::printf("==============================================================\n");
}

}  // namespace ivy::bench
