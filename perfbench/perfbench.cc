// ivy-perfbench — the repository benchmark.
//
// Runs one paper workload at five points, N=1 under the dynamic manager
// and N=8 under each of the four managers, and times it from outside,
// through public calls only:
//   * Runtime construction is timed as set-up (setup_s);
//   * the ivy::apps::run_* call is timed as the run (sim.host_s, and
//     host_ref_s, which scales it by a host-speed probe);
//   * counters and histograms come from rt.stats() after the run;
//   * per-layer virtual time comes from rt.run_prof(), and only from a
//     separate traced run (profiler and event tracer armed).
// Every point's output is checked against the app's sequential oracle
// (RunOutcome::verified).  The coherence oracle stays off in every run.
//
// Usage:
//   ivy-perfbench --workload dotprod-scatter|jacobi-contended|pde3d-paging
//                 --seed N --seconds S --trace 0|1
//
// --trace 0 repeats untraced sweeps over the five points for about S
// seconds and prints the end-to-end metrics.  --trace 1 alternates
// untraced and traced sweeps and prints the per-layer metrics.  The seed
// goes only into the app's Params::seed, and only for jacobi-contended and
// pde3d-paging, whose traffic it does not change (it draws their data).
//
// Virtual quantities (the simulated 1988 machine) carry the units
// virtual_s, virtual_us and virtual_ns and repeat exactly for a seed;
// host quantities (the machine running the simulator) carry s, ns and MB.
// The last stdout line is one JSON object:
//   {"correct": B, "attempted": RUNS, "failed": UNVERIFIED_RUNS,
//    "metrics": {NAME: {"value": X, "unit": U}, ...}}
// The exit code is 0 only when every run verified and every untraced
// sweep repeated the first one's virtual time and counters exactly.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "ivy/apps/dotprod.h"
#include "ivy/apps/jacobi.h"
#include "ivy/apps/pde3d.h"
#include "ivy/ivy.h"

namespace {

using ivy::Config;
using ivy::Counter;
using ivy::Hist;
using ivy::NodeId;
using ivy::Runtime;
using ivy::Time;
using ivy::prof::Cat;
using Clock = std::chrono::steady_clock;

struct Point {
  const char* name;  ///< metric suffix
  NodeId nodes;
  ivy::svm::ManagerKind manager;
};

constexpr std::array<Point, 5> kPoints = {{
    {"n1", 1, ivy::svm::ManagerKind::kDynamicDistributed},
    {"centralized", 8, ivy::svm::ManagerKind::kCentralized},
    {"fixed", 8, ivy::svm::ManagerKind::kFixedDistributed},
    {"dynamic", 8, ivy::svm::ManagerKind::kDynamicDistributed},
    {"broadcast", 8, ivy::svm::ManagerKind::kBroadcast},
}};

// Keeps the app's default Params::seed, the Figure 5 input: the seed
// also draws the scatter permutation, and on other permutations the
// broadcast point's virtual time moves by up to 2x (retransmission
// timeouts) and the fixed manager can storm for minutes of host time
// (NOTES.md).
ivy::apps::RunOutcome run_dotprod_scatter(Runtime& rt, std::uint64_t) {
  ivy::apps::DotprodParams p;
  p.n = 32768;  // the Figure 5 size
  p.scatter = true;
  return ivy::apps::run_dotprod(rt, p);
}

ivy::apps::RunOutcome run_jacobi_contended(Runtime& rt, std::uint64_t seed) {
  ivy::apps::JacobiParams p;
  p.n = 128;  // ivy-bench's full-grid point
  p.iterations = 6;
  p.seed = seed;
  return ivy::apps::run_jacobi(rt, p);
}

ivy::apps::RunOutcome run_pde3d_paging(Runtime& rt, std::uint64_t seed) {
  ivy::apps::Pde3dParams p;
  p.m = 28;  // the Figure 4 grid
  p.iterations = 4;
  p.seed = seed;
  return ivy::apps::run_pde3d(rt, p);
}

struct Workload {
  const char* name;
  /// Physical frames per node; 0 keeps the config default (no paging).
  std::size_t frames_per_node;
  ivy::apps::RunOutcome (*run)(Runtime&, std::uint64_t seed);
};

constexpr std::array<Workload, 3> kWorkloads = {{
    {"dotprod-scatter", 0, run_dotprod_scatter},
    {"jacobi-contended", 0, run_jacobi_contended},
    {"pde3d-paging", 470, run_pde3d_paging},  // Figure 4's frames/node
}};

Config make_config(const Workload& w, const Point& p, bool traced) {
  Config cfg;
  // The machine of ivy-bench and the figure harnesses (bench/common.h).
  cfg.nodes = p.nodes;
  cfg.heap_pages = 24576;
  cfg.stack_region_pages = 64;
  cfg.manager = p.manager;
  if (w.frames_per_node != 0) cfg.frames_per_node = w.frames_per_node;
  cfg.prof_enabled = traced;
  cfg.trace_enabled = traced;
  cfg.name = std::string(w.name) + "/" + p.name;
  return cfg;
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Host-speed probe.  A shared host's speed can change by up to 2x within
// minutes as other tenants load its memory system, and the simulator
// slows with it while a pure compute loop does not.  The probe is a fixed
// kernel shaped like the simulator's hot path (heap-allocated closures in
// a priority queue, each carrying a 1 KiB page copy), so it slows the same
// way; host_ref_s scales the measured host time by the probe's speed.
// kProbeRefS is the probe's median time on the host the baseline was
// taken on (4-vCPU 2.1 GHz Xeon VM), so host_ref_s reads as seconds there.
constexpr double kProbeRefS = 0.030;
volatile std::uint64_t probe_sink = 0;

double probe_host_speed() {
  struct Event {
    std::int64_t at;
    std::uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Event& o) const {
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };
  const auto t0 = Clock::now();
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  const std::vector<std::vector<char>> pages(64, std::vector<char>(1024, 1));
  std::uint64_t seq = 0;
  std::uint64_t x = 12345;
  std::uint64_t sum = 0;
  for (int i = 0; i < 256; ++i) queue.push(Event{i, seq++, [] {}});
  for (int n = 0; n < 150000; ++n) {
    Event ev = std::move(const_cast<Event&>(queue.top()));
    queue.pop();
    ev.fn();
    x = x * 6364136223846793005ULL + 1;
    queue.push(Event{ev.at + static_cast<std::int64_t>(x >> 50), seq++,
                     [page = pages[x >> 58], &sum] { sum += page[7]; }});
  }
  probe_sink = sum;  // keeps the work observable
  return seconds_between(t0, Clock::now());
}

/// What one program run at one point leaves behind.
struct Run {
  Time vtime = 0;
  bool verified = false;
  double setup_s = 0.0;
  double host_s = 0.0;
  std::uint64_t events = 0;
  ivy::CounterBlock counters;
  ivy::Histogram rtt;
  ivy::Histogram fault;
  std::optional<ivy::prof::Profiler::Snapshot> prof;  ///< traced runs only
};

using Sweep = std::array<Run, kPoints.size()>;

Run run_point(const Workload& w, const Point& p, std::uint64_t seed,
              bool traced) {
  Config cfg = make_config(w, p, traced);
  Run r;
  const auto t0 = Clock::now();
  auto rt = std::make_unique<Runtime>(std::move(cfg));
  const auto t1 = Clock::now();
  const ivy::apps::RunOutcome out = w.run(*rt, seed);
  const auto t2 = Clock::now();
  r.vtime = out.elapsed;
  r.verified = out.verified;
  r.setup_s = seconds_between(t0, t1);
  r.host_s = seconds_between(t1, t2);
  r.events = rt->simulator().events_executed();
  r.counters = rt->stats().aggregate();
  r.rtt = rt->stats().hist(Hist::kRemoteOpRoundTrip);
  r.fault = rt->stats().hist(Hist::kFaultResolution);
  if (const ivy::prof::Profiler::Snapshot* s = rt->run_prof()) r.prof = *s;
  return r;
}

Sweep run_sweep(const Workload& w, std::uint64_t seed, bool traced) {
  Sweep s;
  for (std::size_t i = 0; i < kPoints.size(); ++i) {
    s[i] = run_point(w, kPoints[i], seed, traced);
  }
  return s;
}

double sweep_host_s(const Sweep& s) {
  double sum = 0.0;
  for (const Run& r : s) sum += r.host_s;
  return sum;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Names of the counters on which two runs disagree (empty = identical).
std::vector<std::string> counter_diffs(const Run& a, const Run& b) {
  std::vector<std::string> diffs;
  for (std::size_t c = 0; c < ivy::kCounterCount; ++c) {
    const auto id = static_cast<Counter>(c);
    if (a.counters.get(id) != b.counters.get(id)) {
      diffs.emplace_back(ivy::counter_names()[c]);
    }
  }
  return diffs;
}

std::uint64_t count(const Run& r, Counter c) { return r.counters.get(c); }

/// Virtual seconds summed over nodes for the given profiler categories.
double node_seconds(const Run& traced, std::initializer_list<Cat> cats) {
  Time sum = 0;
  for (const auto& node : traced.prof->totals) {
    for (const Cat c : cats) sum += node[static_cast<std::size_t>(c)];
  }
  return ivy::to_seconds(sum);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Rpc operations attempted and terminally failed at one point: attempts
/// are the completed round trips plus the terminal failures.  A point
/// whose output fails verification counts as fully failed.
struct RpcTally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

RpcTally rpc_tally(const Run& r) {
  RpcTally t;
  t.failed = count(r, Counter::kRpcFailures);
  t.attempted = r.rtt.count() + t.failed;
  if (!r.verified) {
    t.attempted = std::max<std::uint64_t>(t.attempted, 1);
    t.failed = t.attempted;
  }
  return t;
}

std::vector<Metric> end_to_end(const std::vector<Sweep>& plain,
                               const std::vector<double>& setup_samples,
                               const std::vector<double>& probe_samples) {
  std::vector<Metric> m;
  const Sweep& first = plain.front();
  for (std::size_t i = 0; i < kPoints.size(); ++i) {
    m.push_back({std::string("vtime_s.") + kPoints[i].name,
                 ivy::to_seconds(first[i].vtime), "virtual_s"});
  }
  RpcTally total;
  for (std::size_t i = 0; i < kPoints.size(); ++i) {
    const RpcTally t = rpc_tally(first[i]);
    std::printf("  rpc %-12s attempted %10llu  failed %llu\n",
                kPoints[i].name, static_cast<unsigned long long>(t.attempted),
                static_cast<unsigned long long>(t.failed));
    total.attempted += t.attempted;
    total.failed += t.failed;
  }
  const double failed_frac =
      total.attempted == 0 ? 0.0
                           : static_cast<double>(total.failed) /
                                 static_cast<double>(total.attempted);
  std::printf("  failed_frac = %llu / %llu = %.9g\n",
              static_cast<unsigned long long>(total.failed),
              static_cast<unsigned long long>(total.attempted), failed_frac);
  // failed_frac is 0 on most workloads; its complement never is.
  m.push_back({"rpc_ok_frac", 1.0 - failed_frac, "frac"});

  std::vector<double> host;
  for (const Sweep& s : plain) host.push_back(sweep_host_s(s));
  const double probe_s = median(probe_samples);
  std::printf("  host wall-clock %.6f s per sweep, probe %.6f s\n",
              median(host), probe_s);
  m.push_back({"host_ref_s", median(host) * kProbeRefS / probe_s, "s"});
  m.push_back({"setup_s", median(setup_samples), "s"});
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  m.push_back({"max_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
               "MB"});
  return m;
}

std::vector<Metric> per_layer(const std::vector<Sweep>& plain,
                              const std::vector<Sweep>& traced) {
  std::vector<Metric> m;
  const double ring_bytes_per_s = ivy::sim::CostModel{}.ring_bytes_per_second;
  for (std::size_t i = 0; i < kPoints.size(); ++i) {
    const Run& r = plain.front()[i];
    const Run& t = traced.front()[i];
    const std::string sfx = std::string(".") + kPoints[i].name;
    const auto add = [&](const char* name, double value, const char* unit) {
      m.push_back({name + sfx, value, unit});
    };
    const auto add_count = [&](const char* name, std::uint64_t value) {
      add(name, static_cast<double>(value), "count");
    };
    std::vector<double> host;
    for (const Sweep& s : plain) host.push_back(s[i].host_s);

    add_count("sim.events", r.events);
    add("sim.host_ns_per_event",
        median(host) * 1e9 / static_cast<double>(r.events), "ns");

    // Ring busy time: every frame occupies the medium for its wire bytes
    // (kBytesOnRing already includes the per-frame framing bytes).
    const std::uint64_t bytes = count(r, Counter::kBytesOnRing);
    add_count("net.frames", count(r, Counter::kMessages) +
                                count(r, Counter::kBroadcasts) +
                                count(r, Counter::kMulticasts));
    add("net.bytes", static_cast<double>(bytes), "bytes");
    add("net.busy_frac",
        static_cast<double>(bytes) / ring_bytes_per_s /
            ivy::to_seconds(r.vtime),
        "frac");

    add_count("rpc.retransmissions", count(r, Counter::kRetransmissions));
    add_count("rpc.failures", count(r, Counter::kRpcFailures));
    add("rpc.rtt_p99_us", static_cast<double>(r.rtt.percentile(0.99)) / 1e3,
        "virtual_us");
    add("rpc.backoff_node_s", node_seconds(t, {Cat::kBackoff}), "virtual_s");

    add_count("svm.read_faults", count(r, Counter::kReadFaults));
    add_count("svm.write_faults", count(r, Counter::kWriteFaults));
    add_count("svm.invalidations", count(r, Counter::kInvalidationsSent));
    add_count("svm.forwards", count(r, Counter::kForwards));
    add("svm.fault_p50_us", static_cast<double>(r.fault.percentile(0.5)) / 1e3,
        "virtual_us");
    add("svm.fault_p99_us",
        static_cast<double>(r.fault.percentile(0.99)) / 1e3, "virtual_us");
    add("svm.locate_node_s",
        node_seconds(t, {Cat::kReadFaultLocate, Cat::kWriteFaultLocate}),
        "virtual_s");
    add("svm.transfer_node_s",
        node_seconds(t, {Cat::kReadFaultTransfer, Cat::kWriteFaultTransfer}),
        "virtual_s");
    add("svm.invalidate_node_s",
        node_seconds(t,
                     {Cat::kReadFaultInvalidate, Cat::kWriteFaultInvalidate}),
        "virtual_s");
    add("svm.service_node_s", node_seconds(t, {Cat::kManagerService}),
        "virtual_s");

    add_count("mem.disk_ios",
              count(r, Counter::kDiskReads) + count(r, Counter::kDiskWrites));
    add("mem.disk_node_s", node_seconds(t, {Cat::kDisk}), "virtual_s");

    add_count("sync.ec_waits", count(r, Counter::kEcWaits));
    add("sync.wait_node_s", node_seconds(t, {Cat::kSyncWait}), "virtual_s");

    add_count("proc.context_switches", count(r, Counter::kContextSwitches));
  }

  // Observation check: arming the profiler and tracer must leave virtual
  // time and every counter unchanged.  Differences are reported, never
  // dropped.
  std::uint64_t vtime_delta = 0;
  for (std::size_t i = 0; i < kPoints.size(); ++i) {
    const Run& r = plain.front()[i];
    const Run& t = traced.front()[i];
    vtime_delta += static_cast<std::uint64_t>(
        r.vtime > t.vtime ? r.vtime - t.vtime : t.vtime - r.vtime);
    for (const std::string& c : counter_diffs(r, t)) {
      std::printf("  OBSERVATION DELTA %s: counter %s differs when traced\n",
                  kPoints[i].name, c.c_str());
    }
  }
  std::vector<double> plain_host;
  std::vector<double> traced_host;
  for (const Sweep& s : plain) plain_host.push_back(sweep_host_s(s));
  for (const Sweep& s : traced) traced_host.push_back(sweep_host_s(s));
  m.push_back({"sim.host_s", median(plain_host), "s"});
  m.push_back({"obs.overhead_host_s", median(traced_host) - median(plain_host),
               "s"});
  m.push_back({"obs.vtime_delta_ns", static_cast<double>(vtime_delta),
               "virtual_ns"});
  return m;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload dotprod-scatter|jacobi-contended|"
               "pde3d-paging\n"
               "          --seed N --seconds S --trace 0|1\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::optional<std::uint64_t> seed;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(value, w.name) == 0) workload = &w;
      }
    } else if (std::strcmp(flag, "--seed") == 0) {
      seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage(argv[0]);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') return usage(argv[0]);
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") == 0) trace = 0;
      if (std::strcmp(value, "1") == 0) trace = 1;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || workload == nullptr || !seed || !(seconds > 0.0) ||
      trace < 0) {
    return usage(argv[0]);
  }
  const Workload& w = *workload;

  // Whole sweeps until the next one would overrun the budget; medians
  // over sweeps absorb host noise.  Virtual results must repeat exactly.
  std::vector<Sweep> plain;
  std::vector<Sweep> traced;
  std::vector<double> setup_samples;
  std::vector<double> probe_samples;
  const auto start = Clock::now();
  for (;;) {
    const auto round_start = Clock::now();
    probe_samples.push_back(probe_host_speed());
    plain.push_back(run_sweep(w, *seed, false));
    if (trace == 1) traced.push_back(run_sweep(w, *seed, true));
    double setup = 0.0;
    for (const Run& r : plain.back()) setup += r.setup_s;
    setup_samples.push_back(setup);
    const auto now = Clock::now();
    const double round_s = seconds_between(round_start, now);
    if (seconds_between(start, now) + round_s > seconds) break;
  }
  // Set-up is short and noisy: top the samples up with set-up-only rounds.
  constexpr std::size_t kSetupSamples = 21;
  while (trace == 0 && setup_samples.size() < kSetupSamples) {
    double setup = 0.0;
    for (const Point& p : kPoints) {
      Config cfg = make_config(w, p, false);
      const auto t0 = Clock::now();
      auto rt = std::make_unique<Runtime>(std::move(cfg));
      setup += seconds_between(t0, Clock::now());
    }
    setup_samples.push_back(setup);
  }

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const auto check_runs = [&](const std::vector<Sweep>& sweeps,
                              const char* kind) {
    for (const Sweep& s : sweeps) {
      for (std::size_t i = 0; i < kPoints.size(); ++i) {
        ++attempted;
        if (!s[i].verified) {
          ++failed;
          correct = false;
          std::printf("  FAILED verification: %s %s run\n", kPoints[i].name,
                      kind);
        }
        const Run& ref = sweeps.front()[i];
        if (s[i].vtime != ref.vtime || s[i].events != ref.events ||
            !counter_diffs(s[i], ref).empty()) {
          correct = false;
          std::printf("  NOT REPEATABLE: %s %s run differs from the first\n",
                      kPoints[i].name, kind);
        }
      }
    }
  };
  check_runs(plain, "untraced");
  check_runs(traced, "traced");
  for (const Sweep& s : traced) {
    for (const Run& r : s) {
      if (!r.prof) {
        std::fprintf(stderr, "ivy-perfbench: traced run left no profile\n");
        return 1;
      }
    }
  }

  std::printf("%s seed=%llu: %zu untraced + %zu traced sweeps\n", w.name,
              static_cast<unsigned long long>(*seed), plain.size(),
              traced.size());
  for (std::size_t i = 0; i < kPoints.size(); ++i) {
    const Run& r = plain.front()[i];
    std::printf("  %-12s N=%u  vtime %.6f virtual_s  host %.4f s  %s\n",
                kPoints[i].name, kPoints[i].nodes, ivy::to_seconds(r.vtime),
                r.host_s, r.verified ? "verified" : "FAILED");
  }
  const std::vector<Metric> metrics =
      trace == 0 ? end_to_end(plain, setup_samples, probe_samples)
                 : per_layer(plain, traced);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted) +
          ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& mt = metrics[i];
    std::printf("  %-32s %.17g %s\n", mt.name.c_str(), mt.value, mt.unit);
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", mt.value);
    if (i != 0) json += ", ";
    json += "\"" + mt.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            mt.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
