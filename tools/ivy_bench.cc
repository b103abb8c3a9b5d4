// ivy-bench — the perf-baseline harness behind the speedup-loss
// waterfall and the CI regression gate.
//
// Sweeps the paper's six benchmark programs across all four manager
// algorithms and a set of node counts, with the cost-attribution
// profiler forced on, and writes one JSON file (default BENCH_PR5.json)
// holding every point's virtual times, live counters, and per-node
// per-category attribution.  ivy-analyze consumes it:
//
//   ivy-analyze --bench BENCH_PR5.json --check      # audit + waterfall
//   ivy-analyze --compare baseline.json new.json    # regression gate
//
// Usage:
//   ivy-bench [--out PATH] [--reduced] [--nodes 1,2,4,8]
//             [--workloads jacobi,matmul,...] [--managers dynamic,...]
//
// --reduced shrinks the problem sizes and the node list so the whole
// sweep finishes in CI time; the checked-in baseline is a reduced run.
// Every point exports two times: elapsed_ns is the workload-reported
// elapsed (speedup math), accounted_ns is the profiler's attributed
// virtual time (verification drains the simulator a little further, so
// accounted >= elapsed); the per-node categories sum to accounted_ns
// exactly, which ivy-analyze --bench asserts.
//
// Exit status: 0 when every point verified; 1 when a point failed
// verification or leaned on the recovery machinery — the sweep injects
// no faults, so any retransmission or terminal rpc failure is a
// liveness bug; 2 on bad usage or I/O error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "ivy/apps/sweep.h"
#include "ivy/ivy.h"

namespace {

using ivy::Config;
using ivy::NodeId;
using ivy::Runtime;
using ivy::Time;

struct ManagerChoice {
  const char* name;
  ivy::svm::ManagerKind kind;
};

constexpr ManagerChoice kManagers[] = {
    {"centralized", ivy::svm::ManagerKind::kCentralized},
    {"fixed", ivy::svm::ManagerKind::kFixedDistributed},
    {"dynamic", ivy::svm::ManagerKind::kDynamicDistributed},
    {"broadcast", ivy::svm::ManagerKind::kBroadcast},
};

bool split_list(const char* text, std::vector<std::string>* out) {
  std::string item;
  for (const char* p = text;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (item.empty()) return false;
      out->push_back(item);
      item.clear();
      if (*p == '\0') return !out->empty();
    } else {
      item.push_back(*p);
    }
  }
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--out PATH] [--reduced] [--nodes 1,2,4,8]\n"
               "          [--workloads jacobi,matmul,pde3d,tsp,dotprod,"
               "msort]\n"
               "          [--managers centralized,fixed,dynamic,broadcast]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_PR5.json";
  bool reduced = false;
  std::vector<NodeId> node_counts;
  std::vector<std::string> workloads;
  std::vector<std::string> managers;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(arg, "--reduced") == 0) {
      reduced = true;
    } else if (std::strcmp(arg, "--nodes") == 0 && i + 1 < argc) {
      std::vector<std::string> parts;
      if (!split_list(argv[++i], &parts)) return usage(argv[0]);
      for (const std::string& p : parts) {
        const long n = std::strtol(p.c_str(), nullptr, 10);
        if (n <= 0 || n > 64) return usage(argv[0]);
        node_counts.push_back(static_cast<NodeId>(n));
      }
    } else if (std::strcmp(arg, "--workloads") == 0 && i + 1 < argc) {
      if (!split_list(argv[++i], &workloads)) return usage(argv[0]);
    } else if (std::strcmp(arg, "--managers") == 0 && i + 1 < argc) {
      if (!split_list(argv[++i], &managers)) return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }
  if (node_counts.empty()) {
    node_counts = reduced ? std::vector<NodeId>{1, 4}
                          : std::vector<NodeId>{1, 2, 4, 8};
  }
  if (workloads.empty()) {
    workloads.assign(ivy::apps::kSweepWorkloads.begin(),
                     ivy::apps::kSweepWorkloads.end());
  }
  for (const std::string& w : workloads) {
    bool known = false;
    for (const char* k : ivy::apps::kSweepWorkloads) known |= w == k;
    if (!known) {
      std::fprintf(stderr, "ivy-bench: unknown workload %s\n", w.c_str());
      return 2;
    }
  }
  std::vector<ManagerChoice> manager_choices;
  if (managers.empty()) {
    manager_choices.assign(std::begin(kManagers), std::end(kManagers));
  } else {
    for (const std::string& m : managers) {
      bool known = false;
      for (const ManagerChoice& c : kManagers) {
        if (m == c.name) {
          manager_choices.push_back(c);
          known = true;
        }
      }
      if (!known) {
        std::fprintf(stderr, "ivy-bench: unknown manager %s\n", m.c_str());
        return 2;
      }
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "ivy-bench: cannot open %s\n", out_path.c_str());
    return 2;
  }
  out << "{\n  \"name\": \"ivy-bench\",\n  \"reduced\": "
      << (reduced ? "true" : "false") << ",\n  \"points\": [";

  const auto& cat_names = ivy::prof::cat_names();
  bool first_point = true;
  bool all_verified = true;
  bool all_live = true;
  for (const std::string& workload : workloads) {
    for (const ManagerChoice& manager : manager_choices) {
      for (const NodeId nodes : node_counts) {
        Config cfg = ivy::apps::sweep_config(nodes, manager.kind);
        cfg.prof_enabled = true;
        cfg.name = workload + "/" + manager.name + "/nodes=" +
                   std::to_string(nodes);
        auto rt = std::make_unique<Runtime>(std::move(cfg));
        const ivy::apps::RunOutcome outcome =
            ivy::apps::run_sweep_workload(*rt, workload, reduced);
        all_verified &= outcome.verified;

        // run() snapshots the attribution at the program's finish line,
        // before verification host-reads drain the simulator further
        // (that tail would read as idle).  run() also self-checks, so a
        // missing snapshot is the only failure mode left.
        const ivy::prof::Profiler::Snapshot* prof = rt->run_prof();
        if (prof == nullptr) {
          std::fprintf(stderr, "ivy-bench: %s: no profiler snapshot\n",
                       rt->config().name.c_str());
          return 1;
        }

        std::printf("  %-8s %-12s N=%u  T=%.3fs  %s\n", workload.c_str(),
                    manager.name, nodes, ivy::to_seconds(outcome.elapsed),
                    outcome.verified ? "ok" : "FAILED");
        std::fflush(stdout);

        if (!first_point) out << ",";
        first_point = false;
        out << "\n    {\n"
            << "      \"workload\": \"" << workload << "\",\n"
            << "      \"manager\": \"" << manager.name << "\",\n"
            << "      \"nodes\": " << nodes << ",\n"
            << "      \"elapsed_ns\": " << outcome.elapsed << ",\n"
            << "      \"accounted_ns\": " << prof->accounted << ",\n"
            << "      \"verified\": " << (outcome.verified ? "true" : "false")
            << ",\n";
        std::uint64_t hops_read = 0;
        std::uint64_t hops_write = 0;
        for (NodeId n = 0; n < nodes; ++n) {
          hops_read += prof->hops[n][0];
          hops_write += prof->hops[n][1];
        }
        out << "      \"hops_read\": " << hops_read << ",\n"
            << "      \"hops_write\": " << hops_write << ",\n";
        out << "      \"counters\": {";
        const ivy::CounterBlock agg = rt->stats().aggregate();
        const auto retx = agg.get(ivy::Counter::kRetransmissions);
        const auto rpc_failures = agg.get(ivy::Counter::kRpcFailures);
        if (retx != 0 || rpc_failures != 0) {
          std::fprintf(stderr,
                       "ivy-bench: %s: %llu retransmissions, %llu rpc "
                       "failures on a fault-free network\n",
                       rt->config().name.c_str(),
                       static_cast<unsigned long long>(retx),
                       static_cast<unsigned long long>(rpc_failures));
          all_live = false;
        }
        bool first_counter = true;
        for (std::size_t c = 0; c < ivy::kCounterCount; ++c) {
          const auto v = agg.get(static_cast<ivy::Counter>(c));
          if (v == 0) continue;
          if (!first_counter) out << ", ";
          first_counter = false;
          out << "\"" << ivy::counter_names()[c] << "\": " << v;
        }
        out << "},\n      \"per_node\": [";
        for (NodeId n = 0; n < nodes; ++n) {
          if (n != 0) out << ",";
          out << "\n        {";
          bool first_cat = true;
          for (std::size_t c = 0; c < ivy::prof::kCatCount; ++c) {
            const Time t = prof->totals[n][c];
            if (t == 0) continue;
            if (!first_cat) out << ", ";
            first_cat = false;
            out << "\"" << cat_names[c] << "\": " << t;
          }
          out << "}";
        }
        out << "\n      ]\n    }";
      }
    }
  }
  out << "\n  ]\n}\n";
  out.close();
  std::printf("wrote %s\n", out_path.c_str());
  if (!all_verified) {
    std::fprintf(stderr, "ivy-bench: some workloads FAILED verification\n");
    return 1;
  }
  if (!all_live) {
    std::fprintf(stderr,
                 "ivy-bench: some points retransmitted or failed an rpc\n");
    return 1;
  }
  return out ? 0 : 2;
}
