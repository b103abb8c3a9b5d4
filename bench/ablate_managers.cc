// Ablation — coherence manager algorithms.
//
// The paper implemented three algorithms "for experimental purposes" (the
// improved centralized manager, the fixed distributed manager, and the
// dynamic distributed manager) and the remote-operation module's
// broadcast support enables a fourth baseline.  This bench runs the same
// workloads under each and reports time and protocol traffic, showing
// why "the fixed distributed manager algorithm, the dynamic distributed
// manager algorithm, and their variations are more appropriate than
// others": the centralized manager concentrates forwarding on one node,
// and the broadcast manager interrupts every processor on every fault.
#include "bench/common.h"
#include "ivy/apps/dotprod.h"
#include "ivy/apps/jacobi.h"

namespace ivy::bench {
namespace {

void run_workload(const char* name,
                  const std::function<apps::RunOutcome(Runtime&)>& body) {
  std::printf("  workload: %s\n", name);
  std::printf("  %-20s %10s %9s %9s %9s %10s %6s\n", "manager", "time[s]",
              "faults", "forwards", "bcasts", "messages", "ok");
  for (auto kind : {svm::ManagerKind::kCentralized,
                    svm::ManagerKind::kFixedDistributed,
                    svm::ManagerKind::kDynamicDistributed,
                    svm::ManagerKind::kBroadcast}) {
    Config cfg = base_config(8);
    apply_cli(cfg);
    cfg.manager = kind;  // the sweep dimension; --manager does not apply
    auto rt = std::make_unique<Runtime>(cfg);
    const apps::RunOutcome out = body(*rt);
    const Stats& stats = rt->stats();
    std::printf("  %-20s %10.3f %9llu %9llu %9llu %10llu %6s\n",
                svm::to_string(kind), to_seconds(out.elapsed),
                static_cast<unsigned long long>(
                    stats.total(Counter::kReadFaults) +
                    stats.total(Counter::kWriteFaults)),
                static_cast<unsigned long long>(
                    stats.total(Counter::kForwards)),
                static_cast<unsigned long long>(
                    stats.total(Counter::kBroadcasts)),
                static_cast<unsigned long long>(
                    stats.total(Counter::kMessages)),
                out.verified ? "yes" : "NO");
    rt->final_audit();
    if (oracle::Oracle* o = rt->oracle()) {
      std::printf("  %s\n", o->brief().c_str());
    }
    std::fflush(stdout);
  }
  std::printf("\n");
}

void run() {
  header("Ablation: coherence managers",
         "centralized vs fixed vs dynamic vs broadcast, 8 nodes");

  run_workload("jacobi n=256 (iterative read sharing + partitioned writes)",
               [](Runtime& rt) {
                 apps::JacobiParams p;
                 p.n = 256;
                 p.iterations = 6;
                 return run_jacobi(rt, p);
               });

  run_workload("dotprod n=32768 scattered (movement-dominated)",
               [](Runtime& rt) {
                 apps::DotprodParams p;
                 p.n = 32768;
                 return run_dotprod(rt, p);
               });
}

}  // namespace
}  // namespace ivy::bench

int main(int argc, char** argv) {
  if (!ivy::bench::parse_cli(argc, argv)) return 2;
  ivy::bench::run();
  return 0;
}
