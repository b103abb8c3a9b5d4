// Ablation — disk I/O overlap.
//
// "I/O overlaps among the lightweight processes do not exist in IVY.  An
// integrated heavyweight and lightweight process scheduler is highly
// desirable.  The disk I/O overlap may also greatly improve IVY's
// performance."
//
// In IVY a page-in stalls the whole workstation; with an integrated
// scheduler, other lightweight processes would run during the ~25 ms
// transfer.  We run the paging 3-D PDE with several processes per node
// under both models.
#include "bench/common.h"
#include "ivy/apps/pde3d.h"

namespace ivy::bench {
namespace {

void run() {
  header("Ablation: disk I/O overlap",
         "node-stalling page transfers vs an integrated scheduler");
  constexpr std::size_t kGrid = 28;
  std::printf("  paging 3-D PDE (grid=%zu^3, frames/node=300), 2 nodes,\n"
              "  4 worker processes (2 per node)\n\n",
              kGrid);
  std::printf("  %-26s %10s %12s\n", "model", "time[s]", "disk_xfers");
  for (bool stalls : {true, false}) {
    Config cfg = base_config(2);
    cfg.frames_per_node = 300;
    cfg.disk_io_stalls_node = stalls;
    apply_cli(cfg);
    auto rt = std::make_unique<Runtime>(cfg);
    apps::Pde3dParams p;
    p.m = kGrid;
    p.iterations = 4;
    p.processes = 4;
    p.skip_verify = true;
    const apps::RunOutcome out = run_pde3d(*rt, p);
    export_run(*rt, out.elapsed);
    std::printf("  %-26s %10.3f %12llu\n",
                stalls ? "IVY (node stalls)" : "integrated (overlap)",
                to_seconds(out.elapsed),
                static_cast<unsigned long long>(
                    rt->stats().total(Counter::kDiskReads) +
                    rt->stats().total(Counter::kDiskWrites)));
    std::fflush(stdout);
  }
  std::printf(
      "\nExpected shape: with overlap the second process per node computes\n"
      "through its sibling's page waits, recovering a chunk of the disk\n"
      "time — the improvement the conclusion predicts.\n");
}

}  // namespace
}  // namespace ivy::bench

int main(int argc, char** argv) {
  if (!ivy::bench::parse_cli(argc, argv)) return 2;
  ivy::bench::run();
  return 0;
}
