// Ablation — page replacement policy under memory pressure.
//
// IVY ran on Aegis, whose "approximate LRU" replacement behaves very
// differently from strict LRU on the Jacobi programs: their sweeps are
// cyclic, and a cyclic reference string whose length exceeds memory makes
// strict LRU miss on *every* access, while randomized (sampled) LRU
// misses roughly in proportion to the overflow.  Table 1's moderate
// transfer counts are only reproducible with the approximate policy.
#include "bench/common.h"
#include "ivy/apps/pde3d.h"

namespace ivy::bench {
namespace {

void run() {
  header("Ablation: page replacement",
         "strict LRU vs sampled (approximate) LRU, paging 3-D PDE");
  constexpr std::size_t kGrid = 28;
  constexpr std::size_t kFrames = 470;
  std::printf("  grid=%zu^3 (~525 pages), frames/node=%zu, 1 node\n\n",
              kGrid, kFrames);
  std::printf("  %-14s %10s %12s %12s\n", "policy", "time[s]", "disk_reads",
              "disk_writes");
  for (auto policy : {mem::ReplacementPolicy::kStrictLru,
                      mem::ReplacementPolicy::kSampledLru}) {
    Config cfg = base_config(1);
    cfg.frames_per_node = kFrames;
    cfg.replacement = policy;
    apply_cli(cfg);
    auto rt = std::make_unique<Runtime>(cfg);
    apps::Pde3dParams p;
    p.m = kGrid;
    p.iterations = 4;
    p.skip_verify = true;
    const apps::RunOutcome out = run_pde3d(*rt, p);
    export_run(*rt, out.elapsed);
    std::printf("  %-14s %10.3f %12llu %12llu\n", to_string(policy),
                to_seconds(out.elapsed),
                static_cast<unsigned long long>(
                    rt->stats().total(Counter::kDiskReads)),
                static_cast<unsigned long long>(
                    rt->stats().total(Counter::kDiskWrites)));
    std::fflush(stdout);
  }
  std::printf(
      "\nExpected shape: strict LRU thrashes the cyclic sweep (every page\n"
      "misses each iteration); sampled LRU pages only the overflow.\n");
}

}  // namespace
}  // namespace ivy::bench

int main(int argc, char** argv) {
  if (!ivy::bench::parse_cli(argc, argv)) return 2;
  ivy::bench::run();
  return 0;
}
