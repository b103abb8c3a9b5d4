// Heat diffusion on a 2-D plate — a domain-specific example in the
// spirit of the paper's PDE workloads, written directly against the
// public API (not the apps library).
//
// A square plate has fixed hot/cold edges; interior cells relax by
// Jacobi iteration until the update norm falls under a tolerance.  The
// grid lives in the shared virtual memory, partitioned by row bands; only
// the band boundaries travel between processors each sweep.
//
//   ./build/examples/heat_diffusion [nodes] [grid] [max_iters]
//                                   [--trace-out t.json] [--metrics-out m.json]
//                                   [--oracle warn|strict]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "ivy/ivy.h"
#include "ivy/runtime/flags.h"

int main(int argc, char** argv) {
  ivy::runtime::ObsFlags flags;
  std::string error;
  if (!ivy::runtime::parse_obs_flags(&argc, &argv[0], &flags, &error)) {
    std::fprintf(stderr, "%s\nusage: %s [nodes] [grid] [max_iters] %s\n",
                 error.c_str(), argv[0], ivy::runtime::obs_flags_usage());
    return 2;
  }
  int npos = 0;
  std::size_t positional[3] = {4, 64, 40};
  for (int i = 1; i < argc && npos < 3; ++i) {
    positional[npos++] = static_cast<std::size_t>(std::atoi(argv[i]));
  }
  const ivy::NodeId nodes = static_cast<ivy::NodeId>(positional[0]);
  const std::size_t grid = positional[1];
  const int max_iters = static_cast<int>(positional[2]);

  ivy::Config cfg;
  cfg.nodes = nodes;
  cfg.heap_pages = 16384;
  cfg.name = "heat_diffusion";
  flags.apply(cfg);
  ivy::Runtime rt(cfg);

  auto temp = rt.alloc_array<double>(grid * grid);
  auto next = rt.alloc_array<double>(grid * grid);
  auto norms = rt.alloc_array<double>(nodes);
  auto barrier = rt.create_barrier(static_cast<int>(nodes));

  const auto at = [grid](std::size_t r, std::size_t c) { return r * grid + c; };

  for (ivy::NodeId p = 0; p < nodes; ++p) {
    rt.spawn_on(p, [=, &rt]() mutable {
      // Row band of this worker (interior rows only).
      const std::size_t rows = grid - 2;
      const std::size_t base = rows / nodes;
      const std::size_t extra = rows % nodes;
      const std::size_t begin = 1 + p * base + std::min<std::size_t>(p, extra);
      const std::size_t end = begin + base + (p < extra ? 1 : 0);

      // Boundary conditions: hot west edge, cold elsewhere.  Each worker
      // initializes its own band (unlike the paper's single-node init,
      // this spreads ownership immediately).
      for (std::size_t r = begin; r < end; ++r) {
        for (std::size_t c = 0; c < grid; ++c) {
          temp[at(r, c)] = 0.0;
        }
        temp[at(r, 0)] = 100.0;
        next[at(r, 0)] = 100.0;
      }
      if (p == 0) {
        for (std::size_t c = 0; c < grid; ++c) {
          temp[at(0, c)] = 100.0;
          next[at(0, c)] = 100.0;
          temp[at(grid - 1, c)] = 0.0;
          next[at(grid - 1, c)] = 0.0;
        }
      }
      barrier.arrive(0);

      for (int it = 0; it < max_iters; ++it) {
        double norm = 0.0;
        for (std::size_t r = begin; r < end; ++r) {
          for (std::size_t c = 1; c + 1 < grid; ++c) {
            const double v = 0.25 * (static_cast<double>(temp[at(r - 1, c)]) +
                                     static_cast<double>(temp[at(r + 1, c)]) +
                                     static_cast<double>(temp[at(r, c - 1)]) +
                                     static_cast<double>(temp[at(r, c + 1)]));
            next[at(r, c)] = v;
            norm += std::abs(v - static_cast<double>(temp[at(r, c)]));
            ivy::charge(2);
          }
        }
        norms[p] = norm;
        barrier.arrive(1 + 2 * it);
        for (std::size_t r = begin; r < end; ++r) {
          for (std::size_t c = 1; c + 1 < grid; ++c) {
            temp[at(r, c)] = static_cast<double>(next[at(r, c)]);
          }
        }
        barrier.arrive(2 + 2 * it);
      }
      (void)rt;
    });
  }
  const ivy::Time elapsed = rt.run();

  double norm = 0.0;
  for (ivy::NodeId p = 0; p < nodes; ++p) norm += rt.host_read(norms, p);
  const double centre =
      rt.host_read(temp, at(grid / 2, grid / 2));
  std::printf("grid %zux%zu on %u processors: %d sweeps in %.3f virtual s\n",
              grid, grid, nodes, max_iters, ivy::to_seconds(elapsed));
  std::printf("final update norm %.6f, centre temperature %.3f\n", norm,
              centre);
  std::printf("page transfers: %llu, ring bytes: %.2f MB\n",
              static_cast<unsigned long long>(
                  rt.stats().total(ivy::Counter::kPageTransfers)),
              static_cast<double>(
                  rt.stats().total(ivy::Counter::kBytesOnRing)) /
                  1e6);
  if (!flags.trace_out.empty() && rt.write_trace(flags.trace_out)) {
    std::printf("wrote %s (open in Perfetto / chrome://tracing)\n",
                flags.trace_out.c_str());
  }
  if (!flags.metrics_out.empty() &&
      rt.write_metrics(flags.metrics_out, elapsed)) {
    std::printf("wrote %s\n", flags.metrics_out.c_str());
  }
  if (!flags.prof_out.empty() && rt.write_prof(flags.prof_out)) {
    std::printf("wrote %s (speedscope / flamegraph.pl collapsed)\n",
                flags.prof_out.c_str());
  }
  rt.final_audit();
  if (ivy::oracle::Oracle* o = rt.oracle()) {
    std::printf("%s\n", o->brief().c_str());
  }
  return 0;
}
