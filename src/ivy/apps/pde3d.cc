#include "ivy/apps/pde3d.h"

#include <cmath>

namespace ivy::apps {

RunOutcome run_pde3d(Runtime& rt, const Pde3dParams& params) {
  const std::size_t m = params.m;
  const std::size_t cells = m * m * m;
  const int procs = params.processes > 0 ? params.processes
                                         : static_cast<int>(rt.nodes());

  auto u = rt.alloc_array<double>(cells);
  auto u_next = rt.alloc_array<double>(cells);
  auto rhs = rt.alloc_array<double>(cells);
  auto bar = rt.create_barrier(procs);

  const auto idx = [m](std::size_t i, std::size_t j, std::size_t k) {
    return (i * m + j) * m + k;
  };

  const Time start = rt.now();

  // "the program initializes its data structures only on one processor,
  // this processor causes most disk I/O transfers because it cannot hold
  // all the data structures in its physical memory."
  rt.spawn_on(0, [=, seed = params.seed]() mutable {
    Rng rng(seed);
    for (std::size_t c = 0; c < cells; ++c) {
      rhs[c] = rng.uniform() * 2.0 - 1.0;
      u[c] = 0.0;
      // Data generation is far cheaper than the numeric kernel.
      if ((c & 7) == 0) charge(1);
    }
  });
  rt.run();

  // Partition by planes of the first axis; the 7-point stencil makes each
  // worker share only its boundary planes with its neighbours.
  for (int p = 0; p < procs; ++p) {
    const Range planes = partition(m, procs, p);
    rt.spawn_on(params.system_scheduling
                    ? 0
                    : static_cast<NodeId>(p) % rt.nodes(), [=, &rt]() mutable {
      for (int it = 0; it < params.iterations; ++it) {
        for (std::size_t i = planes.begin; i < planes.end; ++i) {
          for (std::size_t j = 0; j < m; ++j) {
            for (std::size_t k = 0; k < m; ++k) {
              double sum = 0.0;
              if (i > 0) sum += static_cast<double>(u[idx(i - 1, j, k)]);
              if (i + 1 < m) sum += static_cast<double>(u[idx(i + 1, j, k)]);
              if (j > 0) sum += static_cast<double>(u[idx(i, j - 1, k)]);
              if (j + 1 < m) sum += static_cast<double>(u[idx(i, j + 1, k)]);
              if (k > 0) sum += static_cast<double>(u[idx(i, j, k - 1)]);
              if (k + 1 < m) sum += static_cast<double>(u[idx(i, j, k + 1)]);
              u_next[idx(i, j, k)] =
                  (sum + static_cast<double>(rhs[idx(i, j, k)])) / 6.0;
              charge(2);
            }
          }
        }
        bar.arrive(2 * it);
        for (std::size_t i = planes.begin; i < planes.end; ++i) {
          for (std::size_t j = 0; j < m; ++j) {
            for (std::size_t k = 0; k < m; ++k) {
              u[idx(i, j, k)] = static_cast<double>(u_next[idx(i, j, k)]);
            }
          }
        }
        if (params.mark_epochs && p == 0) rt.mark_epoch();
        bar.arrive(2 * it + 1);
      }
    });
  }
  rt.run();
  const Time elapsed = rt.now() - start;

  if (params.skip_verify) {
    return RunOutcome{elapsed, true, "pde3d m=" + std::to_string(m) +
                                         " (verification skipped)"};
  }
  std::vector<double> rhs_host(cells);
  {
    Rng rng(params.seed);
    for (double& v : rhs_host) v = rng.uniform() * 2.0 - 1.0;
  }
  const auto expect = pde3d_oracle(rhs_host, m, params.iterations);
  bool ok = true;
  double max_err = 0.0;
  const std::vector<double> got = rt.host_read(u);
  for (std::size_t c = 0; c < cells; ++c) {
    const double err = std::abs(got[c] - expect[c]);
    max_err = std::max(max_err, err);
    if (!(err <= 1e-12 + 1e-9 * std::abs(expect[c]))) ok = false;
  }
  return RunOutcome{elapsed, ok,
                    "pde3d m=" + std::to_string(m) +
                        " max_err=" + std::to_string(max_err)};
}

}  // namespace ivy::apps
