#include "ivy/apps/jacobi.h"

#include <cmath>

namespace ivy::apps {

RunOutcome run_jacobi(Runtime& rt, const JacobiParams& params) {
  const std::size_t n = params.n;
  const int procs = params.processes > 0 ? params.processes
                                         : static_cast<int>(rt.nodes());

  auto a = rt.alloc_array<double>(n * n);
  auto b = rt.alloc_array<double>(n);
  auto x = rt.alloc_array<double>(n);
  auto x_next = rt.alloc_array<double>(n);
  auto bar = rt.create_barrier(procs);

  const Time start = rt.now();

  // Initialization happens on one processor, as in the paper's runs; the
  // data then migrates to the workers page by page on demand.
  rt.spawn_on(0, [=, seed = params.seed]() mutable {
    const auto am = gen_dd_matrix(n, seed);
    const auto bv = gen_vector(n, seed ^ 0xb);
    for (std::size_t i = 0; i < n * n; ++i) a[i] = am[i];
    for (std::size_t i = 0; i < n; ++i) {
      b[i] = bv[i];
      x[i] = 0.0;
    }
  });
  rt.run();

  for (int p = 0; p < procs; ++p) {
    const Range rows = partition(n, procs, p);
    rt.spawn_on(params.system_scheduling
                    ? 0
                    : static_cast<NodeId>(p) % rt.nodes(),
                [=, &rt]() mutable {
      for (int it = 0; it < params.iterations; ++it) {
        for (std::size_t i = rows.begin; i < rows.end; ++i) {
          double sum = 0.0;
          for (std::size_t j = 0; j < n; ++j) {
            if (j != i) sum += static_cast<double>(a[i * n + j]) * x[j];
            charge(1);
          }
          x_next[i] = (static_cast<double>(b[i]) - sum) /
                      static_cast<double>(a[i * n + i]);
        }
        bar.arrive(2 * it);  // everyone finished computing x_next
        for (std::size_t i = rows.begin; i < rows.end; ++i) {
          x[i] = static_cast<double>(x_next[i]);
        }
        if (params.mark_epochs && p == 0) rt.mark_epoch();
        bar.arrive(2 * it + 1);  // x fully updated for the next sweep
      }
    });
  }
  rt.run();
  const Time elapsed = rt.now() - start;

  // Verify against the sequential oracle.
  const auto am = gen_dd_matrix(n, params.seed);
  const auto bv = gen_vector(n, params.seed ^ 0xb);
  const auto expect = jacobi_oracle(am, bv, n, params.iterations);
  bool ok = true;
  double max_err = 0.0;
  const std::vector<double> got = rt.host_read(x);
  for (std::size_t i = 0; i < n; ++i) {
    const double err = std::abs(got[i] - expect[i]);
    max_err = std::max(max_err, err);
    if (!(err <= 1e-9 * (1.0 + std::abs(expect[i])))) ok = false;
  }
  return RunOutcome{elapsed, ok,
                    "jacobi n=" + std::to_string(n) +
                        " max_err=" + std::to_string(max_err)};
}

}  // namespace ivy::apps
