#include "ivy/apps/dotprod.h"

#include <cmath>
#include <memory>

namespace ivy::apps {

RunOutcome run_dotprod(Runtime& rt, const DotprodParams& params) {
  const std::size_t n = params.n;
  const int procs = params.processes > 0 ? params.processes
                                         : static_cast<int>(rt.nodes());

  // x and y interleaved in one region; with scatter enabled, element i
  // lives at a permuted slot, so a worker's index range touches pages all
  // over the region — data placement deliberately mismatches the
  // partitioning.
  auto storage = rt.alloc_array<double>(2 * n);
  auto partial = rt.alloc_array<double>(static_cast<std::size_t>(procs) + 1);
  auto bar = rt.create_barrier(procs);

  auto perm = std::make_shared<std::vector<std::uint32_t>>(
      params.scatter ? gen_permutation(2 * n, params.seed ^ 0x5ca)
                     : std::vector<std::uint32_t>());
  const auto slot_x = [perm, n](std::size_t i) {
    return perm->empty() ? i : (*perm)[i];
  };
  const auto slot_y = [perm, n](std::size_t i) {
    return perm->empty() ? n + i : (*perm)[n + i];
  };

  // The inputs are made once, on the host: the expected sum is taken from
  // them here, and the init process stores the same vectors.  Making them
  // charges no virtual time.
  auto xv =
      std::make_shared<const std::vector<double>>(gen_vector(n, params.seed));
  auto yv = std::make_shared<const std::vector<double>>(
      gen_vector(n, params.seed ^ 0x9));
  double expect = 0.0;
  for (std::size_t i = 0; i < n; ++i) expect += (*xv)[i] * (*yv)[i];

  const Time start = rt.now();

  rt.spawn_on(0, [=]() mutable {
    for (std::size_t i = 0; i < n; ++i) {
      storage[slot_x(i)] = (*xv)[i];
      storage[slot_y(i)] = (*yv)[i];
    }
  });
  rt.run();
  // The finished init process released its copies; the compute phase
  // does not hold the inputs.
  xv.reset();
  yv.reset();

  for (int p = 0; p < procs; ++p) {
    const Range range = partition(n, procs, p);
    rt.spawn_on(static_cast<NodeId>(p) % rt.nodes(), [=]() mutable {
      double sum = 0.0;
      for (std::size_t i = range.begin; i < range.end; ++i) {
        sum += static_cast<double>(storage[slot_x(i)]) *
               static_cast<double>(storage[slot_y(i)]);
        charge(1);
      }
      partial[static_cast<std::size_t>(p)] = sum;
      bar.arrive(0);
      if (p == 0) {
        // "S is obtained by summing up the partial sums."
        double total = 0.0;
        for (int q = 0; q < procs; ++q) {
          total += static_cast<double>(partial[static_cast<std::size_t>(q)]);
        }
        partial[static_cast<std::size_t>(procs)] = total;
      }
    });
  }
  rt.run();
  const Time elapsed = rt.now() - start;

  const double got =
      rt.host_read(partial, static_cast<std::size_t>(procs));
  const bool ok = std::abs(got - expect) <= 1e-9 * (1.0 + std::abs(expect));
  return RunOutcome{elapsed, ok,
                    "dotprod n=" + std::to_string(n) + " sum=" +
                        std::to_string(got)};
}

}  // namespace ivy::apps
