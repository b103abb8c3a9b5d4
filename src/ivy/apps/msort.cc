#include "ivy/apps/msort.h"

#include <algorithm>
#include <cmath>

namespace ivy::apps {
namespace {

/// Reads a block of records into private memory, charging one compute
/// unit per record beyond the per-element SVM reference costs.
std::vector<SortRecord> read_block(const SharedArray<SortRecord>& vec,
                                   Range r) {
  std::vector<SortRecord> out;
  out.reserve(r.end - r.begin);
  for (std::size_t i = r.begin; i < r.end; ++i) {
    out.push_back(vec.get(i));
  }
  return out;
}

void write_block(const SharedArray<SortRecord>& vec, Range r,
                 const std::vector<SortRecord>& data, std::size_t from) {
  for (std::size_t i = r.begin; i < r.end; ++i) {
    vec.set(i, data[from + (i - r.begin)]);
  }
}

}  // namespace

RunOutcome run_msort(Runtime& rt, const MsortParams& params) {
  const std::size_t n = params.records;
  const int procs = params.processes > 0 ? params.processes
                                         : static_cast<int>(rt.nodes());
  const int blocks = 2 * procs;

  auto vec = rt.alloc_array<SortRecord>(n);
  auto bar = rt.create_barrier(procs);

  const Time start = rt.now();

  rt.spawn_on(0, [=, seed = params.seed]() mutable {
    const auto recs = gen_records(n, seed);
    for (std::size_t i = 0; i < n; ++i) {
      vec.set(i, recs[i]);
      if ((i & 7) == 0) charge(1);
    }
  });
  rt.run();

  const auto block_range = [n, blocks](int blk) {
    return partition(n, blocks, blk);
  };

  for (int p = 0; p < procs; ++p) {
    rt.spawn_on(static_cast<NodeId>(p) % rt.nodes(), [=]() mutable {
      // Phase 1: quicksort the process's own two blocks.
      {
        const Range r0 = block_range(2 * p);
        const Range r1 = block_range(2 * p + 1);
        auto local = read_block(vec, Range{r0.begin, r1.end});
        std::sort(local.begin(), local.end());
        const auto len = static_cast<double>(local.size());
        charge(static_cast<std::int64_t>(len * std::log2(len + 1)));
        write_block(vec, Range{r0.begin, r1.end}, local, 0);
      }
      bar.arrive(0);

      // Phase 2: 2N-1 odd-even merge-split rounds.  The quicksort phase
      // already sorted each (2p, 2p+1) pair jointly — i.e. performed the
      // first even round — so the merge rounds start with the odd
      // pairing, giving the required 2N phases in total.
      for (int round = 0; round < blocks - 1; ++round) {
        const int left = 2 * p + ((round + 1) % 2);
        if (left + 1 < blocks) {
          const Range rl = block_range(left);
          const Range rr = block_range(left + 1);
          auto lo = read_block(vec, rl);
          auto hi = read_block(vec, rr);
          std::vector<SortRecord> merged(lo.size() + hi.size());
          std::merge(lo.begin(), lo.end(), hi.begin(), hi.end(),
                     merged.begin());
          charge(static_cast<std::int64_t>(merged.size()));
          write_block(vec, rl, merged, 0);
          write_block(vec, rr, merged, lo.size());
        }
        bar.arrive(1 + round);
      }
    });
  }
  rt.run();
  const Time elapsed = rt.now() - start;

  auto expect = gen_records(n, params.seed);
  std::sort(expect.begin(), expect.end());
  bool ok = true;
  const std::vector<SortRecord> got = rt.host_read(vec);
  for (std::size_t i = 0; i < n; ++i) {
    if (!(got[i] == expect[i])) {
      ok = false;
      break;
    }
  }
  return RunOutcome{elapsed, ok, "msort records=" + std::to_string(n)};
}

double msort_ideal_speedup(std::size_t records, int processes) {
  const auto comparisons = [records](int procs) {
    const double n = static_cast<double>(records);
    const double block = n / (2.0 * procs);
    // Parallel makespan: quicksort of two blocks, then 2N-1 merge rounds
    // of two blocks each, all lock-step.
    const double qsort = 2.0 * block * std::log2(2.0 * block + 1.0);
    const double merges = (2.0 * procs - 1.0) * 2.0 * block;
    return qsort + merges;
  };
  return comparisons(1) / comparisons(processes);
}

}  // namespace ivy::apps
