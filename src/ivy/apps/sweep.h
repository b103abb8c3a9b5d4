// The ivy-bench workload set: the paper's six benchmark programs at the
// problem sizes of the full sweep and of the reduced (CI) sweep, on the
// machine configuration every sweep point uses.
#pragma once

#include <array>
#include <string_view>

#include "ivy/apps/workload.h"

namespace ivy::apps {

inline constexpr std::array<const char*, 6> kSweepWorkloads = {
    "jacobi", "matmul", "pde3d", "tsp", "dotprod", "msort"};

/// A sweep point's machine: `nodes` processors under `manager`, with the
/// shared heap and stack region the largest full-size workload needs.
[[nodiscard]] Config sweep_config(NodeId nodes, svm::ManagerKind manager);

/// Runs workload `name` (one of kSweepWorkloads) at its full or reduced
/// sweep size.  An unknown name returns an unverified outcome.
RunOutcome run_sweep_workload(Runtime& rt, std::string_view name,
                              bool reduced);

}  // namespace ivy::apps
