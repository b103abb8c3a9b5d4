#include "ivy/apps/sweep.h"

#include "ivy/apps/dotprod.h"
#include "ivy/apps/jacobi.h"
#include "ivy/apps/matmul.h"
#include "ivy/apps/msort.h"
#include "ivy/apps/pde3d.h"
#include "ivy/apps/tsp.h"

namespace ivy::apps {

Config sweep_config(NodeId nodes, svm::ManagerKind manager) {
  Config cfg;
  cfg.nodes = nodes;
  cfg.heap_pages = 24576;
  cfg.stack_region_pages = 64;
  cfg.manager = manager;
  return cfg;
}

RunOutcome run_sweep_workload(Runtime& rt, std::string_view name,
                              bool reduced) {
  if (name == "jacobi") {
    JacobiParams p;
    p.n = reduced ? 64 : 128;
    p.iterations = reduced ? 3 : 6;
    return run_jacobi(rt, p);
  }
  if (name == "matmul") {
    MatmulParams p;
    p.n = reduced ? 32 : 48;
    return run_matmul(rt, p);
  }
  if (name == "pde3d") {
    Pde3dParams p;
    p.m = reduced ? 12 : 20;
    p.iterations = reduced ? 2 : 4;
    return run_pde3d(rt, p);
  }
  if (name == "tsp") {
    TspParams p;
    p.cities = reduced ? 9 : 10;
    return run_tsp(rt, p);
  }
  if (name == "dotprod") {
    DotprodParams p;
    p.n = reduced ? 4096 : 8192;
    return run_dotprod(rt, p);
  }
  if (name == "msort") {
    MsortParams p;
    p.records = reduced ? 2048 : 4096;
    return run_msort(rt, p);
  }
  return {};
}

}  // namespace ivy::apps
