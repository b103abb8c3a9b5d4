#!/usr/bin/env python3
"""Cross-checks the benchmark against the paper harnesses.

The benchmark must run the same programs as ivy-bench and
fig4_superlinear, so its virtual times must equal theirs exactly.  It
also pins the baseline facts the benchmark is defined to show (the
centralized-manager storm on jacobi-contended, paging only at N=1 on
pde3d-paging, the ring-bound Figure 5 dotprod) and checks that the seed
changes no workload's traffic.

Run from the root of a checkout (builds everything it needs first):

    python3 -m unittest discover -s perfbench/tests -v
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402  (perfbench/run.py: the benchmark's build step)

POINTS = ("n1", "centralized", "fixed", "dynamic", "broadcast")

_build = None
_cache = {}


def build_dir():
    global _build
    if _build is None:
        _build = run.build("ivy-perfbench", "ivy-bench", "fig4_superlinear")
    return _build


def metrics(workload, seed, trace):
    """Result metrics ({name: {"value", "unit"}}) of one single-sweep run."""
    key = (workload, seed, trace)
    if key not in _cache:
        out = subprocess.run(
            [os.path.join(build_dir(), "ivy-perfbench"), "--workload",
             workload, "--seed", str(seed), "--seconds", "1", "--trace",
             str(trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, out.stdout
        _cache[key] = result["metrics"]
    return _cache[key]


def perfbench(workload, seed, trace):
    """Metric values of one single-sweep benchmark run, by name."""
    return {k: v["value"] for k, v in metrics(workload, seed, trace).items()}


def ns(virtual_s):
    return round(virtual_s * 1e9)


class CrossCheck(unittest.TestCase):

    def test_jacobi_equals_ivy_bench(self):
        out_json = os.path.join(build_dir(), "crosscheck_ivy_bench.json")
        subprocess.run(
            [os.path.join(build_dir(), "ivy-bench"), "--workloads", "jacobi",
             "--nodes", "1,8", "--out", out_json],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
        with open(out_json) as f:
            points = json.load(f)["points"]
        elapsed = {(p["manager"], p["nodes"]): p["elapsed_ns"] for p in points}
        m = perfbench("jacobi-contended", 1, 0)
        self.assertEqual(ns(m["vtime_s.n1"]), elapsed[("dynamic", 1)])
        for manager in POINTS[1:]:
            self.assertEqual(ns(m["vtime_s." + manager]),
                             elapsed[(manager, 8)], manager)
        self.assertEqual(round(m["vtime_s.centralized"], 3), 417.064)

    def test_pde3d_equals_fig4_rows(self):
        out = subprocess.run(
            [os.path.join(build_dir(), "fig4_superlinear")],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            check=True).stdout
        rows = {}
        for line in out.splitlines():
            cols = line.split()
            if len(cols) == 6 and re.fullmatch(r"\d+", cols[0]):
                rows[int(cols[0])] = (float(cols[1]),
                                      int(cols[3]) + int(cols[4]))
        m = perfbench("pde3d-paging", 1, 0)
        self.assertEqual(round(m["vtime_s.n1"], 3), rows[1][0])
        self.assertEqual(round(m["vtime_s.dynamic"], 3), rows[8][0])
        self.assertEqual(round(m["vtime_s.n1"], 2), 52.47)
        self.assertEqual(round(m["vtime_s.dynamic"], 2), 2.19)
        layers = perfbench("pde3d-paging", 1, 1)
        self.assertEqual(layers["mem.disk_ios.n1"], rows[1][1])
        self.assertGreater(layers["mem.disk_ios.n1"], 0)
        for point in POINTS[1:]:
            self.assertEqual(layers["mem.disk_ios." + point], 0, point)

    def test_known_defects_show(self):
        layers = perfbench("jacobi-contended", 1, 1)
        self.assertEqual(layers["rpc.failures.centralized"], 6)
        self.assertGreater(layers["rpc.retransmissions.broadcast"], 0)
        self.assertGreater(layers["rpc.retransmissions.fixed"] +
                           layers["rpc.retransmissions.dynamic"], 0)
        self.assertLess(perfbench("jacobi-contended", 1, 0)["rpc_ok_frac"], 1)

    def test_observation_leaves_virtual_time_unchanged(self):
        for workload in ("dotprod-scatter", "jacobi-contended",
                         "pde3d-paging"):
            layers = perfbench(workload, 1, 1)
            self.assertEqual(layers["obs.vtime_delta_ns"], 0, workload)

    def test_seed_changes_data_not_traffic(self):
        # jacobi and pde3d draw their data from the seed, never their
        # traffic; dotprod-scatter keeps the Figure 5 input for every seed.
        for workload in ("dotprod-scatter", "jacobi-contended",
                         "pde3d-paging"):
            a = perfbench(workload, 1, 1)
            b = perfbench(workload, 2, 1)
            for point in POINTS:
                for name in ("sim.events.", "net.bytes.", "svm.read_faults.",
                             "svm.write_faults.", "rpc.retransmissions."):
                    self.assertEqual(a[name + point], b[name + point],
                                     workload + " " + name + point)

    def test_benchmark_json_names_every_printed_metric(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for section, trace in (("end_to_end", 0), ("per_layer", 1)):
            declared = {m["name"]: m["unit"] for m in spec[section]}
            for workload in ("dotprod-scatter", "jacobi-contended",
                             "pde3d-paging"):
                printed = {k: v["unit"]
                           for k, v in metrics(workload, 1, trace).items()}
                self.assertEqual(printed, declared, section + " " + workload)

    def test_dotprod_figures(self):
        m = perfbench("dotprod-scatter", 1, 0)
        layers = perfbench("dotprod-scatter", 1, 1)
        self.assertEqual(round(m["vtime_s.dynamic"], 2), 3.09)
        self.assertEqual(layers["svm.read_faults.dynamic"], 3585)
        self.assertEqual(layers["svm.write_faults.dynamic"], 29)
        self.assertEqual(round(layers["net.bytes.dynamic"] / 1e6, 1), 4.1)
        ring_s = layers["net.bytes.dynamic"] / 1.5e6
        self.assertEqual(round(ring_s, 1), 2.8)
        for point in POINTS[1:]:
            self.assertEqual(layers["svm.invalidations." + point], 0, point)
            self.assertEqual(layers["mem.disk_ios." + point], 0, point)


if __name__ == "__main__":
    unittest.main()
