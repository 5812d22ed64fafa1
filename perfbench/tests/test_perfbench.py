"""Self-tests of the repository benchmark.

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root. Builds madbench through run.py (the same
build the benchmark uses) and checks the benchmark's own guarantees:

  - the same seed twice gives identical virtual-clock metrics;
  - a traced run gives the same virtual-clock metrics as an untraced one;
  - a different seed changes the generated inputs;
  - a planted corrupt byte drives failed_frac above 0 and makes the
    command exit non-zero;
  - BENCHMARK.json, layers.json and madbench name the same metrics with
    the same units.

Every madbench run here uses --seconds 0: exactly one pass (one untraced
and one traced pass with --trace 1), about a minute for the whole suite.
"""

import importlib.util
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)

_spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(BENCH_DIR, "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

BENCHMARK = run.load_json(os.path.join(ROOT, "BENCHMARK.json"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

_binary = []
_runs = {}


def madbench(workload, seed, trace=False, fresh=False):
    """Full madbench JSON of one pass; cached unless `fresh`."""
    key = (workload, seed, trace)
    if fresh or key not in _runs:
        if not _binary:
            _binary.append(run.build())
        code, full = run.run_madbench(_binary[0], workload, seed, 0, trace)
        assert full is not None, "madbench gave no result (exit %d)" % code
        assert code == 0 and full["correct"], full
        if fresh:
            return full
        _runs[key] = full
    return _runs[key]


def virtual_metrics(full):
    return {name: m["value"] for name, m in full["end_to_end"].items()
            if m["clock"] == "virtual"}


class BenchmarkSelfTest(unittest.TestCase):

    def test_same_seed_gives_identical_virtual_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = madbench(workload, 1)
                second = madbench(workload, 1, fresh=True)
                self.assertEqual(first["inputs_digest"],
                                 second["inputs_digest"])
                self.assertEqual(virtual_metrics(first),
                                 virtual_metrics(second))
                self.assertEqual(len(virtual_metrics(first)), 4)

    def test_traced_run_keeps_virtual_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                traced = madbench(workload, 1, trace=True)
                self.assertEqual(traced["traced_passes"], 1)
                self.assertEqual(virtual_metrics(traced),
                                 virtual_metrics(madbench(workload, 1)))
                self.assertEqual(traced["per_layer"]["failed_frac"]["value"],
                                 0.0)
                self.assertEqual(traced["per_layer"]["fwd.replays"]["value"],
                                 0.0)

    def test_other_seed_changes_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(madbench(workload, 1)["inputs_digest"],
                                    madbench(workload, 2)["inputs_digest"])

    def test_planted_corrupt_byte_fails_the_command(self):
        for workload in ("rpc_short", "fabric_fanin"):
            with self.subTest(workload=workload):
                proc = subprocess.run(
                    [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                     "--workload", workload, "--seed", "1", "--seconds", "0",
                     "--trace", "1", "--plant-corrupt"],
                    cwd=ROOT, stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL, text=True, check=False)
                self.assertNotEqual(proc.returncode, 0)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(result["metrics"]["failed_frac"]["value"],
                                   0.0)

    def test_metric_names_and_units_agree(self):
        layers = run.load_json(os.path.join(BENCH_DIR, "layers.json"))
        full = madbench("rpc_short", 1, trace=True)
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
            printed = {n: m["unit"] for n, m in full[section].items()}
            self.assertEqual(declared, printed, section)
            for name in declared:
                self.assertIn(name, layers["metrics"])
                self.assertEqual(layers["metrics"][name]["clock"],
                                 full[section][name]["clock"], name)
        self.assertEqual(sorted(layers["workloads"]), sorted(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
