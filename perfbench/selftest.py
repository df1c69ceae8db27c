"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload's shape at toy n and N through the same pass processes
and report code as the benchmark, then checks that every metric named in
BENCHMARK.json is emitted with its unit in both modes, that the tiny runs
pass the correctness gate, and that the gate trips on a perturbed pinned
value, on a result off the published table and on a wrong observed order.
Takes about 10 s.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import spec  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def errors_of(workload: str, passes: list[dict]) -> dict[spec.Run, float]:
    runs = {r.key: r for g in spec.plan(workload, "tiny") for r in g}
    return {runs[r["key"]]: r["error"] for r in passes[0]["records"]}


class HarnessTest(unittest.TestCase):
    passes: dict[str, list[dict]] = {}

    @classmethod
    def setUpClass(cls) -> None:
        # seconds = 0 under trace: a warm-up, a plain and a traced pass
        cls.passes = {w: bench.measure(w, seed=7, seconds=0, trace=True,
                                       size="tiny")
                      for w in spec.WORKLOADS}

    def test_every_metric_emitted(self) -> None:
        for w, passes in self.passes.items():
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    used = passes if trace else passes[:2]
                    result, _ = bench.summarize(w, used, trace, BENCH)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in BENCH[key]}
                    got = result["metrics"]
                    self.assertEqual(set(got), set(want))
                    for name, unit in want.items():
                        self.assertEqual(got[name]["unit"], unit)
                        self.assertTrue(math.isfinite(got[name]["value"]))

    def test_end_to_end_metrics_are_never_zero(self) -> None:
        for w, passes in self.passes.items():
            result, _ = bench.summarize(w, passes[:2], False, BENCH)
            for name, m in result["metrics"].items():
                with self.subTest(workload=w, metric=name):
                    self.assertGreater(m["value"], 0.0)

    def test_stepper_parts_account_for_run_span(self) -> None:
        for w, passes in self.passes.items():
            self.assertEqual([p["traced"] for p in passes],
                             [False, False, True])
            self.assertTrue(passes[0]["warmup"])
            traced = passes[2]
            layers = traced["layers"]
            parts = sum(layers[f"stepper.{p}_s"]
                        for p in ("run_setup", "history", "solve",
                                  "loop_other"))
            with self.subTest(workload=w):
                self.assertTrue(traced["traced"])
                self.assertAlmostEqual(parts, layers["stepper.run_s"],
                                       delta=bench.ACCOUNTING_TOL_S)
                self.assertLessEqual(traced["accounting_gap_s"],
                                     bench.ACCOUNTING_TOL_S)

    def test_times_scale_with_reference_speed(self) -> None:
        plain = dict(self.passes["direct-long"][1])
        base = bench.pass_metrics(plain, spec.PINNED)
        plain["ref_s"] *= 2.0           # the host ran at half speed
        slow = bench.pass_metrics(plain, spec.PINNED)
        for name in ("wall_s", "setup_s"):
            self.assertAlmostEqual(slow[name], base[name] / 2.0)
        self.assertAlmostEqual(slow["dof_steps_per_s"],
                               base["dof_steps_per_s"] * 2.0)
        self.assertEqual(slow["peak_rss_mb"], base["peak_rss_mb"])

    def test_gate_trips_on_perturbed_pin(self) -> None:
        for w, passes in self.passes.items():
            errors = errors_of(w, passes)
            self.assertEqual(spec.check(w, errors), {})
            victim = next(iter(errors)).key
            pins = dict(spec.PINNED)
            pins[victim] *= 1.0 - 2.0 * spec.PIN_RTOL
            with self.subTest(workload=w):
                self.assertIn(victim, spec.check(w, errors, pins))
                result, _ = bench.summarize(w, passes[:2], False, BENCH, pins)
                self.assertGreater(
                    result["metrics"]["l2_error_ratio"]["value"],
                    1.0 + spec.PIN_RTOL)

    def test_gate_trips_off_published_table(self) -> None:
        errors = errors_of("spatial-fast", self.passes["spatial-fast"])
        scaled = {r: 1.2 * e for r, e in errors.items()}
        pins = {r.key: e for r, e in scaled.items()}
        bad = spec.check("spatial-fast", scaled, pins)
        self.assertEqual(set(bad), {r.key for r in errors})
        self.assertTrue(all("published" in v for v in bad.values()))

    def test_gate_trips_on_wrong_order(self) -> None:
        errors = errors_of("temporal-ladder", self.passes["temporal-ladder"])
        finest = max((r for r in errors if r.kind == "tri"),
                     key=lambda r: r.n_steps)
        errors[finest] /= 1.5          # order of the last halving +0.58
        pins = {r.key: e for r, e in errors.items()}
        bad = spec.check("temporal-ladder", errors, pins)
        self.assertEqual(set(bad), {r.key for r in errors if r.kind == "tri"})

    def test_seed_only_reorders_runs(self) -> None:
        for w in spec.WORKLOADS:
            base = sorted(r.key for g in spec.plan(w) for r in g)
            for seed in (1, 2, 3):
                got = sorted(r.key for g in spec.shuffled_plan(w, seed, 0)
                             for r in g)
                self.assertEqual(got, base)

    def test_refuses_to_run_without_the_solver(self) -> None:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "direct-long", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
