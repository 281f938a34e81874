"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s bench/tests

They run small slices of each workload, so they take well under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench import harness, run, workloads  # noqa: E402
from bench.tracer import LAYERS, Tracer, metric_names  # noqa: E402

# The workload on which each layer is expected to do work (bench/README.md).
EXERCISED_BY = {
    "algebra.poly_mul": ("roundtrip", "ladder", "totspace"),
    "algebra.tpoly_mul": ("ladder",),
    "algebra.tpoly_substitute": ("ladder",),
    "algebra.invert_unit": ("ladder",),
    "algebra.exact_rank": ("totspace",),
    "algebra.render_terms": ("ladder", "totspace"),
    "poisson.bracket": ("roundtrip", "ladder", "totspace"),
    "poisson.hamiltonian_field": ("roundtrip", "ladder", "totspace"),
    "poisson.verify_jacobi": ("roundtrip", "ladder", "totspace"),
    "line.alpha_apply": ("ladder",),
    "line.tot_bracket": ("totspace",),
    "line.partial_alpha": ("totspace",),
    "line.verify_cocycle": ("roundtrip", "ladder", "totspace"),
    "line.change_trivialization": ("roundtrip", "ladder"),
    "moment.invert_generator_map": ("ladder",),
    "moment.twist": ("ladder",),
    "moment.trivialize": ("ladder",),
    "moment.verify": ("ladder", "totspace"),
    "moment.extend_conformal": ("totspace",),
    "modelfile.parse_model": ("ladder", "totspace"),
    "modelfile.parse_tot_expression": ("totspace",),
    "modelfile.ModelFile.render": ("ladder",),
    "modelfile.build_system": ("ladder", "totspace"),
    "instances.random_instance": ("roundtrip",),
    "instances.random_gauge_twist": ("roundtrip",),
    "cli.RunReport.to_json": ("roundtrip", "ladder", "totspace"),
}


def small_slice(name: str, ops: list[workloads.Operation]) -> list[workloads.Operation]:
    """A cheap subset that still reaches every layer the full workload reaches."""
    if name == "roundtrip":
        return ops[:12]
    if name == "ladder":
        return [op for op in ops if "-o2/" in op.key or "-o4/" in op.key]
    return [op for op in ops if not any(f"/tot{k}" in op.key for k in (8, 10, 12))]


class BenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp(prefix="bench-test-"))
        self.addCleanup(shutil.rmtree, self.tmp)

    def slice(self, name: str, seed: int = 3) -> list[workloads.Operation]:
        return small_slice(name, workloads.generate(name, seed, self.tmp / name))

    def empty_store(self) -> harness.DigestStore:
        return harness.DigestStore(self.tmp / "none.json")

    def test_inputs_are_byte_identical_for_a_seed(self):
        script = (
            "import sys; from pathlib import Path; "
            f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT)!r}]; "
            "from bench import workloads\n"
            "for name in workloads.WORKLOADS:\n"
            "    for op in workloads.generate(name, 7, Path('w') / name):\n"
            "        print(op.key, op.argv, op.expect_exit, op.top)\n"
        )
        snapshots = []
        for hash_seed in ("1", "2"):
            cwd = self.tmp / f"gen{hash_seed}"
            cwd.mkdir()
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-c", script], cwd=cwd, env=env,
                capture_output=True, text=True, check=True, timeout=120,
            )
            files = {
                p.relative_to(cwd).as_posix(): p.read_bytes()
                for p in sorted((cwd / "w").rglob("*")) if p.is_file()
            }
            snapshots.append((proc.stdout, files))
        self.assertTrue(snapshots[0][1])
        self.assertEqual(snapshots[0], snapshots[1])

    def test_traced_and_untraced_runs_give_identical_digests(self):
        for name in workloads.WORKLOADS:
            ops = self.slice(name)
            plain = harness.run_pass(ops, self.empty_store())
            tracer = Tracer()
            tracer.install()
            try:
                traced = harness.run_pass(ops, self.empty_store())
            finally:
                tracer.uninstall()
            self.assertEqual([o.failure for o in plain.outcomes], [None] * len(ops))
            self.assertEqual(
                [o.digest for o in plain.outcomes], [o.digest for o in traced.outcomes], name
            )

    def test_corrupted_expected_digest_is_a_failed_operation(self):
        ops = self.slice("totspace")[:4]
        store = self.empty_store()
        good = harness.run_pass(ops, store)
        store.recorded = {o.op.key: [o.exit_code, o.digest] for o in good.outcomes}
        store.seen = {}
        key = ops[1].key
        store.recorded[key] = [store.recorded[key][0], "0" * 64]
        again = harness.run_pass(ops, store)
        failed = [o for o in again.outcomes if o.failure]
        self.assertEqual([o.op.key for o in failed], [key])
        self.assertIn("digest", failed[0].failure)

    def test_every_layer_does_work_on_the_workloads_that_exercise_it(self):
        self.assertEqual(set(EXERCISED_BY), set(LAYERS))
        calls = {}
        for name in workloads.WORKLOADS:
            tracer = Tracer()
            tracer.install()
            try:
                harness.run_pass(self.slice(name), self.empty_store())
            finally:
                tracer.uninstall()
            calls[name] = dict(tracer.calls)
        for layer, names in EXERCISED_BY.items():
            for name in names:
                self.assertGreater(calls[name].get(layer, 0), 0, f"{layer} on {name}")

    def test_exact_counters_repeat(self):
        ops = self.slice("ladder")
        snapshots = []
        for _ in range(2):
            tracer = Tracer()
            tracer.install()
            try:
                harness.run_pass(ops, self.empty_store())
            finally:
                tracer.uninstall()
            snapshots.append(tracer.snapshot())
        for name in ("moment.verify.calls", "algebra.poly_mul.term_pairs",
                     "moment.trivialize.lift_terms"):
            self.assertGreater(snapshots[0][name], 0)
            self.assertEqual(snapshots[0][name], snapshots[1][name], name)

    def test_benchmark_json_names_what_the_run_reports(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            {(m["name"], m["unit"]) for m in spec["end_to_end"]}, set(run.UNITS.items())
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            metric_names() + [("trace.overhead_s", "s")],
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual(run.WORKLOAD_NAMES, workloads.WORKLOADS)

    def test_run_fails_without_the_sources(self):
        shutil.copytree(ROOT / "bench", self.tmp / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", self.tmp)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "ladder", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=self.tmp, capture_output=True, text=True, timeout=120,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
