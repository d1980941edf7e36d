"""Checks of the benchmark itself. Run from the repository root:

    python3 perfbench/selftest.py

The name keeps pytest from collecting it with the solver's own suite; the
worker-count and record checks take about a minute together on two
cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

import run                      # puts the repository's src/ on sys.path
import spans
import workloads
from wemp import experiments, fem, mesh as wmesh, msfem, parareal, soe, solvers


class WorkerCount(unittest.TestCase):
    def test_desk_parareal_digest_is_the_same_at_one_and_two_workers(self):
        w = workloads.WORKLOADS["desk-parareal"]
        amplitude = workloads.amplitude_for(7)
        s = workloads.set_up(w, 7, amplitude, workers=1)
        answers = {name: call() for _, name, call
                   in workloads.marches(w, s, workers=1)}
        s2 = workloads.set_up(w, 7, amplitude, workers=2)
        two, _ = parareal.wemp_solve(s2.ctx, delta=0.0, k_max=w.k_max,
                                     workers=2)
        self.assertEqual(workloads.digest(answers["states"]),
                         workloads.digest(two))
        _, gates = workloads.check(w, s, answers)
        self.assertTrue(all(ok for _, _, ok in gates.values()), gates)


class ColumnCount(unittest.TestCase):
    def test_candidate_count_matches_the_columns_msfem_builds(self):
        mesh = wmesh.build_mesh(4, 8)
        kappa = fem.CoefficientField.constant(mesh)
        pou = msfem.build_partition_of_unity(mesh, kappa)
        kappa_tilde = msfem.weighted_coefficient(mesh, kappa, pou)
        for level in (1, 2):
            built = sum(
                len(msfem._vertex_columns(mesh, kappa, pou, level, v,
                                          kappa_tilde)[1])
                for v in np.flatnonzero(mesh.coarse_vertex_interior))
            self.assertEqual(workloads.candidate_columns(mesh, level), built)


class Tracing(unittest.TestCase):
    def small_context(self):
        mesh = wmesh.build_mesh(4, 4)
        kappa = fem.CoefficientField.constant(mesh)
        space = msfem.assemble_space(
            mesh, kappa, msfem.build_partition_of_unity(mesh, kappa), 1)
        spec = solvers.ProblemSpec(alpha=0.5, T=0.5, tau_f=1.0 / 32,
                                   tau_c=0.125, u0=experiments.u0_standard,
                                   f=experiments.source_smooth, kappa=kappa,
                                   level=1, epsilon=1e-2)
        return parareal.build_context(spec, space,
                                      soe.build_soe(0.5, spec.tau_f, 1e-2))

    def test_worker_spans_nest_under_their_iteration_and_wrappers_go_away(self):
        ctx = self.small_context()
        original = parareal.jump
        tracer = spans.Tracer()
        with spans.installed(tracer):
            self.assertIsNot(parareal.jump, original)
            tracer.active = True
            parareal.wemp_solve(ctx, delta=0.0, k_max=2, workers=2)
            tracer.active = False
        self.assertIs(parareal.jump, original)
        recorded = tracer.take()
        by_id = {s.id: s for s in recorded}
        jumps = [s for s in recorded if s.name == "parareal.jump"]
        self.assertEqual(len(jumps), 2 * ctx.n_slabs)
        for j in jumps:
            self.assertEqual(by_id[j.parent].name, "parareal.wemp_iteration")
        for s in recorded:
            if s.parent is not None:
                parent = by_id[s.parent]
                self.assertLessEqual(parent.start, s.start)
                self.assertLessEqual(s.end, parent.end)
        layers = spans.layer_metrics(recorded, workers=2)
        self.assertEqual(layers["solvers.step_count"][0],
                         2 * (ctx.n_slabs * (ctx.m_sub + 1) + ctx.n_slabs)
                         + ctx.n_slabs)
        busy, phase = layers["parareal.slab_busy_s"][0], layers["parareal.slab_phase_s"][0]
        self.assertAlmostEqual(layers["parareal.slab_idle_s"][0], 2 * phase - busy)
        self.assertNotIn("stepping.l1_weights_s", layers)

    def test_self_time_counts_overlapping_children_once(self):
        outer = spans.Span(0, "msfem.assemble_space", 0.0, 10.0, None, 1)
        kids = [spans.Span(1, "fem.factorized_spd", 1.0, 4.0, 0, 1),
                spans.Span(2, "fem.solve", 3.0, 6.0, 0, 2),
                spans.Span(3, "fem.solve", 8.0, 9.0, 0, 2)]
        layers = spans.layer_metrics([outer, *kids], workers=1)
        # children cover [1, 6] and [8, 9] of [0, 10]
        self.assertAlmostEqual(layers["msfem.assemble_space_self_s"][0], 4.0)


SHORT_RUN = [sys.executable, "perfbench/run.py", "--workload",
             "sequential-march", "--seed", "1", "--seconds", "1",
             "--trace", "0"]


def copy_benchmark(tmp: str, with_solver: bool) -> None:
    root = Path(run.ROOT)
    skip = shutil.ignore_patterns("runs", "__pycache__")
    shutil.copy(root / "BENCHMARK.json", tmp)
    shutil.copytree(root / "perfbench", Path(tmp) / "perfbench", ignore=skip)
    if with_solver:
        shutil.copytree(root / "src", Path(tmp) / "src", ignore=skip)


class Contract(unittest.TestCase):
    def test_fails_without_printing_a_result_when_the_solver_is_missing(self):
        with tempfile.TemporaryDirectory() as tmp:
            copy_benchmark(tmp, with_solver=False)
            proc = subprocess.run(SHORT_RUN, cwd=tmp, capture_output=True,
                                  text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        for line in proc.stdout.splitlines():
            with self.assertRaises(ValueError):
                json.loads(line)

    def test_runs_are_compared_only_with_records_of_the_same_code(self):
        with tempfile.TemporaryDirectory() as tmp:
            copy_benchmark(tmp, with_solver=True)

            def short_run():
                return subprocess.run(SHORT_RUN, cwd=tmp, capture_output=True,
                                      text=True, timeout=180).returncode

            self.assertEqual(short_run(), 0)
            [record] = (Path(tmp) / "perfbench" / "runs").glob("*/*.json")
            rec = json.loads(record.read_text())
            rec["digest"] = "0" * 64
            record.write_text(json.dumps(rec))
            self.assertEqual(short_run(), 1)
            with open(Path(tmp) / "src" / "wemp" / "stepping.py", "a") as f:
                f.write("# an edit that gives the solver another code key\n")
            self.assertEqual(short_run(), 0)

    def test_every_listed_metric_has_a_report_source(self):
        spec = run.benchmark_spec()
        names = {n for n, _ in run.REPORT_METRICS}
        for m in spec["end_to_end"]:
            self.assertIn(m["name"], names)
        self.assertEqual(spec["command"][1], "perfbench/run.py")
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
