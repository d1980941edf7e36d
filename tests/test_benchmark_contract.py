"""The names perfbench binds in wemp still resolve, and every public name
of wemp has a caller.

perfbench/spans.py rebinds wemp functions by name and perfbench/workloads.py
calls into wemp by attribute, so a renamed or deleted function breaks the
benchmark only when it runs. This checks the names here instead. The other
way round, a public function or class that nothing in the program, the
demos or the benchmark reads is dead code, however many tests call it.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path

import pytest

from wemp import experiments, fem, msfem, parareal, soe, solvers
from wemp import mesh as wmesh

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"

# public names that only tests read, each with the reason it stays
TEST_ONLY = {
    "hybrid_fixed_point": "the fixed point that criterion 6 checks "
                          "wemp_solve against",
}


def load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(monkeypatch):
    for layer, names in load_spans(monkeypatch).TARGETS:
        home = importlib.import_module(f"wemp.{layer}")
        for name in names:
            assert callable(getattr(home, name, None)), f"wemp.{layer}.{name}"


def test_workload_entry_points_exist():
    assert callable(msfem._vertex_columns)
    assert callable(msfem.coarse_neighborhood)
    assert callable(msfem.edge_wavelets)
    # perfbench/workloads.py passes workers= to both; each ignores it
    assert "workers" in inspect.signature(parareal.wemp_solve).parameters
    assert "workers" in inspect.signature(msfem.assemble_space).parameters


def test_workload_positional_calls_bind():
    # perfbench/workloads.py marches() calls the three sequential solvers
    # with exactly these positional arguments
    for solver, args in ((solvers.reference_l1_solve, ("spec", "mesh", "ops")),
                         (solvers.fine_soe_solve,
                          ("spec", "mesh", "ops", "soe")),
                         (solvers.multiscale_soe_solve,
                          ("spec", "space", "soe"))):
        inspect.signature(solver).bind(*args)


def test_workload_keywords_and_attributes():
    # perfbench/workloads.py builds its problem with exactly these keywords
    spec = solvers.ProblemSpec(alpha=0.5, T=1.0, tau_f=1e-3, tau_c=0.1,
                               u0=experiments.u0_standard,
                               f=experiments.source_smooth, kappa=None,
                               level=2, epsilon=1e-2)
    assert (spec.n_coarse, spec.n_fine_total) == (10, 1000)
    # and reads these fields of the parareal states and trajectories
    fields = {f.name for f in dataclasses.fields(parareal.PararealState)}
    assert {"solutions", "err"} <= fields
    fields = {f.name for f in dataclasses.fields(solvers.Trajectory)}
    assert {"times", "states"} <= fields


def test_context_attributes(space44):
    # perfbench/workloads.py check() reads ctx.u0 and ctx.fresh_history()
    # and passes them to fine_propagate; perfbench/selftest.py reads
    # ctx.n_slabs and ctx.m_sub
    spec = solvers.ProblemSpec(alpha=0.5, T=0.5, tau_f=1.0 / 32, tau_c=0.125,
                               u0=experiments.u0_standard, f=None,
                               kappa=space44.kappa, level=1, epsilon=1e-2)
    ctx = parareal.build_context(spec, space44,
                                 soe.build_soe(0.5, spec.tau_f, 1e-2))
    assert (ctx.n_slabs, ctx.m_sub) == (4, 4)
    history = ctx.fresh_history()
    assert ctx.u0.shape == (space44.n_columns,)
    assert history.shape == (ctx.soe.n_terms, space44.n_columns)
    v, psi = parareal.fine_propagate(ctx, 0, ctx.u0.copy(), history)
    assert v.shape == ctx.u0.shape and psi.shape == history.shape


@pytest.mark.parametrize("tau_f", [1.0 / 32, 1.0 / 128])
def test_iteration_calls_jump_once_per_slab(space44, monkeypatch, tau_f):
    # perfbench/spans.py times the slab phase from the parareal.jump spans
    # under each wemp_iteration span, and its layer_metrics raises without
    # them: wemp_iteration must call the module attribute once per slab, on
    # the factorized path (32 steps) and on the modal one (128 steps)
    spec = solvers.ProblemSpec(alpha=0.5, T=1.0, tau_f=tau_f, tau_c=0.125,
                               u0=experiments.u0_standard,
                               f=experiments.source_smooth,
                               kappa=space44.kappa, level=1, epsilon=1e-2)
    ctx = parareal.build_context(spec, space44,
                                 soe.build_soe(0.5, spec.tau_f, 1e-2))
    assert ctx.modal == (tau_f == 1.0 / 128)
    slabs = []
    jump = parareal.jump

    def counting_jump(ctx, n, U, Phi):
        slabs.append(n)
        return jump(ctx, n, U, Phi)
    monkeypatch.setattr(parareal, "jump", counting_jump)
    parareal.wemp_iteration(ctx, parareal.initial_coarse_sweep(ctx))
    assert slabs == list(range(ctx.n_slabs))


def test_traced_pass_yields_every_per_layer_metric(monkeypatch):
    # perfbench/run.py marks a traced run incorrect when a per_layer metric
    # of BENCHMARK.json is missing; a tiny pass through the calls of the
    # workloads must yield each one that layer_metrics computes (run.py
    # adds the three column counts itself)
    spans = load_spans(monkeypatch)
    bench = json.loads((SPANS.parents[1] / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in bench["per_layer"]} - {
        "msfem.columns_built", "msfem.columns_kept", "msfem.kept_ratio"}
    tracer = spans.Tracer()
    with spans.installed(tracer):
        tracer.active = True
        mesh = wmesh.build_mesh(4, 4)
        kappa = fem.CoefficientField.constant(mesh)
        ops = fem.assemble_operators(mesh, kappa)
        space = msfem.assemble_space(
            mesh, kappa, msfem.build_partition_of_unity(mesh, kappa), 1)
        spec = solvers.ProblemSpec(alpha=0.5, T=0.5, tau_f=1.0 / 32,
                                   tau_c=0.125, u0=experiments.u0_standard,
                                   f=experiments.source_smooth, kappa=kappa,
                                   level=1, epsilon=1e-2)
        approx = soe.build_soe(spec.alpha, spec.tau_f, 1e-2)
        parareal.wemp_solve(parareal.build_context(spec, space, approx),
                            delta=0.0, k_max=1)
        solvers.reference_l1_solve(spec, mesh, ops)
        solvers.fine_soe_solve(spec, mesh, ops, approx)
        solvers.multiscale_soe_solve(spec, space, approx)
    missing = wanted - set(spans.layer_metrics(tracer.take(), 1))
    assert not missing, sorted(missing)


def names_read(path):
    """(name, owner) for every name and attribute read in a file, owner
    being the module-level def or class it is read in, or None."""
    for stmt in ast.parse(path.read_text()).body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                yield node.id, owner
            elif isinstance(node, ast.Attribute):
                yield node.attr, owner


def test_every_public_name_has_a_caller(monkeypatch):
    # an import alone is no caller, and a def reading its own name is none
    modules = sorted((ROOT / "src" / "wemp").glob("*.py"))
    readers = defaultdict(set)
    for path in modules + sorted((ROOT / "demos").glob("*.py")) \
            + sorted((ROOT / "perfbench").glob("*.py")):
        for name, owner in names_read(path):
            readers[name].add((path, owner))
    for _, names in load_spans(monkeypatch).TARGETS:
        for name in names:
            readers[name].add((SPANS, None))
    dead = [f"{path.stem}.{stmt.name}"
            for path in modules for stmt in ast.parse(path.read_text()).body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_")
            and stmt.name not in TEST_ONLY
            and not readers[stmt.name] - {(path, stmt.name)}]
    assert not dead, dead
