"""The names perfbench binds in wemp still resolve.

perfbench/spans.py rebinds wemp functions by name and perfbench/workloads.py
calls into wemp by attribute, so a renamed or deleted function breaks the
benchmark only when it runs. This checks the names here instead.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from wemp import msfem, parareal

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
