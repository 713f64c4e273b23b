"""The names the benchmark's traced run wraps exist in the package.

perfbench/child.py raises at run time if a traced function or a verify suite
is gone; this catches the same break without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from anomaly_flow import exterior, flow, grid, verify

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def _child():
    """perfbench/child.py as a module: its definitions only, no tracer installed."""
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve_and_suites_match():
    child = _child()
    for name in child.TRACED_NAMES:
        mod, _, attr = name.partition(".")
        obj = importlib.import_module(f"anomaly_flow.{mod}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), f"{name} is not a function of anomaly_flow"
    assert [f.__name__ for f in verify.ALL_SUITES] == list(child.SUITES)


# perfbench/selftest.py plants faults by replacing module attributes; each check below
# fails if a refactor stops calling through the attribute that the fault replaces


def _c2_curvature():
    g = grid.PeriodicGrid(2, 8)
    return g, grid.chern_curvature(g, flow.make_balanced_omega0(g, 1.0, seed=5, amplitude=0.05))


def test_tr_r_wedge_r_reads_dealias_through_the_module(monkeypatch):
    g, r = _c2_curvature()
    ref = grid.tr_r_wedge_r(g, r)
    monkeypatch.setattr(grid, "dealias", lambda g, f: f)
    assert np.abs(grid.tr_r_wedge_r(g, r) - ref).max() > 1e-6 * np.abs(ref).max()


def test_tr_r_wedge_r_reads_the_wedge_table_through_the_module(monkeypatch):
    g, r = _c2_curvature()
    ref = grid.tr_r_wedge_r(g, r)
    table = exterior.wedge22_table()
    monkeypatch.setattr(exterior, "wedge22_table", lambda: table.transpose(1, 0, 2, 3, 4, 5))
    assert np.abs(grid.tr_r_wedge_r(g, r) - ref).max() > 1e-6 * np.abs(ref).max()


def test_fu_yau_step_calls_the_module_hessian_four_times(monkeypatch):
    # the gate's Hessian serves the first stage; the other three stages take their own
    g = grid.PeriodicGrid(2, 8)
    real, calls = flow._complex_hessian, []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(flow, "_complex_hessian", counted)
    u0 = 1e-2 * np.cos(g.coords()[0]) * np.ones(g.shape)
    prob = flow.FuYauProblem(g, 0.05, np.zeros(g.shape), 0.3 * np.ones(g.shape))
    hist = flow.fu_yau_run(prob, 3 * 1e-3, flow.DtControl(dt_fixed=1e-3), u0=u0)
    assert len(hist.steps) == 3 and hist.halt is None
    assert len(calls) == 4 * 3
